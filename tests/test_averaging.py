import itertools
import tracemalloc

import numpy as np
import pytest

from symlab import averaging, sampling
from symlab.averaging import (
    apply_Q,
    build_phi,
    build_psi,
    empirical_rademacher,
    haar_sample,
    tta_average,
    verify_operator_identities,
)
from symlab.groups import build_group, build_representation, character_inner


def _s3_natural():
    g = build_group("symmetric 3")
    return build_representation(g, "natural_permutation")


def test_phi_permutation_average():
    rep = _s3_natural()
    phi = build_phi(rep)
    assert np.allclose(phi.matrix, np.full((3, 3), 1.0 / 3.0), atol=1e-12)
    assert phi.dim_invariant == pytest.approx(1.0, abs=1e-12)


def test_phi_reflection():
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(3), np.diag([-1.0, 1.0, 1.0])])
    rep = build_representation(g, "explicit", matrices=mats)
    phi = build_phi(rep)
    assert np.allclose(phi.matrix, np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_phi_trivial():
    g = build_group("symmetric 3")
    rep = build_representation(g, "trivial 4")
    assert np.allclose(build_phi(rep).matrix, np.eye(4))


def test_phi_invariance_under_action():
    rep = build_representation(build_group("dihedral 4"), "natural_permutation")
    phi = build_phi(rep)
    for g in rep.group.elements():
        assert np.allclose(phi.matrix @ rep.matrices[g], phi.matrix, atol=1e-12)


def test_psi_trace_is_character_inner():
    rep = _s3_natural()
    op = build_psi(rep, rep)
    assert op.trace == pytest.approx(2.0, abs=1e-10)
    assert op.trace == pytest.approx(character_inner(rep, rep), abs=1e-8)


def test_psi_matches_brute_force_group_sum():
    rep = _s3_natural()
    op = build_psi(rep, rep)
    rng = np.random.default_rng(0)
    W = rng.standard_normal((3, 3))
    expected = np.zeros((3, 3))
    for g in rep.group.elements():
        expected += rep.matrices[g] @ W @ rep.matrices[rep.group.inverse[g]]
    assert np.allclose(op.apply(W), expected / rep.group.order, atol=1e-12)


@pytest.mark.parametrize("descriptor", ["dihedral 6 * cyclic 5", "cyclic 12"])
def test_psi_tensor_is_c_contiguous(descriptor):
    rep = build_representation(build_group(descriptor), "natural_permutation")
    op = build_psi(rep, rep)
    assert op.tensor.flags.c_contiguous


def test_psi_s3_output_structure():
    # averaging over S_3 with natural reps lands in span{I, ones}
    rep = _s3_natural()
    op = build_psi(rep, rep)
    rng = np.random.default_rng(1)
    for _ in range(5):
        W = rng.standard_normal((3, 3))
        W_bar = op.apply(W)
        a = W_bar[0, 0] - W_bar[0, 1]
        b = W_bar[0, 1]
        assert np.allclose(W_bar, a * np.eye(3) + b * np.ones((3, 3)), atol=1e-12)


def test_psi_trivial_group_is_identity_map():
    g = build_group("cyclic 1")
    rin = build_representation(g, "trivial 3")
    rout = build_representation(g, "trivial 2")
    op = build_psi(rin, rout)
    W = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(op.apply(W), W)


def test_build_phi_checks_the_generators_without_a_group_sized_product():
    rep = build_representation(build_group("cyclic 64"), "natural_permutation")
    tracemalloc.start()
    try:
        build_phi(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the stored matrices take 64^3 doubles, 2 MB; a product with all of them as much again
    assert peak < rep.matrices.nbytes
    # the trivial group has no generators, and both operators still build on it
    one = build_representation(build_group("cyclic 1"), "natural_permutation")
    assert np.array_equal(build_phi(one).matrix, np.eye(1))
    assert np.array_equal(build_psi(one, one).tensor, np.ones((1, 1, 1, 1)))


def test_psi_fixed_point():
    rep = _s3_natural()
    op = build_psi(rep, rep)
    W_eq = 1.7 * np.eye(3) + 0.3 * np.ones((3, 3))
    assert np.allclose(op.apply(W_eq), W_eq, atol=1e-10)
    assert np.allclose(W_eq - op.apply(W_eq), 0.0, atol=1e-10)


def test_psi_idempotent_on_random_matrices():
    reps = [
        _s3_natural(),
        build_representation(build_group("cyclic 4"), "rotation_block 1"),
        build_representation(build_group("dihedral 4"), "natural_permutation"),
    ]
    rng = np.random.default_rng(2)
    for rep in reps:
        op = build_psi(rep, rep)
        phi = build_phi(rep)
        for _ in range(100):
            W = rng.standard_normal((rep.dim, rep.dim))
            W_bar = op.apply(W)
            assert np.linalg.norm(op.apply(W_bar) - W_bar) <= 1e-9
        assert np.max(np.abs(phi.matrix @ phi.matrix - phi.matrix)) <= 1e-9


def test_psi_self_adjoint_for_orthogonal_reps():
    rep = build_representation(build_group("dihedral 4"), "natural_permutation")
    triv = build_representation(rep.group, "trivial 2")
    for op in (build_psi(rep, rep), build_psi(rep, triv)):
        d, k = op.rep_in.dim, op.rep_out.dim
        mat = op.tensor.reshape(d * k, d * k)
        assert np.max(np.abs(mat - mat.T)) <= 1e-9


def test_psi_with_trivial_output_reduces_to_phi():
    rep = _s3_natural()
    op = build_psi(rep, build_representation(rep.group, "trivial 1"))
    phi = build_phi(rep)
    rng = np.random.default_rng(3)
    w = rng.standard_normal((3, 1))
    assert np.allclose(op.apply(w), phi.matrix @ w, atol=1e-12)


def test_psi_storage_cap():
    g = build_group("cyclic 2")
    big = build_representation(g, "trivial 40")
    with pytest.raises(ValueError):
        build_psi(big, big)  # 40*40 = 1600 > 1000


def test_apply_q_linear_predictor_matches_tensor():
    rep = _s3_natural()
    op = build_psi(rep, rep)
    rng = np.random.default_rng(4)
    W = rng.standard_normal((3, 3))
    dec = apply_Q(lambda X: X @ W, rep, rep)
    X = rng.standard_normal((100, 3))
    # f_W(x) = W^T x averaged equals f_{Psi(W)}; batched rows use X @ W
    assert np.max(np.abs(dec.symmetric_part(X) - X @ op.apply(W))) <= 1e-9


def test_apply_q_invariant_predictor_unchanged():
    rep = _s3_natural()
    triv = build_representation(rep.group, "trivial 1")
    dec = apply_Q(lambda X: X.sum(axis=1, keepdims=True) ** 2, rep, triv)
    X = np.random.default_rng(5).standard_normal((50, 3))
    assert np.allclose(dec.symmetric_part(X), X.sum(axis=1, keepdims=True) ** 2, atol=1e-12)
    assert np.allclose(dec.antisym_part(X), 0.0, atol=1e-12)


def test_apply_q_odd_function_averages_to_zero():
    g = build_group("cyclic 2")
    rep = build_representation(g, "explicit", matrices=np.stack([np.eye(2), np.diag([-1.0, 1.0])]))
    triv = build_representation(g, "trivial 1")
    dec = apply_Q(lambda X: X[:, :1], rep, triv)
    X = np.random.default_rng(6).standard_normal((20, 2))
    assert np.allclose(dec.symmetric_part(X), 0.0, atol=1e-15)
    assert np.allclose(dec.antisym_part(X), X[:, :1], atol=1e-15)


def test_apply_q_pointwise_reconstruction():
    rep = _s3_natural()
    dec = apply_Q(lambda X: np.tanh(X), rep, rep)
    X = np.random.default_rng(7).standard_normal((30, 3))
    assert np.allclose(dec.symmetric_part(X) + dec.antisym_part(X), np.tanh(X), atol=1e-15)


def test_apply_q_q_of_qf_is_qf():
    rep = _s3_natural()
    dec = apply_Q(lambda X: np.tanh(X), rep, rep)
    dec2 = apply_Q(dec.symmetric_part, rep, rep)
    X = np.random.default_rng(8).standard_normal((20, 3))
    assert np.max(np.abs(dec2.symmetric_part(X) - dec.symmetric_part(X))) <= 1e-10


def test_apply_q_monte_carlo_mode_close_to_exact():
    rep = _s3_natural()
    exact = apply_Q(lambda X: np.tanh(X), rep, rep)
    mc = apply_Q(lambda X: np.tanh(X), rep, rep, haar_sample(rep.group, 20000, seed=11))
    X = np.random.default_rng(9).standard_normal((10, 3))
    assert np.max(np.abs(mc.symmetric_part(X) - exact.symmetric_part(X))) < 0.05
    # fixed draw: repeated evaluation is identical
    assert np.array_equal(mc.symmetric_part(X), mc.symmetric_part(X))


def test_apply_q_dimension_mismatch():
    rep = _s3_natural()
    with pytest.raises(ValueError):
        apply_Q(lambda X: X[:, :2], rep, rep)


def test_reps_on_separately_built_groups_are_one_group_for_psi_and_q():
    # character_inner and LayerSpec compare structures; Psi and Q take the same rule
    a = _s3_natural()
    b = _s3_natural()
    assert a.group is not b.group
    assert np.array_equal(build_psi(a, b).tensor, build_psi(a, a).tensor)
    assert build_psi(a, b).trace == pytest.approx(character_inner(b, a), abs=1e-10)
    X = np.random.default_rng(0).standard_normal((4, 3))
    square = lambda X: X ** 2  # noqa: E731
    assert np.array_equal(apply_Q(square, a, b).symmetric_part(X), apply_Q(square, a, a).symmetric_part(X))
    # same order, other composition
    c6 = build_representation(build_group("cyclic 6"), "natural_permutation")
    with pytest.raises(ValueError, match="different groups"):
        build_psi(a, c6)
    with pytest.raises(ValueError, match="different groups"):
        apply_Q(lambda X: np.zeros((len(X), 6)), a, c6)


def test_l2_orthogonality_of_parts():
    # <f_bar, f_perp>_mu = 0 within 3 SE for invariant mu
    rep = _s3_natural()
    rng = np.random.default_rng(10)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    dec = apply_Q(lambda X: np.tanh(X @ A.T) + 0.3 * X @ B.T, rep, rep)
    X = rng.standard_normal((20000, 3))
    inner = np.sum(dec.symmetric_part(X) * dec.antisym_part(X), axis=1)
    se = inner.std(ddof=1) / np.sqrt(len(inner))
    assert abs(inner.mean()) <= 3 * se


def test_feature_averaging_is_closest_invariant():
    # ||f - f_bar||^2 <= ||f - s||^2 for invariant competitors s
    rep = _s3_natural()
    triv = build_representation(rep.group, "trivial 1")
    rng = np.random.default_rng(12)
    A = rng.standard_normal((1, 3))
    f = lambda X: np.tanh(X @ A.T)
    dec = apply_Q(f, rep, triv)
    X = rng.standard_normal((20000, 3))
    d_bar = (f(X) - dec.symmetric_part(X)).ravel() ** 2
    for _ in range(5):
        c = rng.standard_normal(2)
        s = lambda X: c[0] + c[1] * X.sum(axis=1, keepdims=True)
        d_s = (f(X) - s(X)).ravel() ** 2
        diff = d_bar - d_s
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert diff.mean() <= 3 * se


def test_averaging_contracts_norm():
    rep = _s3_natural()
    rng = np.random.default_rng(13)
    A = rng.standard_normal((3, 3))
    dec = apply_Q(lambda X: np.tanh(X @ A.T), rep, rep)
    X = rng.standard_normal((20000, 3))
    diff = np.sum(dec.symmetric_part(X) ** 2, axis=1) - np.sum(np.tanh(X @ A.T) ** 2, axis=1)
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    assert diff.mean() <= 3 * se


def test_tta_invariant_predictor_fixed():
    rep = _s3_natural()
    f = lambda X: X.sum(axis=1)
    out = tta_average(f, rep, haar_sample(rep.group, 17, seed=0))
    X = np.random.default_rng(14).standard_normal((10, 3))
    assert np.allclose(out(X), f(X), atol=1e-12)


def test_tta_monte_carlo_concentrates():
    g = build_group("cyclic 2")
    rep = build_representation(g, "explicit", matrices=np.stack([np.eye(1), -np.eye(1)]))
    f = lambda X: X[:, 0]
    out = tta_average(f, rep, haar_sample(g, 10**5, seed=1))
    # average of +-1 over 1e5 draws, 3 sigma bound
    assert abs(out(np.array([[1.0]]))[0]) <= 0.02


def test_tta_exact_mode():
    rep = _s3_natural()
    f = lambda X: X[:, 0] ** 2
    out = tta_average(f, rep)
    X = np.random.default_rng(15).standard_normal((10, 3))
    assert np.allclose(out(X), (X ** 2).mean(axis=1), atol=1e-12)


def test_tta_rejects_zero_samples():
    rep = _s3_natural()
    with pytest.raises(ValueError):
        tta_average(lambda X: X[:, 0], rep, haar_sample(rep.group, 0, seed=0))


def test_rademacher_singleton():
    f = lambda X: np.ones(X.shape[0])
    assert empirical_rademacher([f], np.array([[0.0]])) == pytest.approx(1.0)


def test_rademacher_sign_symmetric_pair():
    pts = np.array([[0.3], [1.0], [-0.5]])
    f = lambda X: X[:, 0] ** 2 + 1.0
    g = lambda X: -(X[:, 0] ** 2 + 1.0)
    assert empirical_rademacher([f, g], pts) == pytest.approx(empirical_rademacher([f], pts))


def test_rademacher_matches_brute_force():
    rng = np.random.default_rng(16)
    pts = rng.standard_normal((6, 2))
    mats = [rng.standard_normal(2) for _ in range(4)]
    funcs = [(lambda X, a=a: X @ a) for a in mats]
    vals = np.stack([f(pts) for f in funcs])
    total = 0.0
    for signs in itertools.product([-1.0, 1.0], repeat=6):
        s = np.array(signs)
        total += max(abs(float(s @ vals[i])) for i in range(4))
    expected = total / 2**6 / 6
    assert empirical_rademacher(funcs, pts) == pytest.approx(expected, abs=1e-12)


def test_rademacher_sample_mode_close():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((8, 2))
    funcs = [(lambda X, a=a: X @ a) for a in [rng.standard_normal(2) for _ in range(3)]]
    exact = empirical_rademacher(funcs, pts)
    approx = empirical_rademacher(funcs, pts, m_samples=200000, seed=18)
    assert abs(exact - approx) < 0.01


def test_rademacher_rejects_bad_input():
    with pytest.raises(ValueError):
        empirical_rademacher([], np.array([[1.0]]))
    with pytest.raises(ValueError):
        empirical_rademacher([lambda X: X[:, 0]], np.zeros((0, 1)))
    with pytest.raises(ValueError):
        empirical_rademacher([lambda X: X[:, 0]], np.zeros((21, 1)))
    with pytest.raises(ValueError, match="m_samples >= 1"):
        empirical_rademacher([lambda X: X[:, 0]], np.ones((3, 1)), m_samples=0)


@pytest.mark.parametrize("descriptor", ["cyclic 1", "symmetric 7"])
def test_operator_identities_pass_on_the_smallest_and_largest_groups(descriptor):
    # cyclic 1 has no generators; on S7 the Q o Q check makes 3 * 5040 predictor
    # calls, where composing Q with itself took 5040^2
    group = build_group(descriptor)
    out = verify_operator_identities(build_representation(group, "natural_permutation"), n_samples=2000)
    assert out["verdict"] == "pass", out
    assert out["dev_q_idempotent"] <= 1e-9


def test_q_that_is_no_projection_fails_on_q_idempotence_alone(monkeypatch):
    # three Monte-Carlo draws that all land on the identity make Q the identity
    # map: f_perp is 0, so the orthogonality estimate passes, but Qf = f is not
    # equivariant, and only the Q o Q = Q check sees it
    rep = _s3_natural()
    draws = haar_sample(rep.group, 3, seed=34)
    assert np.all(draws == rep.group.identity)
    monkeypatch.setattr(averaging, "apply_Q", lambda pred, rep_in, rep_out: apply_Q(
        pred, rep_in, rep_out, draws))
    out = verify_operator_identities(rep, n_samples=2000, seed=4)
    assert out["verdict"] == "fail"
    assert out["dev_q_idempotent"] > 0.1
    others = [v for k, v in out.items() if k.startswith("dev_") and k != "dev_q_idempotent"]
    assert max(others) <= 1e-9
    assert abs(out["inner_mean"]) <= 3.0 * max(out["inner_se"], 1e-15)


@pytest.mark.parametrize("group,rep_in,rep_out", [
    ("cyclic 4", "rotation_block 1", None),
    ("symmetric 3", "natural_permutation", "natural_permutation"),
])
def test_operator_identities_average_every_point_once(monkeypatch, group, rep_in, rep_out):
    # the orthogonality split used to average all n_samples points twice, once
    # more for antisym_part; f - Qf gives the same bits from the one average
    group = build_group(group)
    rep_in = build_representation(group, rep_in)
    rep_out = build_representation(group, rep_out) if rep_out else None
    n = 5000
    averaged = []
    average = averaging.DecomposedPredictor._average

    def counted(self, X):
        averaged.append((self, X))
        return average(self, X)

    monkeypatch.setattr(averaging.DecomposedPredictor, "_average", counted)
    out = verify_operator_identities(rep_in, rep_out, n_samples=n, seed=3)
    # the 1000-point checks aside, the averaged rows are blocks of the sample, in order,
    # that cover each of its n points exactly once
    full = [(op, X) for op, X in averaged if len(X) != 1000]
    sample = full[0][1].base
    assert sample.shape[0] == n and all(X.base is sample for _, X in full)
    assert np.array_equal(np.concatenate([X for _, X in full]), sample)
    # the statistics as computed with the full antisym_part, bit for bit
    op = full[0][0]
    parts = [(op.symmetric_part(X), op.antisym_part(X), op.base(X)) for _, X in full]
    f_bar, f_perp, base = (np.concatenate(part).reshape(n, -1) for part in zip(*parts))
    inner = (f_bar * f_perp).sum(axis=1)
    assert out["inner_mean"] == float(inner.mean())
    assert out["inner_se"] == float(inner.std(ddof=1) / np.sqrt(n))
    assert out["dev_reconstruction"] == float(np.max(np.abs(base - f_bar - f_perp))) == 0.0
    assert out["verdict"] == "pass"


def test_operator_identities_read_the_same_at_any_block_budget(monkeypatch):
    # the sample's blocks are a memory unit: one row per block writes the same report
    rep = _s3_natural()
    report = verify_operator_identities(rep, rep, n_samples=3000, seed=5)
    monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 1)
    assert verify_operator_identities(rep, rep, n_samples=3000, seed=5) == report


@pytest.mark.parametrize("rep_out", [None, "natural_permutation"])
def test_operator_identities_peak_at_the_sample_and_a_few_blocks(rep_out):
    # a row of a block keeps 2 d + 8 k entries live: sized as d + 2 k, the blocks peaked
    # at 5.32 MiB on S4 natural to trivial; with 8192 rows whatever the width, S4 natural
    # to natural peaked at 5.39 MiB
    rep = build_representation(build_group("symmetric 4"), "natural_permutation")
    rep_out = rep if rep_out else None
    verify_operator_identities(rep, rep_out, n_samples=2)  # a first call's one-time costs
    tracemalloc.start()
    try:
        verify_operator_identities(rep, rep_out, n_samples=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.0 * 2 ** 20
