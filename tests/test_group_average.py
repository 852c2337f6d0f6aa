"""group_average and the KRR trial path against the expressions they replaced.

Each ``_reference_*`` function below is the loop or expression its caller
used before the sums were folded into ``group_average`` and before the
kernel trial path shared its base Gram, built Gaussian Grams in place,
called LAPACK without scipy's wrappers and normalised sphere draws inline;
the new code must return the same bits, not merely close values.  The one
exception is the layer bound on a non-permutation output rep, whose weight
now scales after the output-rep product instead of before it.  The KRR
trial's paired estimate of |f_perp|^2 replaced a full-orbit one, so its
reference is written from its definition instead, and a closed orbit ties
the two estimates together exactly.
"""

import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from symlab import kernel_gap
from symlab.averaging import apply_Q, group_average, haar_sample, tta_average
from symlab.groups import build_group, build_representation
from symlab.kernel_gap import (
    SWITCH_REFUTE_TOL,
    SWITCH_VERIFY_TOL,
    KrrGapConfig,
    _pair_values,
    _perp_sq,
    build_averaged_kernel,
    check_switch_condition,
    fit_krr,
    gaussian_kernel,
    linear_kernel,
)
from symlab.sampling import sphere
from symlab.layers import ACTIVATIONS, check_regularisation_bound
from symlab.orbits import averaged_loss, default_invariant_target


def _rep(group, kind="natural_permutation"):
    return build_representation(build_group(group), kind)


def _reference_gram_bar(kernel, A, B):
    group = kernel.action.group
    mats = kernel.action.matrices
    out = None
    for g in group.elements():
        term = group.weights[g] * kernel.gram(A, B @ mats[g].T)
        out = term if out is None else out + term
    return out


def _reference_switch(kernel, n_pairs, seed):
    rng = np.random.default_rng(seed)
    group = kernel.action.group
    mats = kernel.action.matrices
    X, Y = rng.standard_normal((2, n_pairs, kernel.dim))
    lhs = np.zeros(n_pairs)
    rhs = np.zeros(n_pairs)
    for g in group.elements():
        w = group.weights[g]
        lhs += w * _pair_values(kernel.gram, X @ mats[g].T, Y)
        rhs += w * _pair_values(kernel.gram, X, Y @ mats[g].T)
    violation = float(np.max(np.abs(lhs - rhs)))
    if violation <= SWITCH_VERIFY_TOL:
        return "verified", violation
    if violation > SWITCH_REFUTE_TOL:
        return "refuted", violation
    return "unchecked", violation


def _reference_symmetric_part(base, rep_in, rep_out, X, mode, n_samples, seed):
    group = rep_in.group
    phi = rep_in.matrices
    psi_inv = rep_out.matrices[group.inverse]
    if mode == "exact_sum":
        elements = np.arange(group.order)
        weights = group.weights
    else:
        rng = np.random.default_rng(seed)
        elements = rng.choice(group.order, size=n_samples, p=group.weights)
        weights = np.full(len(elements), 1.0 / len(elements))
    acc = None
    for g, w in zip(elements, weights):
        vals = np.asarray(base(X @ phi[g].T), dtype=np.float64)
        flat = vals.ndim == 1
        if flat:
            vals = vals[:, None]
        term = w * (vals @ psi_inv[g].T)
        acc = term if acc is None else acc + term
    if flat and rep_out.dim == 1:
        return acc[:, 0]
    return acc


def _reference_tta(pred, rep_in, n, seed, mode, X):
    group = rep_in.group
    if mode == "exact":
        elements = np.arange(group.order)
        weights = group.weights
    else:
        rng = np.random.default_rng(seed)
        elements = rng.choice(group.order, size=n, p=group.weights)
        weights = np.full(n, 1.0 / n)
    phi = rep_in.matrices
    acc = None
    for g, w in zip(elements, weights):
        term = w * np.asarray(pred(X @ phi[g].T), dtype=np.float64)
        acc = term if acc is None else acc + term
    return acc


def _reference_layer_lhs(W, psi_in, psi_out, activation, samples, seed):
    act = ACTIVATIONS[activation]
    group = psi_in.group
    X = np.random.default_rng(seed).standard_normal((samples, psi_in.dim))
    out_inv = psi_out.matrices[group.inverse]
    f = act(X @ W.T)
    qf = np.zeros_like(f)
    for g in group.elements():
        qf += group.weights[g] * act(X @ psi_in.matrices[g].T @ W.T) @ out_inv[g].T
    return float(((f - qf) ** 2).sum(axis=1).mean())


@pytest.mark.parametrize("group,kind,activation,exact", [
    ("symmetric 3", "natural_permutation", "relu", True),
    ("dihedral 5", "natural_permutation", "relu", True),
    ("cyclic 4", "rotation_block 1", "identity", True),
    # rotation output rep and weight 1/3: equal up to rounding
    ("cyclic 3", "rotation_block 1", "identity", False),
])
def test_layer_bound_matches_the_reference_loop(group, kind, activation, exact):
    rep = _rep(group, kind)
    W = np.random.default_rng(1).standard_normal((rep.dim, rep.dim))
    lhs = check_regularisation_bound(W, rep, rep, activation=activation, samples=2000, seed=2)["lhs_mean"]
    expected = _reference_layer_lhs(W, rep, rep, activation, 2000, 2)
    if exact:
        assert lhs == expected
    else:
        assert lhs == pytest.approx(expected, rel=64 * np.finfo(np.float64).eps)


@pytest.mark.parametrize("kernel", [
    lambda: linear_kernel(_rep("cyclic 8")),
    lambda: gaussian_kernel(_rep("symmetric 4"), bandwidth=2.0),
], ids=["C8-linear", "S4-gaussian"])
def test_gram_bar_is_bitwise_the_reference_loop(kernel):
    spec = kernel()
    ak = build_averaged_kernel(spec)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((64, spec.dim))
    B = rng.standard_normal((256, spec.dim))
    assert np.array_equal(ak.gram_bar(A, B), _reference_gram_bar(spec, A, B))


@pytest.mark.parametrize("kernel", [
    lambda: linear_kernel(_rep("cyclic 4", "rotation_block 1")),
    lambda: gaussian_kernel(_rep("symmetric 4"), bandwidth=2.0),
    lambda: gaussian_kernel(_rep("so2_quadrature 12", "rotation_block 1"), bandwidth=0.7),
], ids=["C4-linear", "S4-gaussian", "SO2-gaussian"])
def test_switch_condition_is_bitwise_the_reference_loop(kernel):
    spec = kernel()
    assert check_switch_condition(spec, n_pairs=50, seed=4) == _reference_switch(spec, 50, 4)


@pytest.mark.parametrize("mode", ["exact_sum", "monte_carlo"])
@pytest.mark.parametrize("flat", [False, True])
def test_apply_q_is_bitwise_the_reference_loop(mode, flat):
    rep = _rep("symmetric 3")
    rep_out = build_representation(rep.group, "trivial 1") if flat else rep
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 3))
    base = (lambda X: np.tanh(X @ A[0])) if flat else (lambda X: np.tanh(X @ A.T))
    X = rng.standard_normal((40, 3))
    dec = apply_Q(base, rep, rep_out, mode=mode, n_samples=37, seed=9)
    expected = _reference_symmetric_part(base, rep, rep_out, X, mode, 37, 9)
    assert np.array_equal(dec.symmetric_part(X), expected)
    assert np.array_equal(dec.antisym_part(X), base(X) - expected)


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_tta_average_is_bitwise_the_reference_loop(mode):
    rep = _rep("cyclic 3", "rotation_block 1")
    pred = lambda X: np.sin(X[:, 0]) + X[:, 1] ** 3
    X = np.random.default_rng(7).standard_normal((30, 2))
    out = tta_average(pred, rep, n=23, seed=3, mode=mode)
    assert np.array_equal(out(X), _reference_tta(pred, rep, 23, 3, mode, X))


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
@pytest.mark.parametrize("group", ["symmetric 3", "dihedral 5"])
def test_tta_average_of_an_m_by_k_predictor_is_bitwise_the_reference_loop(group, mode):
    # Q with a trivial k-dim output rep: each term passes through psi(g^-1) = I_k
    rep = _rep(group)
    B = np.random.default_rng(8).standard_normal((rep.dim, 3))
    pred = lambda X: np.tanh(X @ B) - 0.5
    X = np.random.default_rng(9).standard_normal((30, rep.dim))
    out = tta_average(pred, rep, n=23, seed=3, mode=mode)
    expected = _reference_tta(pred, rep, 23, 3, mode, X)
    assert out(X).shape == (30, 3)
    assert np.array_equal(out(X), expected)
    assert np.array_equal(np.signbit(out(X)), np.signbit(expected))
    assert np.array_equal(out(X[0]), _reference_tta(pred, rep, 23, 3, mode, X[:1])[0])


def test_orbit_sums_are_bitwise_the_reference_sums():
    rep = _rep("dihedral 5")
    group, mats = rep.group, rep.matrices
    X = np.random.default_rng(8).standard_normal((20, rep.dim))
    c = np.arange(1, rep.dim + 1, dtype=np.float64) / rep.dim
    expected = sum(group.weights[g] * np.tanh(X @ (mats[g].T @ c)) for g in group.elements())
    assert np.array_equal(default_invariant_target(rep)(X), expected)

    loss = lambda y, yp: float(np.sum((y - yp) ** 2) + y[0] ** 2)
    nu = np.random.default_rng(9).dirichlet(np.ones(group.order))
    y, yp = X[0], X[1]
    for weights, lbar in ((group.weights, averaged_loss(loss, rep)), (nu, averaged_loss(loss, rep, nu))):
        ref = float(sum(weights[g] * loss(mats[g] @ y, mats[g] @ yp) for g in group.elements()))
        assert lbar(y, yp) == ref


def test_sampled_draw_is_the_default_rng_choice_stream():
    group = build_group("dihedral 4")
    elements, weights = haar_sample(group, 50, seed=12)
    expected = np.random.default_rng(12).choice(group.order, size=50, p=group.weights)
    assert np.array_equal(elements, expected)
    assert np.array_equal(weights, np.full(50, 1.0 / 50))
    everything, haar = haar_sample(group)
    assert np.array_equal(everything, np.arange(group.order))
    assert haar is group.weights


def test_group_average_order_and_default_weights():
    group = build_group("cyclic 5")
    terms = np.random.default_rng(13).standard_normal((5, 4))
    fn = lambda g: terms[g]
    expected = group.weights[0] * terms[0]
    for g in range(1, 5):
        expected = expected + group.weights[g] * terms[g]
    assert np.array_equal(group_average(fn, group), expected)
    # explicit elements without weights take those elements' Haar weights
    assert np.array_equal(
        group_average(fn, group, elements=[3, 1]),
        group.weights[3] * terms[3] + group.weights[1] * terms[1],
    )
    # a single element returns its weighted term as is
    assert np.array_equal(group_average(fn, group, [2], [1.0]), terms[2])


def test_sampled_averaging_still_rejects_fewer_than_one_element():
    rep = _rep("symmetric 3")
    with pytest.raises(ValueError, match="n >= 1"):
        apply_Q(np.tanh, rep, rep, mode="monte_carlo", n_samples=0)
    with pytest.raises(ValueError, match="n >= 1"):
        tta_average(lambda X: X[:, 0], rep, n=0, seed=0)
    with pytest.raises(ValueError, match="n >= 1"):
        haar_sample(rep.group, -3)


# ------------------------------------------------------ KRR trial path


def _reference_gaussian_gram(A, B, bandwidth):
    sq = (
        (A ** 2).sum(axis=1)[:, None]
        + (B ** 2).sum(axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth ** 2))


def _reference_fit_alpha(kernel, X, Y, rho):
    n = X.shape[0]
    K = kernel.gram(X, X)
    base = K + rho * np.eye(n)
    jitter = 1e-12 * float(np.trace(K)) / n
    for attempt in range(4):
        try:
            return cho_solve(cho_factor(base + attempt * jitter * np.eye(n), lower=True), Y)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("reference factorization failed")


def _reference_sphere_sample(mu, n, rng):
    z = rng.standard_normal((n, mu.dim))
    return mu.scale * z / np.linalg.norm(z, axis=1, keepdims=True)


def _reference_perp_sq(config, X, y, rng):
    # the definition: half the mean over fresh points t of (f(t) - f(g t))^2, one Haar g per t
    model = fit_krr(config.kernel, X, y, config.rho)
    X_test = _reference_sphere_sample(config.mu, config.n_test, rng)
    group, mats = config.kernel.action.group, config.kernel.action.matrices
    draws = rng.choice(group.order, size=config.n_test, p=group.weights)
    moved = np.stack([mats[g] @ t for g, t in zip(draws, X_test)])
    diff = model.predict(X_test) - model.predict(moved)
    return float(0.5 * (diff ** 2).mean())


def _gap_config(d, ktype, n=16, rho=0.1):
    rep = _rep(f"cyclic {d}")
    kernel = (
        linear_kernel(rep, Mk=float(d)) if ktype == "linear"
        else gaussian_kernel(rep, bandwidth=math.sqrt(d))
    )
    theta = np.ones(d) / math.sqrt(d)
    return KrrGapConfig(
        kernel=kernel, f_star=lambda X: X @ theta, mu=sphere(d),
        n=n, sigma=1.0, rho=rho, trials=1, seed=3, n_test=256,
    )


@pytest.mark.parametrize("shape_a,shape_b,same", [
    ((64, 8), (256, 8), False),
    ((30, 4), (30, 4), True),
    ((1, 8), (256, 8), False),
    ((64, 8), (1, 8), False),
    ((1, 3), (1, 3), True),
])
def test_gaussian_gram_is_bitwise_the_one_line_expression(shape_a, shape_b, same):
    d = shape_a[1]
    bandwidth = math.sqrt(d)
    gram = gaussian_kernel(_rep(f"cyclic {d}"), bandwidth=bandwidth).gram
    rng = np.random.default_rng(21)
    A = rng.standard_normal(shape_a)
    B = A if same else rng.standard_normal(shape_b)
    assert np.array_equal(gram(A, B), _reference_gaussian_gram(A, B, bandwidth))


@pytest.mark.parametrize("ktype", ["linear", "gaussian"])
def test_pair_values_is_bitwise_the_one_shot_diagonal(ktype):
    rep = _rep("cyclic 8")
    spec = linear_kernel(rep) if ktype == "linear" else gaussian_kernel(rep, bandwidth=math.sqrt(8))
    rng = np.random.default_rng(22)
    # 1000 rows: fifteen full 64-row blocks and a ragged one
    X, Y = rng.standard_normal((2, 1000, 8))
    assert np.array_equal(_pair_values(spec.gram, X, Y), np.diagonal(spec.gram(X, Y)))
    assert np.array_equal(_pair_values(spec.gram, X, X), np.diagonal(spec.gram(X, X)))
    gram_perp = build_averaged_kernel(spec).gram_perp
    assert np.array_equal(_pair_values(gram_perp, X, Y), np.diagonal(gram_perp(X, Y)))


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("ktype", ["linear", "gaussian"])
def test_paired_trial_is_bitwise_the_definition(d, ktype):
    # every (n, rho) of the quick suite's gap-kernel grid
    for n, rho in ((16, 0.1), (16, 1.0), (64, 0.1), (64, 1.0)):
        config = _gap_config(d, ktype, n=n, rho=rho)
        rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        for _ in range(3):
            X = config.mu.sample(config.n, rng)
            y = config.f_star(X) + rng.standard_normal(config.n)
            X_ref = _reference_sphere_sample(config.mu, config.n, ref_rng)
            y_ref = config.f_star(X_ref) + ref_rng.standard_normal(config.n)
            assert np.array_equal(X, X_ref)
            assert np.array_equal(fit_krr(config.kernel, X, y, config.rho).alpha,
                                  _reference_fit_alpha(config.kernel, X_ref, y_ref, config.rho))
            assert _perp_sq(config, X, y, rng) == _reference_perp_sq(config, X_ref, y_ref, ref_rng)
    averaged = build_averaged_kernel(config.kernel)
    A, B = rng.standard_normal((2, 40, d))
    expected = config.kernel.gram(A, B) - _reference_gram_bar(config.kernel, A, B)
    assert np.array_equal(averaged.gram_perp(A, B), expected)


@pytest.mark.parametrize("group,rep", [
    ("cyclic 4", "natural_permutation"),
    ("cyclic 8", "natural_permutation"),
    ("dihedral 4", "natural_permutation"),
    ("cyclic 6", "rotation_block 1"),
])
@pytest.mark.parametrize("ktype", ["linear", "gaussian"])
def test_paired_mean_over_a_closed_orbit_is_the_averaged_predictors_distance(group, rep, ktype):
    # on T = {h t_i : h in G}, G-invariant as a multiset, 1/2 mean_T sum_g w_g (f(t) - f(g t))^2
    # is mean_T (f - Qf)^2 exactly: the paired estimator's mean is the full-orbit one's
    action = _rep(group, rep)
    d, mats, weights = action.dim, action.matrices, action.group.weights
    kernel = linear_kernel(action) if ktype == "linear" else gaussian_kernel(action, bandwidth=math.sqrt(d))
    rng = np.random.default_rng(25)
    X = rng.standard_normal((24, d))
    model = fit_krr(kernel, X, X[:, 0] + rng.standard_normal(24), 0.1)
    P = rng.standard_normal((5, d))
    T = np.concatenate([P @ m.T for m in mats])
    f = model.predict(T)
    paired = 0.5 * sum(w * ((f - model.predict(T @ m.T)) ** 2).mean() for w, m in zip(weights, mats))
    full = ((f - model.predict_averaged(T, build_averaged_kernel(kernel))) ** 2).mean()
    assert full > 1e-3
    assert abs(paired - full) <= 1e-12


@pytest.mark.parametrize("ktype", ["linear", "gaussian"])
def test_fit_krr_retry_is_bitwise_scipy_on_the_jittered_matrix(monkeypatch, ktype):
    config = _gap_config(8, ktype, n=64, rho=0.1)
    rng = np.random.default_rng(24)
    X = config.mu.sample(config.n, rng)
    y = config.f_star(X) + rng.standard_normal(config.n)
    calls = []
    factor = kernel_gap.cho_factor

    def first_call_fails(a):
        calls.append(a.copy())
        if len(calls) == 1:
            raise np.linalg.LinAlgError("planted failure")
        return factor(a)

    monkeypatch.setattr(kernel_gap, "cho_factor", first_call_fails)
    alpha = fit_krr(config.kernel, X, y, config.rho).alpha
    assert len(calls) == 2
    n = config.n
    K = config.kernel.gram(X, X)
    base = K + config.rho * np.eye(n)
    jitter = 1e-12 * float(np.trace(K)) / n
    assert np.array_equal(calls[0], base)
    assert np.array_equal(calls[1], base + jitter * np.eye(n))
    assert np.array_equal(alpha, cho_solve(cho_factor(base + jitter * np.eye(n), lower=True), y))


def test_near_identity_explicit_rep_is_stored_with_exact_identity():
    base = _rep("cyclic 4", "rotation_block 1")
    mats = base.matrices.copy()
    # within the homomorphism tolerance, but not bit for bit the identity
    mats[base.group.identity, 0, 0] = np.nextafter(1.0, 0.0)
    given = mats.copy()
    rep = build_representation(base.group, "explicit", matrices=mats)
    assert np.array_equal(rep.matrices[rep.group.identity], np.eye(2))
    assert np.array_equal(mats, given)  # the caller's array is left as it was
    assert not rep.matrices.flags.writeable
    # so the averaged Gram shares the identity's term and is still the full sum
    spec = gaussian_kernel(rep, bandwidth=0.9)
    averaged = build_averaged_kernel(spec)
    A, B = np.random.default_rng(24).standard_normal((2, 64, 2))
    K, Kbar = averaged._gram_and_bar(A, B)
    assert np.array_equal(K, spec.gram(A, B))
    assert np.array_equal(Kbar, _reference_gram_bar(spec, A, B))
    assert np.array_equal(averaged.gram_bar(A, B), Kbar)


def test_identity_term_is_not_mutated_by_the_sum():
    group = build_group("cyclic 4")
    rng = np.random.default_rng(25)
    terms = rng.standard_normal((4, 5, 6))
    before = terms.copy()
    group_average(lambda g: terms[g], group)
    assert np.array_equal(terms, before)
    # the single-term sum is fresh too, not the caller's array
    single = group_average(lambda g: terms[g], group, [0], [1.0])
    single += 1.0
    assert np.array_equal(terms, before)

    spec = gaussian_kernel(_rep("cyclic 8"), bandwidth=math.sqrt(8))
    A, B = rng.standard_normal((2, 16, 8))
    K, _ = build_averaged_kernel(spec)._gram_and_bar(A, B)
    assert np.array_equal(K, spec.gram(A, B))
