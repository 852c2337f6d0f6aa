"""group_average and the KRR trial path against reference loops.

A Haar average over a finite group is the mean over its ids: each
``_reference_*`` average below sums its terms in element order and divides
the sum by their count, and a sampled one draws its ids with
``integers(order)`` from ``default_rng((seed, HAAR))``, the seed's ``haar``
stream.  The other references are the expressions the kernel trial path
used before it shared its base Gram, built Gaussian Grams in place, stacked
its trials into chunks and normalised sphere draws inline.  The library must
return the same bits, not merely close values.  The KRR trial's paired estimate of |f_perp|^2 is
written from its definition, one trial and one fit at a time, and a closed
orbit ties it exactly to the full-orbit estimate.
"""

import math

import numpy as np
import pytest

from symlab import kernel_gap, sampling
from symlab.averaging import apply_Q, build_phi, build_psi, group_average, haar_sample, tta_average
from symlab.groups import build_group, build_representation, character, character_inner
from symlab.kernel_gap import (
    SWITCH_REFUTE_TOL,
    SWITCH_VERIFY_TOL,
    KrrGapConfig,
    _pair_values,
    _perp_sq_trials,
    build_averaged_kernel,
    check_switch_condition,
    fit_krr,
    gaussian_kernel,
    linear_kernel,
)
from symlab.sampling import sphere, stream
from symlab.layers import ACTIVATIONS, check_regularisation_bound, project_layer
from symlab.linear_gap import (
    LinearGapConfig,
    closed_form_gap_equivariant,
    invariant_config,
    random_equivariant_target,
)
from symlab.orbits import averaged_loss, default_invariant_target


def _rep(group, kind="natural_permutation"):
    return build_representation(build_group(group), kind)


def _reference_gram_bar(kernel, A, B):
    group = kernel.action.group
    mats = kernel.action.matrices
    out = None
    for g in group.elements():
        term = kernel.gram(A, B @ mats[g].T)
        out = term if out is None else out + term
    return out / group.order


def _reference_switch(kernel, n_pairs, seed):
    rng = np.random.default_rng(seed)
    group = kernel.action.group
    mats = kernel.action.matrices
    X, Y = rng.standard_normal((2, n_pairs, kernel.dim))
    lhs = np.zeros(n_pairs)
    rhs = np.zeros(n_pairs)
    for g in group.elements():
        lhs += _pair_values(kernel.gram, X @ mats[g].T, Y)
        rhs += _pair_values(kernel.gram, X, Y @ mats[g].T)
    violation = float(np.max(np.abs(lhs / group.order - rhs / group.order)))
    if violation <= SWITCH_VERIFY_TOL:
        return "verified", violation
    if violation > SWITCH_REFUTE_TOL:
        return "refuted", violation
    return "unchecked", violation


HAAR = sampling.STREAMS["haar"]


def _draw(group, mode, n, seed):
    # the ids a test's mode stands for: the whole group, or a seeded Haar draw
    return None if mode in ("exact_sum", "exact") else haar_sample(group, n, seed)


def _reference_symmetric_part(base, rep_in, rep_out, X, mode, n_samples, seed):
    group = rep_in.group
    phi = rep_in.matrices
    psi_inv = rep_out.matrices[group.inverse]
    if mode == "exact_sum":
        elements = np.arange(group.order)
    else:
        elements = np.random.default_rng((seed, HAAR)).integers(group.order, size=n_samples)
    acc = None
    for g in elements:
        vals = np.asarray(base(X @ phi[g].T), dtype=np.float64)
        flat = vals.ndim == 1
        if flat:
            vals = vals[:, None]
        term = vals @ psi_inv[g].T
        acc = term if acc is None else acc + term
    acc = acc / len(elements)
    if flat and rep_out.dim == 1:
        return acc[:, 0]
    return acc


def _reference_tta(pred, rep_in, n, seed, mode, X):
    group = rep_in.group
    if mode == "exact":
        elements = np.arange(group.order)
    else:
        elements = np.random.default_rng((seed, HAAR)).integers(group.order, size=n)
    phi = rep_in.matrices
    acc = None
    for g in elements:
        term = np.asarray(pred(X @ phi[g].T), dtype=np.float64)
        acc = term if acc is None else acc + term
    return acc / len(elements)


def _reference_layer_lhs(W, psi_in, psi_out, activation, samples, seed):
    act = ACTIVATIONS[activation]
    group = psi_in.group
    X = np.random.default_rng(seed).standard_normal((samples, psi_in.dim))
    out_inv = psi_out.matrices[group.inverse]
    f = act(X @ W.T)
    qf = np.zeros_like(f)
    for g in group.elements():
        qf += act(X @ psi_in.matrices[g].T @ W.T) @ out_inv[g].T
    return float(((f - qf / group.order) ** 2).sum(axis=1).mean())


@pytest.mark.parametrize("group,kind,activation", [
    ("symmetric 3", "natural_permutation", "relu"),
    ("dihedral 5", "natural_permutation", "relu"),
    ("cyclic 4", "rotation_block 1", "identity"),
    ("cyclic 3", "rotation_block 1", "identity"),
])
def test_layer_bound_matches_the_reference_loop(group, kind, activation):
    rep = _rep(group, kind)
    W = np.random.default_rng(1).standard_normal((rep.dim, rep.dim))
    lhs = check_regularisation_bound(W, rep, rep, activation=activation, samples=2000, seed=2)["lhs_mean"]
    assert lhs == _reference_layer_lhs(W, rep, rep, activation, 2000, 2)


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
    dec = apply_Q(base, rep, rep_out, _draw(rep.group, mode, 37, 9))
    expected = _reference_symmetric_part(base, rep, rep_out, X, mode, 37, 9)
    assert np.array_equal(dec.symmetric_part(X), expected)
    assert np.array_equal(dec.antisym_part(X), base(X) - expected)


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_tta_average_is_bitwise_the_reference_loop(mode):
    rep = _rep("cyclic 3", "rotation_block 1")
    pred = lambda X: np.sin(X[:, 0]) + X[:, 1] ** 3
    X = np.random.default_rng(7).standard_normal((30, 2))
    out = tta_average(pred, rep, _draw(rep.group, mode, 23, 3))
    assert np.array_equal(out(X), _reference_tta(pred, rep, 23, 3, mode, X))


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
@pytest.mark.parametrize("group", ["symmetric 3", "dihedral 5"])
def test_tta_average_of_an_m_by_k_predictor_is_bitwise_the_reference_loop(group, mode):
    # Q with a trivial k-dim output rep: each term passes through psi(g^-1) = I_k
    rep = _rep(group)
    B = np.random.default_rng(8).standard_normal((rep.dim, 3))
    pred = lambda X: np.tanh(X @ B) - 0.5
    X = np.random.default_rng(9).standard_normal((30, rep.dim))
    out = tta_average(pred, rep, _draw(rep.group, mode, 23, 3))
    expected = _reference_tta(pred, rep, 23, 3, mode, X)
    assert out(X).shape == (30, 3)
    assert np.array_equal(out(X), expected)
    assert np.array_equal(np.signbit(out(X)), np.signbit(expected))


def test_orbit_sums_are_bitwise_the_reference_sums():
    rep = _rep("dihedral 5")
    group, mats = rep.group, rep.matrices
    X = np.random.default_rng(8).standard_normal((20, rep.dim))
    c = np.arange(1, rep.dim + 1, dtype=np.float64) / rep.dim
    expected = sum(np.tanh(X @ (mats[g].T @ c)) for g in group.elements()) / group.order
    assert np.array_equal(default_invariant_target(rep)(X), expected)

    loss = lambda y, yp: float(np.sum((y - yp) ** 2) + y[0] ** 2)
    y, yp = X[0], X[1]
    haar = sum(loss(mats[g] @ y, mats[g] @ yp) for g in group.elements()) / group.order
    assert averaged_loss(loss, rep)(y, yp) == haar
    # an explicit nu is not the Haar measure: its own weighted sum
    nu = np.random.default_rng(9).dirichlet(np.ones(group.order))
    ref = float(sum(nu[g] * loss(mats[g] @ y, mats[g] @ yp) for g in group.elements()))
    assert averaged_loss(loss, rep, nu)(y, yp) == ref


def test_sampled_draw_is_the_default_rng_integers_stream():
    group = build_group("dihedral 4")
    expected = np.random.default_rng((12, HAAR)).integers(group.order, size=50)
    assert np.array_equal(haar_sample(group, 50, seed=12), expected)


def test_group_average_is_the_mean_in_element_order():
    group = build_group("cyclic 5")
    terms = np.random.default_rng(13).standard_normal((5, 4))
    fn = lambda g: terms[g]
    expected = terms[0]
    for g in range(1, 5):
        expected = expected + terms[g]
    assert np.array_equal(group_average(fn, group.elements()), expected / 5)
    # any ids, repeats counted, in the order given
    assert np.array_equal(group_average(fn, [3, 1, 3]), (terms[3] + terms[1] + terms[3]) / 3)
    # a single element returns its term as is
    assert np.array_equal(group_average(fn, [2]), terms[2])
    # scalar terms average to a scalar
    assert group_average(lambda g: float(g), group.elements()) == 2.0


def test_sampled_averaging_still_rejects_fewer_than_one_element():
    rep = _rep("symmetric 3")
    with pytest.raises(ValueError, match="n >= 1"):
        apply_Q(np.tanh, rep, rep, haar_sample(rep.group, 0))
    with pytest.raises(ValueError, match="n >= 1"):
        tta_average(lambda X: X[:, 0], rep, haar_sample(rep.group, 0, seed=0))
    with pytest.raises(ValueError, match="n >= 1"):
        haar_sample(rep.group, -3)
    # ids handed over directly: none at all is refused too
    for empty in ([], np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="at least one group element"):
            apply_Q(np.tanh, rep, rep, empty)
        with pytest.raises(ValueError, match="at least one group element"):
            tta_average(lambda X: X[:, 0], rep, empty)


# ------------------------------------------------------ KRR trial path


def _reference_gaussian_gram(A, B, bandwidth):
    sq = (
        (A ** 2).sum(axis=1)[:, None]
        + (B ** 2).sum(axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth ** 2))


def _reference_sphere_sample(mu, n, rng):
    z = rng.standard_normal((n, mu.dim))
    return mu.scale * z / np.linalg.norm(z, axis=1, keepdims=True)


def _reference_perp_sq_trials(config, trials, purpose):
    # the definition, one noisy trial at a time: half the mean over fresh points t of
    # (f(t) - f(g t))^2, one Haar g per t, each chunk of trials drawn from its own stream
    size = max(1, kernel_gap._CHUNK_ENTRIES // (config.n * 2 * config.n_test))
    group, mats = config.kernel.action.group, config.kernel.action.matrices
    n, n_test, d = config.n, config.n_test, config.kernel.dim
    out = []
    for start in range(0, trials, size):
        rng = stream(config.seed, purpose, start // size)
        b = min(size, trials - start)
        X = _reference_sphere_sample(config.mu, b * n, rng).reshape(b, n, d)
        y = config.f_star(X) + config.sigma * rng.standard_normal((b, n))
        X_test = _reference_sphere_sample(config.mu, b * n_test, rng).reshape(b, n_test, d)
        draws = rng.integers(group.order, size=(b, n_test))
        for t in range(b):
            model = fit_krr(config.kernel, X[t], y[t], config.rho)
            # each g t as the sum over j of column j of phi(g) times t_j, in order: a matmul
            # may fuse the multiply and add, and moves the last bit of a rotation's image
            columns = mats[draws[t]]
            moved = columns[:, :, 0] * X_test[t][:, :1]
            for j in range(1, d):
                moved = moved + columns[:, :, j] * X_test[t][:, j:j + 1]
            diff = model.predict(X_test[t]) - model.predict(moved)
            out.append(float(0.5 * (diff ** 2).mean()))
    return np.array(out)


def _gap_config(d, ktype, n=16, rho=0.1):
    # d an int: C_d permuting coordinates, with the invariant target x . 1 / sqrt(d);
    # d "6-rotation": C6 rotating the plane by 60 degrees, with the invariant Re (x1 + i x2)^6
    if d == "6-rotation":
        rep, d = _rep("cyclic 6", "rotation_block 1"), 2
        f_star = lambda X: ((X[..., 0] + 1j * X[..., 1]) ** 6).real
    else:
        rep = _rep(f"cyclic {d}")
        theta = np.ones(d) / math.sqrt(d)
        f_star = lambda X: X @ theta
    kernel = (
        linear_kernel(rep, Mk=float(d)) if ktype == "linear"
        else gaussian_kernel(rep, bandwidth=math.sqrt(d))
    )
    return KrrGapConfig(
        kernel=kernel, f_star=f_star, mu=sphere(d),
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
    # the (1000, 1, 1) Gram of the stacked rows against the diagonal of the (1000, 1000) one
    X, Y = rng.standard_normal((2, 1000, 8))
    assert np.array_equal(_pair_values(spec.gram, X, Y), np.diagonal(spec.gram(X, Y)))
    assert np.array_equal(_pair_values(spec.gram, X, X), np.diagonal(spec.gram(X, X)))
    gram_perp = build_averaged_kernel(spec).gram_perp
    assert np.array_equal(_pair_values(gram_perp, X, Y), np.diagonal(gram_perp(X, Y)))


@pytest.mark.parametrize("d", [4, 8, "6-rotation"])
@pytest.mark.parametrize("ktype", ["linear", "gaussian"])
def test_paired_trial_is_bitwise_the_definition(monkeypatch, d, ktype):
    # every (n, rho) of the quick suite's gap-kernel grid, over three chunks, the last one
    # short, and at n = 600 three chunks of one trial each; the predictions' blocks are the
    # memory unit, not the stream unit, so a budget of one trial per block reads the same bits
    for n, rho in ((16, 0.1), (16, 1.0), (64, 0.1), (64, 1.0), (600, 0.1)):
        config = _gap_config(d, ktype, n=n, rho=rho)
        size = max(1, kernel_gap._CHUNK_ENTRIES // (n * 2 * config.n_test))
        trials = 2 * size + 3 if size > 1 else 3
        expected = _reference_perp_sq_trials(config, trials, purpose="krr_trials")
        assert np.array_equal(_perp_sq_trials(config, trials, "krr_trials", noisy=True), expected)
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "BLOCK_ENTRIES", 1)
            assert np.array_equal(_perp_sq_trials(config, trials, "krr_trials", noisy=True), expected)
    d = config.kernel.dim
    averaged = build_averaged_kernel(config.kernel)
    A, B = np.random.default_rng(23).standard_normal((2, 40, d))
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
    # on T = {h t_i : h in G}, G-invariant as a multiset, 1/2 mean_T mean_g (f(t) - f(g t))^2
    # is mean_T (f - Qf)^2 exactly: the paired estimator's mean is the full-orbit one's
    action = _rep(group, rep)
    d, mats = action.dim, action.matrices
    kernel = linear_kernel(action) if ktype == "linear" else gaussian_kernel(action, bandwidth=math.sqrt(d))
    rng = np.random.default_rng(25)
    X = rng.standard_normal((24, d))
    model = fit_krr(kernel, X, X[:, 0] + rng.standard_normal(24), 0.1)
    P = rng.standard_normal((5, d))
    T = np.concatenate([P @ m.T for m in mats])
    f = model.predict(T)
    paired = 0.5 * sum(((f - model.predict(T @ m.T)) ** 2).mean() for m in mats) / len(mats)
    full = ((f - model.predict_averaged(T, build_averaged_kernel(kernel))) ** 2).mean()
    assert full > 1e-3
    assert abs(paired - full) <= 1e-12


@pytest.mark.parametrize("ktype", ["linear", "gaussian"])
def test_fit_krr_retry_solves_the_jittered_matrix(monkeypatch, ktype):
    # a failed factorization of a stack retries every trial, each with its own jitter
    config = _gap_config(8, ktype, n=64, rho=0.1)
    rng = np.random.default_rng(24)
    X = config.mu.sample(3 * config.n, rng).reshape(3, config.n, 8)
    y = config.f_star(X) + rng.standard_normal((3, config.n))
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
    for t in range(3):
        K = config.kernel.gram(X[t], X[t])
        base = K + config.rho * np.eye(n)
        jittered = base + 1e-12 * float(np.trace(K)) / n * np.eye(n)
        assert np.array_equal(calls[0][t], base)
        assert np.array_equal(calls[1][t], jittered)
        assert np.array_equal(alpha[t], np.linalg.solve(jittered, y[t]))


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
    group_average(lambda g: terms[g], group.elements())
    assert np.array_equal(terms, before)
    # the single-term mean is fresh too, not the caller's array
    single = group_average(lambda g: terms[g], [0])
    single += 1.0
    assert np.array_equal(terms, before)

    spec = gaussian_kernel(_rep("cyclic 8"), bandwidth=math.sqrt(8))
    A, B = rng.standard_normal((2, 16, 8))
    K, _ = build_averaged_kernel(spec)._gram_and_bar(A, B)
    assert np.array_equal(K, spec.gram(A, B))


# ------------------------------------------------ the mean and the 1/|G| weights


def _uniform(group):
    return np.full(group.order, 1.0 / group.order)


def _weighted_closed_form(config):
    # the gap as 1/|G|-weighted Haar sums: for a scalar invariant target, the three-regime
    # formula with dim_A = d - sum_g w(g) tr phi(g); for an equivariant one, the character
    # codimension and J = sum_g w(g) (chi_phi(g) psi(g) + psi(g^2))
    d, k, n = config.d, config.k, config.n
    group = config.phi.group
    w = _uniform(group)
    fro_sq = float(np.sum(config.theta ** 2))
    shape = n * (d - n) / (d * (d - 1) * (d + 2))
    if k == 1 and np.all(config.psi.matrices == 1.0):
        dim_a = d - float(np.einsum("g,gii->", w, config.phi.matrices))
        if n > d + 1:
            return config.sigma_xi ** 2 * dim_a / (n - d - 1)
        noise = config.sigma_xi ** 2 * n / (d * (d - n - 1))
        return dim_a * (config.sigma_x ** 2 * fro_sq * shape + noise)
    chi_phi = character(config.phi)
    codim = d * k - float(np.sum(w * character(config.psi) * chi_phi))
    if n > d + 1:
        return config.sigma_xi ** 2 * codim / (n - d - 1)
    ids = np.arange(group.order)
    psi = config.psi.matrices
    j_mat = np.einsum("g,g,gij->ij", w, chi_phi, psi) + np.einsum("g,gij->ij", w, psi[group.compose(ids, ids)])
    signal = config.sigma_x ** 2 * shape * (
        (d + 1) * fro_sq - float(np.trace(j_mat @ config.theta.T @ config.theta))
    )
    return signal + config.sigma_xi ** 2 * n * codim / (d * (d - n - 1))


@pytest.mark.parametrize("group,kind", [
    ("symmetric 3", "natural_permutation"),
    ("symmetric 4", "natural_permutation"),
    ("cyclic 8", "natural_permutation"),
    ("dihedral 6 * cyclic 5", "natural_permutation"),
    ("cyclic 2 * symmetric 3", "natural_permutation"),
    ("so2_quadrature 12", "rotation_block 1 2"),
])
def test_group_means_equal_the_uniformly_weighted_sums(group, kind):
    rep = _rep(group, kind)
    grp, mats = rep.group, rep.matrices
    w = _uniform(grp)
    rng = np.random.default_rng(31)
    assert np.allclose(build_phi(rep), np.einsum("g,gij->ij", w, mats), rtol=0, atol=1e-12)
    psi_inv_t = mats[grp.inverse].transpose(0, 2, 1)
    tensor = np.einsum("g,gac,gbe->abce", w, mats, psi_inv_t)
    assert np.allclose(build_psi(rep, rep).tensor, tensor, rtol=0, atol=1e-12)
    chi = character(rep)
    assert abs(character_inner(rep, rep) - float(np.sum(w * chi * chi))) <= 1e-12
    W = rng.standard_normal((rep.dim, rep.dim))
    W_bar = np.einsum("g,gik,kl,glj->ij", w, mats[grp.inverse], W, mats)
    assert np.allclose(project_layer(W, rep, rep)[0], W_bar, rtol=0, atol=1e-12)
    spec = gaussian_kernel(rep, bandwidth=math.sqrt(rep.dim))
    A, B = rng.standard_normal((2, 16, rep.dim))
    weighted = sum(w[g] * spec.gram(A, B @ mats[g].T) for g in grp.elements())
    assert np.allclose(build_averaged_kernel(spec).gram_bar(A, B), weighted, rtol=0, atol=1e-12)

    # both regimes of the linear closed form, with a scalar and with an equivariant output
    d = rep.dim
    for n in (d + 4, max(d - 3, 1)):
        if d - 1 <= n <= d + 1:
            continue
        inv = invariant_config(rep, build_phi(rep) @ rng.standard_normal(d), n=n, trials=2)
        tensor = build_psi(rep, rep)
        eqv = LinearGapConfig(
            tensor=tensor, n=n, trials=2, theta=random_equivariant_target(tensor, rng, fro_norm=1.0),
        )
        for config in (inv, eqv):
            assert abs(closed_form_gap_equivariant(config) - _weighted_closed_form(config)) <= 1e-12
