"""Tests for the averaged-kernel KRR lab.

Oracles: the switch condition for linear/Gaussian kernels, kbar = x'Phi y
for the linear kernel, N[k] = d and N[kbar] = dim S for isotropic Gaussian
inputs, the scalar KRR solve, each linear-kernel fit's exact |f_perp|^2 =
w'(I - Phi)w on the sphere, and the ridgeless limits of the zeta moments.
"""

import copy
import math
import os
import signal
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from symlab import kernel_gap
from symlab.averaging import build_phi
from symlab.groups import build_group, build_representation
from symlab.kernel_gap import (
    KrrGapConfig,
    _perp_sq_trials,
    build_averaged_kernel,
    check_switch_condition,
    estimate_N,
    estimate_bias_term,
    explicit_bilinear_kernel,
    fit_krr,
    gaussian_kernel,
    krr_gap_experiment,
    linear_kernel,
    linear_kernel_bound,
)
from symlab.sampling import STREAMS, RunningMoments, gaussian, sphere, stream


def _perm_rep(descriptor, d=None):
    group = build_group(descriptor)
    return build_representation(group, "natural_permutation")


def _swap_rep():
    return _perm_rep("symmetric 2")


# ---------------------------------------------------------------- switch


def test_switch_verified_linear_orthogonal():
    rep = build_representation(build_group("cyclic 4"), "rotation_block 1")
    status, violation = check_switch_condition(linear_kernel(rep), n_pairs=32, seed=1)
    assert status == "verified"
    assert violation <= 1e-9


def test_switch_verified_gaussian_permutation():
    rep = _perm_rep("symmetric 3")
    status, _ = check_switch_condition(gaussian_kernel(rep, bandwidth=1.5), n_pairs=32, seed=2)
    assert status == "verified"


def test_switch_refuted_projection_bilinear():
    # k(x,y) = x1*y1 with the swap action: averaging over g on the left and
    # right disagrees, so O is not well defined on this RKHS
    kernel = explicit_bilinear_kernel(_swap_rep(), np.diag([1.0, 0.0]))
    status, violation = check_switch_condition(kernel, n_pairs=64, seed=3)
    assert status == "refuted"
    assert violation > 1e-6


def test_switch_unchecked_dead_band():
    eps = 3e-8
    kernel = explicit_bilinear_kernel(_swap_rep(), np.diag([1.0 + eps, 1.0 - eps]))
    status, violation = check_switch_condition(kernel, n_pairs=64, seed=4)
    assert status == "unchecked"
    assert 1e-9 < violation <= 1e-6


# ------------------------------------------------------------- averaging


def test_trivial_group_kbar_equals_k():
    rep = _perm_rep("cyclic 1")
    ak = build_averaged_kernel(gaussian_kernel(rep, bandwidth=1.0))
    rng = np.random.default_rng(5)
    A, B = rng.standard_normal((2, 7, 1))
    assert np.array_equal(ak.gram_bar(A, B), ak.parent.gram(A, B))
    assert np.max(np.abs(ak.gram_perp(A, B))) == 0.0


def test_linear_kernel_kbar_is_phi():
    rep = _perm_rep("cyclic 5")
    phi = build_phi(rep)
    ak = build_averaged_kernel(linear_kernel(rep))
    rng = np.random.default_rng(6)
    A, B = rng.standard_normal((2, 9, 5))
    assert np.allclose(ak.gram_bar(A, B), A @ phi @ B.T, atol=1e-12)
    assert ak.switch_ok == "verified"


def test_invariant_base_kernel_unchanged():
    # k(x,y) = mean(x)*sum(y) is already invariant in each argument under S_3
    rep = _perm_rep("symmetric 3")
    kernel = explicit_bilinear_kernel(rep, np.ones((3, 3)) / 3.0)
    ak = build_averaged_kernel(kernel)
    rng = np.random.default_rng(7)
    A, B = rng.standard_normal((2, 8, 3))
    assert np.allclose(ak.gram_bar(A, B), kernel.gram(A, B), atol=1e-12)


def test_averaged_kernel_second_argument_invariance():
    rep = build_representation(build_group("cyclic 4"), "rotation_block 1")
    kernel = gaussian_kernel(rep, bandwidth=2.0)
    ak = build_averaged_kernel(kernel)
    rng = np.random.default_rng(8)
    A, B = rng.standard_normal((2, 6, 2))
    base = ak.gram_bar(A, B)
    group = rep.group
    for g in group.elements():
        assert np.max(np.abs(ak.gram_bar(A, B @ rep.matrices[g].T) - base)) <= 1e-10
    # pointwise decomposition and the double-average reduction
    assert np.allclose(ak.gram_bar(A, B) + ak.gram_perp(A, B), kernel.gram(A, B), atol=1e-12)
    doubled = sum(ak.gram_bar(A, B @ rep.matrices[g].T) for g in group.elements()) / group.order
    assert np.max(np.abs(doubled - base)) <= 1e-10


def test_kernel_construction_rejections():
    rep = _swap_rep()
    with pytest.raises(ValueError):
        explicit_bilinear_kernel(rep, np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        explicit_bilinear_kernel(rep, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        gaussian_kernel(rep, bandwidth=0.0)


# ----------------------------------------------------------- N functionals


def test_estimate_N_linear_kernel_is_d():
    d = 4
    rep = _perm_rep("cyclic 4")
    kernel = linear_kernel(rep)
    mean, se = estimate_N(kernel.gram, gaussian(d), pairs=20_000, rng=stream(9, "main"))
    assert abs(mean - d) <= 4.0 * se


def test_estimate_N_averaged_linear_is_dim_s():
    rep = _perm_rep("cyclic 4")
    ak = build_averaged_kernel(linear_kernel(rep))
    dim_s = float(np.trace(build_phi(rep)))
    mean, se = estimate_N(ak.gram_bar, gaussian(4), pairs=20_000, rng=stream(10, "main"))
    assert abs(mean - dim_s) <= 4.0 * se


@pytest.mark.parametrize("d", [1, 4, 8])
def test_a_gram_that_takes_no_stacks_is_refused_naming_the_kernel(d):
    # _pair_values reads k(x_i, y_i) as the Gram of (n, 1, d) stacks; A @ B.T
    # transposes a stack's every axis, so it raises or returns the wrong shape
    flat = kernel_gap.KernelSpec("flat-linear", _perm_rep(f"cyclic {d}"), lambda A, B: A @ B.T)
    with pytest.raises(ValueError, match="kernel 'flat-linear' does not take stacks"):
        kernel_gap._validate_kernel(flat)


@pytest.mark.parametrize("descriptor", ["cyclic 4", "cyclic 8", "symmetric 4"])
def test_the_library_kernels_pass_the_check_kept_for_explicit_ones(descriptor):
    # linear_kernel and gaussian_kernel are not validated when built, since their Grams are
    # the module's own: each is symmetric, positive definite and takes stacks at any bandwidth
    rep = _perm_rep(descriptor)
    kernel_gap._validate_kernel(kernel_gap.linear_kernel(rep))
    for h in (0.5, 2.0, math.sqrt(rep.dim), 100.0):
        kernel_gap._validate_kernel(kernel_gap.gaussian_kernel(rep, h))


def test_a_nan_bandwidth_is_refused_by_name():
    # bandwidth <= 0 let NaN through, to be refused as a Gram that "does not take stacks"
    with pytest.raises(ValueError, match="^bandwidth must be > 0$"):
        kernel_gap.gaussian_kernel(_perm_rep("cyclic 4"), float("nan"))


def test_estimate_N_zero_kernel():
    zero = lambda A, B: np.zeros(A.shape[:-1] + B.shape[-2:-1])  # a Gram of stacks, as the contract asks
    mean, se = estimate_N(zero, gaussian(3), pairs=1000, rng=stream(0, "main"))
    assert mean == 0.0 and se == 0.0


def test_estimate_N_requires_1000_pairs():
    with pytest.raises(ValueError):
        estimate_N(lambda A, B: A @ B.T, gaussian(2), pairs=999, rng=stream(0, "main"))


def test_N_decomposition():
    rep = _perm_rep("symmetric 3")
    kernel = gaussian_kernel(rep, bandwidth=math.sqrt(3.0))
    ak = build_averaged_kernel(kernel)
    mu = gaussian(3)
    n_full, se_full = estimate_N(kernel.gram, mu, pairs=6000, rng=stream(11, "main"))
    n_bar, se_bar = estimate_N(ak.gram_bar, mu, pairs=6000, rng=stream(12, "main"))
    n_perp, se_perp = estimate_N(ak.gram_perp, mu, pairs=6000, rng=stream(13, "main"))
    combined = math.sqrt(se_full ** 2 + se_bar ** 2 + se_perp ** 2)
    assert abs(n_full - (n_bar + n_perp)) <= 4.0 * combined


# ------------------------------------------------------------------- KRR


def test_fit_krr_scalar_solve():
    rep = _perm_rep("cyclic 1")
    model = fit_krr(linear_kernel(rep), np.array([[2.0]]), np.array([3.0]), rho=1.0)
    # k(x1,x1) = 4, so alpha = y/(c+rho) = 3/5
    assert np.allclose(model.alpha, [0.6], atol=1e-14)
    assert np.allclose(model.predict(np.array([[1.0]])), [1.2], atol=1e-14)


def test_fit_krr_large_rho_shrinks_to_zero():
    rep = _perm_rep("symmetric 3")
    rng = np.random.default_rng(14)
    X = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    model = fit_krr(gaussian_kernel(rep, bandwidth=1.0), X, y, rho=1e8)
    assert np.max(np.abs(model.predict(X))) <= 1e-5
    assert np.linalg.norm(model.alpha) <= 10.0 * np.linalg.norm(y) / 1e8


def test_fit_krr_interpolates_representer_target():
    rep = _perm_rep("symmetric 3")
    kernel = gaussian_kernel(rep, bandwidth=1.5)
    rng = np.random.default_rng(15)
    X = rng.standard_normal((12, 3))
    coef = rng.standard_normal(12)
    y = kernel.gram(X, X) @ coef
    model = fit_krr(kernel, X, y, rho=1e-8)
    assert float(np.mean((model.predict(X) - y) ** 2)) <= 1e-6


def test_fit_krr_residual_identity():
    rep = _perm_rep("cyclic 4")
    kernel = gaussian_kernel(rep, bandwidth=2.0)
    rng = np.random.default_rng(16)
    X = rng.standard_normal((15, 4))
    y = rng.standard_normal(15)
    model = fit_krr(kernel, X, y, rho=0.3)
    K = kernel.gram(X, X)
    residual = (K + 0.3 * np.eye(15)) @ model.alpha - y
    assert np.linalg.norm(residual) <= 1e-8 * max(1.0, np.linalg.norm(y))


def test_fit_krr_requires_positive_rho():
    rep = _perm_rep("cyclic 1")
    with pytest.raises(ValueError):
        fit_krr(linear_kernel(rep), np.array([[1.0]]), np.array([1.0]), rho=0.0)


@pytest.mark.parametrize("where", ["X", "Y"])
def test_fit_krr_nan_input_raises_linalg_error(where):
    rep = _perm_rep("cyclic 4")
    rng = np.random.default_rng(25)
    X = rng.standard_normal((16, 4))
    y = rng.standard_normal(16)
    (X if where == "X" else y)[5] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        fit_krr(gaussian_kernel(rep, bandwidth=2.0), X, y, rho=0.1)


def test_fit_krr_leaves_inputs_unchanged():
    rep = _perm_rep("cyclic 4")
    rng = np.random.default_rng(26)
    X = rng.standard_normal((16, 4))
    y = rng.standard_normal(16)
    X0, y0 = X.copy(), y.copy()
    model = fit_krr(gaussian_kernel(rep, bandwidth=2.0), X, y, rho=0.1)
    assert np.array_equal(X, X0) and np.array_equal(y, y0)
    assert np.array_equal(model.X, X0)


@pytest.mark.parametrize("ktype", ["linear", "gaussian", "bilinear"])
def test_stacked_fit_and_predict_match_per_sample_calls(ktype):
    rep = _perm_rep("cyclic 4")
    kernel = {
        "linear": lambda: linear_kernel(rep),
        "gaussian": lambda: gaussian_kernel(rep, bandwidth=2.0),
        "bilinear": lambda: explicit_bilinear_kernel(rep, build_phi(rep) + np.eye(4)),
    }[ktype]()
    rng = np.random.default_rng(29)
    X = rng.standard_normal((5, 16, 4))
    y = rng.standard_normal((5, 16))
    T = rng.standard_normal((5, 24, 4))
    stacked = fit_krr(kernel, X, y, rho=0.1)
    f = stacked.predict(T)
    averaged = stacked.predict_averaged(T, build_averaged_kernel(kernel))
    assert stacked.alpha.shape == (5, 16) and f.shape == (5, 24) and averaged.shape == (5, 24)
    for t in range(5):
        single = fit_krr(kernel, X[t], y[t], rho=0.1)
        for got, want in (
            (stacked.alpha[t], single.alpha),
            (f[t], single.predict(T[t])),
            (averaged[t], single.predict_averaged(T[t], build_averaged_kernel(kernel))),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("ktype", ["linear", "gaussian"])
def test_fit_krr_on_a_given_gram_is_bitwise_the_fit_that_computes_it(ktype):
    rep = _perm_rep("cyclic 8")
    kernel = linear_kernel(rep) if ktype == "linear" else gaussian_kernel(rep, bandwidth=math.sqrt(8))
    rng = np.random.default_rng(31)
    X = rng.standard_normal((4, 16, 8))
    y = rng.standard_normal((4, 16))
    K = kernel.gram(X, X)
    K0 = K.copy()
    for t in range(4):  # each sample's slice of the stacked Gram, as the trial loop fits it
        given = fit_krr(kernel, X[t], y[t], 0.1, gram=K[t])
        assert np.array_equal(given.alpha, fit_krr(kernel, X[t], y[t], 0.1).alpha)
    assert np.array_equal(fit_krr(kernel, X, y, 0.1, gram=K).alpha, fit_krr(kernel, X, y, 0.1).alpha)
    assert np.array_equal(K, K0)  # the given Gram is read, not written
    with pytest.raises(ValueError, match=r"gram has shape \(16, 16\), expected \(4, 16, 16\)"):
        fit_krr(kernel, X, y, 0.1, gram=K[0])


# ---------------------------------------------------------- gap experiment


def test_trivial_group_gap_and_bound_zero():
    rep = _perm_rep("cyclic 1")
    config = KrrGapConfig(
        kernel=gaussian_kernel(rep, bandwidth=1.0),
        f_star=lambda X: np.tanh(X[:, 0]),
        mu=gaussian(1),
        n=10,
        sigma=0.3,
        rho=0.5,
        trials=5,
        seed=17,
        n_pairs=1000,
        bias_trials=5,
    )
    report = krr_gap_experiment(config)
    assert report.mc_gap_mean == 0.0
    assert report.closed_form == 0.0
    assert report.verdict == "pass"
    assert report.dim_A == 0.0


def test_krr_gap_bound_holds_and_metadata():
    rep = _perm_rep("symmetric 3")
    config = KrrGapConfig(
        kernel=gaussian_kernel(rep, bandwidth=math.sqrt(3.0)),
        f_star=lambda X: np.tanh(X.sum(axis=1)),
        mu=gaussian(3),
        n=24,
        sigma=0.5,
        rho=1.0,
        trials=100,
        seed=18,
        n_test=128,
        n_pairs=2000,
        bias_trials=40,
    )
    report = krr_gap_experiment(config)
    assert report.verdict == "pass"
    assert report.mc_gap_mean + 4.0 * report.mc_gap_se >= report.closed_form
    assert report.mc_gap_mean >= 0.0
    for key in ("Mk", "N_kperp", "bound_bias", "bound_variance", "switch"):
        assert key in report.metadata
    assert report.metadata["switch"] == "verified"
    assert report.closed_form == pytest.approx(
        report.metadata["bound_bias"] + report.metadata["bound_variance"]
    )


def test_gap_equals_risk_difference():
    # R[f] - R[fbar] = E[fperp^2] when target and mu are invariant: the cross
    # term vanishes because fbar - f* is invariant and fperp is orthogonal
    rep = _perm_rep("symmetric 3")
    kernel = gaussian_kernel(rep, bandwidth=1.2)
    ak = build_averaged_kernel(kernel)
    rng = np.random.default_rng(19)
    X = rng.standard_normal((30, 3))
    f_star = lambda Z: np.tanh(Z.sum(axis=1))
    y = f_star(X) + 0.4 * rng.standard_normal(30)
    model = fit_krr(kernel, X, y, rho=0.8)
    X_test = rng.standard_normal((200_000, 3))
    truth = f_star(X_test)
    f_hat = model.predict(X_test)
    f_bar = model.predict_averaged(X_test, ak)
    samples = (f_hat - truth) ** 2 - (f_bar - truth) ** 2 - (f_hat - f_bar) ** 2
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean()) <= 4.0 * max(se, 1e-12)


def test_repeated_gap_runs_in_one_process_agree():
    # a result must not depend on what was allocated and freed before the run
    rep = _perm_rep("cyclic 4")
    theta = np.ones(4) / 2.0
    config = KrrGapConfig(
        kernel=gaussian_kernel(rep, bandwidth=2.0), f_star=lambda X: X @ theta, mu=sphere(4),
        n=16, sigma=1.0, rho=0.1, trials=40, seed=27, n_test=64, n_pairs=1000, bias_trials=10,
    )
    first = krr_gap_experiment(config)
    rng = np.random.default_rng(28)
    for _ in range(50):
        scratch = [rng.standard_normal(shape) for shape in ((16, 4), (16, 16), (16,), (64, 4), (16, 64))]
        del scratch
    second = krr_gap_experiment(config)
    assert (second.mc_gap_mean, second.mc_gap_se) == (first.mc_gap_mean, first.mc_gap_se)
    assert second.closed_form == first.closed_form
    assert second.metadata == first.metadata


class _InlinePool:
    """A one-worker pool that runs each submitted call at once on the calling thread."""

    def __init__(self, max_workers, thread_name_prefix=""):
        assert max_workers == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:
            future.set_exception(error)
        return future


def _trial_config(trials):
    rep = _perm_rep("cyclic 4")
    theta = np.ones(4) / 2.0
    # n * 2 n_test = 2^12 Gram entries, so chunks of 64 trials
    return KrrGapConfig(
        kernel=gaussian_kernel(rep, bandwidth=2.0), f_star=lambda X: X @ theta, mu=sphere(4),
        n=16, sigma=1.0, rho=0.1, trials=trials, seed=30, n_test=128,
    )


def test_trials_do_not_depend_on_the_helper_thread(monkeypatch):
    config = _trial_config(5 * 64 + 7)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between the workers as often as it can
    try:
        threaded = _perp_sq_trials(config, config.trials, "krr_trials", noisy=True)
    finally:
        sys.setswitchinterval(previous)
    monkeypatch.setattr(kernel_gap, "ThreadPoolExecutor", _InlinePool)
    inline = _perp_sq_trials(config, config.trials, "krr_trials", noisy=True)
    assert np.array_equal(threaded, inline)
    assert np.all(inline > 0)


def test_each_trial_is_its_own_fit_and_a_retry_moves_that_trial_alone(monkeypatch):
    config = _trial_config(10)  # one chunk, on the caller
    plain = _perp_sq_trials(config, config.trials, "krr_trials", noisy=True)
    factored, factor = [], kernel_gap.cho_factor

    def third_fails(a):
        factored.append(a.shape)
        if len(factored) == 3:
            raise np.linalg.LinAlgError("planted failure")
        return factor(a)

    monkeypatch.setattr(kernel_gap, "cho_factor", third_fails)
    retried = _perp_sq_trials(config, config.trials, "krr_trials", noisy=True)
    # trial 2 is factored twice, every other trial once, one (n, n) matrix each time
    assert factored == [(config.n, config.n)] * (config.trials + 1)
    assert np.flatnonzero(retried != plain).tolist() == [2]


def test_a_chunk_predicts_in_blocks_of_bounded_memory():
    # a C8 Gaussian chunk at n = 16 is 32 trials; predicted at once, its gathered
    # (32, 256, 8, 8) matrices and two (32, 16, 512) Gram buffers peaked at 6.7 MB
    rep = _perm_rep("cyclic 8")
    theta = np.ones(8) / math.sqrt(8)
    config = KrrGapConfig(
        kernel=gaussian_kernel(rep, bandwidth=math.sqrt(8)), f_star=lambda X: X @ theta, mu=sphere(8),
        n=16, sigma=1.0, rho=0.1, trials=32, seed=3, n_test=256,
    )
    size = kernel_gap._CHUNK_ENTRIES // (config.n * 2 * config.n_test)
    assert size == 32
    first = kernel_gap._chunk_perp_sq(config, size, stream(3, "krr_trials", 0), True)
    tracemalloc.start()
    try:
        again = kernel_gap._chunk_perp_sq(config, size, stream(3, "krr_trials", 0), True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, first)
    assert peak < 4_000_000


def _exact_perp_sq(config, size, rng, noisy):
    """Each of a chunk's fits' exact |f_perp|^2 for the linear kernel, from the
    chunk's own draws: f(t) = w^T t with w = X^T alpha, and on the sphere of
    radius sqrt(d) E[t t^T] = I, so |f - Qf|^2 = w^T (I - Phi) w."""
    n, d = config.n, config.kernel.dim
    X = config.mu.sample(size * n, rng)
    y = np.asarray(config.f_star(X)).reshape(size, n)
    if noisy:
        y = y + config.sigma * rng.standard_normal((size, n))
    X = X.reshape(size, n, d)
    Xt = X.transpose(0, 2, 1)
    # w = X^T (X X^T + rho I)^-1 y = (X^T X + rho I)^-1 X^T y
    w = np.linalg.solve(Xt @ X + config.rho * np.eye(d), Xt @ y[..., None])[..., 0]
    phi = config.kernel.action.matrices.mean(axis=0)
    return np.einsum("ti,ij,tj->t", w, np.eye(d) - phi, w)


# the linear-kernel gap-kernel cells of the quick grid; trials and seed were fixed
# before the first run
@pytest.mark.parametrize("rho", [0.1, 1.0])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("d", [4, 8])
def test_krr_perp_estimate_matches_the_exact_value_trial_by_trial(monkeypatch, d, n, rho):
    rep = _perm_rep(f"cyclic {d}")
    theta = np.ones(d) / math.sqrt(d)
    config = KrrGapConfig(
        kernel=linear_kernel(rep, Mk=float(d)), f_star=lambda X: X @ theta, mu=sphere(d),
        n=n, sigma=1.0, rho=rho, trials=400, seed=20240,
    )
    chunk = kernel_gap._chunk_perp_sq

    def paired(config, size, rng, noisy):
        exact = _exact_perp_sq(config, size, copy.deepcopy(rng), noisy)
        return chunk(config, size, rng, noisy) - exact

    monkeypatch.setattr(kernel_gap, "_chunk_perp_sq", paired)
    diff = _perp_sq_trials(config, config.trials, "krr_trials", noisy=True)
    # two-sided: the estimate is unbiased for the exact value, on the same fits
    assert abs(diff.mean()) <= 4 * diff.std(ddof=1) / math.sqrt(len(diff))


@pytest.mark.parametrize("failing", [2, 3])  # a chunk of the caller's, one of the helper's
def test_an_error_on_either_worker_reaches_the_caller_and_stops_both(monkeypatch, failing):
    config = _trial_config(12 * 64)  # six chunks for each worker
    lock, raised = threading.Lock(), threading.Event()
    running, started = set(), []
    chunk = kernel_gap._chunk_perp_sq

    def tracked(config, size, rng, noisy):
        index = rng.bit_generator.seed_seq.entropy[2]
        with lock:
            started.append(index)
            running.add(index)
        try:
            if index == failing:
                raised.set()
                raise np.linalg.LinAlgError(f"planted failure in chunk {index}")
            if index % 2 != failing % 2:
                # the other worker's chunk is still running when the error is raised
                assert raised.wait(timeout=30)
            return chunk(config, size, rng, noisy)
        finally:
            with lock:
                running.discard(index)

    monkeypatch.setattr(kernel_gap, "_chunk_perp_sq", tracked)
    with pytest.raises(np.linalg.LinAlgError, match=f"chunk {failing}"):
        _perp_sq_trials(config, config.trials, "krr_trials", noisy=True)
    assert running == set()
    assert failing in started
    # the other worker stops before its next chunk, or the one after if it read the
    # flag just before the failing worker set it: not all six of its chunks run
    assert len([index for index in started if index % 2 != failing % 2]) <= 2
    assert not [t for t in threading.enumerate() if t.name.startswith("symlab-krr")]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_its_own_trial_loop():
    config = _trial_config(4 * 64)
    parent = _perp_sq_trials(config, config.trials, "krr_trials", noisy=True)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child runs the loop again and writes its bytes, or hangs until the alarm
        signal.alarm(60)
        try:
            os.write(write, _perp_sq_trials(config, config.trials, "krr_trials", noisy=True).tobytes())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        child = pipe.read()
    os.waitpid(pid, 0)
    assert child == parent.tobytes()


def test_f_star_invariance_enforced():
    rep = _perm_rep("symmetric 3")
    with pytest.raises(ValueError, match="invariant"):
        KrrGapConfig(
            kernel=gaussian_kernel(rep, bandwidth=1.0),
            f_star=lambda X: X[:, 0],
            mu=gaussian(3),
            n=8,
            sigma=0.1,
            rho=0.5,
            trials=2,
            seed=0,
        )


def test_a_nan_f_star_is_refused():
    # its deviation is NaN, which a "dev > tol" check lets through
    rep = _perm_rep("symmetric 3")
    with pytest.raises(ValueError, match="f_star is not invariant"):
        KrrGapConfig(
            kernel=gaussian_kernel(rep, bandwidth=1.0),
            f_star=lambda X: np.full(len(X), np.nan),
            mu=gaussian(3),
            n=8,
            sigma=0.1,
            rho=0.5,
            trials=2,
            seed=0,
        )


def test_bias_zero_for_invariant_kernel():
    # representers of an invariant kernel are invariant functions, so the
    # anti-symmetric part of any fit is identically zero
    rep = _perm_rep("symmetric 3")
    kernel = explicit_bilinear_kernel(rep, np.ones((3, 3)) / 3.0)
    config = KrrGapConfig(
        kernel=kernel,
        f_star=lambda X: X.sum(axis=1),
        mu=gaussian(3),
        n=12,
        sigma=0.0,
        rho=0.5,
        trials=2,
        seed=21,
        bias_trials=8,
    )
    mean, se = estimate_bias_term(config)
    assert mean <= max(4.0 * se, 1e-12)


def test_bias_positive_when_switch_refuted():
    # k(x,y) = x1*y1 under the swap: fits live on the x1 axis, and their
    # group average genuinely differs from them
    kernel = explicit_bilinear_kernel(_swap_rep(), np.diag([1.0, 0.0]))
    config = KrrGapConfig(
        kernel=kernel,
        f_star=lambda X: X.sum(axis=1),
        mu=gaussian(2),
        n=40,
        sigma=0.0,
        rho=0.1,
        trials=2,
        seed=22,
        bias_trials=60,
    )
    ak = build_averaged_kernel(kernel)
    assert ak.switch_ok == "refuted"
    mean, se = estimate_bias_term(config)
    assert mean > 4.0 * se
    assert mean > 0.1


# ----------------------------------------------------- linear kernel bound


def test_linear_bound_ridgeless_underparameterized():
    # rho -> 0 with n < d: d*zeta1 - zeta2 -> d*n - n^2, exactly per sample
    out = linear_kernel_bound(
        d=4, n=2, rho=1e-9, theta_norm=1.0,
        phi_matrix=np.ones((4, 4)) / 4.0, trials=50, seed=23,
    )
    assert out["zeta1"] == pytest.approx(2.0, abs=1e-6)
    assert out["zeta2"] == pytest.approx(4.0, abs=1e-6)
    assert 4.0 * out["zeta1"] - out["zeta2"] == pytest.approx(4 * 2 - 2 ** 2, abs=1e-5)


def test_linear_bound_ridgeless_overparameterized_bias_vanishes():
    out = linear_kernel_bound(
        d=4, n=6, rho=1e-9, theta_norm=1.0,
        phi_matrix=np.ones((4, 4)) / 4.0, trials=50, seed=24,
    )
    assert 4.0 * out["zeta1"] - out["zeta2"] == pytest.approx(0.0, abs=1e-5)
    assert out["bias_bound"] == pytest.approx(0.0, abs=1e-6)


def test_linear_bound_zeta_inequality_and_variance_term():
    d, n, rho = 6, 4, 1.0
    phi = np.ones((d, d)) / d
    out = linear_kernel_bound(d=d, n=n, rho=rho, theta_norm=1.0, phi_matrix=phi, trials=200, seed=25)
    assert out["zeta2"] <= min(n, d) * out["zeta1"] + 1e-9
    fro2 = float((phi ** 2).sum())
    expected = (d - fro2) / (math.sqrt(n) * d + rho / math.sqrt(n)) ** 2
    assert out["variance_bound"] == pytest.approx(expected, rel=1e-12)
    assert out["bound"] == pytest.approx(out["bias_bound"] + out["variance_bound"], rel=1e-12)


def _reference_linear_zetas(d, n, rho, trials, seed):
    # one (n, d) sphere draw and one n x n Gram per trial, in stream order
    rng = np.random.default_rng((seed, STREAMS["linear_bound"]))
    z1, z2 = np.empty(trials), np.empty(trials)
    for t in range(trials):
        Z = rng.standard_normal((n, d))
        X = math.sqrt(d) * Z / np.linalg.norm(Z, axis=1, keepdims=True)
        gamma = np.linalg.eigvalsh(X @ X.T)
        ratio = gamma / (gamma + rho)
        z1[t] = (ratio ** 2).sum()
        z2[t] = ratio.sum() ** 2
    return z1, z2


@pytest.mark.parametrize("rho", [0.1, 1.0])
@pytest.mark.parametrize("n", [6, 16, 64])
@pytest.mark.parametrize("d", [4, 8])
def test_linear_bound_zetas_match_the_per_trial_loop(d, n, rho):
    # the acceptance grid, plus n = 6, which puts d = 8 on the n x n Gram; an
    # SE divides per-trial rounding by a spread far below its mean: a wider rel
    out = linear_kernel_bound(d, n, rho, 1.0, np.ones((d, d)) / d, trials=300, seed=109)
    z1, z2 = _reference_linear_zetas(d, n, rho, 300, 109)
    assert out["zeta1"] == pytest.approx(z1.mean(), rel=1e-12)
    assert out["zeta2"] == pytest.approx(z2.mean(), rel=1e-12)
    assert out["zeta1_se"] == pytest.approx(z1.std(ddof=1) / math.sqrt(300), rel=1e-8)
    assert out["zeta2_se"] == pytest.approx(z2.std(ddof=1) / math.sqrt(300), rel=1e-8)


def test_each_se_that_the_csv_does_not_carry_is_its_columns_sd_over_root_n(monkeypatch):
    # results.csv's pinned bytes cover the SEs it carries; these reduce their columns in
    # RunningMoments too, and each must be std(ddof=1) / sqrt(n) of its column bit for bit
    columns = []

    class Recording(RunningMoments):
        def add(self, values):
            columns.append(np.array(values))
            return super().add(values)

    monkeypatch.setattr(kernel_gap, "RunningMoments", Recording)
    kernel = explicit_bilinear_kernel(_swap_rep(), np.diag([1.0, 0.0]))
    config = KrrGapConfig(
        kernel=kernel, f_star=lambda X: X.sum(axis=1), mu=gaussian(2), n=12,
        sigma=0.0, rho=0.1, trials=2, seed=22, bias_trials=40,
    )
    n_est = estimate_N(kernel.gram, gaussian(2), pairs=1000, rng=stream(9, "pairs"))
    bias = estimate_bias_term(config)
    out = linear_kernel_bound(4, 6, 0.5, 1.0, np.ones((4, 4)) / 4, trials=300, seed=109)
    got = [n_est, bias, (out["zeta1"], out["zeta1_se"]), (out["zeta2"], out["zeta2_se"])]
    assert [len(column) for column in columns] == [1000, 40, 300, 300]
    for (mean, se), column in zip(got, columns):
        assert mean == column.mean()
        assert se == column.std(ddof=1) / math.sqrt(len(column))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_a_non_finite_bilinear_matrix_is_refused_by_name(entry):
    # a NaN used to pass the symmetry check and be refused as a kernel that takes no stacks,
    # and an inf warned in A - A.T
    A = np.eye(2)
    A[0, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="bilinear kernel matrix is not finite"):
            explicit_bilinear_kernel(_swap_rep(), A)


def test_linear_bound_refuses_an_overflowing_rho_by_name():
    # the variance term's denominator used to overflow into a bare OverflowError
    with pytest.raises(ValueError, match=r"rho is 1e\+200 and Mk 4: .* overflows"):
        linear_kernel_bound(d=4, n=2, rho=1e200, theta_norm=1.0, phi_matrix=np.eye(4), trials=10, seed=0)


def test_linear_bound_requires_d_above_one():
    with pytest.raises(ValueError):
        linear_kernel_bound(d=1, n=2, rho=1.0, theta_norm=1.0, phi_matrix=np.eye(1), trials=10, seed=0)
