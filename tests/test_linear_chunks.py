"""The chunk loops of linear_gap against serial loops written out in full.

Each ``_reference_*`` function below is the whole function with its
``while done < trials`` loop written out, and ``_reference_min_norm`` is the
Gram-inverse solve and its condition gate written out.  Every report
field must carry the same bits as the reference's, not merely close values.
Each reference merges its statistics chunk by chunk, as the functions do,
with the merge written out in ``_merged_stat``; a separate test holds that
merge to the whole column's mean and standard error.
Separate tests hold the Gram solve to ``pinv`` within a tolerance, and
check that the gate sends an ill-conditioned or rank-deficient trial to
``pinv``.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from symlab import linear_gap
from symlab.averaging import build_psi
from symlab.groups import build_group, build_representation, character_inner
from symlab.linear_gap import (
    _CHUNK,
    GapReport,
    LinearGapConfig,
    ProjectionTensorReport,
    WishartReport,
    _chunked,
    closed_form_gap_equivariant,
    invariant_config,
    monte_carlo_gap,
    random_equivariant_target,
    verify_projection_tensor,
    verify_wishart,
    wishart_coefficient,
)
from symlab.sampling import RunningMoments

KAPPA_MAX = 1.0 / math.sqrt(np.finfo(float).eps)


def _reference_gram_solve(X, Y):
    """Per trial: X^+ Y through the Gram inverse, or (X^T X)^+ when Y is None, and
    whether the 1-norm condition number of the Gram matrix passes the gate."""
    n, d = X.shape[1:]
    Xt = X.transpose(0, 2, 1)
    A = Xt @ X if n > d else X @ Xt
    A_inv = np.linalg.inv(A)
    kappa = np.array([np.linalg.norm(a, 1) * np.linalg.norm(a_inv, 1) for a, a_inv in zip(A, A_inv)])
    if Y is not None:
        out = A_inv @ (Xt @ Y) if n > d else Xt @ (A_inv @ Y)
    elif n > d:
        out = A_inv
    else:
        B = A_inv @ X
        out = B.transpose(0, 2, 1) @ B
    return out, kappa <= KAPPA_MAX


def _reference_min_norm(X, Y, rcond):
    """One chunk's results, pinv fallbacks and dropped trials."""
    b = len(X)
    try:
        out, passed = _reference_gram_solve(X, Y)
    except np.linalg.LinAlgError:
        out = np.empty((b, X.shape[2], X.shape[2] if Y is None else Y.shape[2]))
        passed = np.zeros(b, dtype=bool)
        for t in range(b):
            try:
                one, ok = _reference_gram_solve(X[t:t + 1], None if Y is None else Y[t:t + 1])
                out[t], passed[t] = one[0], ok[0]
            except np.linalg.LinAlgError:
                pass
    fallbacks = dropped = 0
    for t in range(b):
        if passed[t]:
            continue
        fallbacks += 1
        try:
            P = np.linalg.pinv(X[t], rcond=rcond)
            out[t] = P @ P.T if Y is None else P @ Y[t]
        except np.linalg.LinAlgError:
            out[t] = np.nan
            dropped += 1
    return out, fallbacks, dropped


def _merged_stat(chunks):
    """Mean and SE of chunks of values, elementwise over their leading axis, merged
    chunk by chunk, written out: each chunk's count, mean and sum of squared
    deviations, merged in order by Chan et al.; NaN for both over no values."""
    count, mean, m2 = 0, 0.0, 0.0
    for x in chunks:
        n_b = len(x)
        if not n_b:
            continue
        m_b = x.mean(axis=0)
        m2_b = ((x - m_b) ** 2).sum(axis=0)
        total = count + n_b
        delta = m_b - mean
        mean = mean + delta * (n_b / total)
        m2 = m2 + (m2_b + delta * delta * count * (n_b / total))
        count = total
    if not count:
        return math.nan, math.nan
    return mean, (np.sqrt(m2 / (count - 1)) / np.sqrt(count) if count > 1 else math.nan)


def _reference_monte_carlo_gap(config, plant=None):
    """The report and the per-trial gaps; ``plant(chunk, X)`` may edit each chunk's draw."""
    d, k, n = config.d, config.k, config.n
    rng = np.random.default_rng(config.seed)
    rcond = np.finfo(float).eps * max(n, d)
    gaps = np.full(config.trials, np.nan)
    kept = []  # each chunk's gaps, less its dropped trials' NaNs
    failed = fallbacks = 0
    done = 0
    while done < config.trials:
        b = min(_CHUNK, config.trials - done)
        X = config.sigma_x * rng.standard_normal((b, n, d))
        xi = config.sigma_xi * rng.standard_normal((b, n, k))
        if plant is not None:
            plant(done // _CHUNK, X)
        Y = X @ config.theta + xi
        W, redone, dropped = _reference_min_norm(X, Y, rcond)
        W_perp = W - config.tensor.apply_batch(W)  # complement_batch as it was
        chunk = gaps[done:done + b]
        chunk[:] = config.sigma_x ** 2 * (W_perp ** 2).sum(axis=(1, 2))
        kept.append(chunk[~np.isnan(chunk)] if dropped else chunk)
        fallbacks += redone
        failed += dropped
        done += b
    mean, se = _merged_stat(kept)
    closed = closed_form_gap_equivariant(config)
    dim_a = d * k - character_inner(config.psi, config.phi)
    verdict = "pass" if abs(mean - closed) <= 4.0 * se else "fail"
    report = GapReport(
        mc_gap_mean=mean, mc_gap_se=se, closed_form=closed,
        dim_A=float(dim_a), verdict=verdict,
        metadata={"trials": config.trials, "failed_trials": failed, "pinv_fallbacks": fallbacks},
    )
    return report, gaps


def _reference_verify_wishart(n, d, trials, seed, plant=None):
    r = wishart_coefficient(n, d)
    rng = np.random.default_rng(seed)
    rcond = np.finfo(float).eps * max(n, d)
    chunks = []
    fallbacks = 0
    done = 0
    while done < trials:
        b = min(_CHUNK, trials - done)
        X = rng.standard_normal((b, n, d))
        if plant is not None:
            plant(done // _CHUNK, X)
        G, redone, dropped = _reference_min_norm(X, None, rcond)
        assert dropped == 0
        chunks.append(G)
        fallbacks += redone
        done += b
    mean, se = _merged_stat(chunks)
    dev = np.abs(mean - r * np.eye(d))
    max_abs_z = float(np.max(dev / np.maximum(se, 1e-300)))
    verdict = "pass" if np.all(dev <= 4.0 * se) else "fail"
    return WishartReport(
        trials=trials, coefficient=r, entry_mean=mean, entry_se=se,
        max_abs_z=max_abs_z, verdict=verdict, pinv_fallbacks=fallbacks,
    )


def _projection_columns(n, d, trials, seed):
    """The six per-trial columns of verify_projection_tensor, alpha's first, and the
    chunk bounds they were drawn in."""
    rng = np.random.default_rng(seed)
    columns = np.empty((6, trials))
    off = d * (d - 1)
    bounds = []
    done = 0
    while done < trials:
        b = min(_CHUNK, trials - done)
        Z = rng.standard_normal((b, d, n))
        Q = np.linalg.qr(Z)[0]
        P = Q @ Q.transpose(0, 2, 1)
        diag = np.einsum("tii->ti", P)
        s1 = diag.sum(axis=1)
        s2 = (diag ** 2).sum(axis=1)
        frob = (P ** 2).sum(axis=(1, 2))
        cross = np.einsum("tij,tji->t", P, P)
        sl = slice(done, done + b)
        columns[:, sl] = (s1 ** 2 - s2) / off, (frob - s2) / off, (cross - s2) / off, s1 ** 2, frob, cross
        bounds.append(sl)
        done += b
    return columns, bounds


def _reference_verify_projection_tensor(n, d, trials, seed):
    """The six statistics, each merged chunk by chunk."""
    columns, bounds = _projection_columns(n, d, trials, seed)
    beta = n * (d - n) / (d * (d - 1) * (d + 2))
    alpha = beta + n * (n - 1) / (d * (d - 1))
    gamma = beta

    (
        (alpha_hat, alpha_se), (beta_hat, beta_se), (gamma_hat, gamma_se),
        (tr2_mean, tr2_se), (trptp_mean, trptp_se), (trp2_mean, trp2_se),
    ) = (_merged_stat(column[sl] for sl in bounds) for column in columns)
    system = np.array([[d ** 2, d, d], [d, d ** 2, d], [d, d, d ** 2]], dtype=np.float64)
    fit = np.linalg.solve(system, np.array([tr2_mean, trptp_mean, trp2_mean]))
    jitter = 64 * np.finfo(float).eps
    ok = (
        abs(alpha_hat - alpha) <= 4 * alpha_se
        and abs(beta_hat - beta) <= 4 * beta_se
        and abs(gamma_hat - gamma) <= 4 * gamma_se
        and abs(tr2_mean - n ** 2) <= 4 * tr2_se + jitter * n ** 2
        and abs(trptp_mean - n) <= 4 * trptp_se + jitter * n
        and abs(trp2_mean - n) <= 4 * trp2_se + jitter * n
        and np.allclose(fit, [alpha, beta, gamma], rtol=1e-6, atol=1e-12)
    )
    return ProjectionTensorReport(
        trials=trials, alpha=alpha, beta=beta, gamma=gamma,
        alpha_hat=alpha_hat, alpha_se=alpha_se, beta_hat=beta_hat, beta_se=beta_se,
        gamma_hat=gamma_hat, gamma_se=gamma_se,
        contraction_fit=tuple(float(v) for v in fit),
        trace_sq_mean=tr2_mean, trace_sq_se=tr2_se,
        verdict="pass" if ok else "fail",
    )


def _assert_same_report(report, reference):
    assert type(report) is type(reference)
    for f in dataclasses.fields(reference):
        got, want = getattr(report, f.name), getattr(reference, f.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        else:
            # == on floats: the same bits, or both NaN (a standard error over one trial)
            assert got == want or (isinstance(want, float) and math.isnan(want) and math.isnan(got)), f.name


def _config(kind, trials):
    if kind == "invariant":
        # n > d + 1: the overdetermined closed form
        rep = build_representation(build_group("cyclic 4"), "natural_permutation")
        return invariant_config(rep, np.ones(4), 10, sigma_x=1.3, sigma_xi=0.7,
                                trials=trials, seed=11)
    # n < d - 1: the overparameterised closed form
    group = build_group("dihedral 4")
    rep = build_representation(group, "natural_permutation")
    tensor = build_psi(rep, rep)
    theta = random_equivariant_target(tensor, np.random.default_rng(3), fro_norm=1.0)
    return LinearGapConfig(tensor=tensor, theta=theta, n=2, sigma_x=1.3, sigma_xi=0.7,
                           trials=trials, seed=12)


# one chunk, ragged single chunks, an odd count with a ragged last chunk, an even count
@pytest.mark.parametrize("trials", [1, 511, 512, 513, 1537, 2048])
@pytest.mark.parametrize("kind", ["invariant", "equivariant"])
def test_monte_carlo_gap_matches_serial_loop(kind, trials):
    config = _config(kind, trials)
    reference, _ = _reference_monte_carlo_gap(config)
    _assert_same_report(monte_carlo_gap(config), reference)


@pytest.mark.parametrize("trials", [1000, 1537])
def test_verify_wishart_matches_serial_loop(trials):
    for n, d in ((20, 3), (2, 6)):
        _assert_same_report(verify_wishart(n, d, trials, seed=5),
                            _reference_verify_wishart(n, d, trials, seed=5))


@pytest.mark.parametrize("trials", [2, 513, 1537])
def test_verify_projection_tensor_matches_serial_loop(trials):
    _assert_same_report(verify_projection_tensor(2, 5, trials, seed=6),
                        _reference_verify_projection_tensor(2, 5, trials, seed=6))


@pytest.mark.parametrize("trials", [2, 511, 512, 513, 1537])
@pytest.mark.parametrize("n, d", [(2, 5), (1, 2)])
def test_merged_moments_agree_with_the_whole_column(n, d, trials):
    columns, bounds = _projection_columns(n, d, trials, seed=6)
    for column in columns:
        merged = RunningMoments()
        for sl in bounds:
            merged.add(column[sl])
        merged_mean, merged_se = merged.estimate()
        mean, se = float(column.mean()), float(column.std(ddof=1) / math.sqrt(trials))
        assert merged.count == trials
        assert merged_mean == pytest.approx(mean, rel=1e-12, abs=0)
        # The three contractions are constant up to rounding, so an SE over them is
        # rounding dust: a mean off by its rounding, eps |mean|, moves each deviation
        # by about as much as the spread, and the SE by up to eps |mean| / sqrt(n - 1).
        floor = np.finfo(float).eps * abs(mean) / math.sqrt(trials - 1)
        assert abs(merged_se - se) <= 1e-12 * se + floor


@pytest.mark.parametrize("loop", ["monte_carlo_gap", "verify_wishart", "verify_projection_tensor"])
def test_peak_memory_does_not_grow_with_trials(loop):
    def call(trials):
        if loop == "monte_carlo_gap":
            config = dataclasses.replace(_config("invariant", 1), trials=trials)
            return lambda: monte_carlo_gap(config)
        if loop == "verify_wishart":
            return lambda: verify_wishart(2, 6, trials, seed=5)
        return lambda: verify_projection_tensor(2, 5, trials, seed=6)

    call(1000)()  # the first call's one-time costs
    peaks = []
    for trials in (2000, 200_000):
        run = call(trials)
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a few full chunks of 512 trials take 0.5 MB at most; a column of 200 000
    # trials would take 1.6 MB
    assert peaks[1] < 2 ** 20
    assert abs(peaks[1] - peaks[0]) <= 2 ** 16


def _planting(monkeypatch, plant):
    """Make linear_gap's chunk loop pass each chunk's draw through ``plant(chunk, X)``
    before its work runs; return the list it appends each chunk's result to."""
    seen = []

    def planted(trials, draw, work):
        def planted_draw(b):
            drawn = draw(b)
            plant(len(seen), drawn[0])
            return drawn

        for result in _chunked(trials, planted_draw, work):
            seen.append(result)
            yield result

    monkeypatch.setattr(linear_gap, "_chunked", planted)
    return seen


# the workload shapes of linear-mc: (n, d) and, for a gap, its kind of config
_GAP_SHAPES = {
    (10, 4): ("symmetric 2", "direct_sum trivial 3 + sign", None),
    (6, 12): ("cyclic 12", "natural_permutation", None),
    (12, 3): ("symmetric 3", "natural_permutation", "natural_permutation"),
    (2, 4): ("dihedral 4", "natural_permutation", "natural_permutation"),
}


def _shape_config(n, d, trials):
    group_name, rep_name, out_name = _GAP_SHAPES[(n, d)]
    rep = build_representation(build_group(group_name), rep_name)
    assert rep.dim == d
    if out_name is None:
        theta = build_psi(rep, build_representation(rep.group, "trivial 1")).apply(np.ones((d, 1)))
        return invariant_config(rep, theta / np.linalg.norm(theta), n, trials=trials, seed=21)
    rep_out = build_representation(rep.group, out_name)
    tensor = build_psi(rep, rep_out)
    theta = random_equivariant_target(tensor, np.random.default_rng(4), fro_norm=1.0)
    return LinearGapConfig(tensor=tensor, theta=theta, n=n, trials=trials, seed=21)


def _pinv_gaps(config):
    """The per-trial gaps with every trial solved by pinv, as before the Gram solve."""
    rng = np.random.default_rng(config.seed)
    rcond = np.finfo(float).eps * max(config.n, config.d)
    gaps = []
    for start in range(0, config.trials, _CHUNK):
        b = min(_CHUNK, config.trials - start)
        X = config.sigma_x * rng.standard_normal((b, config.n, config.d))
        Y = X @ config.theta + config.sigma_xi * rng.standard_normal((b, config.n, config.k))
        W_perp = config.tensor.complement_batch(np.linalg.pinv(X, rcond=rcond) @ Y)
        gaps.append(config.sigma_x ** 2 * (W_perp ** 2).sum(axis=(1, 2)))
    return np.concatenate(gaps)


@pytest.mark.parametrize("n, d", list(_GAP_SHAPES))
def test_gram_solve_gaps_agree_with_pinv_on_the_workload_shapes(monkeypatch, n, d):
    config = _shape_config(n, d, 4 * _CHUNK)
    seen = _planting(monkeypatch, lambda chunk, X: None)
    report = monte_carlo_gap(config)
    gaps = np.concatenate([chunk_gaps for chunk_gaps, _, _ in seen])
    want = _pinv_gaps(config)
    assert report.metadata["pinv_fallbacks"] == 0
    np.testing.assert_allclose(gaps, want, rtol=1e-10, atol=0)
    assert report.mc_gap_mean == pytest.approx(float(want.mean()), rel=1e-10, abs=0)


@pytest.mark.parametrize("n, d", [(20, 3), (2, 6)])
def test_gram_solve_wishart_entries_agree_with_pinv(n, d):
    trials = 4 * _CHUNK
    rng = np.random.default_rng(5)
    rcond = np.finfo(float).eps * max(n, d)
    total = np.zeros((d, d))
    for start in range(0, trials, _CHUNK):
        P = np.linalg.pinv(rng.standard_normal((min(_CHUNK, trials - start), n, d)), rcond=rcond)
        total += (P @ P.transpose(0, 2, 1)).sum(axis=0)
    report = verify_wishart(n, d, trials, seed=5)
    assert report.pinv_fallbacks == 0
    np.testing.assert_allclose(report.entry_mean, total / trials, rtol=1e-10, atol=0)


def _plant_two(rows_repeat):
    """Chunk 1's trial 5 gets a repeated column (a repeated row when ``rows_repeat``),
    so its Gram is singular, and its trial 9 a nearly repeated one, so its Gram's
    kappa_1 is far above KAPPA_MAX."""

    def plant(chunk, X):
        if chunk != 1:
            return
        for t, eps in ((5, 0.0), (9, 1e-6)):
            Z = X[t].T if rows_repeat else X[t]
            Z[:, -1] = Z[:, 0] + eps * Z[:, 1]

    return plant


@pytest.mark.parametrize("kind", ["invariant", "equivariant"])
def test_gate_sends_a_singular_and_an_ill_conditioned_trial_to_pinv(monkeypatch, kind):
    config = _config(kind, 3 * _CHUNK)
    plant = _plant_two(rows_repeat=config.n < config.d)
    drawn = []
    seen = _planting(monkeypatch, lambda chunk, X: (plant(chunk, X), drawn.append(X.copy())))
    report = monte_carlo_gap(config)
    reference, reference_gaps = _reference_monte_carlo_gap(config, plant)
    _assert_same_report(report, reference)
    assert report.metadata["pinv_fallbacks"] == 2
    assert report.metadata["failed_trials"] == 0
    gaps = np.concatenate([chunk_gaps for chunk_gaps, _, _ in seen])
    assert np.array_equal(gaps, reference_gaps)
    # replay the draws: X then xi, chunk by chunk
    rng = np.random.default_rng(config.seed)
    rcond = np.finfo(float).eps * max(config.n, config.d)
    for chunk in range(2):
        rng.standard_normal((_CHUNK, config.n, config.d))
        xi = config.sigma_xi * rng.standard_normal((_CHUNK, config.n, config.k))
    for t in (5, 9):
        X = drawn[1][t]
        A = X.T @ X if config.n > config.d else X @ X.T
        assert np.linalg.cond(A, 1) > KAPPA_MAX
        W = np.linalg.pinv(X, rcond=rcond) @ (X @ config.theta + xi[t])
        w_perp = W - config.tensor.apply(W)
        assert gaps[_CHUNK + t] == pytest.approx(config.sigma_x ** 2 * float((w_perp ** 2).sum()), rel=1e-12)


@pytest.mark.parametrize("n, d", [(20, 3), (2, 6)])
def test_gate_counts_wishart_fallbacks(monkeypatch, n, d):
    plant = _plant_two(rows_repeat=n < d)
    _planting(monkeypatch, plant)
    report = verify_wishart(n, d, 3 * _CHUNK, seed=5)
    assert report.pinv_fallbacks == 2
    _assert_same_report(report, _reference_verify_wishart(n, d, 3 * _CHUNK, seed=5, plant=plant))


@pytest.mark.parametrize("chunk", [1, 3])  # a middle chunk, the last one
def test_svd_failure_drops_one_trial_and_keeps_the_rest(monkeypatch, chunk):
    config = _config("invariant", 4 * _CHUNK)

    def plant(index, X):
        if index == chunk:
            X[7][:, -1] = X[7][:, 0]  # a singular Gram, so pinv is called on it

    drawn = []
    seen = _planting(monkeypatch, lambda index, X: (plant(index, X), drawn.append(X.copy())))
    pinv = np.linalg.pinv

    def flaky_pinv(a, *args, **kwargs):
        if len(drawn) > chunk and np.array_equal(a, drawn[chunk][7]):
            raise np.linalg.LinAlgError("SVD did not converge")
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", flaky_pinv)
    report = monte_carlo_gap(config)
    reference, reference_gaps = _reference_monte_carlo_gap(config, plant)
    assert report.metadata["failed_trials"] == 1
    assert report.metadata["pinv_fallbacks"] == 1
    gaps = np.concatenate([chunk_gaps for chunk_gaps, _, _ in seen])
    assert [len(chunk_gaps) for chunk_gaps, _, _ in seen] == [_CHUNK] * 4
    assert np.flatnonzero(np.isnan(gaps)).tolist() == [chunk * _CHUNK + 7]
    assert np.array_equal(gaps, reference_gaps, equal_nan=True)
    _assert_same_report(report, reference)


def test_a_nan_gap_that_no_dropped_trial_explains_fails_the_gate(monkeypatch):
    min_norm = linear_gap._min_norm

    def nan_trial(X, Y, rcond):
        W, redone, dropped = min_norm(X, Y, rcond)
        W[3] = np.nan  # not counted as dropped
        return W, redone, dropped

    monkeypatch.setattr(linear_gap, "_min_norm", nan_trial)
    report = monte_carlo_gap(_config("invariant", 600))
    assert report.metadata["failed_trials"] == 0
    assert math.isnan(report.mc_gap_mean) and math.isnan(report.mc_gap_se)
    assert report.verdict == "fail"


def test_a_run_whose_every_trial_is_dropped_reports_nan_and_fails(monkeypatch):
    config = _config("invariant", 100)  # one chunk

    def plant(index, X):
        X[:, :, -1] = X[:, :, 0]  # every Gram singular, so every trial goes to pinv

    def failing_pinv(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    _planting(monkeypatch, plant)
    monkeypatch.setattr(np.linalg, "pinv", failing_pinv)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a mean over no trials must not warn
        report = monte_carlo_gap(config)
    assert report.metadata["failed_trials"] == report.metadata["pinv_fallbacks"] == 100
    assert math.isnan(report.mc_gap_mean) and math.isnan(report.mc_gap_se)
    assert report.verdict == "fail"


def test_wishart_svd_failure_in_the_fallback_raises(monkeypatch):
    _planting(monkeypatch, _plant_two(rows_repeat=False))

    def failing_pinv(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", failing_pinv)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        verify_wishart(20, 3, 3 * _CHUNK, seed=5)


def test_chunks_come_back_in_order_each_drawn_just_before_its_work():
    drawn = []

    def draw(b):
        drawn.append(b)
        return len(drawn) - 1, b

    results = []
    for result in _chunked(3 * _CHUNK + 1, draw, lambda index, b: (index, b)):
        assert len(drawn) == len(results) + 1  # drawn lazily, one chunk at a time
        results.append(result)
    assert drawn == [_CHUNK, _CHUNK, _CHUNK, 1]
    assert results == [(0, _CHUNK), (1, _CHUNK), (2, _CHUNK), (3, 1)]
