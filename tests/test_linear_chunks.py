"""The chunk loops of linear_gap against the one-thread loops they replaced.

Each ``_reference_*`` function below is the whole function as it was when
its chunks ran one after another on one thread, with the ``while done <
trials`` loop written out.  ``_chunked`` computes two chunks at once, one on
a helper thread, and the loop bodies square in place; every report field
must still carry the same bits, not merely close values.
"""

import dataclasses
import math
import threading

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
    _is_trivial_scalar,
    closed_form_gap_equivariant,
    invariant_config,
    monte_carlo_gap,
    random_equivariant_target,
    verify_projection_tensor,
    verify_wishart,
    wishart_coefficient,
)


def _reference_monte_carlo_gap(config):
    d, k, n = config.d, config.k, config.n
    rng = np.random.default_rng(config.seed)
    rcond = np.finfo(float).eps * max(n, d)
    gaps = np.full(config.trials, np.nan)
    failed = 0
    done = 0
    while done < config.trials:
        b = min(_CHUNK, config.trials - done)
        X = config.sigma_x * rng.standard_normal((b, n, d))
        xi = config.sigma_xi * rng.standard_normal((b, n, k))
        Y = X @ config.theta + xi
        try:
            W = np.linalg.pinv(X, rcond=rcond) @ Y
            W_perp = W - config.tensor.apply_batch(W)  # complement_batch as it was
            gaps[done:done + b] = config.sigma_x ** 2 * (W_perp ** 2).sum(axis=(1, 2))
        except np.linalg.LinAlgError:
            for t in range(b):
                try:
                    W = np.linalg.pinv(X[t], rcond=rcond) @ Y[t]
                    w_perp = config.tensor.complement(W)
                    gaps[done + t] = config.sigma_x ** 2 * float((w_perp ** 2).sum())
                except np.linalg.LinAlgError:
                    failed += 1
        done += b
    valid = gaps[~np.isnan(gaps)]
    mean = float(valid.mean())
    se = float(valid.std(ddof=1) / math.sqrt(len(valid))) if len(valid) > 1 else math.nan
    closed = closed_form_gap_equivariant(config)
    dim_a = d * k - character_inner(config.psi, config.phi)
    verdict = "pass" if abs(mean - closed) <= 4.0 * se else "fail"
    experiment = "gap-linear" if _is_trivial_scalar(config.psi) else "gap-equivariant"
    report = GapReport(
        experiment=experiment, mc_gap_mean=mean, mc_gap_se=se, closed_form=closed,
        dim_A=float(dim_a), verdict=verdict,
        metadata={
            "group": config.phi.group.name, "d": d, "k": k, "n": n,
            "sigma_x": config.sigma_x, "sigma_xi": config.sigma_xi,
            "trials": config.trials, "seed": config.seed, "failed_trials": failed,
        },
    )
    return report, gaps


def _reference_verify_wishart(n, d, trials, seed):
    r = wishart_coefficient(n, d)
    rng = np.random.default_rng(seed)
    rcond = np.finfo(float).eps * max(n, d)
    total = np.zeros((d, d))
    total_sq = np.zeros((d, d))
    done = 0
    while done < trials:
        b = min(_CHUNK, trials - done)
        X = rng.standard_normal((b, n, d))
        P = np.linalg.pinv(X, rcond=rcond)
        G = P @ P.transpose(0, 2, 1)
        total += G.sum(axis=0)
        total_sq += (G ** 2).sum(axis=0)
        done += b
    mean = total / trials
    var = np.maximum(total_sq - trials * mean ** 2, 0.0) / (trials - 1)
    se = np.sqrt(var / trials)
    dev = np.abs(mean - r * np.eye(d))
    max_abs_z = float(np.max(dev / np.maximum(se, 1e-300)))
    verdict = "pass" if np.all(dev <= 4.0 * se) else "fail"
    return WishartReport(
        n=n, d=d, trials=trials, coefficient=r, entry_mean=mean, entry_se=se,
        max_abs_z=max_abs_z, verdict=verdict,
    )


def _reference_verify_projection_tensor(n, d, trials, seed):
    rng = np.random.default_rng(seed)
    a_t = np.empty(trials)
    b_t = np.empty(trials)
    g_t = np.empty(trials)
    tr2_t = np.empty(trials)
    trptp_t = np.empty(trials)
    trp2_t = np.empty(trials)
    off = d * (d - 1)
    done = 0
    while done < trials:
        b = min(_CHUNK, trials - done)
        Z = rng.standard_normal((b, d, n))
        Q = np.linalg.qr(Z)[0]
        P = Q @ Q.transpose(0, 2, 1)
        diag = np.einsum("tii->ti", P)
        s1 = diag.sum(axis=1)
        s2 = (diag ** 2).sum(axis=1)
        sl = slice(done, done + b)
        a_t[sl] = (s1 ** 2 - s2) / off
        frob = (P ** 2).sum(axis=(1, 2))
        b_t[sl] = (frob - s2) / off
        cross = np.einsum("tij,tji->t", P, P)
        g_t[sl] = (cross - s2) / off
        tr2_t[sl] = s1 ** 2
        trptp_t[sl] = frob
        trp2_t[sl] = cross
        done += b

    beta = n * (d - n) / (d * (d - 1) * (d + 2))
    alpha = beta + n * (n - 1) / (d * (d - 1))
    gamma = beta

    def stat(x):
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(trials))

    alpha_hat, alpha_se = stat(a_t)
    beta_hat, beta_se = stat(b_t)
    gamma_hat, gamma_se = stat(g_t)
    tr2_mean, tr2_se = stat(tr2_t)
    trptp_mean, trptp_se = stat(trptp_t)
    trp2_mean, trp2_se = stat(trp2_t)
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
        n=n, d=d, trials=trials, alpha=alpha, beta=beta, gamma=gamma,
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
    theta = random_equivariant_target(build_psi(rep, rep), np.random.default_rng(3), fro_norm=1.0)
    return LinearGapConfig(phi=rep, psi=rep, theta=theta, n=2, sigma_x=1.3, sigma_xi=0.7,
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


@pytest.mark.parametrize("chunk", [1, 2])  # the caller's chunk of a pair, the helper's of the next
def test_svd_failure_drops_one_trial_and_keeps_the_rest(monkeypatch, chunk):
    config = _config("invariant", 4 * _CHUNK)
    # replay the draws to know the chunk's inputs: X then xi, chunk by chunk
    rng = np.random.default_rng(config.seed)
    for _ in range(chunk):
        rng.standard_normal((_CHUNK, config.n, config.d))
        rng.standard_normal((_CHUNK, config.n, config.k))
    bad = config.sigma_x * rng.standard_normal((_CHUNK, config.n, config.d))
    failing_threads = set()
    pinv = np.linalg.pinv

    def flaky_pinv(a, *args, **kwargs):
        # stateless, so the two threads may call it in either order
        if np.array_equal(a, bad) or np.array_equal(a, bad[7]):
            failing_threads.add(threading.current_thread() is threading.main_thread())
            raise np.linalg.LinAlgError("SVD did not converge")
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", flaky_pinv)
    seen = []

    def spy(trials, draw, work):
        for start, result in _chunked(trials, draw, work):
            seen.append((start, result))
            yield start, result

    monkeypatch.setattr(linear_gap, "_chunked", spy)
    report = monte_carlo_gap(config)
    assert failing_threads == {chunk % 2 == 1}  # odd chunks run on the caller
    reference, reference_gaps = _reference_monte_carlo_gap(config)
    assert report.metadata["failed_trials"] == 1
    gaps = np.concatenate([chunk_gaps for _, (chunk_gaps, _) in seen])
    assert [start for start, _ in seen] == list(range(0, config.trials, _CHUNK))
    assert np.flatnonzero(np.isnan(gaps)).tolist() == [chunk * _CHUNK + 7]
    assert np.array_equal(gaps, reference_gaps, equal_nan=True)
    _assert_same_report(report, reference)


def _numbered_draws():
    drawn = []

    def draw(b):
        drawn.append(b)
        return len(drawn) - 1, b

    return drawn, draw


def test_chunks_come_back_in_order_with_serial_draws_and_two_in_flight():
    drawn, draw = _numbered_draws()
    threads = {}

    def work(index, b):
        threads[index] = threading.current_thread() is threading.main_thread()
        return index, b

    results = []
    for start, result in _chunked(3 * _CHUNK + 1, draw, work):
        assert len(drawn) - len(results) <= 2  # drawn lazily, never ahead of the pair
        results.append((start, result))
    assert drawn == [_CHUNK, _CHUNK, _CHUNK, 1]
    assert results == [(0, (0, _CHUNK)), (_CHUNK, (1, _CHUNK)),
                       (2 * _CHUNK, (2, _CHUNK)), (3 * _CHUNK, (3, 1))]
    assert threads == {0: False, 1: True, 2: False, 3: True}


def test_helper_error_reaches_the_caller_and_no_thread_is_left():
    before = threading.active_count()
    drawn, draw = _numbered_draws()
    assert len(list(_chunked(5 * _CHUNK, draw, lambda index, b: index))) == 5
    assert threading.active_count() == before

    def work(index, b):
        if index == 2:  # the helper's chunk of the second pair
            assert threading.current_thread() is not threading.main_thread()
            raise ValueError("chunk 2")
        return index

    drawn, draw = _numbered_draws()
    with pytest.raises(ValueError, match="chunk 2"):
        list(_chunked(5 * _CHUNK, draw, work))
    assert threading.active_count() == before
