"""Kernel ridge regression with Haar-averaged kernels.

Provides the KRR solver, the switch-condition checker, averaged and
remainder kernel evaluation, the N[.] second-moment functionals, the
kernel-invariance lower bound experiment, and its linear-kernel
specialization on the sphere.

Kernels are evaluated through Gram callables gram(A, B)[i, j] = k(a_i, b_j).
The averaged kernel transforms the second argument,
kbar(x, y) = (1/|G|) sum_g k(x, phi(g) y), so for a fitted KRR model the
averaged predictor sum_i alpha_i kbar(x_i, .) is exactly the group
average of the fitted function.  A Representation stores phi(e) as exactly
I, so the identity element's term of the averaged Gram is always the base
Gram itself, and the remainder kernel k - kbar takes that Gram once.

Each gap trial estimates |f_perp|^2 = |f - Qf|^2_mu of its fit f without
the averaged Gram: since mu is G-invariant and phi orthogonal, |f_perp|^2 =
1/2 E_{t~mu, g~Haar}[(f(t) - f(g t))^2], so one Haar draw per test point
and one Gram against the stacked points and their images give an unbiased
estimate.  The gap experiment and its noiseless bias estimate run one trial
loop.  A standard error over fewer than two values is NaN, so a 4-SE
verdict on it fails.

The trial loop runs in chunks of trials, and the chunk is the stream unit.
A chunk takes one stacked Gram of its samples, and fits each trial by its
own fit_krr call on that trial's slice of it, so that one fit is one trial
and its jitter retry depends on no other trial.  It predicts its fits in
blocks of trials from sampling.blocks, the memory unit: the fits' Gram, and
a block's gathered group matrices and its Gram, each hold at most
sampling.BLOCK_ENTRIES entries, or one trial's when a trial needs more.  So
the fits' Gram too is taken in blocks when the samples outnumber the test
points (n above n_test), and no value depends on where the blocks fall.
The Gram callables, fit_krr and KrrModel.predict take a stack (..., n, d)
of samples as well as one sample; k(x_i, y_i) for aligned rows is the Gram
of the (n, 1, d) stacks, so no Gram entry off that diagonal is computed.
The linear and Gaussian Grams are the module's own and take stacks by
construction, which the tests pin; _validate_kernel guards the one kernel
whose matrix comes from outside, explicit_bilinear_kernel's, refusing it
when it is not symmetric, positive definite or stack-taking.
Each chunk draws from its own stream,
sampling.stream(seed, purpose, chunk), with the purpose "krr_trials" for
the gap's noisy trials and "krr_bias" for the bias estimate's noiseless
ones; the N estimate, the Mk probe and the check of
f_star draw from their own purposes' streams.  The calling thread runs the
even chunks and one helper thread the odd ones, each writing its own
trials, so the results depend neither on scheduling nor on the number of
cores.

fit_krr checks that K + rho I is positive definite by np.linalg.cholesky,
raising the diagonal when it is not, and solves the system with
np.linalg.solve; the package needs numpy alone.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gates
from .averaging import build_phi, group_average
from .groups import Representation
from .linear_gap import GapReport
from .sampling import Distribution, RunningMoments, blocks, stream

__all__ = [
    "KernelSpec",
    "AveragedKernel",
    "KrrModel",
    "KrrGapConfig",
    "linear_kernel",
    "gaussian_kernel",
    "explicit_bilinear_kernel",
    "check_switch_condition",
    "build_averaged_kernel",
    "estimate_N",
    "fit_krr",
    "krr_gap_experiment",
    "estimate_bias_term",
    "linear_kernel_bound",
]

SWITCH_VERIFY_TOL = 1e-9
SWITCH_REFUTE_TOL = 1e-6
MIN_PAIRS = 1000  # estimate_N's least number of pairs

# Gram entries (trials x n x 2 n_test) that set the trials of one chunk, the
# unit of the KRR trial streams; shorter chunks spend their time handing the
# interpreter lock between workers
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A base kernel with a group action on its input space.

    Mk is sup_x k(x, x) over the support of the sampling distribution;
    None means not declared (the gap experiment will estimate it).
    """

    name: str
    action: Representation
    gram: Callable[[np.ndarray, np.ndarray], np.ndarray]
    Mk: float | None = None

    @property
    def dim(self) -> int:
        return self.action.dim


def _validate_kernel(spec: KernelSpec) -> KernelSpec:
    rng = np.random.default_rng(20)
    d = spec.dim
    X, Y = rng.standard_normal((2, 8, d))
    K = spec.gram(X, Y)
    if np.max(np.abs(K - spec.gram(Y, X).T)) > 1e-12:
        raise ValueError(f"kernel {spec.name!r} is not symmetric")
    try:  # the stack contract: the Gram of (8, 1, d) stacks is the (8, 8) Gram's diagonal
        pairs = _pair_values(spec.gram, X, Y)
    except (ValueError, IndexError):  # a shape mismatch, or a Gram of the wrong rank
        pairs = np.full(8, np.nan)
    if not np.max(np.abs(pairs - np.diagonal(K))) <= 1e-12:
        raise ValueError(f"kernel {spec.name!r} does not take stacks (..., m, d)")
    P = rng.standard_normal((30, d))
    K = spec.gram(P, P)
    if float(np.linalg.eigvalsh((K + K.T) / 2).min()) < -1e-8:
        raise ValueError(f"kernel {spec.name!r} is not positive definite on random points")
    return spec


def linear_kernel(action: Representation, Mk: float | None = None) -> KernelSpec:
    return KernelSpec("linear", action, lambda A, B: A @ np.swapaxes(B, -1, -2), Mk)


def _square(key: str, value: float) -> float:
    """value ** 2, refused with a ValueError that names key when it overflows or
    underflows to 0: a Python float's square raises OverflowError past the range,
    and a square of 0 from a nonzero value divides 0 by 0 or zeroes a bound."""
    try:
        square = float(value) ** 2
    except OverflowError:
        raise ValueError(f"{key} is {value!r}: its square overflows") from None
    if square == 0.0 and value != 0.0:
        raise ValueError(f"{key} is {value!r}: its square underflows to 0")
    return square


def gaussian_kernel(action: Representation, bandwidth: float) -> KernelSpec:
    """exp(-|a - b|^2 / 2 bandwidth^2); k(x, x) = 1, so Mk is 1."""
    if not bandwidth > 0:  # NaN fails too
        raise ValueError("bandwidth must be > 0")

    minus_two_h2 = -2.0 * _square("bandwidth", bandwidth)

    def gram(A, B):
        # exp(-max((|a|^2 + |b|^2) - 2ab, 0) / 2h^2) in two buffers, with the
        # one-line expression's operations in its order; x / -c is -x / c bit
        # for bit, since rounding to nearest is symmetric in sign
        ab = A @ np.swapaxes(B, -1, -2)
        ab *= 2.0
        a2 = (A ** 2).sum(axis=-1)
        b2 = a2 if B is A else (B ** 2).sum(axis=-1)
        sq = a2[..., :, None] + b2[..., None, :]
        np.subtract(sq, ab, out=sq)
        np.maximum(sq, 0.0, out=sq)
        np.divide(sq, minus_two_h2, out=sq)
        return np.exp(sq, out=sq)

    return KernelSpec(f"gaussian({bandwidth!r})", action, gram, Mk=1.0)


def explicit_bilinear_kernel(action: Representation, matrix: np.ndarray) -> KernelSpec:
    A = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(A).all():  # before A - A.T, which a NaN passes and where inf - inf warns
        raise ValueError("bilinear kernel matrix is not finite")
    if A.shape != (action.dim, action.dim) or np.max(np.abs(A - A.T)) > 1e-12:
        raise ValueError("bilinear kernel matrix must be symmetric (d, d)")
    return _validate_kernel(KernelSpec("bilinear", action, lambda X, Y: X @ A @ np.swapaxes(Y, -1, -2)))


def _pair_values(gram, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """k(x_i, y_i) for aligned rows: the (n, 1, 1) Gram of their (n, 1, d) stacks."""
    return gram(X[:, None], Y[:, None])[:, 0, 0]


def check_switch_condition(
    kernel: KernelSpec, n_pairs: int = 64, seed: int = 0
) -> tuple[str, float]:
    """Compare the group means of k(g x, y) and of k(x, g y) on random pairs.

    Returns ("verified" | "refuted" | "unchecked", max violation); the dead
    band between the two thresholds is reported as unchecked rather than
    misclassifying quadrature error.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    group = kernel.action.group
    mats = kernel.action.matrices
    X, Y = rng.standard_normal((2, n_pairs, kernel.dim))
    lhs = group_average(lambda g: _pair_values(kernel.gram, X @ mats[g].T, Y), group.elements())
    rhs = group_average(lambda g: _pair_values(kernel.gram, X, Y @ mats[g].T), group.elements())
    violation = float(np.max(np.abs(lhs - rhs)))
    if violation <= SWITCH_VERIFY_TOL:
        return "verified", violation
    if violation > SWITCH_REFUTE_TOL:
        return "refuted", violation
    return "unchecked", violation


@dataclass(frozen=True, eq=False)
class AveragedKernel:
    """kbar(x, y) = (1/|G|) sum_g k(x, phi(g) y) and its remainder k - kbar."""

    parent: KernelSpec
    switch_ok: str
    switch_violation: float

    def gram_bar(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self._gram_and_bar(A, B)[1]

    def gram_perp(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        K, Kbar = self._gram_and_bar(A, B)
        return K - Kbar

    def _gram_and_bar(self, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gram(A, B), gram_bar(A, B)) with one Gram fewer: phi(identity) is
        stored as exactly I, so B @ I.T is B bit for bit and K is the identity's term."""
        action, gram = self.parent.action, self.parent.gram
        K = gram(A, B)
        e = action.group.identity
        Kbar = group_average(
            lambda g: K if g == e else gram(A, B @ action.matrices[g].T), action.group.elements()
        )
        return K, Kbar


def build_averaged_kernel(kernel: KernelSpec, seed: int = 0) -> AveragedKernel:
    """Average the kernel over the group; record the switch-condition state."""
    status, violation = check_switch_condition(kernel, seed=seed)
    ak = AveragedKernel(parent=kernel, switch_ok=status, switch_violation=violation)
    rng = stream(seed, "kernel_check")
    X, Y = rng.standard_normal((2, 8, kernel.dim))
    # invariance in the second argument holds by construction
    mats = kernel.action.matrices
    base = ak.gram_bar(X, Y)
    for g in kernel.action.group.generators:
        if np.max(np.abs(ak.gram_bar(X, Y @ mats[g].T) - base)) > 1e-10:
            raise ValueError("averaged kernel is not invariant in its second argument")
    if status == "verified":
        if np.max(np.abs(base - ak.gram_bar(Y, X).T)) > 1e-10:
            raise ValueError("switch condition verified but averaged kernel is asymmetric")
        P = rng.standard_normal((30, kernel.dim))
        Kbar = ak.gram_bar(P, P)
        if float(np.linalg.eigvalsh((Kbar + Kbar.T) / 2).min()) < -1e-8:
            raise ValueError("switch condition verified but averaged kernel is not PSD")
    return ak


def estimate_N(
    gram: Callable[[np.ndarray, np.ndarray], np.ndarray],
    mu: Distribution,
    pairs: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo estimate of N[j] = E[j(X, Y)^2] over independent X, Y ~ mu,
    drawn from rng, e.g. ``sampling.stream(seed, "pairs")``.  The Gram
    callable takes stacks (..., m, d), as every kernel's does: each pair's
    value is the Gram of its two (1, d) rows."""
    if pairs < MIN_PAIRS:
        raise ValueError(f"estimate_N needs pairs >= {MIN_PAIRS}")
    X = mu.sample(pairs, rng)
    Y = mu.sample(pairs, rng)
    vals = _pair_values(gram, X, Y) ** 2
    return RunningMoments().add(vals).estimate()


@dataclass(frozen=True, eq=False)
class KrrModel:
    """Fitted kernel ridge regression: alpha = (K + rho I)^{-1} Y.

    X is one sample (n, d) with alpha (n,), or a stack (..., n, d) with
    alpha (..., n); predict takes points (m, d), or (..., m, d) for a stack.
    """

    kernel: KernelSpec
    X: np.ndarray
    alpha: np.ndarray

    def predict(self, X_new: np.ndarray) -> np.ndarray:
        return _combine(self.kernel.gram(self.X, X_new), self.alpha)

    def predict_averaged(self, X_new: np.ndarray, averaged: AveragedKernel) -> np.ndarray:
        # exact group average of the fitted function via kbar on the representers
        return _combine(averaged.gram_bar(self.X, X_new), self.alpha)


def _combine(K: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """sum_i alpha_i K[i, j] per sample of a stack; on one sample it is K.T @ alpha bit for bit."""
    return (np.swapaxes(K, -1, -2) @ alpha[..., None])[..., 0]


def _diagonals(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each (n, n) matrix of a C-contiguous stack, one row each."""
    n = a.shape[-1]
    return a.reshape(-1, n * n)[:, ::n + 1]


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of symmetric matrices, by
    np.linalg.cholesky; raises np.linalg.LinAlgError when any of them is
    not positive definite.  A module-level name, so that the benchmark's
    probes can count the factorizations."""
    return np.linalg.cholesky(a)


def fit_krr(
    kernel: KernelSpec, X: np.ndarray, Y: np.ndarray, rho: float, gram: np.ndarray | None = None
) -> KrrModel:
    """Solve (K + rho I) alpha = Y by Cholesky with jitter escalation.

    X is one sample (n, d) with targets Y (n,), or a stack (..., n, d) of
    samples with targets (..., n), fitted with one stacked Gram, one stacked
    factorization and one stacked solve.  cho_factor decides that each
    K + rho I is positive definite; when any factorization of a stack
    fails, all are retried with each diagonal raised by 1, 2 and 3 times
    1e-12 * trace(K_t) / n.  A NaN in X or Y raises np.linalg.LinAlgError,
    from the factorization or from the residual check.  gram is
    K = kernel.gram(X, X) when the caller has it already, read and not
    written, or None to compute it here.
    """
    if not rho > 0:  # NaN fails too
        raise ValueError("rho must be > 0")
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n = X.shape[-2]
    if gram is None:
        K = kernel.gram(X, X)
    elif gram.shape == X.shape[:-1] + (n,):
        K = gram
    else:
        raise ValueError(f"gram has shape {gram.shape}, expected {X.shape[:-1] + (n,)}")
    # K + rho * I: equal values, but only the diagonals are touched
    base = K.copy()
    _diagonals(base)[...] += rho
    alpha = None
    for attempt in range(4):
        shifted = base
        if attempt:
            shifted = base.copy()
            jitter = 1e-12 * np.trace(K, axis1=-2, axis2=-1) / n
            _diagonals(shifted)[...] += attempt * np.reshape(jitter, (-1, 1))
        try:
            cho_factor(shifted)
        except np.linalg.LinAlgError:
            continue
        # numpy has no triangular solve: one LU solve of the shifted stack
        # costs less than two general solves against its factor
        alpha = np.linalg.solve(shifted, Y[..., None])[..., 0]
        break
    if alpha is None:
        raise np.linalg.LinAlgError(
            f"Gram factorization failed; largest condition estimate {np.max(np.linalg.cond(base)):.3e}"
        )
    residual = (base @ alpha[..., None])[..., 0]
    residual -= Y
    # |r|^2 <= (1e-8 max(1, |Y|))^2, written so that a NaN residual fails; one
    # fit per trial makes this check a hot path, hence the bare ufunc reductions
    residual_sq = np.add.reduce(residual * residual, axis=-1)
    bound_sq = 1e-16 * np.maximum(1.0, np.add.reduce(Y * Y, axis=-1))
    if not np.logical_and.reduce(residual_sq <= bound_sq, axis=None):
        raise np.linalg.LinAlgError(f"KRR solve residual too large: {math.sqrt(np.max(residual_sq)):.3e}")
    return KrrModel(kernel=kernel, X=X, alpha=alpha)


@dataclass(frozen=True, eq=False)
class KrrGapConfig:
    """Averaged-KRR gap experiment with an invariant target.

    f_star must be invariant under the kernel's action (checked on
    samples); mu must be one of the invariant distributions.  Every size is
    at least 1, and n_pairs at least MIN_PAIRS, as estimate_N needs.
    """

    kernel: KernelSpec
    f_star: Callable[[np.ndarray], np.ndarray]
    mu: Distribution
    n: int
    sigma: float
    rho: float
    trials: int
    seed: int
    n_test: int = 256
    n_pairs: int = 4000
    bias_trials: int = 200

    def __post_init__(self) -> None:
        if self.mu.dim != self.kernel.dim:
            raise ValueError("distribution dimension does not match the kernel action")
        if not (self.rho > 0 and self.sigma >= 0):  # NaN fails too
            raise ValueError("need rho > 0 and sigma >= 0")
        sizes = {"n": 1, "trials": 1, "n_test": 1, "bias_trials": 1, "n_pairs": MIN_PAIRS}
        for key, least in sizes.items():
            if getattr(self, key) < least:
                raise ValueError(f"{key} is {getattr(self, key)}, below {least}")
        # the variance term's denominator, with the declared Mk, or 0 when it is estimated
        _variance_denominator(self.n, self.kernel.Mk or 0.0, self.rho)
        rng = stream(self.seed, "f_star_check")
        X = self.mu.sample(32, rng)
        vals = np.asarray(self.f_star(X)).reshape(-1)
        mats = self.kernel.action.matrices
        for g in self.kernel.action.group.generators:
            dev = np.max(np.abs(np.asarray(self.f_star(X @ mats[g].T)).reshape(-1) - vals))
            if not dev <= 1e-9:  # NaN fails too
                raise ValueError(f"f_star is not invariant under the action: deviation {dev:.3e}")


def _variance_denominator(n: int, mk: float, rho: float) -> float:
    """(sqrt(n) Mk + rho / sqrt(n))^2, the denominator of the bound's variance term,
    refused with a ValueError that names rho when it overflows."""
    try:
        return (math.sqrt(n) * mk + rho / math.sqrt(n)) ** 2
    except OverflowError:
        raise ValueError(
            f"rho is {rho!r} and Mk {mk!r}: the variance term's (sqrt(n) Mk + rho / sqrt(n))^2 overflows"
        ) from None


def _chunk_perp_sq(config: KrrGapConfig, size: int, rng, noisy: bool) -> np.ndarray:
    """`size` trials drawn from rng: fit KRR on fresh samples labelled by f_star,
    plus sigma-scaled noise when noisy, one fit_krr call per trial on its slice
    of a stacked Gram; estimate each fit's mean square anti-symmetric part as
    half the mean square change of the fit from fresh points t to g t, with one
    Haar-drawn g per point, predicting a block of fits at a time.
    sampling.blocks sizes the fits' stacked Grams and the prediction blocks."""
    n, n_test, d = config.n, config.n_test, config.kernel.dim
    X = config.mu.sample(size * n, rng)
    y = np.asarray(config.f_star(X)).reshape(size, n)
    if noisy:
        y = y + config.sigma * rng.standard_normal((size, n))
    X = X.reshape(size, n, d)
    alpha = np.empty((size, n))
    for block in blocks(size, n * n):
        K = config.kernel.gram(X[block], X[block])
        for t, K_t in zip(range(block.start, block.stop), K):
            alpha[t] = fit_krr(config.kernel, X[t], y[t], config.rho, gram=K_t).alpha
    X_test = config.mu.sample(size * n_test, rng).reshape(size, n_test, d)
    action = config.kernel.action
    g = rng.integers(action.group.order, size=(size, n_test))
    predict_blocks = blocks(size, n_test * max(d * d, 2 * n))
    # each block's test points, then their moved copies g t; einsum writes the
    # copies about twice as fast into a contiguous buffer as into points' half
    points = np.empty((predict_blocks[0].stop, 2 * n_test, d))
    moved = np.empty((predict_blocks[0].stop, n_test, d))
    per_trial = np.empty(size)
    for block in predict_blocks:
        b = block.stop - block.start
        T = points[:b]
        T[:, :n_test] = X_test[block]
        T[:, n_test:] = np.einsum("btij,btj->bti", action.matrices[g[block]], X_test[block], out=moved[:b])
        f = KrrModel(kernel=config.kernel, X=X[block], alpha=alpha[block]).predict(T)
        per_trial[block] = 0.5 * ((f[:, :n_test] - f[:, n_test:]) ** 2).mean(axis=1)
    return per_trial


def _perp_sq_trials(config: KrrGapConfig, trials: int, purpose: str, noisy: bool) -> np.ndarray:
    """Each of `trials` fits' estimate of |f_perp|^2, in chunks of trials.

    Chunk c draws from stream(seed, purpose, c).  The calling thread
    runs the even chunks and a helper thread, started for this loop, the odd
    ones, each writing its own trials.  An error in either stops the other
    before its next chunk and reaches the caller once both have returned.
    A helper held across loops would not survive a fork: the child's next
    loop would wait for it forever.
    """
    size = max(1, _CHUNK_ENTRIES // (config.n * 2 * config.n_test))
    per_trial = np.empty(trials)
    failed = threading.Event()

    def work(first: int) -> None:
        try:
            for start in range(first * size, trials, 2 * size):
                if failed.is_set():
                    return
                rng = stream(config.seed, purpose, start // size)
                stop = min(start + size, trials)
                per_trial[start:stop] = _chunk_perp_sq(config, stop - start, rng, noisy)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="symlab-krr") as pool:
        helper = pool.submit(work, 1)
        work(0)
    helper.result()
    return per_trial


def estimate_bias_term(config: KrrGapConfig) -> tuple[float, float]:
    """Noiseless sub-procedure: fit KRR on f_star(X_i) and Monte-Carlo the
    squared anti-symmetric part of the fit on fresh points."""
    per_trial = _perp_sq_trials(config, config.bias_trials, "krr_bias", noisy=False)
    return RunningMoments().add(per_trial).estimate()


def krr_gap_experiment(config: KrrGapConfig) -> GapReport:
    """Estimate E[R[f] - R[f_bar]] for KRR under group averaging and compare
    against the invariance lower bound (estimated bias + variance term)."""
    averaged = build_averaged_kernel(config.kernel)
    per_trial = _perp_sq_trials(config, config.trials, "krr_trials", noisy=True)
    mean, se = RunningMoments().add(per_trial).estimate()

    mk = config.kernel.Mk
    if mk is None:
        probe = config.mu.sample(2048, stream(config.seed, "mk_probe"))
        mk = float(_pair_values(config.kernel.gram, probe, probe).max())
    pairs = stream(config.seed, "pairs")
    n_perp, n_perp_se = estimate_N(averaged.gram_perp, config.mu, config.n_pairs, pairs)
    variance_term = config.sigma ** 2 * n_perp / _variance_denominator(config.n, mk, config.rho)
    bias_term, bias_se = estimate_bias_term(config)
    bound = bias_term + variance_term

    phi = build_phi(config.kernel.action)
    verdict = gates.verdict(gates.holds("lower_bound", mean, bound, se))
    return GapReport(
        mc_gap_mean=mean,
        mc_gap_se=se,
        closed_form=bound,
        dim_A=float(config.kernel.dim - phi.dim_invariant),
        verdict=verdict,
        metadata={
            "Mk": mk,
            "N_kperp": n_perp,
            "N_kperp_se": n_perp_se,
            "bound_bias": bias_term,
            "bound_bias_se": bias_se,
            "bound_variance": variance_term,
            "switch": averaged.switch_ok,
        },
    )


def linear_kernel_bound(
    d: int,
    n: int,
    rho: float,
    theta_norm: float,
    phi_matrix: np.ndarray,
    trials: int,
    seed: int,
) -> dict:
    """Closed-ish form of the invariance bound for the linear kernel on the
    sphere of radius sqrt(d), with unit-variance noise: zeta moments of the
    Gram eigenvalues give the bias term, and N[k_perp] = d - |Phi|_F^2 gives
    the variance term exactly."""
    if d <= 1:
        raise ValueError("linear kernel bound needs d > 1")
    denominator = _variance_denominator(n, d, rho)
    phi = np.asarray(phi_matrix, dtype=np.float64)
    fro2 = float((phi ** 2).sum())
    Z = stream(seed, "linear_bound").standard_normal((trials, n, d))
    X = math.sqrt(d) * Z / np.linalg.norm(Z, axis=2, keepdims=True)
    Xt = np.swapaxes(X, 1, 2)
    # X^T X and X X^T share their nonzero eigenvalues, and a zero one adds
    # nothing to either moment: take the smaller Gram
    gamma = np.linalg.eigvalsh(Xt @ X if n > d else X @ Xt)
    ratio = gamma / (gamma + rho)
    zeta1, zeta1_se = RunningMoments().add((ratio ** 2).sum(axis=1)).estimate()
    zeta2, zeta2_se = RunningMoments().add(ratio.sum(axis=1) ** 2).estimate()
    bias = theta_norm ** 2 * (d * zeta1 - zeta2) * (d - fro2) / (d * (d + 2) * (d - 1))
    variance = (d - fro2) / denominator
    return {
        "zeta1": zeta1,
        "zeta2": zeta2,
        "zeta1_se": zeta1_se,
        "zeta2_se": zeta2_se,
        "bias_bound": bias,
        "variance_bound": variance,
        "bound": bias + variance,
    }
