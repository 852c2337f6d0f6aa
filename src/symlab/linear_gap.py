"""Monte-Carlo verification of closed-form generalisation gaps for
random-design least squares with invariant and equivariant targets,
plus the random-matrix facts the formulas rest on.

Trials run in fixed-size chunks.  Every chunk is drawn on the calling
thread in trial-index order, so the random stream is the serial one.  Two
chunks are computed at once, one on a single helper thread and one on the
caller, and their results are reduced in trial-index order.  A chunk is
never split, so every sum runs over the same operands in the same order as
a one-thread loop, and results are byte-identical for a given seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .averaging import IntertwinerTensor, build_psi
from .groups import Representation, build_representation, character, character_inner
from .sampling import standard_error

__all__ = [
    "LinearGapConfig",
    "GapReport",
    "WishartReport",
    "ProjectionTensorReport",
    "invariant_config",
    "random_equivariant_target",
    "wishart_coefficient",
    "verify_wishart",
    "verify_projection_tensor",
    "closed_form_gap_invariant",
    "closed_form_gap_equivariant",
    "monte_carlo_gap",
]

_CHUNK = 512


def _chunked(trials: int, draw, work):
    """Yield ``(start, work(*draw(b)))`` for each chunk of ``b <= _CHUNK`` trials, in order.

    ``draw`` runs on the calling thread, one chunk after another.  Chunks
    are paired: the first of a pair is computed on one helper thread while
    the caller computes the second, so at most two chunks are in flight.
    An unpaired last chunk runs on the caller.  An exception ``work``
    raises reaches the caller.  ``work`` must call no function that
    perfbench/probes.py wraps: its tracer records spans from one thread.
    """
    with ThreadPoolExecutor(1) as helper:
        for start in range(0, trials, 2 * _CHUNK):
            first = draw(min(_CHUNK, trials - start))
            if start + _CHUNK >= trials:
                yield start, work(*first)
                break
            future = helper.submit(work, *first)
            second = work(*draw(min(_CHUNK, trials - start - _CHUNK)))
            yield start, future.result()
            yield start + _CHUNK, second


@dataclass(frozen=True)
class GapReport:
    """One experiment's outcome: Monte-Carlo estimate vs closed form."""

    experiment: str
    mc_gap_mean: float
    mc_gap_se: float
    closed_form: float
    dim_A: float
    verdict: str  # "pass" | "fail"
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class LinearGapConfig:
    """Random-design least-squares setup.

    Inputs are N(0, sigma_x^2 I_d), targets Y = Theta^T-style linear maps
    of X plus isotropic noise.  Theta must be equivariant for the given
    representation pair; sample counts in the interpolation threshold
    band [d-1, d+1] are rejected because the gap diverges there.
    """

    phi: Representation
    psi: Representation
    theta: np.ndarray
    n: int
    sigma_x: float = 1.0
    sigma_xi: float = 1.0
    trials: int = 10_000
    seed: int = 0
    tensor: IntertwinerTensor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d, k = self.phi.dim, self.psi.dim
        theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if theta.shape != (d, k):
            raise ValueError(f"theta has shape {theta.shape}, expected {(d, k)}")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if self.n < 1 or self.trials < 1:
            raise ValueError("n and trials must be >= 1")
        if self.sigma_x <= 0 or self.sigma_xi < 0:
            raise ValueError("sigma_x must be > 0 and sigma_xi >= 0")
        if d - 1 <= self.n <= d + 1:
            raise ValueError(
                f"n = {self.n} lies in the interpolation threshold band [{d - 1}, {d + 1}] "
                "where the gap diverges"
            )
        object.__setattr__(self, "tensor", build_psi(self.phi, self.psi))
        dev = float(np.max(np.abs(self.tensor.apply(theta) - theta)))
        if dev > 1e-10:
            raise ValueError(f"theta is not equivariant: |Psi(theta) - theta|_max = {dev:.3e}")

    @property
    def d(self) -> int:
        return self.phi.dim

    @property
    def k(self) -> int:
        return self.psi.dim


def invariant_config(phi: Representation, theta: np.ndarray, n: int, **kwargs) -> LinearGapConfig:
    """Invariant special case: scalar outputs via the trivial representation."""
    psi = build_representation(phi.group, "trivial 1")
    theta = np.asarray(theta, dtype=np.float64).reshape(phi.dim, 1)
    return LinearGapConfig(phi=phi, psi=psi, theta=theta, n=n, **kwargs)


def random_equivariant_target(
    tensor: IntertwinerTensor, rng: np.random.Generator, fro_norm: float | None = None
) -> np.ndarray:
    """Draw a random equivariant Theta by projecting a Gaussian matrix."""
    theta = tensor.apply(rng.standard_normal((tensor.rep_in.dim, tensor.rep_out.dim)))
    if fro_norm is not None:
        current = np.linalg.norm(theta)
        if current < 1e-12:
            raise ValueError("projected target vanished; the equivariant space may be trivial")
        theta = theta * (fro_norm / current)
    return theta


def wishart_coefficient(n: int, d: int) -> float:
    """r(n, d) with E[(X^T X)^+] = r(n, d) I for X with i.i.d. N(0,1) entries.

    Returns math.inf in the divergent band n in [d-1, d+1].
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if n > d + 1:
        return 1.0 / (n - d - 1)
    if n < d - 1:
        return n / (d * (d - n - 1))
    return math.inf


def _is_trivial_scalar(rep: Representation) -> bool:
    return rep.dim == 1 and bool(np.allclose(rep.matrices, 1.0, atol=1e-12))


@dataclass(frozen=True, eq=False)
class WishartReport:
    n: int
    d: int
    trials: int
    coefficient: float
    entry_mean: np.ndarray
    entry_se: np.ndarray
    max_abs_z: float
    verdict: str


def verify_wishart(n: int, d: int, trials: int, seed: int) -> WishartReport:
    """Monte-Carlo check that E[(X^T X)^+] = r(n, d) I, entrywise within 4 SE."""
    if trials < 1000:
        raise ValueError("verify_wishart needs trials >= 1000")
    r = wishart_coefficient(n, d)
    if math.isinf(r):
        raise ValueError(f"(n={n}, d={d}) is in the divergent band [d-1, d+1]")
    rng = np.random.default_rng(seed)
    rcond = np.finfo(float).eps * max(n, d)
    total = np.zeros((d, d))
    total_sq = np.zeros((d, d))

    def work(X):
        P = np.linalg.pinv(X, rcond=rcond)
        G = P @ P.transpose(0, 2, 1)
        return G.sum(axis=0), np.square(G, out=G).sum(axis=0)

    for _, (g_sum, g_sq_sum) in _chunked(trials, lambda b: (rng.standard_normal((b, n, d)),), work):
        total += g_sum
        total_sq += g_sq_sum
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


@dataclass(frozen=True, eq=False)
class ProjectionTensorReport:
    n: int
    d: int
    trials: int
    alpha: float
    beta: float
    gamma: float
    alpha_hat: float
    alpha_se: float
    beta_hat: float
    beta_se: float
    gamma_hat: float
    gamma_se: float
    contraction_fit: tuple
    trace_sq_mean: float
    trace_sq_se: float
    verdict: str


def verify_projection_tensor(n: int, d: int, trials: int, seed: int) -> ProjectionTensorReport:
    """Check the second moment of random orthogonal projections.

    For P the projection onto a Haar-random n-dimensional subspace of R^d,
    E[P_ab P_ce] = alpha d_ab d_ce + beta d_ac d_be + gamma d_ae d_bc.
    The per-trial pure-entry averages estimate alpha (P_aa P_cc, a != c),
    beta (P_ab^2, a != b) and gamma (P_ab P_ba, a != b) with honest Monte
    Carlo spread; the three contractions tr(P)^2, tr(P^T P), tr(P^2) are
    constants n^2, n, n for every sample, so the triple fitted from them
    pins (alpha, beta, gamma) exactly and only float jitter is tolerated.
    """
    if not 0 < n < d:
        raise ValueError("verify_projection_tensor needs 0 < n < d")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    rng = np.random.default_rng(seed)
    a_t = np.empty(trials)
    b_t = np.empty(trials)
    g_t = np.empty(trials)
    tr2_t = np.empty(trials)
    trptp_t = np.empty(trials)
    trp2_t = np.empty(trials)
    off = d * (d - 1)

    def work(Z):
        Q = np.linalg.qr(Z)[0]
        P = Q @ Q.transpose(0, 2, 1)
        diag = np.einsum("tii->ti", P)
        s1 = diag.sum(axis=1)
        s2 = (diag ** 2).sum(axis=1)
        cross = np.einsum("tij,tji->t", P, P)
        frob = np.square(P, out=P).sum(axis=(1, 2))  # diag is a view of P: read it first
        return (
            (s1 ** 2 - s2) / off, (frob - s2) / off, (cross - s2) / off, s1 ** 2, frob, cross
        )

    columns = (a_t, b_t, g_t, tr2_t, trptp_t, trp2_t)
    for start, values in _chunked(trials, lambda b: (rng.standard_normal((b, d, n)),), work):
        for column, value in zip(columns, values):
            column[start:start + len(value)] = value

    beta = n * (d - n) / (d * (d - 1) * (d + 2))
    alpha = beta + n * (n - 1) / (d * (d - 1))
    gamma = beta

    def stat(x):
        return float(x.mean()), standard_error(x)

    alpha_hat, alpha_se = stat(a_t)
    beta_hat, beta_se = stat(b_t)
    gamma_hat, gamma_se = stat(g_t)
    tr2_mean, tr2_se = stat(tr2_t)
    trptp_mean, trptp_se = stat(trptp_t)
    trp2_mean, trp2_se = stat(trp2_t)

    # invert the contraction system for (alpha, beta, gamma)
    system = np.array(
        [[d ** 2, d, d], [d, d ** 2, d], [d, d, d ** 2]], dtype=np.float64
    )
    fit = np.linalg.solve(system, np.array([tr2_mean, trptp_mean, trp2_mean]))

    jitter = 64 * np.finfo(float).eps
    ok = (
        abs(alpha_hat - alpha) <= 4 * alpha_se
        and abs(beta_hat - beta) <= 4 * beta_se
        and abs(gamma_hat - gamma) <= 4 * gamma_se
        # exact per sample: tolerate float jitter only
        and abs(tr2_mean - n ** 2) <= 4 * tr2_se + jitter * n ** 2
        and abs(trptp_mean - n) <= 4 * trptp_se + jitter * n
        and abs(trp2_mean - n) <= 4 * trp2_se + jitter * n
        and np.allclose(fit, [alpha, beta, gamma], rtol=1e-6, atol=1e-12)
    )
    return ProjectionTensorReport(
        n=n, d=d, trials=trials,
        alpha=alpha, beta=beta, gamma=gamma,
        alpha_hat=alpha_hat, alpha_se=alpha_se,
        beta_hat=beta_hat, beta_se=beta_se,
        gamma_hat=gamma_hat, gamma_se=gamma_se,
        contraction_fit=tuple(float(v) for v in fit),
        trace_sq_mean=tr2_mean, trace_sq_se=tr2_se,
        verdict="pass" if ok else "fail",
    )


def _phi_trace(rep: Representation) -> float:
    return float(np.einsum("g,gii->", rep.group.weights, rep.matrices))


def closed_form_gap_invariant(config: LinearGapConfig) -> float:
    """Expected gap for an invariant linear target, three-regime formula."""
    if not _is_trivial_scalar(config.psi):
        raise ValueError("invariant closed form needs the trivial scalar output representation")
    d, n = config.d, config.n
    dim_a = d - _phi_trace(config.phi)
    if n > d + 1:
        return config.sigma_xi ** 2 * dim_a / (n - d - 1)
    if n < d - 1:
        theta_sq = float(np.sum(config.theta ** 2))
        signal = config.sigma_x ** 2 * theta_sq * n * (d - n) / (d * (d - 1) * (d + 2))
        noise = config.sigma_xi ** 2 * n / (d * (d - n - 1))
        return dim_a * (signal + noise)
    raise ValueError("interpolation threshold regime: the gap diverges")


def closed_form_gap_equivariant(config: LinearGapConfig) -> float:
    """Expected gap for an equivariant linear target.

    Uses the character inner product for the codimension of the
    equivariant subspace, and the matrix J = sum_g w(g) (chi_phi(g) psi(g)
    + psi(g^2)) in the overparameterised regime.
    """
    d, k, n = config.d, config.k, config.n
    inner = character_inner(config.psi, config.phi)
    codim = d * k - inner
    if n > d + 1:
        return config.sigma_xi ** 2 * codim / (n - d - 1)
    if n < d - 1:
        group = config.phi.group
        chi_phi = character(config.phi)
        ids = np.arange(group.order)
        squares = group.compose(ids, ids)
        j_mat = np.einsum("g,g,gij->ij", group.weights, chi_phi, config.psi.matrices)
        j_mat = j_mat + np.einsum("g,gij->ij", group.weights, config.psi.matrices[squares])
        theta = config.theta
        fro_sq = float(np.sum(theta ** 2))
        signal = (
            config.sigma_x ** 2
            * n * (d - n) / (d * (d - 1) * (d + 2))
            * ((d + 1) * fro_sq - float(np.trace(j_mat @ theta.T @ theta)))
        )
        noise = config.sigma_xi ** 2 * n * codim / (d * (d - n - 1))
        return signal + noise
    raise ValueError("interpolation threshold regime: the gap diverges")


def closed_form_gap(config: LinearGapConfig) -> float:
    if _is_trivial_scalar(config.psi):
        return closed_form_gap_invariant(config)
    return closed_form_gap_equivariant(config)


def monte_carlo_gap(config: LinearGapConfig) -> GapReport:
    """Per trial: draw (X, Y), solve minimum-norm least squares, and measure
    the exact per-trial gap sigma_x^2 ||W - Psi(W)||_F^2; compare the mean
    against the closed form at 4 standard errors."""
    d, k, n = config.d, config.k, config.n
    invariant_case = _is_trivial_scalar(config.psi)
    rng = np.random.default_rng(config.seed)
    rcond = np.finfo(float).eps * max(n, d)
    gaps = np.full(config.trials, np.nan)
    failed = 0

    def draw(b):
        X = config.sigma_x * rng.standard_normal((b, n, d))
        return X, config.sigma_xi * rng.standard_normal((b, n, k))

    def work(X, xi):
        """(per-trial gaps, NaN where dropped; number of dropped trials) of one chunk."""
        Y = X @ config.theta
        Y += xi
        try:
            W_perp = config.tensor.complement_batch(np.linalg.pinv(X, rcond=rcond) @ Y)
            return config.sigma_x ** 2 * np.square(W_perp, out=W_perp).sum(axis=(1, 2)), 0
        except np.linalg.LinAlgError:
            # rare SVD non-convergence: redo one by one, drop failing trials
            chunk_gaps = np.full(len(X), np.nan)
            dropped = 0
            for t in range(len(X)):
                try:
                    w_perp = config.tensor.complement(np.linalg.pinv(X[t], rcond=rcond) @ Y[t])
                    chunk_gaps[t] = config.sigma_x ** 2 * float((w_perp ** 2).sum())
                except np.linalg.LinAlgError:
                    dropped += 1
            return chunk_gaps, dropped

    for start, (chunk_gaps, dropped) in _chunked(config.trials, draw, work):
        gaps[start:start + len(chunk_gaps)] = chunk_gaps
        failed += dropped
    valid = gaps[~np.isnan(gaps)]
    mean = float(valid.mean())
    se = standard_error(valid)
    closed = closed_form_gap(config)
    if invariant_case:
        dim_a = config.d - _phi_trace(config.phi)
    else:
        dim_a = d * k - character_inner(config.psi, config.phi)
    verdict = "pass" if abs(mean - closed) <= 4.0 * se else "fail"
    return GapReport(
        experiment="gap-linear" if invariant_case else "gap-equivariant",
        mc_gap_mean=mean,
        mc_gap_se=se,
        closed_form=closed,
        dim_A=float(dim_a),
        verdict=verdict,
        metadata={
            "group": config.phi.group.name,
            "d": d,
            "k": k,
            "n": n,
            "sigma_x": config.sigma_x,
            "sigma_xi": config.sigma_xi,
            "trials": config.trials,
            "seed": config.seed,
            "failed_trials": failed,
        },
    )
