"""Monte-Carlo verification of closed-form generalisation gaps for
random-design least squares with invariant and equivariant targets,
plus the random-matrix facts the formulas rest on.

Trials run in fixed-size chunks, one after another on the calling thread,
so every sum runs over the same operands in the same order for a given
seed and results are byte-identical.  Every statistic merges chunk by
chunk in a sampling.RunningMoments, so no loop keeps a column of trials
and memory does not grow with their number.  Each trial's minimum-norm least
squares goes through the inverse of its Gram matrix A, X^T X when n > d
and X X^T otherwise, batched over the chunk.  A trial whose A has
kappa_1(A) = |A|_1 |A^-1|_1 above 1/sqrt(eps) is recomputed with pinv, so a
trial that keeps the Gram solve has a relative error of about sqrt(eps) at
most.  A chunk holding an exactly singular A, which inv refuses, is solved
one trial at a time, with pinv for the singular one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .averaging import IntertwinerTensor, build_psi
from .groups import Representation, build_representation, character, character_inner
from .sampling import RunningMoments, stream

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
    "closed_form_gap_equivariant",
    "monte_carlo_gap",
]

_CHUNK = 512
# a Gram solve above this condition number could lose more than sqrt(eps) of relative accuracy
_KAPPA_MAX = 1.0 / math.sqrt(np.finfo(float).eps)
MIN_WISHART_TRIALS = 1000


def _chunked(trials: int, draw, work):
    """Yield ``work(*draw(b))`` for each chunk of ``b <= _CHUNK`` trials, in order."""
    for start in range(0, trials, _CHUNK):
        yield work(*draw(min(_CHUNK, trials - start)))


def _norm_1(A: np.ndarray) -> np.ndarray:
    """The matrix 1-norm, the largest absolute column sum, of each matrix of a stack."""
    return np.einsum("tij->tj", np.abs(A)).max(axis=-1)


def _by_gram_inverse(X: np.ndarray, Y: np.ndarray | None):
    """``(X^+ Y, refused)`` for a stack of trials, or ``((X^T X)^+, refused)`` when Y is None.

    ``refused`` marks the trials whose Gram matrix A has kappa_1(A) above
    _KAPPA_MAX, or NaN; their results are not to be used.  Raises
    LinAlgError when some A is exactly singular.
    """
    n, d = X.shape[-2:]
    Xt = X.transpose(0, 2, 1)
    A = Xt @ X if n > d else X @ Xt
    A_inv = np.linalg.inv(A)
    refused = ~(_norm_1(A) * _norm_1(A_inv) <= _KAPPA_MAX)
    if Y is not None:
        return (A_inv @ (Xt @ Y) if n > d else Xt @ (A_inv @ Y)), refused
    if n > d:
        return A_inv, refused
    B = A_inv @ X
    return B.transpose(0, 2, 1) @ B, refused


def _min_norm(X: np.ndarray, Y: np.ndarray | None, rcond: float):
    """``(out, pinv fallbacks, dropped trials)`` of one chunk, ``out`` as in _by_gram_inverse.

    A trial the gate refuses is recomputed with ``pinv`` at ``rcond``.  When
    the batched ``inv`` raises, each trial is solved on its own, and one whose
    ``inv`` raises goes to ``pinv`` too.  A trial whose ``pinv`` raises is
    dropped: its ``out`` is NaN.
    """
    try:
        out, refused = _by_gram_inverse(X, Y)
    except np.linalg.LinAlgError:  # an exactly singular Gram: every trial on its own
        out = np.empty((len(X), X.shape[2], X.shape[2] if Y is None else Y.shape[2]))
        refused = np.zeros(len(X), dtype=bool)
        for t in range(len(X)):
            try:
                out[t:t + 1], refused[t:t + 1] = _by_gram_inverse(
                    X[t:t + 1], None if Y is None else Y[t:t + 1]
                )
            except np.linalg.LinAlgError:
                refused[t] = True
    redo = np.flatnonzero(refused)
    dropped = 0
    for t in redo:
        try:
            P = np.linalg.pinv(X[t], rcond=rcond)
            out[t] = P @ P.T if Y is None else P @ Y[t]
        except np.linalg.LinAlgError:  # SVD non-convergence
            out[t] = np.nan
            dropped += 1
    return out, len(redo), dropped


@dataclass(frozen=True)
class GapReport:
    """One experiment's outcome: Monte-Carlo estimate vs closed form."""

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
    of X plus isotropic noise.  ``tensor`` is Psi for the representation
    pair (phi, psi), as build_psi gives it, and Theta must be equivariant,
    a fixed point of it; sample counts in the divergent band [d-1, d+1]
    are rejected because the gap diverges there.
    """

    tensor: IntertwinerTensor = field(repr=False)
    theta: np.ndarray
    n: int
    sigma_x: float = 1.0
    sigma_xi: float = 1.0
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        d, k = self.phi.dim, self.psi.dim
        theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if theta.shape != (d, k):
            raise ValueError(f"theta has shape {theta.shape}, expected {(d, k)}")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if self.n < 1 or self.trials < 1:
            raise ValueError("n and trials must be >= 1")
        if not (self.sigma_x > 0 and self.sigma_xi >= 0):  # NaN fails too
            raise ValueError("sigma_x must be > 0 and sigma_xi >= 0")
        _check_outside_band(self.n, d)
        dev = float(np.max(np.abs(self.tensor.apply(theta) - theta)))
        if not dev <= 1e-10:  # NaN fails too
            raise ValueError(f"theta is not equivariant: |Psi(theta) - theta|_max = {dev:.3e}")

    @property
    def phi(self) -> Representation:
        return self.tensor.rep_in

    @property
    def psi(self) -> Representation:
        return self.tensor.rep_out

    @property
    def d(self) -> int:
        return self.phi.dim

    @property
    def k(self) -> int:
        return self.psi.dim


def invariant_config(phi: Representation, theta: np.ndarray, n: int, **kwargs) -> LinearGapConfig:
    """Invariant special case: scalar outputs via the trivial representation."""
    theta = np.asarray(theta, dtype=np.float64).reshape(phi.dim, 1)
    tensor = build_psi(phi, build_representation(phi.group, "trivial 1"))
    return LinearGapConfig(tensor, theta, n, **kwargs)


def random_equivariant_target(
    tensor: IntertwinerTensor, rng: np.random.Generator, fro_norm: float | None = None
) -> np.ndarray:
    """Draw a random equivariant Theta by projecting a Gaussian matrix; a zero space of
    equivariant maps, whose dimension <chi_out, chi_in> is the tensor's trace, is refused."""
    if round(tensor.trace) == 0:
        raise ValueError("rep_in and rep_out have no equivariant map between them: <chi_out, chi_in> = 0")
    theta = tensor.apply(rng.standard_normal((tensor.rep_in.dim, tensor.rep_out.dim)))
    if fro_norm is not None:
        theta = theta * (fro_norm / np.linalg.norm(theta))
    return theta


def _check_outside_band(n: int, d: int) -> None:
    """Refuse an n in [d-1, d+1], where E[(X^T X)^+] and the gap diverge."""
    if d - 1 <= n <= d + 1:
        raise ValueError(f"n = {n} lies in the divergent band [d-1, d+1] = [{d - 1}, {d + 1}]")


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


@dataclass(frozen=True, eq=False)
class WishartReport:
    trials: int
    coefficient: float
    entry_mean: np.ndarray
    entry_se: np.ndarray
    max_abs_z: float
    verdict: str
    pinv_fallbacks: int  # trials recomputed with pinv; see _min_norm


def _check_verify_wishart(n: int, d: int, trials: int) -> float:
    """r(n, d), refusing what verify_wishart cannot check: n or d below 1, an n
    in the divergent band, or fewer than MIN_WISHART_TRIALS trials."""
    if trials < MIN_WISHART_TRIALS:
        raise ValueError(f"trials is {trials}, below {MIN_WISHART_TRIALS}")
    r = wishart_coefficient(n, d)
    _check_outside_band(n, d)
    return r


def verify_wishart(n: int, d: int, trials: int, seed: int) -> WishartReport:
    """Monte-Carlo check that E[(X^T X)^+] = r(n, d) I, entry by entry at gates' closed_form gate."""
    r = _check_verify_wishart(n, d, trials)
    rng = stream(seed, "main")
    rcond = np.finfo(float).eps * max(n, d)
    moments = RunningMoments()
    fallbacks = 0

    def work(X):
        G, redone, dropped = _min_norm(X, None, rcond)
        if dropped:
            raise np.linalg.LinAlgError("SVD did not converge")
        return G, redone

    for G, redone in _chunked(trials, lambda b: (rng.standard_normal((b, n, d)),), work):
        moments.add(G)
        fallbacks += redone
    mean, se = moments.estimate()
    expected = r * np.eye(d)
    max_abs_z = float(np.max(np.abs(mean - expected) / np.maximum(se, 1e-300)))
    verdict = gates.verdict(gates.holds("closed_form", mean, expected, se))
    return WishartReport(
        trials=trials, coefficient=r, entry_mean=mean, entry_se=se,
        max_abs_z=max_abs_z, verdict=verdict, pinv_fallbacks=fallbacks,
    )


@dataclass(frozen=True, eq=False)
class ProjectionTensorReport:
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


def _check_verify_projection_tensor(n: int, d: int, trials: int) -> None:
    if not 0 < n < d:
        raise ValueError("verify_projection_tensor needs 0 < n < d")
    if trials < 2:
        raise ValueError("need at least 2 trials")


def verify_projection_tensor(n: int, d: int, trials: int, seed: int) -> ProjectionTensorReport:
    """Check the second moment of random orthogonal projections.

    For P the projection onto a Haar-random n-dimensional subspace of R^d,
    E[P_ab P_ce] = alpha d_ab d_ce + beta d_ac d_be + gamma d_ae d_bc.
    The per-trial pure-entry averages estimate alpha (P_aa P_cc, a != c),
    beta (P_ab^2, a != b) and gamma (P_ab P_ba, a != b) with honest Monte
    Carlo spread; the three contractions tr(P)^2, tr(P^T P), tr(P^2) are
    constants n^2, n, n for every sample, so the triple fitted from them
    pins (alpha, beta, gamma) exactly and only rounding is allowed.
    """
    _check_verify_projection_tensor(n, d, trials)
    rng = stream(seed, "main")
    moments = tuple(RunningMoments() for _ in range(6))
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

    for chunk in _chunked(trials, lambda b: (rng.standard_normal((b, d, n)),), work):
        for moment, values in zip(moments, chunk):
            moment.add(values)

    beta = n * (d - n) / (d * (d - 1) * (d + 2))
    alpha = beta + n * (n - 1) / (d * (d - 1))
    gamma = beta
    (
        (alpha_hat, alpha_se), (beta_hat, beta_se), (gamma_hat, gamma_se),
        (tr2_mean, tr2_se), (trptp_mean, trptp_se), (trp2_mean, trp2_se),
    ) = (m.estimate() for m in moments)

    # invert the contraction system for (alpha, beta, gamma)
    system = np.array(
        [[d ** 2, d, d], [d, d ** 2, d], [d, d, d ** 2]], dtype=np.float64
    )
    fit = np.linalg.solve(system, np.array([tr2_mean, trptp_mean, trp2_mean]))

    verdict = gates.verdict(
        gates.holds("closed_form", alpha_hat, alpha, alpha_se),
        gates.holds("closed_form", beta_hat, beta, beta_se),
        gates.holds("closed_form", gamma_hat, gamma, gamma_se),
        # exact per sample: the rounding allowance at the contraction's own size
        gates.holds("closed_form", tr2_mean, n ** 2, tr2_se, scale=n ** 2),
        gates.holds("closed_form", trptp_mean, n, trptp_se, scale=n),
        gates.holds("closed_form", trp2_mean, n, trp2_se, scale=n),
        gates.holds("contraction_fit", fit, [alpha, beta, gamma]),
    )
    return ProjectionTensorReport(
        trials=trials,
        alpha=alpha, beta=beta, gamma=gamma,
        alpha_hat=alpha_hat, alpha_se=alpha_se,
        beta_hat=beta_hat, beta_se=beta_se,
        gamma_hat=gamma_hat, gamma_se=gamma_se,
        contraction_fit=tuple(float(v) for v in fit),
        trace_sq_mean=tr2_mean, trace_sq_se=tr2_se,
        verdict=verdict,
    )


def closed_form_gap_equivariant(config: LinearGapConfig) -> float:
    """Expected gap for an equivariant linear target, three-regime formula.

    Uses the character inner product for the codimension of the
    equivariant subspace, and the matrix J, the group mean of
    chi_phi(g) psi(g) + psi(g^2), in the overparameterised regime.  With the
    trivial scalar psi this is the invariant case: the codimension is
    d - tr(Phi) and J = tr(Phi) + 1.
    """
    d, k, n = config.d, config.k, config.n
    inner = character_inner(config.psi, config.phi)
    codim = d * k - inner
    if n > d + 1:
        return config.sigma_xi ** 2 * codim / (n - d - 1)
    group = config.phi.group
    chi_phi = character(config.phi)
    ids = np.arange(group.order)
    squares = group.compose(ids, ids)
    psi = config.psi.matrices
    j_mat = (chi_phi[:, None, None] * psi).mean(axis=0) + psi[squares].mean(axis=0)
    theta = config.theta
    fro_sq = float(np.sum(theta ** 2))
    signal = (
        config.sigma_x ** 2
        * n * (d - n) / (d * (d - 1) * (d + 2))
        * ((d + 1) * fro_sq - float(np.trace(j_mat @ theta.T @ theta)))
    )
    noise = config.sigma_xi ** 2 * n * codim / (d * (d - n - 1))
    return signal + noise


def monte_carlo_gap(config: LinearGapConfig) -> GapReport:
    """Per trial: draw (X, Y), solve minimum-norm least squares, and measure
    the exact per-trial gap sigma_x^2 ||W - Psi(W)||_F^2; compare the mean
    against the closed form at gates' closed_form gate."""
    d, k, n = config.d, config.k, config.n
    rng = stream(config.seed, "main")
    rcond = np.finfo(float).eps * max(n, d)
    moments = RunningMoments()
    failed = fallbacks = 0

    def draw(b):
        X = config.sigma_x * rng.standard_normal((b, n, d))
        return X, config.sigma_xi * rng.standard_normal((b, n, k))

    def work(X, xi):
        """(per-trial gaps, NaN where dropped; pinv fallbacks; dropped trials) of one chunk."""
        Y = X @ config.theta
        Y += xi
        W, redone, dropped = _min_norm(X, Y, rcond)
        W_perp = config.tensor.complement_batch(W)
        return config.sigma_x ** 2 * np.square(W_perp, out=W_perp).sum(axis=(1, 2)), redone, dropped

    for gaps, redone, dropped in _chunked(config.trials, draw, work):
        moments.add(gaps[~np.isnan(gaps)] if dropped else gaps)  # a dropped trial's gap is NaN
        fallbacks += redone
        failed += dropped
    mean, se = moments.estimate()
    closed = closed_form_gap_equivariant(config)
    verdict = gates.verdict(gates.holds("closed_form", mean, closed, se))
    return GapReport(
        mc_gap_mean=mean,
        mc_gap_se=se,
        closed_form=closed,
        dim_A=d * k - character_inner(config.psi, config.phi),
        verdict=verdict,
        metadata={"trials": config.trials, "failed_trials": failed, "pinv_fallbacks": fallbacks},
    )
