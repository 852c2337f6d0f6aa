"""Equivariant weight tying for feedforward layers.

Layers follow the convention f(x) = W x, so a stack is
F(x) = W^L s(W^{L-1} s(... s(W^1 x))) and layer i maps the space carrying
rep psi_i to the one carrying psi_{i+1}.  The equivariant projection of a
layer averages psi_{i+1}(g^{-1}) W psi_i(g); the residual W_perp feeds the
regularizer and the closeness bound.  The module also computes the
VC-dimension bound for invariant MLP architectures from character inner
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .averaging import apply_Q
from .groups import Representation, character_inner
from .kernel_gap import _square
from .sampling import RunningMoments, stream

__all__ = [
    "LayerSpec",
    "EquivarianceReport",
    "project_layer",
    "project_spec",
    "regularizer_value",
    "check_regularisation_bound",
    "vc_bound",
    "equivariance_report",
]

ACTIVATIONS = {
    "relu": lambda h: np.maximum(h, 0.0),
    "identity": lambda h: h,
    "tanh": np.tanh,
}
# the activations whose Lipschitz constant C = 1 the regularisation bound assumes
BOUND_ACTIVATIONS = ("relu", "identity")
# the largest product over a stack's layers of (largest |weight|) * (input width).
# It bounds |F(x)|_inf / |x|_inf, since every activation is 1-Lipschitz and fixes 0,
# and each layer's group mean and squared norm; at 1e100 none of them overflows
MAX_LAYER_GAIN = 1e100


def _is_permutation_type(rep: Representation) -> bool:
    mats = rep.matrices
    binary = np.all((np.abs(mats) < 1e-12) | (np.abs(mats - 1.0) < 1e-12))
    return bool(binary and np.allclose(mats.sum(axis=1), 1.0) and np.allclose(mats.sum(axis=2), 1.0))


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """An L-layer stack with per-space representations of one group.

    reps has length L+1 (input space first); weights[i] maps space i to
    space i+1.  A nonlinear activation requires the intermediate reps to be
    permutation-type, since elementwise maps commute with exactly those.
    Weights that are not finite, or whose gain bound exceeds MAX_LAYER_GAIN,
    are refused before any product is taken.
    """

    reps: tuple
    weights: tuple
    activation: str = "relu"

    def __post_init__(self) -> None:
        reps = tuple(self.reps)
        weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "weights", weights)
        if len(reps) < 2 or len(weights) != len(reps) - 1:
            raise ValueError("need L >= 1 weight matrices and L+1 representations")
        structure = reps[0].group.structure
        if any(rep.group.structure != structure for rep in reps[1:]):
            raise ValueError("all representations must be of the same group")
        gain = 1.0
        for i, w in enumerate(weights):
            if w.shape != (reps[i + 1].dim, reps[i].dim):
                raise ValueError(
                    f"weights[{i}] has shape {w.shape}, expected "
                    f"({reps[i + 1].dim}, {reps[i].dim})"
                )
            if not np.all(np.isfinite(w)):
                raise ValueError(f"weights[{i}] has an entry that is not finite")
            # a Python float: past the float range the product is inf, with no warning
            size = float(np.max(np.abs(w), initial=0.0))
            gain *= size * w.shape[1]
            if not gain <= MAX_LAYER_GAIN:
                raise ValueError(
                    f"weights[{i}] has an entry of size {size:.3e}, and the stack's gain bound "
                    f"reaches {gain:.3e}, above {MAX_LAYER_GAIN:.0e}"
                )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation != "identity":
            for rep in reps[1:-1]:
                if not _is_permutation_type(rep):
                    raise ValueError(
                        "nonlinear activation requires permutation-type intermediate "
                        f"representations; {rep.name!r} is not"
                    )

    def forward(self, X: np.ndarray) -> np.ndarray:
        act = ACTIVATIONS[self.activation]
        h = np.asarray(X, dtype=np.float64)
        for i, w in enumerate(self.weights):
            h = h @ w.T
            if i < len(self.weights) - 1:
                h = act(h)
        return h


def project_layer(W: np.ndarray, psi_in: Representation, psi_out: Representation):
    """Split W into its intertwining part and the residual.

    W_bar = (1/|G|) sum_g psi_out(g^{-1}) W psi_in(g) satisfies
    W_bar psi_in(g) = psi_out(g) W_bar for every g; W = W_bar + W_perp.
    A W_bar that does not intertwine to 1e-9 raises ValueError.  That
    tolerance is absolute, so rounding alone can exceed it once W's entries
    near 1e7; a W whose group mean overflows fails it too.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.shape != (psi_out.dim, psi_in.dim):
        raise ValueError(f"W has shape {W.shape}, expected ({psi_out.dim}, {psi_in.dim})")
    group = psi_in.group
    out_inv = psi_out.matrices[group.inverse]
    W_bar = np.einsum("gik,kl,glj->ij", out_inv, W, psi_in.matrices, optimize=True) / group.order
    for g in group.generators:
        dev = np.max(np.abs(W_bar @ psi_in.matrices[g] - psi_out.matrices[g] @ W_bar))
        if not dev <= 1e-9:  # NaN fails too
            raise ValueError(f"projected layer fails to intertwine: deviation {dev:.3e}")
    return W_bar, W - W_bar


def project_spec(spec: LayerSpec) -> LayerSpec:
    """Replace every layer by its equivariant projection."""
    projected = tuple(
        project_layer(w, spec.reps[i], spec.reps[i + 1])[0] for i, w in enumerate(spec.weights)
    )
    return LayerSpec(reps=spec.reps, weights=projected, activation=spec.activation)


def regularizer_value(spec: LayerSpec) -> float:
    """Sum of squared Frobenius norms of the per-layer residuals."""
    total = 0.0
    for i, w in enumerate(spec.weights):
        _, w_perp = project_layer(w, spec.reps[i], spec.reps[i + 1])
        total += float((w_perp ** 2).sum())
    return total


def _sqrt_psd(sigma: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(sigma)
    if float(evals.min()) < -1e-10:
        raise ValueError("covariance must be positive semi-definite")
    return (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.T


def _check_regularisation_bound(
    psi_in: Representation, psi_out: Representation, activation: str, sigma, samples: int
) -> np.ndarray:
    """The covariance square root S, refusing what the bound does not cover."""
    if activation not in BOUND_ACTIVATIONS:
        raise ValueError("the bound is checked for relu or identity activations")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    d = psi_in.dim
    if np.isscalar(sigma):
        if sigma < 0:
            raise ValueError(f"sigma is {sigma!r}: a standard deviation must be >= 0")
        cov = np.diag(np.full(d, _square("sigma", sigma)))
    else:
        cov = np.asarray(sigma, dtype=np.float64)
    if not np.isfinite(cov).all():  # before any product: a NaN passes the checks below, inf - inf warns
        raise ValueError("sigma is not finite")
    if cov.shape != (d, d) or np.max(np.abs(cov - cov.T)) > 1e-12:
        raise ValueError("sigma must be a scalar or a symmetric (d, d) covariance")
    sqrt_cov = _sqrt_psd(cov)
    for g in psi_in.group.generators:
        M = psi_in.matrices[g]
        if np.max(np.abs(M @ cov @ M.T - cov)) > 1e-9:
            raise ValueError("covariance is not invariant under the input representation")
    if activation != "identity" and not _is_permutation_type(psi_out):
        raise ValueError("relu requires a permutation-type output representation")
    return sqrt_cov


def check_regularisation_bound(
    W: np.ndarray,
    psi_in: Representation,
    psi_out: Representation,
    activation: str = "relu",
    sigma: np.ndarray | float = 1.0,
    samples: int = 10_000,
    seed: int = 0,
) -> dict:
    """Monte-Carlo check of the closeness bound for f_W(x) = s(W x):

        E|f_W - Q f_W|^2  <=  2 C^2 |W_perp S|_F^2  <=  2 C^2 |S|_F^2 |W_perp|_F^2

    with S the covariance square root and C = 1 for relu/identity.  The
    cross terms vanish because the group average of W_perp is zero.  The
    left inequality is held to gates' upper_bound gate with a rounding
    allowance at the scale mean |f_W|^2, so that an exactly intertwining W,
    whose sides are both rounding dust, passes; the right one to its
    bound_order gate with a rounding allowance at the scale of the right
    side, since the two closed forms are equal when |W_perp S|_F =
    |S|_F |W_perp|_F and may then differ in their last bits."""
    sqrt_cov = _check_regularisation_bound(psi_in, psi_out, activation, sigma, samples)
    act = ACTIVATIONS[activation]
    d = psi_in.dim
    _, W_perp = project_layer(W, psi_in, psi_out)
    rng = stream(seed, "main")
    X = rng.standard_normal((samples, d)) @ sqrt_cov
    f_W = lambda Z: act(Z @ W.T)
    f_perp = apply_Q(f_W, psi_in, psi_out).antisym_part(X)
    lhs, lhs_se = RunningMoments().add((f_perp ** 2).sum(axis=1)).estimate()
    middle = 2.0 * float(((W_perp @ sqrt_cov) ** 2).sum())
    right = 2.0 * float((sqrt_cov ** 2).sum()) * float((W_perp ** 2).sum())
    # f - Qf of an exactly intertwining W is rounding dust, not an exact zero
    scale = float((f_W(X) ** 2).sum(axis=1).mean())
    verdict = gates.verdict(
        gates.holds("upper_bound", lhs, middle, lhs_se, scale),
        gates.holds("bound_order", middle, right, scale=right),
    )
    return {
        "lhs_mean": lhs,
        "lhs_se": lhs_se,
        "middle_bound": middle,
        "right_bound": right,
        "verdict": verdict,
    }


def _check_vc_bound(reps: tuple) -> None:
    if len(reps) < 2:
        raise ValueError("need at least one layer (two representations)")


def vc_bound(reps: tuple) -> float:
    """VC-dimension bound for an invariant MLP architecture:

        L + (1/2) alpha L (L+1) max_i <chi_i, chi_{i+1}>,
        alpha = log2(4e log2(sum_i 2e i k_i) * sum_i i k_i),

    with k_i the width of layer input i and the inner products taken in
    the group's character algebra."""
    reps = tuple(reps)
    _check_vc_bound(reps)
    L = len(reps) - 1
    widths = [rep.dim for rep in reps]
    max_inner = max(character_inner(reps[i], reps[i + 1]) for i in range(L))
    weighted = sum((i + 1) * widths[i] for i in range(L))
    alpha = math.log2(4.0 * math.e * math.log2(2.0 * math.e * weighted) * weighted)
    return L + 0.5 * alpha * L * (L + 1) * max_inner


@dataclass(frozen=True, eq=False)
class EquivarianceReport:
    violation: float
    samples: int
    verdict: str


def _check_equivariance_report(n_samples: int) -> None:
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")


def equivariance_report(spec: LayerSpec, n_samples: int = 1000, seed: int = 0) -> EquivarianceReport:
    """The worst end-to-end equivariance violation
    max_{g,x} |F(phi(g) x) - psi(g) F(x)|_inf over samples, held to gates'
    equivariance gate; regularizer_value gives the per-layer residuals."""
    _check_equivariance_report(n_samples)
    group = spec.reps[0].group
    in_mats = spec.reps[0].matrices
    out_mats = spec.reps[-1].matrices
    rng = stream(seed, "main")
    X = rng.standard_normal((n_samples, spec.reps[0].dim))
    FX = spec.forward(X)
    violation = 0.0
    ids = group.elements() if group.order <= 64 else rng.integers(0, group.order, 64)
    for g in ids:
        dev = np.max(np.abs(spec.forward(X @ in_mats[g].T) - FX @ out_mats[g].T))
        violation = float(np.maximum(violation, dev))  # max() would drop a NaN dev
    return EquivarianceReport(
        violation=violation, samples=n_samples,
        verdict=gates.verdict(gates.holds("equivariance", violation)),
    )
