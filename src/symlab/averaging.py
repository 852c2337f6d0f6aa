"""Group-averaging operators.

The Haar measure of a finite group is uniform, so the operator Q's Haar
average is the mean of F(g) over the group's ids.  ``group_average`` is the
one place that mean is taken, over the whole group or over a seeded draw
from ``haar_sample``.  Beside it: exact averaging on linear maps (the projection
matrix Phi and the 4-index intertwiner tensor Psi), black-box predictor
averaging, test-time augmentation, and the empirical Rademacher
complexity used by the sandwich check.  Q on a black-box predictor has one
implementation, ``DecomposedPredictor``; test-time augmentation is its
symmetric part with a trivial output representation.

Conventions: a batched predictor maps an (m, d_in) array of row vectors
to an (m, d_out) array.  For a linear predictor f_W(x) = W^T x with
W of shape (d, k), averaging f_W gives f_{Psi(W)} where
Psi(W) = (1/|G|) sum_g phi(g) W psi(g^-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .groups import Representation, build_representation, character_inner
from .sampling import standard_error

__all__ = [
    "MAX_TENSOR_SIDE",
    "ProjectionMatrix",
    "IntertwinerTensor",
    "DecomposedPredictor",
    "group_average",
    "haar_sample",
    "build_phi",
    "build_psi",
    "apply_Q",
    "tta_average",
    "empirical_rademacher",
    "verify_operator_identities",
]

# dense Psi storage cap: (d*k)^2 float64 entries <= 10^6, i.e. < 8 MB
MAX_TENSOR_SIDE = 1000

_PROJECTION_TOL = 1e-9

# tta_average's mode names and the DecomposedPredictor modes they select
_TTA_MODES = {"exact": "exact_sum", "monte_carlo": "monte_carlo"}


def group_average(fn: Callable, elements):
    """The mean of fn(g) over the ids in ``elements``, e.g. ``group.elements()``
    or a draw from ``haar_sample``: the terms summed in element order, then
    divided by their count."""
    ids = iter(elements)
    # a copy of the first term, so adding in place mutates nothing fn returned
    acc = np.array(fn(next(ids)), dtype=np.float64)
    for g in ids:
        acc += fn(g)
    return acc / len(elements)


def haar_sample(group, n: int | None = None, seed: int = 0):
    """Ids for group_average: every id when n is None, else n ids drawn
    uniformly, the Haar measure, by default_rng(seed)."""
    if n is None:
        return group.elements()
    if n < 1:
        raise ValueError(f"sampled averaging needs n >= 1 group elements, got {n}")
    return np.random.default_rng(seed).integers(group.order, size=n)


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """Phi = (1/|G|) sum_g phi(g); projects onto the invariant subspace."""

    rep: Representation
    matrix: np.ndarray

    @property
    def group(self):
        return self.rep.group

    @property
    def dim_invariant(self) -> float:
        # trace of a projection counts its rank
        return float(np.trace(self.matrix))

    def complement(self) -> np.ndarray:
        return np.eye(self.rep.dim) - self.matrix


def build_phi(rep: Representation) -> ProjectionMatrix:
    """The mean of the representation matrices over the group."""
    mat = rep.matrices.mean(axis=0)
    if np.max(np.abs(mat @ mat - mat)) > _PROJECTION_TOL:
        raise ValueError("averaged matrix is not idempotent")
    if np.max(np.abs(mat - mat.T)) > _PROJECTION_TOL:
        raise ValueError("averaged matrix of an orthogonal representation must be symmetric")
    for s in rep.group.generators:
        if np.max(np.abs(mat @ rep.matrices[s] - mat)) > _PROJECTION_TOL:
            raise ValueError("averaged matrix is not left-invariant")
    return ProjectionMatrix(rep=rep, matrix=mat)


@dataclass(frozen=True, eq=False)
class IntertwinerTensor:
    """Dense 4-index averaging map on d x k weight matrices.

    tensor[a, b, c, e] maps input entry (c, e) to output entry (a, b):
    apply(W)_ab = sum_ce tensor[a,b,c,e] W_ce = (1/|G|) sum_g (phi(g) W psi(g^-1))_ab.
    The tensor is C-contiguous.
    """

    rep_in: Representation   # phi, dim d
    rep_out: Representation  # psi, dim k
    tensor: np.ndarray       # (d, k, d, k)

    @property
    def group(self):
        return self.rep_in.group

    @property
    def trace(self) -> float:
        return float(np.einsum("abab->", self.tensor))

    def apply(self, W: np.ndarray) -> np.ndarray:
        return np.einsum("abce,ce->ab", self.tensor, W)

    def apply_batch(self, Ws: np.ndarray) -> np.ndarray:
        return np.einsum("abce,tce->tab", self.tensor, Ws)

    def complement(self, W: np.ndarray) -> np.ndarray:
        return W - self.apply(W)

    def complement_batch(self, Ws: np.ndarray) -> np.ndarray:
        out = self.apply_batch(Ws)
        return np.subtract(Ws, out, out=out)


def build_psi(rep_in: Representation, rep_out: Representation) -> IntertwinerTensor:
    """Build the intertwiner tensor for input rep phi and output rep psi."""
    group = rep_in.group
    if rep_out.group is not group:
        raise ValueError("input and output representations live on different groups")
    d, k = rep_in.dim, rep_out.dim
    if d * k > MAX_TENSOR_SIDE:
        raise ValueError(
            f"dense intertwiner storage cap exceeded: d*k = {d * k} > {MAX_TENSOR_SIDE}"
        )
    psi_inv_t = rep_out.matrices[group.inverse].transpose(0, 2, 1)
    tensor = np.einsum("gac,gbe->abce", rep_in.matrices, psi_inv_t, order="C")
    tensor /= group.order

    op = IntertwinerTensor(rep_in=rep_in, rep_out=rep_out, tensor=tensor)
    rng = np.random.default_rng(3)
    for _ in range(3):
        W = rng.standard_normal((d, k))
        W_bar = op.apply(W)
        if np.linalg.norm(op.apply(W_bar) - W_bar) > _PROJECTION_TOL:
            raise ValueError("intertwiner tensor is not idempotent")
        for s in group.generators:
            fixed = rep_in.matrices[s] @ W_bar @ rep_out.matrices[group.inverse[s]]
            if np.max(np.abs(fixed - W_bar)) > _PROJECTION_TOL:
                raise ValueError("averaged matrix does not intertwine the representations")
    expected_trace = character_inner(rep_out, rep_in)
    if abs(op.trace - expected_trace) > 1e-8:
        raise ValueError(
            f"tensor trace {op.trace!r} does not match the character inner product {expected_trace!r}"
        )
    return op


def _as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"input has dim {x.shape[0]}, expected {dim}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"input has shape {x.shape}, expected (m, {dim})")
    return x, False


@dataclass(frozen=True, eq=False)
class DecomposedPredictor:
    """Splits a black-box predictor into f = f_bar + f_perp.

    symmetric_part computes Q f, the mean of psi(g^-1) f(phi(g) x) over g,
    either by the exact group sum or by a fixed Monte-Carlo draw of
    group elements (the draw happens once at construction, so repeated
    evaluations are consistent).  antisym_part is f - Qf, so pointwise
    reconstruction is exact by construction.
    """

    base: Callable[[np.ndarray], np.ndarray]
    rep_in: Representation
    rep_out: Representation
    mode: str = "exact_sum"  # or "monte_carlo"
    n_samples: int = 10_000
    seed: int = 0
    _draw: Sequence[int] | None = field(default=None, repr=False)
    _flat: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.rep_in.group is not self.rep_out.group:
            raise ValueError("input and output representations live on different groups")
        if self.mode not in ("exact_sum", "monte_carlo"):
            raise ValueError(f"unknown averaging mode {self.mode!r}")
        n = self.n_samples if self.mode == "monte_carlo" else None
        object.__setattr__(self, "_draw", haar_sample(self.rep_in.group, n, self.seed))
        probe = np.zeros((2, self.rep_in.dim))
        out = np.asarray(self.base(probe))
        if out.shape not in ((2, self.rep_out.dim), (2,)):
            raise ValueError(
                f"predictor output shape {out.shape} incompatible with output dim {self.rep_out.dim}"
            )
        object.__setattr__(self, "_flat", out.ndim == 1)

    def _average(self, X: np.ndarray) -> np.ndarray:
        phi = self.rep_in.matrices
        psi_inv = self.rep_out.matrices[self.rep_in.group.inverse]

        def term(g):
            vals = np.asarray(self.base(X @ phi[g].T), dtype=np.float64)
            return vals.reshape(len(X), -1) @ psi_inv[g].T

        acc = group_average(term, self._draw)
        return acc[:, 0] if self._flat and self.rep_out.dim == 1 else acc

    def symmetric_part(self, x: np.ndarray) -> np.ndarray:
        X, single = _as_batch(x, self.rep_in.dim)
        out = self._average(X)
        return out[0] if single else out

    def antisym_part(self, x: np.ndarray) -> np.ndarray:
        X, single = _as_batch(x, self.rep_in.dim)
        out = np.asarray(self.base(X), dtype=np.float64) - self._average(X)
        return out[0] if single else out


def apply_Q(
    pred: Callable[[np.ndarray], np.ndarray],
    rep_in: Representation,
    rep_out: Representation,
    mode: str = "exact_sum",
    n_samples: int = 10_000,
    seed: int = 0,
) -> DecomposedPredictor:
    """Decompose a batched predictor into symmetric and anti-symmetric parts."""
    return DecomposedPredictor(
        base=pred, rep_in=rep_in, rep_out=rep_out, mode=mode, n_samples=n_samples, seed=seed
    )


def tta_average(
    pred: Callable[[np.ndarray], np.ndarray],
    rep_in: Representation,
    n: int,
    seed: int,
    mode: str = "monte_carlo",
) -> Callable[[np.ndarray], np.ndarray]:
    """Test-time augmentation: average predictions over group transforms.

    Invariance case only: Q with the trivial output representation of the
    predictor's output width.  "monte_carlo" draws n group elements i.i.d.
    from the Haar measure once and reuses them on every call; "exact" sums
    over the whole group and ignores n.
    """
    if mode not in _TTA_MODES:
        raise ValueError(f"unknown tta mode {mode!r}")
    width = np.asarray(pred(np.zeros((2, rep_in.dim)))).reshape(2, -1).shape[1]
    trivial = build_representation(rep_in.group, f"trivial {width}")
    return apply_Q(pred, rep_in, trivial, mode=_TTA_MODES[mode], n_samples=n, seed=seed).symmetric_part


def empirical_rademacher(
    funcs: list,
    points: np.ndarray,
    mode: str = "enumerate",
    m_samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Rad(F) = E_s[ sup_f | (1/n) sum_i s_i f(x_i) | ] over sign vectors s.

    "enumerate" averages over all 2^n sign vectors exactly (n <= 20);
    "sample" uses m_samples Monte-Carlo draws.
    """
    if not funcs:
        raise ValueError("empty function class")
    X = np.asarray(points, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty point list")
    values = np.empty((len(funcs), n))
    for i, f in enumerate(funcs):
        values[i] = np.asarray(f(X), dtype=np.float64).reshape(n)

    if mode == "enumerate":
        if n > 20:
            raise ValueError(f"enumerate mode caps at 20 points, got {n}")
        total = 0.0
        bit = np.arange(n)
        block = 4096
        for start in range(0, 1 << n, block):
            idx = np.arange(start, min(start + block, 1 << n))
            signs = 2.0 * ((idx[:, None] >> bit) & 1) - 1.0
            total += np.abs(signs @ values.T).max(axis=1).sum()
        return total / (1 << n) / n
    if mode == "sample":
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=(m_samples, n))
        return float(np.abs(signs @ values.T).max(axis=1).mean() / n)
    raise ValueError(f"unknown rademacher mode {mode!r}")


# rows of the sample whose f_bar, f_perp and inner products are held at once
_INNER_BLOCK_ROWS = 8192


def verify_operator_identities(
    rep_in: Representation,
    rep_out: Representation | None = None,
    n_samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Run the operator identity battery for one (phi, psi) pair.

    Exact identities (projection idempotence and symmetry, intertwining
    fixed point, trace of the tensor vs the character inner product,
    pointwise reconstruction, Q o Q = Q) are held to 1e-9; the L2
    orthogonality of the two parts of a nonlinear predictor is a
    Monte-Carlo estimate held to 3 standard errors.  Q fixes exactly the
    equivariant functions, so Q o Q = Q is checked as the equivariance of
    Qf under each generator s, psi(s) Qf(x) = Qf(phi(s) x) on 1000 points:
    (|S|+1)|G| predictor calls, not |G|^2.  The intertwining fixed point is
    also checked on the generators only.  Qf is averaged once over all
    n_samples points, in blocks of rows; the reconstruction
    f = Qf + (f - Qf) through antisym_part is checked on the same 1000
    points.  Below two samples the standard error is NaN and the verdict
    fails.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if rep_out is None:
        rep_out = build_representation(rep_in.group, "trivial 1")
    phi = build_phi(rep_in)
    P = phi.matrix
    dev_phi_idem = float(np.max(np.abs(P @ P - P)))
    dev_phi_sym = float(np.max(np.abs(P - P.T)))

    op_psi = build_psi(rep_in, rep_out)
    d, k = rep_in.dim, rep_out.dim
    rng = np.random.default_rng(seed)
    dev_psi_idem = 0.0
    dev_intertwine = 0.0
    for W in rng.standard_normal((3, d, k)):
        W_bar = op_psi.apply(W)
        dev_psi_idem = max(dev_psi_idem, float(np.max(np.abs(op_psi.apply(W_bar) - W_bar))))
        for g in rep_in.group.generators:
            lhs = W_bar.T @ rep_in.matrices[g]
            rhs = rep_out.matrices[g] @ W_bar.T
            dev_intertwine = max(dev_intertwine, float(np.max(np.abs(lhs - rhs))))
    side = d * k
    flat = op_psi.tensor.reshape(side, side)
    dev_psi_sym = float(np.max(np.abs(flat - flat.T)))
    dev_trace = float(abs(op_psi.trace - character_inner(rep_out, rep_in)))

    # nonlinear predictor split on invariant Gaussian inputs; the bias keeps
    # the symmetric part away from zero even when the action contains -I
    B = rng.standard_normal((d, k))
    c = 0.5 * rng.standard_normal(k)
    pred = lambda X: np.tanh(X @ B + c)
    op = apply_Q(pred, rep_in, rep_out)
    X = rng.standard_normal((n_samples, d))
    inner = np.empty(n_samples)
    for start in range(0, n_samples, _INNER_BLOCK_ROWS):
        rows = X[start:start + _INNER_BLOCK_ROWS]
        f_bar = op.symmetric_part(rows)
        f_perp = pred(rows) - f_bar  # antisym_part(rows) without a second average
        inner[start:start + len(rows)] = (
            np.asarray(f_bar).reshape(len(rows), -1) * np.asarray(f_perp).reshape(len(rows), -1)
        ).sum(axis=1)
    small = X[:1000]
    q_small = op.symmetric_part(small)
    dev_reconstruct = float(np.max(np.abs(pred(small) - q_small - op.antisym_part(small))))
    dev_q_idem = max((float(np.max(np.abs(
        op.symmetric_part(small @ rep_in.matrices[s].T) - q_small @ rep_out.matrices[s].T
    ))) for s in rep_in.group.generators), default=0.0)
    inner_mean = float(inner.mean())
    inner_se = standard_error(inner)

    exact_ok = max(
        dev_phi_idem, dev_phi_sym, dev_psi_idem, dev_psi_sym,
        dev_intertwine, dev_trace, dev_reconstruct, dev_q_idem,
    ) <= 1e-9
    ortho_ok = abs(inner_mean) <= 3.0 * max(inner_se, 1e-15)  # max(nan, x) is nan: fails
    return {
        "group": rep_in.group.name,
        "rep_in": rep_in.name,
        "rep_out": rep_out.name,
        "dev_phi_idempotent": dev_phi_idem,
        "dev_phi_symmetric": dev_phi_sym,
        "dev_psi_idempotent": dev_psi_idem,
        "dev_psi_symmetric": dev_psi_sym,
        "dev_intertwine": dev_intertwine,
        "dev_trace": dev_trace,
        "dev_reconstruction": dev_reconstruct,
        "dev_q_idempotent": dev_q_idem,
        "inner_mean": inner_mean,
        "inner_se": inner_se,
        "verdict": "pass" if (exact_ok and ortho_ok) else "fail",
    }
