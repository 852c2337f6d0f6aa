"""Cross-sections, averaged losses, orbit-equivalence demos, and coverings.

A cross-section picks one representative per group orbit; training on the
projected sample is equivalent to training on the original sample for any
learner whose output is an invariant function.  The module also houses the
averaged loss for equivariant targets, greedy covering/packing estimators,
and the sample-complexity quantity built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .averaging import build_phi, group_average
from .groups import Representation, build_group, build_representation
from .kernel_gap import build_averaged_kernel, fit_krr, gaussian_kernel
from .sampling import gaussian

__all__ = [
    "CrossSection",
    "PointCloud",
    "FittedPredictor",
    "EquivalenceReport",
    "build_cross_section",
    "averaged_loss",
    "fit_learner",
    "equivalence_demo",
    "covering_number",
    "sample_complexity_D",
    "LEARNER_NAMES",
    "METRICS",
]

CROSS_SECTION_KINDS = ("sort_descending", "abs_first_coordinate", "polar_fold", "quadrant_fold")


@dataclass(frozen=True, eq=False)
class CrossSection:
    """A measurable cross-section x -> x_pi for a concrete group action."""

    kind: str
    action: Representation

    @property
    def dim(self) -> int:
        return self.action.dim

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of dimension {self.dim}, got shape {x.shape}")
        return self.project_batch(x[None, :])[0]

    def project_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {X.shape}")
        if self.kind == "sort_descending":
            return np.sort(X, axis=1)[:, ::-1]
        if self.kind == "abs_first_coordinate":
            out = X.copy()
            out[:, 0] = np.abs(out[:, 0])
            return out
        # sector fold: rotate each point back to the fundamental sector
        # [0, 2*pi/m) of the rotation action
        m = self.action.group.order
        theta = np.mod(np.arctan2(X[:, 1], X[:, 0]), 2.0 * math.pi)
        j = (theta * m / (2.0 * math.pi)).astype(np.int64)
        j[j >= m] = 0  # float wraparound at the 2*pi seam means angle 0
        mats = self.action.matrices[self.action.group.inverse[j]]
        return np.einsum("nij,nj->ni", mats, X)


def _spot_check_cross_section(cs: CrossSection) -> CrossSection:
    rng = np.random.default_rng(31)
    X = rng.standard_normal((8, cs.dim))
    P = cs.project_batch(X)
    if np.max(np.abs(cs.project_batch(P) - P)) > 1e-12:
        raise AssertionError(f"cross-section {cs.kind} is not idempotent")
    group, mats = cs.action.group, cs.action.matrices
    for g in group.generators:
        if np.max(np.abs(cs.project_batch(X @ mats[g].T) - P)) > 1e-10:
            raise AssertionError(f"cross-section {cs.kind} is not constant on orbits")
    # membership: some group element maps the representative back to x
    recon = np.einsum("gij,nj->gni", mats, P)
    gaps = np.abs(recon - X[None, :, :]).max(axis=2).min(axis=0)
    if np.max(gaps) > 1e-8:
        raise AssertionError(f"cross-section {cs.kind} representatives leave their orbit")
    return cs


def build_cross_section(kind: str, dim: int | None = None) -> CrossSection:
    """Construct one of the named cross-sections with its canonical action."""
    if kind == "sort_descending":
        if dim is None or dim < 2:
            raise ValueError("sort_descending needs dim >= 2")
        rep = build_representation(build_group(f"symmetric {dim}"), "natural_permutation")
    elif kind == "abs_first_coordinate":
        if dim is None or dim < 1:
            raise ValueError("abs_first_coordinate needs dim >= 1")
        refl = np.eye(dim)
        refl[0, 0] = -1.0
        rep = build_representation(
            build_group("cyclic 2"), "explicit", matrices=np.stack([np.eye(dim), refl])
        )
    elif kind == "polar_fold":
        if dim is not None and dim != 2:
            raise ValueError("polar_fold acts on the plane (dim 2)")
        rep = build_representation(build_group("so2_quadrature 64"), "rotation_block 1")
    elif kind == "quadrant_fold":
        if dim is not None and dim != 2:
            raise ValueError("quadrant_fold acts on the plane (dim 2)")
        rep = build_representation(build_group("cyclic 4"), "rotation_block 1")
    else:
        raise ValueError(f"unknown cross-section kind {kind!r}; choose from {CROSS_SECTION_KINDS}")
    return _spot_check_cross_section(CrossSection(kind=kind, action=rep))


# ------------------------------------------------------------ averaged loss


def averaged_loss(
    loss: Callable[[np.ndarray, np.ndarray], float],
    rep: Representation,
    nu: str | np.ndarray = "haar",
) -> Callable[[np.ndarray, np.ndarray], float]:
    """lbar(y, y') = sum_g nu(g) loss(psi(g) y, psi(g) y')."""
    group = rep.group
    if isinstance(nu, str):
        if nu != "haar":
            raise ValueError("nu must be 'haar' or an explicit weight vector")
        weights = group.weights
    else:
        weights = np.asarray(nu, dtype=np.float64)
        if weights.shape != (group.order,) or np.any(weights < 0):
            raise ValueError("nu must be a non-negative vector of length |G|")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("nu weights must sum to 1")
    rng = np.random.default_rng(32)
    for y, yp in rng.standard_normal((4, 2, rep.dim)):
        if loss(y, yp) < 0:
            raise ValueError("loss must be non-negative")

    mats = rep.matrices

    def lbar(y: np.ndarray, y_prime: np.ndarray) -> float:
        pair_loss = lambda g: loss(mats[g] @ y, mats[g] @ y_prime)
        return float(group_average(pair_loss, group, weights=weights))

    return lbar


# ------------------------------------------------------------- equivalence


@dataclass(frozen=True, eq=False)
class FittedPredictor:
    name: str
    predict: Callable[[np.ndarray], np.ndarray]
    coefficients: np.ndarray | None = None

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.predict(X)


# learner name -> (output is an invariant function, fit procedure)
def _fit_averaged_krr(action: Representation, X, Y, rho: float) -> FittedPredictor:
    # fit in the invariant RKHS: both the training Gram and the representers
    # use kbar, so the fitted function ignores where points sit on their orbit
    from .kernel_gap import KernelSpec

    base = gaussian_kernel(action, bandwidth=math.sqrt(action.dim))
    ak = build_averaged_kernel(base)
    bar = KernelSpec(name="averaged_" + base.name, action=action, gram=ak.gram_bar, Mk=base.Mk)
    model = fit_krr(bar, X, Y, rho)
    return FittedPredictor("averaged_krr", model.predict)


def _fit_invariant_ls(action: Representation, X, Y, rho: float) -> FittedPredictor:
    phi = build_phi(action).matrix.copy()
    # snap float dust to zero so a trivial invariant subspace yields the
    # zero predictor instead of amplified noise in the least-squares solve
    phi[np.abs(phi) < 1e-12] = 0.0
    coef, *_ = np.linalg.lstsq(X @ phi.T, Y, rcond=None)
    return FittedPredictor("invariant_least_squares", lambda T: (T @ phi.T) @ coef, coef)


def _fit_raw_ls(action: Representation, X, Y, rho: float) -> FittedPredictor:
    coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
    return FittedPredictor("raw_least_squares", lambda T: T @ coef, coef)


_LEARNERS = {
    "averaged_krr": (True, _fit_averaged_krr),
    "invariant_least_squares": (True, _fit_invariant_ls),
    "raw_least_squares": (False, _fit_raw_ls),
}
LEARNER_NAMES = tuple(_LEARNERS)


def fit_learner(name: str, action: Representation, X, Y, rho: float = 0.1) -> FittedPredictor:
    if name not in _LEARNERS:
        raise ValueError(f"unknown learner {name!r}; choose from {LEARNER_NAMES}")
    return _LEARNERS[name][1](action, np.asarray(X, float), np.asarray(Y, float), rho)


def default_invariant_target(action: Representation) -> Callable[[np.ndarray], np.ndarray]:
    """Group average of a fixed bent linear functional; invariant by construction."""
    group, mats = action.group, action.matrices
    c = np.arange(1, action.dim + 1, dtype=np.float64) / action.dim

    def f_star(X: np.ndarray) -> np.ndarray:
        return group_average(lambda g: np.tanh(X @ (mats[g].T @ c)), group)

    return f_star


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    learner: str
    invariant_expected: bool
    risk_original: float
    risk_projected: float
    risk_deviation: float
    prediction_deviation: float
    metamorphic_deviation: float
    metamorphic_flag: bool
    learning_curve: tuple
    verdict: str


def equivalence_demo(
    learner: str,
    cross_section: CrossSection,
    n: int = 64,
    trials: int = 4,
    sigma: float = 0.1,
    seed: int = 0,
    rho: float = 0.1,
    f_star: Callable[[np.ndarray], np.ndarray] | None = None,
) -> EquivalenceReport:
    """Train on the sample and on its projection; invariant learners must
    produce float-identical risk estimates, and a group-perturbed retrain
    (the metamorphic test) must leave their predictions unchanged."""
    if n < 16 or trials < 1:
        raise ValueError("need n >= 16 and trials >= 1")
    if learner not in _LEARNERS:
        raise ValueError(f"unknown learner {learner!r}; choose from {LEARNER_NAMES}")
    invariant_expected = _LEARNERS[learner][0]
    action = cross_section.action
    d = action.dim
    mu = gaussian(d)
    if f_star is None:
        f_star = default_invariant_target(action)

    curve_ns = sorted({max(4, n // 4), max(8, n // 2), n})
    risk1_acc = np.zeros(trials)
    risk2_acc = np.zeros(trials)
    curve_acc = np.zeros((trials, len(curve_ns), 2))
    risk_dev = 0.0
    pred_dev = 0.0
    meta_dev = 0.0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        X = mu.sample(n, rng)
        Y = f_star(X) + sigma * rng.standard_normal(n)
        T = mu.sample(512, rng)
        truth = f_star(T)
        p1 = fit_learner(learner, action, X, Y, rho)
        p2 = fit_learner(learner, action, cross_section.project_batch(X), Y, rho)
        r1 = float(np.mean((p1(T) - truth) ** 2))
        r2 = float(np.mean((p2(T) - truth) ** 2))
        risk1_acc[t], risk2_acc[t] = r1, r2
        risk_dev = max(risk_dev, abs(r1 - r2))
        pred_dev = max(pred_dev, float(np.max(np.abs(p1(T) - p2(T)))))
        # metamorphic: move each training point along its orbit
        gs = rng.integers(0, action.group.order, size=n)
        Xg = np.einsum("nij,nj->ni", action.matrices[gs], X)
        p3 = fit_learner(learner, action, Xg, Y, rho)
        meta_dev = max(meta_dev, float(np.max(np.abs(p1(T) - p3(T)))))
        for level, m in enumerate(curve_ns):
            q1 = fit_learner(learner, action, X[:m], Y[:m], rho)
            q2 = fit_learner(learner, action, cross_section.project_batch(X[:m]), Y[:m], rho)
            curve_acc[t, level, 0] = float(np.mean((q1(T) - truth) ** 2))
            curve_acc[t, level, 1] = float(np.mean((q2(T) - truth) ** 2))

    flag = meta_dev > 1e-9
    if invariant_expected:
        ok = (risk_dev <= 1e-9) and not flag
    else:
        ok = flag
    curve = tuple(
        (curve_ns[i], float(curve_acc[:, i, 0].mean()), float(curve_acc[:, i, 1].mean()))
        for i in range(len(curve_ns))
    )
    return EquivalenceReport(
        learner=learner,
        invariant_expected=invariant_expected,
        risk_original=float(risk1_acc.mean()),
        risk_projected=float(risk2_acc.mean()),
        risk_deviation=risk_dev,
        prediction_deviation=pred_dev,
        metamorphic_deviation=meta_dev,
        metamorphic_flag=flag,
        learning_curve=curve,
        verdict="pass" if ok else "fail",
    )


# ---------------------------------------------------------------- covering


METRICS = ("euclidean", "sup")


@dataclass(frozen=True, eq=False)
class PointCloud:
    points: np.ndarray
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or not np.all(np.isfinite(pts)):
            raise ValueError("points must be a non-empty finite (n, d) array")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        object.__setattr__(self, "points", pts)

    def distances_to(self, centers: np.ndarray) -> np.ndarray:
        """(n, k) distances from every point to each of k centers."""
        out = np.empty((self.points.shape[0], centers.shape[0]))
        for rows in _row_blocks(out.shape[0], centers.size):
            out[rows] = self._distances(self.points[rows], centers)
        return out

    def medoid(self) -> int:
        """Index of the point whose distances to all points sum least."""
        pts = self.points
        sums = np.empty(pts.shape[0])
        for rows in _row_blocks(pts.shape[0], pts.size):
            sums[rows] = self._distances(pts[rows], pts).sum(axis=1)
        return int(np.argmin(sums))

    def _distances(self, points: np.ndarray, centers: np.ndarray) -> np.ndarray:
        diff = points[:, None, :] - centers[None, :, :]
        if self.metric == "sup":
            return np.abs(diff).max(axis=2)
        return np.sqrt(np.square(diff, out=diff).sum(axis=2))


# float64 entries in one block of per-point differences (2 MB)
_BLOCK_ENTRIES = 1 << 18


def _row_blocks(n_rows: int, row_entries: int) -> list:
    """Row slices whose (rows, k, d) difference arrays hold about _BLOCK_ENTRIES.

    Each row is reduced on its own, so the blocking leaves every value as
    an unblocked computation gives it.
    """
    step = max(1, _BLOCK_ENTRIES // max(1, row_entries))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _farthest_first_size(cloud: PointCloud, eps: float, start: int) -> int:
    """Length of the maximin traversal prefix from ``start`` with all points within eps.

    The prefix is simultaneously an eps-cover (every point is within eps of
    a chosen center) and an eps-packing (each new center was farther than
    eps from all previous ones).
    """
    pts = cloud.points
    chosen = [start]
    mindist = cloud.distances_to(pts[chosen])[:, 0]
    while float(mindist.max()) > eps:
        nxt = int(np.argmax(mindist))
        chosen.append(nxt)
        mindist = np.minimum(mindist, cloud.distances_to(pts[[nxt]])[:, 0])
    return len(chosen)


def covering_number(cloud: PointCloud, eps: float) -> int:
    """Greedy covering / packing size, traversed from the medoid; the sandwich
    packing(2 eps) <= cover(eps) <= packing(eps) is asserted on every call."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    start = cloud.medoid()
    size = _farthest_first_size(cloud, eps, start)
    doubled = _farthest_first_size(cloud, 2.0 * eps, start)
    if not doubled <= size:
        raise AssertionError("covering/packing sandwich violated")
    return size


def sample_complexity_D(
    domain: PointCloud,
    output_clouds: list,
    L: float,
    C_ell: float,
    t: float,
) -> float:
    """cover(X, t/(12 L C_ell)) * max_x log cover(F(x), t/(12 L^2 C_ell))."""
    if L <= 0 or C_ell <= 0 or t <= 0:
        raise ValueError("L, C_ell, t must all be > 0")
    if not output_clouds:
        raise ValueError("need at least one output cloud")
    n_in = covering_number(domain, t / (12.0 * L * C_ell))
    r_out = t / (12.0 * L ** 2 * C_ell)
    log_out = max(math.log(covering_number(fc, r_out)) for fc in output_clouds)
    return float(n_in * log_out)
