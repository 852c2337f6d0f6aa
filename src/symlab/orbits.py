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

from . import gates
from .averaging import build_phi, group_average
from .groups import Representation, build_group, build_representation
from .kernel_gap import KernelSpec, _square, build_averaged_kernel, fit_krr, gaussian_kernel
from .sampling import blocks, gaussian, stream

__all__ = [
    "CrossSection",
    "PointCloud",
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
    return CrossSection(kind=kind, action=rep)


# ------------------------------------------------------------ averaged loss


def averaged_loss(
    loss: Callable[[np.ndarray, np.ndarray], float],
    rep: Representation,
    nu: np.ndarray | None = None,
) -> Callable[[np.ndarray, np.ndarray], float]:
    """lbar(y, y') = sum_g nu(g) loss(psi(g) y, psi(g) y'); with nu None,
    the Haar measure: the mean over the group."""
    group = rep.group
    weights = None
    if nu is not None:
        weights = np.asarray(nu, dtype=np.float64)
        if weights.shape != (group.order,) or not np.all(weights >= 0):  # NaN fails too
            raise ValueError("nu must be a non-negative vector of length |G|")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("nu weights must sum to 1")
    rng = np.random.default_rng(32)
    for y, yp in rng.standard_normal((4, 2, rep.dim)):
        if not loss(y, yp) >= 0:
            raise ValueError("loss must be non-negative")

    mats = rep.matrices

    def lbar(y: np.ndarray, y_prime: np.ndarray) -> float:
        pair_loss = lambda g: loss(mats[g] @ y, mats[g] @ y_prime)
        if weights is None:
            return float(group_average(pair_loss, group.elements()))
        return float(sum(w * pair_loss(g) for g, w in zip(group.elements(), weights)))

    return lbar


# ------------------------------------------------------------- equivalence


AVERAGED_KRR_RHO = 0.1  # the averaged-KRR learner's ridge


# Each learner's prepare(action) builds what its fits share once and returns
# fit(X, Y), which returns the fitted predictor: a callable on (m, d) points.
def _prepare_averaged_krr(action: Representation):
    # fit in the invariant RKHS: both the training Gram and the representers
    # use kbar, so the fitted function ignores where points sit on their orbit
    base = gaussian_kernel(action, bandwidth=math.sqrt(action.dim))
    ak = build_averaged_kernel(base)
    bar = KernelSpec(name="averaged_" + base.name, action=action, gram=ak.gram_bar, Mk=base.Mk)
    return lambda X, Y: fit_krr(bar, X, Y, AVERAGED_KRR_RHO).predict


def _prepare_invariant_ls(action: Representation):
    phi = build_phi(action)
    # snap float dust to zero so a trivial invariant subspace yields the
    # zero predictor instead of amplified noise in the least-squares solve
    phi[np.abs(phi) < 1e-12] = 0.0

    def fit(X, Y) -> Callable[[np.ndarray], np.ndarray]:
        coef, *_ = np.linalg.lstsq(X @ phi.T, Y, rcond=None)
        return lambda T: (T @ phi.T) @ coef

    return fit


def _prepare_raw_ls(action: Representation):
    def fit(X, Y) -> Callable[[np.ndarray], np.ndarray]:
        coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
        return lambda T: T @ coef

    return fit


# learner name -> (output is an invariant function, prepare)
_LEARNERS = {
    "averaged_krr": (True, _prepare_averaged_krr),
    "invariant_least_squares": (True, _prepare_invariant_ls),
    "raw_least_squares": (False, _prepare_raw_ls),
}
LEARNER_NAMES = tuple(_LEARNERS)


def fit_learner(name: str, action: Representation, X, Y) -> Callable[[np.ndarray], np.ndarray]:
    """Fit the named learner to (X, Y) and return its predictor, a callable on (m, d) points.

    averaged_krr fits with the ridge AVERAGED_KRR_RHO; the least-squares
    learners are unregularised."""
    if name not in _LEARNERS:
        raise ValueError(f"unknown learner {name!r}; choose from {LEARNER_NAMES}")
    return _LEARNERS[name][1](action)(np.asarray(X, float), np.asarray(Y, float))


def default_invariant_target(action: Representation) -> Callable[[np.ndarray], np.ndarray]:
    """Group average of a fixed bent linear functional; invariant by construction."""
    group, mats = action.group, action.matrices
    c = np.arange(1, action.dim + 1, dtype=np.float64) / action.dim

    def f_star(X: np.ndarray) -> np.ndarray:
        return group_average(lambda g: np.tanh(X @ (mats[g].T @ c)), group.elements())

    return f_star


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    invariant_expected: bool
    risk_original: float
    risk_projected: float
    risk_deviation: float
    prediction_deviation: float
    metamorphic_deviation: float
    metamorphic_flag: bool
    verdict: str


def _check_equivalence_demo(learner: str, n: int, trials: int, sigma: float) -> None:
    if n < 16 or trials < 1:
        raise ValueError("need n >= 16 and trials >= 1")
    if not sigma >= 0:  # NaN fails too
        raise ValueError(f"sigma is {sigma!r}: a standard deviation must be >= 0")
    _square("sigma", sigma)  # the risks are squared errors of order sigma
    if learner not in _LEARNERS:
        raise ValueError(f"unknown learner {learner!r}; choose from {LEARNER_NAMES}")


def equivalence_demo(
    learner: str,
    cross_section: CrossSection,
    n: int = 64,
    trials: int = 4,
    sigma: float = 0.1,
    seed: int = 0,
) -> EquivalenceReport:
    """Train on the sample and on its projection; invariant learners must
    produce float-identical risk estimates, and a group-perturbed retrain
    (the metamorphic test) must leave their predictions unchanged.

    The target is default_invariant_target of the cross-section's action,
    observed with Gaussian noise of standard deviation sigma; averaged_krr
    fits with the ridge AVERAGED_KRR_RHO."""
    _check_equivalence_demo(learner, n, trials, sigma)
    invariant_expected, prepare = _LEARNERS[learner]
    action = cross_section.action
    fit = prepare(action)
    d = action.dim
    mu = gaussian(d)
    f_star = default_invariant_target(action)

    risk1_acc = np.zeros(trials)
    risk2_acc = np.zeros(trials)
    risk_dev = 0.0
    pred_dev = 0.0
    meta_dev = 0.0
    for t in range(trials):
        rng = stream(seed, "orbit_trial", t)
        X = mu.sample(n, rng)
        Y = f_star(X) + sigma * rng.standard_normal(n)
        T = mu.sample(512, rng)
        truth = f_star(T)
        y1 = fit(X, Y)(T)
        y2 = fit(cross_section.project_batch(X), Y)(T)
        r1 = float(np.mean((y1 - truth) ** 2))
        r2 = float(np.mean((y2 - truth) ** 2))
        risk1_acc[t], risk2_acc[t] = r1, r2
        # np.maximum keeps a NaN deviation, which builtin max(0.0, nan) would drop
        risk_dev = float(np.maximum(risk_dev, abs(r1 - r2)))
        pred_dev = float(np.maximum(pred_dev, np.max(np.abs(y1 - y2))))
        # metamorphic: move each training point along its orbit
        gs = rng.integers(0, action.group.order, size=n)
        Xg = np.einsum("nij,nj->ni", action.matrices[gs], X)
        y3 = fit(Xg, Y)(T)
        meta_dev = float(np.maximum(meta_dev, np.max(np.abs(y1 - y3))))

    flag = gates.holds("metamorphic", meta_dev)
    if invariant_expected:
        verdict = gates.verdict(gates.holds("identity", risk_dev), gates.holds("identity", meta_dev))
    else:
        verdict = gates.verdict(flag)
    return EquivalenceReport(
        invariant_expected=invariant_expected,
        risk_original=float(risk1_acc.mean()),
        risk_projected=float(risk2_acc.mean()),
        risk_deviation=risk_dev,
        prediction_deviation=pred_dev,
        metamorphic_deviation=meta_dev,
        metamorphic_flag=flag,
        verdict=verdict,
    )


# ---------------------------------------------------------------- covering


METRICS = ("euclidean", "sup")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """n points of R^d under the Euclidean or the sup metric.

    Distances are taken one coordinate at a time, in coordinate order: the
    squared differences are added from the first coordinate on, then the
    square root is taken (sup keeps the running max of |differences|).  Up
    to d = 7 this is the order of numpy's sum over the coordinates, so each
    distance is that of the one-shot formula bit for bit; from d = 8 numpy
    sums pairwise, and a Euclidean distance may differ from it in its last
    bits.  Sup distances are exact at every d."""

    points: np.ndarray
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        try:
            pts = np.asarray(self.points, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError("points is not a list of numbers or of equal rows of them") from None
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or not np.all(np.isfinite(pts)):
            raise ValueError("points must be a non-empty finite (n, d) array")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        # the largest distance two points can have, 2M sqrt(d) (2M in sup) with M the
        # largest |x|; its square, 4dM^2, which bounds every partial sum _distances
        # adds up in the Euclidean metric; and n times it, a medoid's row sum, must
        # each be finite
        (n, d), reach = pts.shape, float(np.max(np.abs(pts)))
        far = 2.0 * reach * (math.sqrt(d) if self.metric == "euclidean" else 1.0)
        if not (math.isfinite(n * far) and (self.metric == "sup" or math.isfinite(far * far))):
            raise ValueError(f"points reach |x| = {reach:.3e}, where their {self.metric} distances overflow")
        object.__setattr__(self, "points", pts)

    def distances_to(self, centers: np.ndarray) -> np.ndarray:
        """(n, k) distances from every point to each of k centers, in blocks of
        rows; each row is reduced on its own, so no value depends on the blocks.
        The coordinates are taken in order, so up to d = 7 each distance is the
        one-shot formula's bit for bit; from d = 8 a Euclidean one may differ
        from it in its last bits."""
        out = np.empty((self.points.shape[0], centers.shape[0]))
        for rows, dist in self._distances(centers):
            out[rows] = dist
        return out

    def medoid(self) -> int:
        """Index of the point whose distances to all points sum least.  The
        distances are distances_to's: the one-shot formula's bit for bit up to
        d = 7, and from d = 8 within the last bits of a Euclidean one."""
        sums = np.empty(self.points.shape[0])
        for rows, dist in self._distances(self.points):
            sums[rows] = dist.sum(axis=1)
        return int(np.argmin(sums))

    def _distances(self, centers: np.ndarray):
        """Yield (rows, the (m, k) distances of those points to the k centers)
        block by block, adding the coordinates' terms in order from the first
        (the class docstring says what that rounds like from d = 8).  Each row
        keeps 2k entries live, the accumulator and one coordinate's terms, in
        one pair of buffers that every block reuses, so a yielded block is
        valid only until the next is asked for.  The centers are copied once as
        a (d, k) array, so that the subtraction reads each coordinate contiguously."""
        pts, k = self.points, centers.shape[0]
        columns = np.ascontiguousarray(centers.T)
        row_blocks = blocks(pts.shape[0], 2 * k)
        m = row_blocks[0].stop
        acc_buf, term_buf = np.empty((m, k)), np.empty((m, k))
        sup = self.metric == "sup"
        size, join = (np.abs, np.maximum) if sup else (np.square, np.add)
        for rows in row_blocks:
            acc, term = acc_buf[: rows.stop - rows.start], term_buf[: rows.stop - rows.start]
            block = pts[rows]
            for j in range(pts.shape[1]):
                # the first coordinate's terms start the accumulator, each later one's join it
                terms = term if j else acc
                np.subtract(block[:, j, None], columns[j], out=terms)
                size(terms, out=terms)
                if j:
                    join(acc, terms, out=acc)
            yield rows, acc if sup else np.sqrt(acc, out=acc)


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


def _check_covering_number(eps: float) -> None:
    if not eps > 0:  # NaN fails too
        raise ValueError("eps must be > 0")


def covering_number(cloud: PointCloud, eps: float) -> int:
    """Greedy covering / packing size, traversed from the medoid.  The traversal
    order does not depend on eps, so the sandwich packing(2 eps) <= cover(eps)
    <= packing(eps) holds by construction; the tests pin it rather than every call."""
    _check_covering_number(eps)
    return _farthest_first_size(cloud, eps, cloud.medoid())


def sample_complexity_D(
    domain: PointCloud,
    output_clouds: list,
    L: float,
    C_ell: float,
    t: float,
) -> float:
    """cover(X, t/(12 L C_ell)) * max_x log cover(F(x), t/(12 L^2 C_ell))."""
    if not (L > 0 and C_ell > 0 and t > 0):  # NaN fails too
        raise ValueError("L, C_ell, t must all be > 0")
    if not output_clouds:
        raise ValueError("need at least one output cloud")
    n_in = covering_number(domain, t / (12.0 * L * C_ell))
    r_out = t / (12.0 * L ** 2 * C_ell)
    log_out = max(math.log(covering_number(fc, r_out)) for fc in output_clouds)
    return float(n_in * log_out)
