"""Tests for cross-sections, averaged losses, equivalence demos, coverings.

Oracles: hand-computed projections, the S_d averaged-loss formula, a
brute-force optimal 1-D interval cover, and float-identity of invariant
learners under orbit moves.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlab import sampling
from symlab.groups import build_group, build_representation
from symlab.kernel_gap import fit_krr, linear_kernel
from symlab.orbits import (
    METRICS,
    PointCloud,
    averaged_loss,
    build_cross_section,
    covering_number,
    equivalence_demo,
    fit_learner,
    sample_complexity_D,
)

# ----------------------------------------------------------- cross-sections


def test_sort_descending_example():
    cs = build_cross_section("sort_descending", dim=3)
    assert np.array_equal(cs.project_batch(np.array([[2.0, 1.0, 3.0]]))[0], [3.0, 2.0, 1.0])


def test_abs_first_coordinate_example():
    cs = build_cross_section("abs_first_coordinate", dim=2)
    assert np.array_equal(cs.project_batch(np.array([[-1.5, 2.0]]))[0], [1.5, 2.0])


def test_polar_fold_example():
    cs = build_cross_section("polar_fold")
    assert np.allclose(cs.project_batch(np.array([[0.0, 2.0]]))[0], [2.0, 0.0], atol=1e-12)


def test_quadrant_fold_example():
    cs = build_cross_section("quadrant_fold")
    assert np.allclose(cs.project_batch(np.array([[0.0, 2.0]]))[0], [2.0, 0.0], atol=1e-12)
    # a point already in the first quadrant sector is fixed
    x = np.array([2.0, 1.0])
    assert np.allclose(cs.project_batch(x[None])[0], x, atol=1e-15)


@pytest.mark.parametrize("kind,dim", [
    ("sort_descending", 2), ("sort_descending", 3), ("sort_descending", 5),
    ("abs_first_coordinate", 1), ("abs_first_coordinate", 2), ("abs_first_coordinate", 4),
    ("polar_fold", 2), ("quadrant_fold", 2),
])
def test_cross_section_triple_on_1000_points(kind, dim):
    # build_cross_section does not check what it builds: this pins the three properties
    # of a cross-section on every kind, at the least dim each accepts and at larger ones
    cs = build_cross_section(kind, dim=dim)
    rng = np.random.default_rng(40)
    X = rng.standard_normal((1000, dim)) * 2.0
    P = cs.project_batch(X)
    # idempotence
    assert np.max(np.abs(cs.project_batch(P) - P)) <= 1e-12
    # orbit consistency for every group element
    mats = cs.action.matrices
    for g in cs.action.group.elements():
        assert np.max(np.abs(cs.project_batch(X @ mats[g].T) - P)) <= 1e-10
    # membership: the representative is on the orbit of x
    recon = np.einsum("gij,nj->gni", mats, P)
    gaps = np.abs(recon - X[None, :, :]).max(axis=2).min(axis=0)
    assert float(gaps.max()) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False), min_size=3, max_size=3)
)
def test_sort_descending_triple_property(values):
    cs = build_cross_section("sort_descending", dim=3)
    x = np.array(values)
    p = cs.project_batch(x[None])[0]
    assert np.array_equal(cs.project_batch(p[None])[0], p)
    assert sorted(p.tolist(), reverse=True) == p.tolist()
    assert sorted(p.tolist()) == sorted(x.tolist())


def test_cross_section_rejections():
    with pytest.raises(ValueError):
        build_cross_section("spiral_fold")
    with pytest.raises(ValueError):
        build_cross_section("sort_descending", dim=1)
    with pytest.raises(ValueError):
        build_cross_section("polar_fold", dim=3)
    cs = build_cross_section("quadrant_fold")
    with pytest.raises(ValueError):
        cs.project_batch(np.array([[1.0, 2.0, 3.0]]))


# ------------------------------------------------------------ averaged loss


def test_averaged_loss_preserved_loss_unchanged():
    rep = build_representation(build_group("symmetric 3"), "natural_permutation")
    sq = lambda y, yp: float(((y - yp) ** 2).sum())
    lbar = averaged_loss(sq, rep)
    rng = np.random.default_rng(41)
    for y, yp in rng.standard_normal((5, 2, 3)):
        assert lbar(y, yp) == pytest.approx(sq(y, yp), rel=1e-12)


def test_averaged_loss_sd_formula():
    # averaging |y_1 - y'_1| over all of S_3 hits each coordinate twice
    rep = build_representation(build_group("symmetric 3"), "natural_permutation")
    lbar = averaged_loss(lambda y, yp: float(abs(y[0] - yp[0])), rep)
    rng = np.random.default_rng(42)
    for y, yp in rng.standard_normal((5, 2, 3)):
        assert lbar(y, yp) == pytest.approx(float(np.abs(y - yp).sum()) / 3.0, rel=1e-12)


def test_averaged_loss_trivial_group():
    rep = build_representation(build_group("cyclic 1"), "trivial 3")
    loss = lambda y, yp: float((y[0] - 2.0 * yp[1]) ** 2)
    lbar = averaged_loss(loss, rep)
    rng = np.random.default_rng(43)
    for y, yp in rng.standard_normal((4, 2, 3)):
        assert lbar(y, yp) == loss(y, yp)


def test_averaged_loss_explicit_nu():
    rep = build_representation(build_group("cyclic 2"), "natural_permutation")
    loss = lambda y, yp: float(abs(y[0] - yp[0]))
    delta = np.array([1.0, 0.0])  # point mass at the identity
    lbar = averaged_loss(loss, rep, nu=delta)
    y, yp = np.array([1.0, 5.0]), np.array([2.0, 9.0])
    assert lbar(y, yp) == loss(y, yp)
    with pytest.raises(ValueError):
        averaged_loss(loss, rep, nu=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        averaged_loss(loss, rep, nu=np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        averaged_loss(lambda y, yp: -1.0, rep)


# -------------------------------------------------------------- equivalence


def test_averaged_krr_equivalent_on_reflection_task():
    cs = build_cross_section("abs_first_coordinate", dim=2)
    report = equivalence_demo("averaged_krr", cs, n=24, trials=2, seed=44)
    assert report.verdict == "pass"
    assert report.invariant_expected
    assert report.risk_deviation <= 1e-9
    assert report.prediction_deviation <= 1e-9
    assert not report.metamorphic_flag


def test_invariant_least_squares_equivalent_and_same_coefficients():
    cs = build_cross_section("sort_descending", dim=3)
    report = equivalence_demo("invariant_least_squares", cs, n=32, trials=2, seed=45)
    assert report.verdict == "pass"
    assert report.risk_deviation <= 1e-9
    rng = np.random.default_rng(46)
    X = rng.standard_normal((40, 3))
    Y = X.sum(axis=1) + 0.1 * rng.standard_normal(40)
    p_orig = fit_learner("invariant_least_squares", cs.action, X, Y)
    p_proj = fit_learner("invariant_least_squares", cs.action, cs.project_batch(X), Y)
    # each coefficient vector is a minimum-norm solution, so it lies in the invariant
    # subspace, and equal predictions on a basis of R^3 mean equal coefficients
    basis = np.eye(3)
    assert np.allclose(p_orig(basis), p_proj(basis), atol=1e-9)


def test_raw_least_squares_flagged_by_metamorphic_test():
    cs = build_cross_section("sort_descending", dim=3)
    report = equivalence_demo("raw_least_squares", cs, n=32, trials=2, seed=47)
    assert not report.invariant_expected
    assert report.metamorphic_flag
    assert report.metamorphic_deviation > 1e-9
    assert report.verdict == "pass"


def test_equivalence_demo_rejections():
    cs = build_cross_section("quadrant_fold")
    with pytest.raises(ValueError):
        equivalence_demo("gradient_boosting", cs)
    with pytest.raises(ValueError):
        equivalence_demo("averaged_krr", cs, n=8)


NAN = float("nan")


def _c3():
    return build_representation(build_group("cyclic 3"), "natural_permutation")


def _demo_at_nan_sigma():
    cs = build_cross_section("abs_first_coordinate", dim=3)
    return equivalence_demo("invariant_least_squares", cs, n=16, trials=1, sigma=NAN)


def _cover_at_nan_L():
    cloud = PointCloud(np.zeros((2, 1)))
    return sample_complexity_D(cloud, [cloud], L=NAN, C_ell=1.0, t=1.0)


@pytest.mark.parametrize("call,message", [
    # each NaN used to pass a check written as `x < 0`: sigma ran to a verdict=fail with risk nan,
    # rho to a LinAlgError on a nan residual, a nu entry to an lbar of nan, and L to the
    # covering's "eps must be > 0"
    (_demo_at_nan_sigma, "sigma is nan: a standard deviation must be >= 0"),
    (lambda: fit_krr(linear_kernel(_c3()), np.eye(3), np.ones(3), rho=NAN), "rho must be > 0"),
    (lambda: averaged_loss(lambda y, yp: 0.0, _c3(), nu=[0.5, NAN, 0.5]), "nu must be a non-negative"),
    (lambda: averaged_loss(lambda y, yp: NAN, _c3()), "loss must be non-negative"),
    (_cover_at_nan_L, "L, C_ell, t must all be > 0"),
], ids=["equivalence_demo-sigma", "fit_krr-rho", "averaged_loss-nu", "averaged_loss-loss",
        "sample_complexity_D-L"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_nan_library_input_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ------------------------------------------------------------------ covering


def test_cover_three_points_half_eps():
    cloud = PointCloud(np.array([0.0, 0.5, 1.0]))
    assert covering_number(cloud, 0.5) == 1


def _optimal_interval_cover(xs, eps):
    xs = np.sort(xs)
    count, i = 0, 0
    while i < len(xs):
        reach = xs[i] + 2.0 * eps
        count += 1
        while i < len(xs) and xs[i] <= reach:
            i += 1
    return count


def test_cover_uniform_hundred_points():
    rng = np.random.default_rng(49)
    xs = rng.uniform(0.0, 1.0, size=100)
    cloud = PointCloud(xs)
    size = covering_number(cloud, 0.1)
    assert 5 <= size <= 10
    assert size >= _optimal_interval_cover(xs, 0.1)


def test_cover_eps_at_diameter():
    rng = np.random.default_rng(50)
    pts = rng.standard_normal((30, 2))
    cloud = PointCloud(pts)
    diam = float(np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2)).max())
    assert covering_number(cloud, diam) == 1


def test_cover_monotone_in_eps():
    rng = np.random.default_rng(51)
    cloud = PointCloud(rng.standard_normal((60, 3)))
    sizes = [covering_number(cloud, eps) for eps in (2.0, 1.0, 0.5, 0.25)]
    assert sizes == sorted(sizes)


def test_packing_sandwich():
    rng = np.random.default_rng(52)
    cloud = PointCloud(rng.standard_normal((80, 2)))
    for eps in (0.3, 0.6, 1.2):
        # the farthest-first prefix is both the eps-cover and the eps-packing
        assert covering_number(cloud, 2.0 * eps) <= covering_number(cloud, eps)


def test_sup_metric_differs_from_euclidean():
    cloud_sup = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), metric="sup")
    cloud_euc = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), metric="euclidean")
    assert covering_number(cloud_sup, 1.0) == 1
    assert covering_number(cloud_euc, 1.0) == 2


def _one_shot(pts, metric):
    """The (n, n) distances as one array, numpy's sum or max over the coordinates."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2)) if metric == "euclidean" else np.abs(diff).max(axis=2)


def _one_shot_covering(full, eps):
    """The farthest-first traversal from the medoid, read off the one-shot distances."""
    mindist = full[:, int(np.argmin(full.sum(axis=1)))]
    size = 1
    while mindist.max() > eps:
        mindist = np.minimum(mindist, full[:, int(np.argmax(mindist))])
        size += 1
    return size


# 64 entries: one-row blocks against all centers, ragged 6-row blocks against five
@pytest.mark.parametrize("block_entries", [sampling.BLOCK_ENTRIES, 64])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 16])
def test_blockwise_distances_match_one_shot_arrays(monkeypatch, d, metric, block_entries):
    monkeypatch.setattr(sampling, "BLOCK_ENTRIES", block_entries)
    pts = np.random.default_rng(55).standard_normal((700, d))  # several row blocks
    full = _one_shot(pts, metric)
    cloud = PointCloud(pts, metric=metric)
    dist = cloud.distances_to(pts)
    if metric == "sup" or d < 8:
        # below 8 terms numpy sums the coordinates in order from the first, as
        # _distances does, and a max is exact in any order
        assert np.array_equal(dist, full)
    else:
        # from 8 terms numpy sums pairwise, so a Euclidean distance may move in its last bits
        assert np.all(np.abs(dist - full) <= 4 * np.spacing(full))
    assert np.array_equal(cloud.distances_to(pts[:5]), dist[:, :5])
    assert cloud.medoid() == int(np.argmin(full.sum(axis=1)))
    assert covering_number(cloud, 0.5 * math.sqrt(d)) == _one_shot_covering(full, 0.5 * math.sqrt(d))


def test_covering_number_keeps_one_block_of_entries_live():
    # the two (m, k) buffers of _distances hold BLOCK_ENTRIES entries, 1 MiB, between
    # them, and nothing else of a block's size may be live beside them
    cloud = PointCloud(np.random.default_rng(56).standard_normal((3000, 3)))
    tracemalloc.start()
    try:
        covering_number(cloud, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2 ** 20


def test_covering_rejections():
    cloud = PointCloud(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        covering_number(cloud, 0.0)
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)), metric="taxicab")


@pytest.mark.parametrize("metric, limit, over", [
    # with M the largest |x|: 4 d M^2 must be finite in the Euclidean metric, n 2 M in sup;
    # each cloud over the limit used to overflow in _distances, in square and in subtract
    ("euclidean", math.sqrt(np.finfo(float).max / 8), [[1e200, 0.0], [0.0, 1e200], [0.0, 0.0]]),
    ("sup", np.finfo(float).max / 4, [[1e308], [-1e308]]),
], ids=["euclidean", "sup"])
def test_points_whose_distances_overflow_are_refused_and_those_just_under_run(metric, limit, over):
    d = 2 if metric == "euclidean" else 1
    under = PointCloud(0.99 * limit * np.array([[1.0] * d, [-1.0] * d]), metric=metric)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert covering_number(under, 1.0) == 2
    with pytest.raises(ValueError, match=f"their {metric} distances overflow"):
        PointCloud(np.array(over), metric=metric)


# -------------------------------------------------------- sample complexity


def test_sample_complexity_singleton_outputs_zero():
    rng = np.random.default_rng(53)
    domain = PointCloud(rng.standard_normal((50, 2)))
    outputs = [PointCloud(np.zeros((1, 1)), metric="sup") for _ in range(5)]
    assert sample_complexity_D(domain, outputs, L=1.0, C_ell=1.0, t=0.5) == 0.0


def test_sample_complexity_cross_section_no_larger():
    cs = build_cross_section("sort_descending", dim=3)
    rng = np.random.default_rng(54)
    base = rng.standard_normal((40, 3))
    mats = cs.action.matrices
    full = np.concatenate([base @ mats[g].T for g in cs.action.group.elements()])
    projected = cs.project_batch(full)
    outputs = [
        PointCloud(np.array([[0.0], [5.0], [10.0]]), metric="sup"),
        PointCloud(np.array([[0.0], [7.0]]), metric="sup"),
    ]
    d_full = sample_complexity_D(PointCloud(full), outputs, L=1.0, C_ell=1.0, t=6.0)
    d_proj = sample_complexity_D(PointCloud(projected), outputs, L=1.0, C_ell=1.0, t=6.0)
    assert d_proj <= d_full
    assert d_full > 0.0


def test_sample_complexity_large_t_zero():
    rng = np.random.default_rng(55)
    domain = PointCloud(rng.uniform(0.0, 1.0, size=(20, 2)))
    outputs = [PointCloud(rng.uniform(0.0, 0.1, size=(6, 1)), metric="sup")]
    assert sample_complexity_D(domain, outputs, L=1.0, C_ell=1.0, t=50.0) == 0.0


def test_sample_complexity_monotone_in_t():
    rng = np.random.default_rng(56)
    domain = PointCloud(rng.standard_normal((60, 2)))
    outputs = [PointCloud(rng.standard_normal((15, 2)) * 3.0, metric="sup") for _ in range(3)]
    values = [sample_complexity_D(domain, outputs, L=1.0, C_ell=1.0, t=t) for t in (0.5, 1.0, 2.0, 4.0)]
    assert values == sorted(values, reverse=True)


def test_sample_complexity_rejections():
    domain = PointCloud(np.zeros((3, 2)))
    outputs = [PointCloud(np.zeros((1, 1)))]
    with pytest.raises(ValueError):
        sample_complexity_D(domain, outputs, L=0.0, C_ell=1.0, t=1.0)
    with pytest.raises(ValueError):
        sample_complexity_D(domain, [], L=1.0, C_ell=1.0, t=1.0)
