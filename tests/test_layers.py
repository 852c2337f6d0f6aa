"""Tests for equivariant layer projection, the residual regularizer, the
closeness bound, and the VC-dimension bound.

Oracles: brute-force group averaging over S_3, the aI + b 11^T structure of
permutation intertwiners, the linear-case closed form of the closeness
bound, and hand-evaluated VC arithmetic.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from symlab.averaging import build_psi
from symlab.groups import build_group, build_representation, character_inner
from symlab.layers import (
    LayerSpec,
    check_regularisation_bound,
    equivariance_report,
    project_layer,
    project_spec,
    regularizer_value,
    vc_bound,
)
from symlab.sampling import stream


def _natural(descriptor):
    return build_representation(build_group(descriptor), "natural_permutation")


def _s3_brute_average(W):
    total = np.zeros_like(W)
    for perm in itertools.permutations(range(3)):
        P = np.eye(3)[list(perm)]
        total += P.T @ W @ P
    return total / 6.0


# ------------------------------------------------------------- projection


def test_project_layer_fixed_point():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(62)
    W_bar, _ = project_layer(rng.standard_normal((3, 3)), rep, rep)
    again, perp = project_layer(W_bar, rep, rep)
    assert np.max(np.abs(again - W_bar)) <= 1e-12
    assert np.max(np.abs(perp)) <= 1e-10


def test_project_layer_sd_structure():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(63)
    W = rng.standard_normal((3, 3))
    W_bar, W_perp = project_layer(W, rep, rep)
    assert np.allclose(W_bar, _s3_brute_average(W), atol=1e-12)
    assert np.allclose(W_bar + W_perp, W, atol=0)
    # structure aI + b 11^T with a fixed by trace and total sum
    d = 3
    total = float(W.sum())
    a = (np.trace(W) - total / d) / (d - 1)
    b = (total - np.trace(W)) / (d * (d - 1))
    assert np.allclose(W_bar, a * np.eye(d) + b * np.ones((d, d)), atol=1e-12)


def test_project_layer_identity_is_fixed():
    rep = _natural("symmetric 4")
    W_bar, W_perp = project_layer(np.eye(4), rep, rep)
    assert np.allclose(W_bar, np.eye(4), atol=1e-14)
    assert np.max(np.abs(W_perp)) <= 1e-14


def test_project_layer_matches_tensor_route():
    group = build_group("cyclic 4")
    psi_in = build_representation(group, "natural_permutation")
    psi_out = build_representation(group, "rotation_block 1")
    rng = np.random.default_rng(64)
    W = rng.standard_normal((2, 4))
    W_bar, _ = project_layer(W, psi_in, psi_out)
    op = build_psi(psi_in, psi_out)
    assert np.allclose(W_bar, op.apply(W.T).T, atol=1e-10)


def test_project_layer_shape_mismatch():
    rep = _natural("symmetric 3")
    with pytest.raises(ValueError):
        project_layer(np.zeros((2, 3)), rep, rep)


# ------------------------------------------------------------- regularizer


def test_regularizer_zero_for_intertwining_spec():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(65)
    bars = [project_layer(rng.standard_normal((3, 3)), rep, rep)[0] for _ in range(2)]
    spec = LayerSpec(reps=(rep, rep, rep), weights=tuple(bars), activation="relu")
    assert regularizer_value(spec) <= 1e-20


def test_regularizer_unit_residual():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(66)
    _, perp = project_layer(rng.standard_normal((3, 3)), rep, rep)
    unit = perp / np.linalg.norm(perp)
    spec = LayerSpec(reps=(rep, rep), weights=(unit,), activation="identity")
    assert regularizer_value(spec) == pytest.approx(1.0, abs=1e-12)


def test_regularizer_matches_per_layer_projections():
    rep3 = _natural("symmetric 3")
    rng = np.random.default_rng(67)
    weights = (rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    spec = LayerSpec(reps=(rep3, rep3, rep3), weights=weights, activation="relu")
    expected = sum(
        float((project_layer(w, rep3, rep3)[1] ** 2).sum()) for w in weights
    )
    assert regularizer_value(spec) == pytest.approx(expected, rel=1e-14)


def test_regularizer_gradient_finite_difference():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(68)
    W = rng.standard_normal((3, 3))
    _, W_perp = project_layer(W, rep, rep)
    h = 1e-6
    entries = [(int(i), int(j)) for i, j in rng.integers(0, 3, size=(20, 2))]
    for i, j in entries:
        def value(delta):
            Wd = W.copy()
            Wd[i, j] += delta
            spec = LayerSpec(reps=(rep, rep), weights=(Wd,), activation="identity")
            return regularizer_value(spec)

        numeric = (value(h) - value(-h)) / (2.0 * h)
        analytic = 2.0 * W_perp[i, j]
        assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(analytic))


# ---------------------------------------------------------------- LayerSpec


def test_layer_spec_forward_convention():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(69)
    W1, W2 = rng.standard_normal((2, 3, 3))
    spec = LayerSpec(reps=(rep, rep, rep), weights=(W1, W2), activation="relu")
    X = rng.standard_normal((5, 3))
    manual = np.maximum(X @ W1.T, 0.0) @ W2.T
    assert np.allclose(spec.forward(X), manual, atol=0)


def test_layer_spec_validation():
    rep3 = _natural("symmetric 3")
    rot = build_representation(build_group("cyclic 4"), "rotation_block 1")
    with pytest.raises(ValueError):
        LayerSpec(reps=(rep3, rep3), weights=(np.zeros((2, 3)),), activation="relu")
    with pytest.raises(ValueError):
        LayerSpec(reps=(rep3, rep3), weights=(np.zeros((3, 3)),), activation="softplus")
    # nonlinear activation with a non-permutation intermediate rep is rejected
    nat4 = _natural("cyclic 4")
    with pytest.raises(ValueError, match="permutation-type"):
        LayerSpec(
            reps=(nat4, rot, nat4),
            weights=(np.zeros((2, 4)), np.zeros((4, 2))),
            activation="relu",
        )
    # the same shape is fine when the stack is linear
    LayerSpec(
        reps=(nat4, rot, nat4),
        weights=(np.zeros((2, 4)), np.zeros((4, 2))),
        activation="identity",
    )


def test_layer_spec_refuses_a_non_finite_weight():
    rep3 = _natural("symmetric 3")
    for bad in (np.nan, np.inf):
        W = np.eye(3)
        W[0, 0] = bad
        with pytest.raises(ValueError, match=r"weights\[1\] has an entry that is not finite"):
            LayerSpec(reps=(rep3,) * 3, weights=(np.eye(3), W), activation="relu")


def test_layer_spec_refuses_a_gain_past_the_overflow_bound():
    # each layer alone is far from overflow, but two of them take a unit input to 9e120
    rep3 = _natural("symmetric 3")
    with pytest.raises(ValueError, match=r"weights\[1\] has an entry of size 1\.000e\+60, and the "
                                         r"stack's gain bound reaches 9\.000e\+120, above 1e\+100"):
        LayerSpec(reps=(rep3,) * 3, weights=(1e60 * np.eye(3), 1e60 * np.eye(3)), activation="relu")
    # within the bound, projecting and checking the stack raise no RuntimeWarning
    spec = LayerSpec(reps=(rep3,) * 3, weights=(1e40 * np.ones((3, 3)),) * 2, activation="relu")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = equivariance_report(project_spec(spec), n_samples=10)
    assert math.isfinite(report.violation)


def test_equivariance_report_keeps_a_nan_deviation(monkeypatch):
    # a forward pass that yields NaN, as an overflowing stack can, is no zero violation
    rep3 = _natural("symmetric 3")
    spec = LayerSpec(reps=(rep3, rep3), weights=(np.eye(3),), activation="identity")
    monkeypatch.setattr(LayerSpec, "forward", lambda self, X: np.full(X.shape, np.nan))
    assert math.isnan(equivariance_report(spec, n_samples=10).violation)


def test_projected_stack_is_equivariant():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(70)
    weights = tuple(rng.standard_normal((3, 3)) for _ in range(3))
    spec = LayerSpec(reps=(rep,) * 4, weights=weights, activation="relu")
    raw = equivariance_report(spec, n_samples=200, seed=1)
    assert raw.violation > 1e-3  # random weights genuinely break equivariance
    tied = equivariance_report(project_spec(spec), n_samples=200, seed=1)
    assert tied.violation <= 1e-8
    assert regularizer_value(project_spec(spec)) <= 1e-20


# ------------------------------------------------------------ closeness bound


def test_bound_zero_for_intertwining_layer():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(71)
    W_bar, _ = project_layer(rng.standard_normal((3, 3)), rep, rep)
    out = check_regularisation_bound(W_bar, rep, rep, activation="relu", samples=2000, seed=2)
    assert out["verdict"] == "pass"
    assert out["lhs_mean"] <= 1e-25
    assert out["middle_bound"] <= 1e-20


@pytest.mark.parametrize("group", ["symmetric 4", "cyclic 3", "cyclic 5", "dihedral 5", "symmetric 3"])
@pytest.mark.parametrize("fill", ["identity", "ones"])
def test_bound_passes_exactly_intertwining_layers(group, fill):
    # W = I and W = ones intertwine every permutation rep: lhs and the middle bound are
    # rounding dust, which the 4-SE test alone compared against an exact zero
    rep = _natural(group)
    W = np.eye(rep.dim) if fill == "identity" else np.ones((rep.dim, rep.dim))
    out = check_regularisation_bound(W, rep, rep, activation="relu", samples=10_000, seed=0)
    assert out["verdict"] == "pass"
    assert out["lhs_mean"] <= 1e-28
    assert out["middle_bound"] <= 1e-28


def test_bound_identity_activation_closed_form():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(72)
    W = rng.standard_normal((3, 3))
    _, W_perp = project_layer(W, rep, rep)
    s = 1.3
    out = check_regularisation_bound(
        W, rep, rep, activation="identity", sigma=s, samples=40_000, seed=3
    )
    closed = s ** 2 * float((W_perp ** 2).sum())
    assert abs(out["lhs_mean"] - closed) <= 4.0 * out["lhs_se"]
    assert out["middle_bound"] == pytest.approx(2.0 * closed, rel=1e-12)
    assert out["verdict"] == "pass"


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("group,kind", [
    ("symmetric 3", "natural_permutation"),
    ("cyclic 4", "rotation_block 1"),
    ("dihedral 4", "natural_permutation"),
    ("cyclic 5", "natural_permutation"),
])
def test_identity_layer_lhs_is_half_the_middle_bound_two_sided(group, kind, seed):
    # with the identity activation f - Qf = W_perp x exactly, so E|f - Qf|^2 =
    # |W_perp S|_F^2 = middle_bound / 2: the one-sided gate's lhs is held to it
    # from both sides.  relu has no exact reference of this kind
    rep = build_representation(build_group(group), kind)
    W = stream(seed, "weights").standard_normal((rep.dim, rep.dim))
    out = check_regularisation_bound(W, rep, rep, activation="identity", samples=4000, seed=seed)
    z = (out["lhs_mean"] - out["middle_bound"] / 2.0) / out["lhs_se"]
    assert abs(z) <= 4.0, z


def test_bound_random_relu_layer():
    rep = _natural("symmetric 3")
    rng = np.random.default_rng(73)
    W = rng.standard_normal((3, 3))
    out = check_regularisation_bound(W, rep, rep, activation="relu", samples=10_000, seed=4)
    assert out["verdict"] == "pass"
    assert out["lhs_mean"] <= out["middle_bound"] + 4.0 * out["lhs_se"]
    assert out["middle_bound"] <= out["right_bound"] + 1e-12


def test_bound_anisotropic_invariant_covariance():
    # covariance a I + b 11^T is S_3-invariant and genuinely anisotropic
    rep = _natural("symmetric 3")
    cov = 1.0 * np.eye(3) + 0.5 * np.ones((3, 3))
    rng = np.random.default_rng(74)
    out = check_regularisation_bound(
        rng.standard_normal((3, 3)), rep, rep, activation="relu", sigma=cov, samples=10_000, seed=5
    )
    assert out["verdict"] == "pass"


def test_bound_rejections():
    rep = _natural("symmetric 3")
    rot_in = build_representation(build_group("cyclic 4"), "rotation_block 1")
    W = np.eye(3)
    with pytest.raises(ValueError):
        check_regularisation_bound(W, rep, rep, activation="tanh")
    with pytest.raises(ValueError, match="invariant"):
        check_regularisation_bound(W, rep, rep, sigma=np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="permutation-type"):
        check_regularisation_bound(np.zeros((2, 2)), rot_in, rot_in, activation="relu")


# ------------------------------------------------------------------ VC bound


def _alpha(weighted):
    return math.log2(4.0 * math.e * math.log2(2.0 * math.e * weighted) * weighted)


def test_vc_bound_s3_natural_hand_check():
    rep = _natural("symmetric 3")
    assert character_inner(rep, rep) == pytest.approx(2.0, abs=1e-12)
    bound = vc_bound((rep, rep, rep))
    assert bound == pytest.approx(2.0 + 6.0 * _alpha(9), rel=1e-12)


def test_vc_bound_trivial_reps_hand_check():
    group = build_group("cyclic 3")
    reps = tuple(build_representation(group, f"trivial {k}") for k in (2, 3, 1))
    # trivial characters: inner products are products of dimensions
    assert character_inner(reps[0], reps[1]) == pytest.approx(6.0, abs=1e-12)
    bound = vc_bound(reps)
    assert bound == pytest.approx(2.0 + 18.0 * _alpha(8), rel=1e-12)


def test_vc_bound_single_layer():
    rep = _natural("symmetric 3")
    triv = build_representation(rep.group, "trivial 1")
    bound = vc_bound((rep, triv))
    inner = character_inner(rep, triv)
    assert bound == pytest.approx(1.0 + _alpha(3) * inner, rel=1e-12)


def test_vc_bound_validation():
    rep = _natural("symmetric 3")
    with pytest.raises(ValueError):
        vc_bound((rep,))
