import math

import numpy as np
import pytest

from symlab.groups import build_group, build_representation
from symlab.linear_gap import (
    LinearGapConfig,
    closed_form_gap_equivariant,
    invariant_config,
    monte_carlo_gap,
    random_equivariant_target,
    verify_projection_tensor,
    verify_wishart,
    wishart_coefficient,
)


def _invariant_gap(config):
    """The three-regime gap of an invariant linear target, with dim_A = d - tr(Phi)."""
    from symlab.averaging import build_phi

    d, n = config.d, config.n
    dim_a = d - float(np.trace(build_phi(config.phi)))
    if n > d + 1:
        return config.sigma_xi ** 2 * dim_a / (n - d - 1)
    theta_sq = float(np.sum(config.theta ** 2))
    signal = config.sigma_x ** 2 * theta_sq * n * (d - n) / (d * (d - 1) * (d + 2))
    noise = config.sigma_xi ** 2 * n / (d * (d - n - 1))
    return dim_a * (signal + noise)


def _reflection_rep(d):
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(d), np.diag([-1.0] + [1.0] * (d - 1))])
    return build_representation(g, "explicit", matrices=mats)


def test_wishart_coefficient_values():
    assert wishart_coefficient(10, 3) == pytest.approx(1.0 / 6.0)
    assert wishart_coefficient(3, 10) == pytest.approx(0.05)
    assert wishart_coefficient(20, 3) == pytest.approx(1.0 / 16.0)
    assert wishart_coefficient(2, 6) == pytest.approx(1.0 / 9.0)
    for n in (4, 5, 6):
        assert math.isinf(wishart_coefficient(n, 5))


def test_verify_wishart_overdetermined():
    report = verify_wishart(20, 3, trials=4000, seed=7)
    assert report.verdict == "pass"
    assert report.coefficient == pytest.approx(1.0 / 16.0)
    assert np.allclose(np.diag(report.entry_mean), 1.0 / 16.0, atol=0.01)


def test_verify_wishart_underdetermined():
    report = verify_wishart(2, 6, trials=4000, seed=8)
    assert report.verdict == "pass"
    off = report.entry_mean - np.diag(np.diag(report.entry_mean))
    assert np.max(np.abs(off)) < 0.01


def test_verify_wishart_rejects_divergent_band():
    with pytest.raises(ValueError):
        verify_wishart(5, 5, trials=2000, seed=0)
    with pytest.raises(ValueError):
        verify_wishart(500, 3, trials=10, seed=0)


def test_projection_tensor_n1_d2():
    # closed form on the circle: alpha = beta = gamma = 1/8
    report = verify_projection_tensor(1, 2, trials=4000, seed=9)
    assert report.verdict == "pass"
    assert report.alpha == pytest.approx(1.0 / 8.0)
    assert report.beta == pytest.approx(1.0 / 8.0)
    assert report.gamma == pytest.approx(1.0 / 8.0)
    # E[P_11^2] = alpha + beta + gamma = E[cos^4] = 3/8
    assert report.alpha_hat + report.beta_hat + report.gamma_hat == pytest.approx(3.0 / 8.0, abs=0.02)


def test_projection_tensor_n2_d5():
    report = verify_projection_tensor(2, 5, trials=4000, seed=10)
    assert report.verdict == "pass"
    assert report.beta == pytest.approx(3.0 / 70.0)
    assert report.alpha == pytest.approx(3.0 / 70.0 + 0.1)
    assert report.trace_sq_mean == pytest.approx(4.0, abs=1e-9)
    assert report.contraction_fit == pytest.approx((report.alpha, report.beta, report.gamma))


def test_projection_tensor_rejects_bad_shape():
    with pytest.raises(ValueError):
        verify_projection_tensor(5, 5, trials=100, seed=0)
    with pytest.raises(ValueError):
        verify_projection_tensor(0, 5, trials=100, seed=0)


def test_closed_form_invariant_overdetermined():
    rep = _reflection_rep(4)
    config = invariant_config(rep, [0.0, 1.0, 0.0, 0.0], n=10, trials=10)
    assert closed_form_gap_equivariant(config) == pytest.approx(0.2)


def test_closed_form_invariant_overparameterised():
    rep = _reflection_rep(20)
    theta = np.zeros(20)
    theta[1] = 1.0
    config = invariant_config(rep, theta, n=10, trials=10)
    expected = 100.0 / 8360.0 + 10.0 / 180.0
    assert closed_form_gap_equivariant(config) == pytest.approx(expected, rel=1e-12)


def test_closed_form_fully_invariant_action_gives_zero():
    g = build_group("cyclic 1")
    rep = build_representation(g, "trivial 3")
    config = invariant_config(rep, [1.0, 2.0, 3.0], n=7, trials=10)
    assert closed_form_gap_equivariant(config) == 0.0


def test_closed_form_equivariant_s3():
    from symlab.averaging import build_psi

    g = build_group("symmetric 3")
    nat = build_representation(g, "natural_permutation")
    tensor = build_psi(nat, nat)
    theta = random_equivariant_target(tensor, np.random.default_rng(11))
    config = LinearGapConfig(tensor=tensor, theta=theta, n=12, trials=10)
    assert closed_form_gap_equivariant(config) == pytest.approx(7.0 / 8.0)


def test_equivariant_reduces_to_invariant():
    rng = np.random.default_rng(12)
    reps = [
        _reflection_rep(4),
        build_representation(build_group("symmetric 3"), "natural_permutation"),
        build_representation(build_group("dihedral 4"), "natural_permutation"),
        build_representation(build_group("cyclic 4"), "rotation_block 1"),
    ]
    checked = 0
    for rep in reps:
        from symlab.averaging import build_phi

        proj = build_phi(rep)
        for n in range(1, 40):
            d = rep.dim
            if d - 1 <= n <= d + 1:
                continue
            theta = proj @ rng.standard_normal(d)
            if np.linalg.norm(theta) < 1e-9:
                continue
            config = invariant_config(
                rep, theta, n=n,
                sigma_x=float(rng.uniform(0.5, 2.0)),
                sigma_xi=float(rng.uniform(0.0, 2.0)),
                trials=10,
            )
            inv = _invariant_gap(config)
            eqv = closed_form_gap_equivariant(config)
            assert eqv == pytest.approx(inv, rel=1e-12, abs=1e-14)
            checked += 1
            if checked >= 50:
                return
    assert checked >= 50


def test_config_rejects_interpolation_band():
    rep = _reflection_rep(4)
    for n in (3, 4, 5):
        with pytest.raises(ValueError):
            invariant_config(rep, [0.0, 1.0, 0.0, 0.0], n=n, trials=10)


def test_config_rejects_non_equivariant_theta():
    rep = _reflection_rep(4)
    with pytest.raises(ValueError):
        invariant_config(rep, [1.0, 0.0, 0.0, 0.0], n=10, trials=10)


def test_config_rejects_a_nan_theta():
    # |Psi(theta) - theta| is NaN, which a "dev > tol" check lets through
    rep = build_representation(build_group("cyclic 4"), "natural_permutation")
    with pytest.raises(ValueError, match="theta is not equivariant"):
        invariant_config(rep, [math.nan] * 4, 10)


def test_monte_carlo_gap_invariant_overdetermined():
    rep = _reflection_rep(4)
    config = invariant_config(rep, [0.0, 1.0, 0.0, 0.0], n=10, trials=3000, seed=21)
    report = monte_carlo_gap(config)
    assert report.verdict == "pass"
    assert report.closed_form == pytest.approx(0.2)
    assert abs(report.mc_gap_mean - 0.2) <= 4 * report.mc_gap_se
    assert report.dim_A == pytest.approx(1.0)


def test_monte_carlo_gap_equivariant_s3():
    from symlab.averaging import build_psi

    g = build_group("symmetric 3")
    nat = build_representation(g, "natural_permutation")
    tensor = build_psi(nat, nat)
    theta = random_equivariant_target(tensor, np.random.default_rng(13))
    config = LinearGapConfig(tensor=tensor, theta=theta, n=12, trials=3000, seed=22)
    report = monte_carlo_gap(config)
    assert report.verdict == "pass"
    assert report.closed_form == pytest.approx(0.875)
    assert report.dim_A == pytest.approx(7.0)


def test_monte_carlo_noiseless_overdetermined_gap_zero():
    rep = _reflection_rep(4)
    config = invariant_config(rep, [0.0, 0.5, -0.5, 1.0], n=6, sigma_xi=0.0, trials=200, seed=23)
    report = monte_carlo_gap(config)
    assert report.mc_gap_mean <= 1e-16
    assert report.closed_form == 0.0


def test_monte_carlo_trivial_group_gap_identically_zero():
    g = build_group("cyclic 1")
    rep = build_representation(g, "trivial 3")
    config = invariant_config(rep, [1.0, -2.0, 0.5], n=8, trials=100, seed=24)
    report = monte_carlo_gap(config)
    assert report.mc_gap_mean == 0.0
    assert report.mc_gap_se == 0.0


def test_monte_carlo_determinism():
    rep = _reflection_rep(4)
    config = invariant_config(rep, [0.0, 1.0, 0.0, 0.0], n=10, trials=500, seed=25)
    r1 = monte_carlo_gap(config)
    r2 = monte_carlo_gap(config)
    assert r1.mc_gap_mean == r2.mc_gap_mean
    assert r1.mc_gap_se == r2.mc_gap_se


def test_gap_expression_equality():
    # risk difference of f_W vs f_{Psi(W)} equals sigma_x^2 ||W - Psi(W)||_F^2
    from symlab.averaging import build_psi

    g = build_group("symmetric 3")
    nat = build_representation(g, "natural_permutation")
    op = build_psi(nat, nat)
    rng = np.random.default_rng(14)
    sigma_x, sigma_xi = 1.3, 0.7
    for _ in range(5):
        W = rng.standard_normal((3, 3))
        theta = op.apply(rng.standard_normal((3, 3)))
        W_bar = op.apply(W)
        m = 200_000
        X = sigma_x * rng.standard_normal((m, 3))
        Y = X @ theta + sigma_xi * rng.standard_normal((m, 3))
        diff = ((X @ W - Y) ** 2).sum(axis=1) - ((X @ W_bar - Y) ** 2).sum(axis=1)
        se = diff.std(ddof=1) / math.sqrt(m)
        expected = sigma_x ** 2 * float(((W - W_bar) ** 2).sum())
        assert abs(diff.mean() - expected) <= 3 * se


def test_random_equivariant_target_is_fixed_point():
    from symlab.averaging import build_psi

    g = build_group("dihedral 4")
    nat = build_representation(g, "natural_permutation")
    op = build_psi(nat, nat)
    theta = random_equivariant_target(op, np.random.default_rng(15), fro_norm=2.0)
    assert np.linalg.norm(theta) == pytest.approx(2.0)
    assert np.max(np.abs(op.apply(theta) - theta)) <= 1e-12
