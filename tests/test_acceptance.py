"""End-to-end acceptance runs at full trial counts and stated tolerances.

Each test pins one headline number or behaviour of the library against an
independent closed form or an exhaustive check, and asserts the wall-clock
budget it is expected to fit in.
"""

import math
import time

import numpy as np
import pytest

from symlab.averaging import (
    apply_Q,
    build_phi,
    build_psi,
    empirical_rademacher,
    verify_operator_identities,
)
from symlab.groups import build_group, build_representation, character_inner
from symlab.kernel_gap import (
    KrrGapConfig,
    build_averaged_kernel,
    check_switch_condition,
    estimate_N,
    estimate_bias_term,
    explicit_bilinear_kernel,
    gaussian_kernel,
    krr_gap_experiment,
    linear_kernel,
    linear_kernel_bound,
)
from symlab.layers import LayerSpec, check_regularisation_bound, equivariance_report, project_spec, vc_bound
from symlab.linear_gap import (
    LinearGapConfig,
    invariant_config,
    monte_carlo_gap,
    random_equivariant_target,
    verify_projection_tensor,
    verify_wishart,
)
from symlab.orbits import build_cross_section, equivalence_demo
from symlab.sampling import gaussian, sphere, stream


def _reflection_rep(total_dim: int):
    """R^total_dim where the two-element group flips the last coordinate."""
    group = build_group("symmetric 2")
    return build_representation(group, f"direct_sum trivial {total_dim - 1} + sign")


def test_invariant_regression_gap_overdetermined_matches_closed_form():
    start = time.perf_counter()
    rep = _reflection_rep(4)
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    config = invariant_config(rep, theta, n=10, sigma_x=1.0, sigma_xi=1.0,
                              trials=10_000, seed=101)
    report = monte_carlo_gap(config)
    assert report.dim_A == pytest.approx(1.0)
    assert report.closed_form == pytest.approx(1.0 / (10 - 4 - 1))
    assert abs(report.mc_gap_mean - 0.2) <= 4.0 * report.mc_gap_se
    assert report.verdict == "pass"
    assert time.perf_counter() - start <= 30.0


def test_invariant_regression_gap_overparameterised_matches_closed_form():
    start = time.perf_counter()
    rep = _reflection_rep(20)
    theta = np.zeros(20)
    theta[0] = 1.0
    config = invariant_config(rep, theta, n=10, sigma_x=1.0, sigma_xi=1.0,
                              trials=10_000, seed=102)
    report = monte_carlo_gap(config)
    expected = 100.0 / 8360.0 + 10.0 / 180.0
    assert report.dim_A == pytest.approx(1.0)
    assert report.closed_form == pytest.approx(expected)
    assert abs(report.mc_gap_mean - expected) <= 4.0 * report.mc_gap_se
    assert report.verdict == "pass"
    assert time.perf_counter() - start <= 60.0


def test_equivariant_regression_gap_matches_character_closed_form():
    start = time.perf_counter()
    group = build_group("symmetric 3")
    nat = build_representation(group, "natural_permutation")
    tensor = build_psi(nat, nat)
    # two independent routes to the multiplicity count
    assert tensor.trace == pytest.approx(2.0, abs=1e-10)
    assert character_inner(nat, nat) == pytest.approx(2.0, abs=1e-12)
    theta = random_equivariant_target(tensor, np.random.default_rng(7), fro_norm=1.0)
    config = LinearGapConfig(tensor=tensor, theta=theta, n=12,
                             sigma_x=1.0, sigma_xi=1.0, trials=10_000, seed=103)
    report = monte_carlo_gap(config)
    expected = (9.0 - 2.0) / (12 - 3 - 1)
    assert report.closed_form == pytest.approx(expected)
    assert abs(report.mc_gap_mean - expected) <= 4.0 * report.mc_gap_se
    assert report.verdict == "pass"
    assert time.perf_counter() - start <= 60.0


def test_pseudoinverse_second_moment_both_regimes():
    start = time.perf_counter()
    for n, d, coeff in ((20, 3, 1.0 / 16.0), (2, 6, 1.0 / 9.0)):
        report = verify_wishart(n, d, trials=20_000, seed=104)
        assert report.coefficient == pytest.approx(coeff)
        target = coeff * np.eye(d)
        assert np.all(np.abs(report.entry_mean - target)
                      <= 4.0 * report.entry_se + 1e-12)
        assert report.max_abs_z <= 4.0
        assert report.verdict == "pass"
    assert time.perf_counter() - start <= 60.0


def test_random_subspace_projection_tensor_coefficients():
    start = time.perf_counter()
    report = verify_projection_tensor(2, 5, trials=20_000, seed=105)
    assert report.beta == pytest.approx(3.0 / 70.0)
    assert report.gamma == pytest.approx(3.0 / 70.0)
    assert report.alpha == pytest.approx(3.0 / 70.0 + 2.0 / 20.0)
    for hat, se, closed in (
        (report.alpha_hat, report.alpha_se, report.alpha),
        (report.beta_hat, report.beta_se, report.beta),
        (report.gamma_hat, report.gamma_se, report.gamma),
    ):
        assert abs(hat - closed) <= 4.0 * se
    assert abs(report.trace_sq_mean - 4.0) <= max(4.0 * report.trace_sq_se, 1e-9)
    assert report.verdict == "pass"
    assert time.perf_counter() - start <= 60.0


OPERATOR_ROSTER = (
    ("cyclic 2", "natural_permutation"),
    ("cyclic 4", "rotation_block 1"),
    ("symmetric 3", "natural_permutation"),
    ("symmetric 4", "natural_permutation"),
    ("dihedral 4", "natural_permutation"),
    ("so2_quadrature 64", "rotation_block 1"),
)


def test_operator_identity_suite_passes_on_full_roster():
    start = time.perf_counter()
    for group_name, rep_name in OPERATOR_ROSTER:
        group = build_group(group_name)
        rep = build_representation(group, rep_name)
        out = verify_operator_identities(rep, n_samples=100_000, seed=106)
        assert out["verdict"] == "pass", f"{group_name}: {out}"
        assert abs(out["inner_mean"]) <= 3.0 * max(out["inner_se"], 1e-15)
    assert time.perf_counter() - start <= 120.0


def test_kernel_switch_and_trace_decomposition():
    start = time.perf_counter()
    s3 = build_representation(build_group("symmetric 3"), "natural_permutation")
    c4 = build_representation(build_group("cyclic 4"), "rotation_block 1")
    for kernel in (
        linear_kernel(s3), gaussian_kernel(s3, bandwidth=1.5),
        linear_kernel(c4), gaussian_kernel(c4, bandwidth=1.0),
    ):
        status, _ = check_switch_condition(kernel, seed=107)
        assert status == "verified", kernel.name

    # asymmetric bilinear form whose average depends on the argument order
    swap = build_representation(build_group("symmetric 2"), "natural_permutation")
    lopsided = explicit_bilinear_kernel(swap, np.diag([1.0, 0.0]))
    status, violation = check_switch_condition(lopsided, seed=107)
    assert status == "refuted"
    assert violation > 1e-6

    # trace decomposition, estimated on independent pair sets
    kernel = gaussian_kernel(s3, bandwidth=1.5)
    averaged = build_averaged_kernel(kernel, seed=107)
    mu = gaussian(3)
    n_full, se_full = estimate_N(kernel.gram, mu, pairs=40_000, rng=stream(1, "main"))
    n_bar, se_bar = estimate_N(averaged.gram_bar, mu, pairs=40_000, rng=stream(2, "main"))
    n_perp, se_perp = estimate_N(averaged.gram_perp, mu, pairs=40_000, rng=stream(3, "main"))
    combined_se = se_full + se_bar + se_perp
    assert abs(n_full - (n_bar + n_perp)) <= 4.0 * combined_se

    # linear kernel on a standard gaussian: known trace values
    c6 = build_representation(build_group("cyclic 6"), "natural_permutation")
    lin = linear_kernel(c6)
    lin_avg = build_averaged_kernel(lin, seed=107)
    dim_s = float(np.sum(build_phi(c6) ** 2))
    n_lin, se_lin = estimate_N(lin.gram, gaussian(6), pairs=40_000, rng=stream(4, "main"))
    n_lin_bar, se_lin_bar = estimate_N(lin_avg.gram_bar, gaussian(6), pairs=40_000, rng=stream(5, "main"))
    assert abs(n_lin - 6.0) <= 4.0 * se_lin
    assert abs(n_lin_bar - dim_s) <= 4.0 * se_lin_bar
    assert time.perf_counter() - start <= 120.0


def _invariant_target(d: int):
    theta = np.ones(d) / math.sqrt(d)
    return theta, (lambda X: X @ theta)


def test_krr_gap_bound_holds_across_grid():
    start = time.perf_counter()
    for d in (4, 8):
        group = build_group(f"cyclic {d}")
        rep = build_representation(group, "natural_permutation")
        phi = build_phi(rep)
        dim_s = float(np.sum(phi * phi))
        theta, f_star = _invariant_target(d)
        for n in (16, 64):
            for rho in (0.1, 1.0):
                for kernel in (linear_kernel(rep, Mk=float(d)),
                               gaussian_kernel(rep, bandwidth=math.sqrt(d))):
                    config = KrrGapConfig(
                        kernel=kernel, f_star=f_star, mu=sphere(d),
                        n=n, sigma=1.0, rho=rho, trials=2000,
                        seed=108 + d + n, bias_trials=100,
                    )
                    report = krr_gap_experiment(config)
                    assert report.verdict == "pass", (d, n, rho, kernel.name)
                    meta = report.metadata
                    if kernel.name.startswith("linear"):
                        formula = linear_kernel_bound(d, n, rho, 1.0, phi,
                                                      trials=4000, seed=109)
                        # same closed formula once the estimated trace is
                        # replaced by its exact value d - dim S
                        rescaled = meta["bound_variance"] * (d - dim_s) / meta["N_kperp"]
                        assert rescaled == pytest.approx(formula["variance_bound"], rel=1e-9)
                        assert abs(meta["N_kperp"] - (d - dim_s)) <= 4.0 * meta["N_kperp_se"]
                        formula_bias_se = (d * formula["zeta1_se"] + formula["zeta2_se"]) \
                            * (d - dim_s) / (d * (d + 2) * (d - 1))
                        tol = 4.0 * (meta["bound_bias_se"] + formula_bias_se)
                        assert abs(meta["bound_bias"] - formula["bias_bound"]) <= tol
    assert time.perf_counter() - start <= 300.0


def test_krr_bias_estimate_decreases_with_sample_size():
    start = time.perf_counter()
    rep = build_representation(build_group("cyclic 4"), "natural_permutation")
    theta, f_star = _invariant_target(4)
    estimates = []
    for n in (25, 100, 400):
        config = KrrGapConfig(
            kernel=linear_kernel(rep, Mk=4.0), f_star=f_star, mu=sphere(4),
            n=n, sigma=1.0, rho=float(n) ** 0.4, trials=10,
            seed=110, bias_trials=300,
        )
        estimates.append(estimate_bias_term(config))
    for (hi, hi_se), (lo, lo_se) in zip(estimates, estimates[1:]):
        assert lo <= hi + 4.0 * (hi_se + lo_se)
    assert time.perf_counter() - start <= 300.0


def test_invariant_learners_are_unchanged_by_orbit_projection():
    start = time.perf_counter()
    sections = (
        build_cross_section("sort_descending", dim=3),
        build_cross_section("abs_first_coordinate", dim=2),
        build_cross_section("polar_fold"),
    )
    for section in sections:
        for learner in ("averaged_krr", "invariant_least_squares"):
            report = equivalence_demo(learner, section, n=48, trials=2,
                                      sigma=0.1, seed=111)
            assert report.risk_deviation <= 1e-9, (learner, section.kind)
            assert not report.metamorphic_flag
            assert report.verdict == "pass"
    raw = equivalence_demo("raw_least_squares", sections[0], n=48, trials=2,
                           sigma=0.1, seed=111)
    assert raw.metamorphic_flag
    assert raw.verdict == "pass"
    assert time.perf_counter() - start <= 60.0


def test_rademacher_complexity_sandwich_exact_enumeration():
    start = time.perf_counter()
    group = build_group("symmetric 3")
    nat = build_representation(group, "natural_permutation")
    triv = build_representation(group, "trivial 1")
    # six points forming one full orbit, so averaging permutes the multiset
    base = np.array([1.0, 2.0, 3.0])
    points = np.stack([m @ base for m in nat.matrices])
    rng = np.random.default_rng(112)
    directions = rng.standard_normal((4, 3, 1))
    funcs = [lambda X, a=a: np.tanh(X @ a) for a in directions]
    split = [apply_Q(f, nat, triv) for f in funcs]
    rad_full = empirical_rademacher(funcs, points)
    rad_bar = empirical_rademacher([s.symmetric_part for s in split], points)
    rad_perp = empirical_rademacher([s.antisym_part for s in split], points)
    assert rad_full - rad_bar >= -1e-12
    assert rad_full - rad_bar <= rad_perp + 1e-12
    assert time.perf_counter() - start <= 10.0


def test_layer_projection_regulariser_and_capacity_bounds():
    start = time.perf_counter()
    group = build_group("symmetric 3")
    nat = build_representation(group, "natural_permutation")

    # tied three-layer relu stack is equivariant to line precision
    rng = np.random.default_rng(113)
    spec = LayerSpec(
        reps=(nat, nat, nat, nat),
        weights=tuple(rng.standard_normal((3, 3)) for _ in range(3)),
        activation="relu",
    )
    report = equivariance_report(project_spec(spec), n_samples=1000, seed=113)
    assert report.samples * group.order >= 1000
    assert report.violation <= 1e-8

    # augmentation distance dominated by the tied-weight residual
    for trial in range(20):
        W = np.random.default_rng(1000 + trial).standard_normal((3, 3))
        out = check_regularisation_bound(W, nat, nat, activation="relu",
                                         samples=10_000, seed=trial)
        assert out["verdict"] == "pass", (trial, out)
        assert out["lhs_mean"] <= out["middle_bound"] + 4.0 * out["lhs_se"]
        assert out["middle_bound"] <= out["right_bound"] + 1e-12

    # capacity bound arithmetic against two hand-computed values
    bound_nat = vc_bound((nat, nat, nat))
    s = 1 * 3 + 2 * 3
    alpha = math.log2(4 * math.e * math.log2(2 * math.e * s) * s)
    assert bound_nat == pytest.approx(2 + 6 * alpha, rel=1e-12)

    c3 = build_group("cyclic 3")
    towers = tuple(build_representation(c3, f"trivial {d}") for d in (2, 3, 1))
    bound_triv = vc_bound(towers)
    s2 = 1 * 2 + 2 * 3
    alpha2 = math.log2(4 * math.e * math.log2(2 * math.e * s2) * s2)
    assert bound_triv == pytest.approx(2 + 18 * alpha2, rel=1e-12)
    assert time.perf_counter() - start <= 60.0
