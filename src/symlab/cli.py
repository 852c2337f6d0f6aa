"""Command-line harness: seeded experiment dispatch and result tables.

Config files are JSON with a mandatory top-level "seed" and an
"experiments" array; every run writes results.csv (versioned header) and
a results.json mirror, prints a per-experiment summary, and exits 0 only
when every verdict passes.  Identical config and seed produce
byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .averaging import build_phi, build_psi, verify_operator_identities
from .groups import build_group, build_representation
from .kernel_gap import (
    KrrGapConfig,
    gaussian_kernel,
    krr_gap_experiment,
    linear_kernel,
)
from .layers import LayerSpec, check_regularisation_bound, equivariance_report, project_spec, vc_bound
from .linear_gap import (
    LinearGapConfig,
    invariant_config,
    monte_carlo_gap,
    random_equivariant_target,
    verify_projection_tensor,
    verify_wishart,
)
from .orbits import PointCloud, build_cross_section, covering_number, equivalence_demo
from .sampling import gaussian, sphere

CSV_VERSION = "# symlab-csv v1"
CSV_COLUMNS = (
    "experiment", "d", "k", "n", "group", "dim_A", "sigma_x", "sigma_xi",
    "trials", "mc_mean", "mc_se", "closed_form", "verdict",
    "rho", "Mk", "N_kperp", "bound_bias", "bound_variance",
    "config_hash", "seed",
)

class ConfigError(Exception):
    """Schema or descriptor problem; maps to exit code 2."""


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _rep_pair(params: dict):
    group = build_group(params["group"])
    rep = build_representation(group, params["rep"])
    return group, rep


def _invariant_theta(rep, params: dict) -> np.ndarray:
    if "theta" in params:
        return np.asarray(params["theta"], dtype=np.float64)
    phi = build_phi(rep).matrix
    theta = phi @ np.ones(rep.dim)
    norm = float(np.linalg.norm(theta))
    if norm < 1e-12:
        raise ConfigError(
            "the invariant subspace does not contain the all-ones direction; pass theta explicitly"
        )
    return theta / norm


def _mu_from(params: dict, dim: int):
    spec = params.get("mu", {"kind": "gaussian"})
    kind = spec.get("kind", "gaussian")
    if kind == "gaussian":
        return gaussian(dim, scale=float(spec.get("scale", 1.0)))
    if kind == "sphere":
        radius = spec.get("radius")
        return sphere(dim, radius=None if radius is None else float(radius))
    raise ConfigError(f"unknown mu kind {kind!r}")


def _kernel_from(params: dict, rep, mu):
    spec = params.get("kernel", {"type": "gaussian"})
    ktype = spec.get("type", "gaussian")
    if ktype == "linear":
        # sup k(x,x) on the support: radius^2 on a sphere, estimated otherwise
        mk = None
        if mu.kind == "sphere":
            mk = float(mu.scale) ** 2
        return linear_kernel(rep, Mk=mk)
    if ktype == "gaussian":
        bandwidth = float(spec.get("bandwidth", math.sqrt(rep.dim)))
        return gaussian_kernel(rep, bandwidth=bandwidth)
    raise ConfigError(f"unknown kernel type {ktype!r}")


def _run_gap_linear(params: dict, seed: int) -> dict:
    _, rep = _rep_pair(params)
    theta = _invariant_theta(rep, params)
    config = invariant_config(
        rep, theta, int(params["n"]),
        sigma_x=float(params.get("sigma_x", 1.0)),
        sigma_xi=float(params.get("sigma_xi", 1.0)),
        trials=int(params.get("trials", 10_000)),
        seed=seed,
    )
    report = monte_carlo_gap(config, experiment="gap-linear")
    return {
        "experiment": "gap-linear", "d": rep.dim, "k": 1, "n": config.n,
        "group": rep.group.name, "dim_A": report.dim_A,
        "sigma_x": config.sigma_x, "sigma_xi": config.sigma_xi,
        "trials": config.trials, "mc_mean": report.mc_gap_mean,
        "mc_se": report.mc_gap_se, "closed_form": report.closed_form,
        "verdict": report.verdict,
    }


def _run_gap_equivariant(params: dict, seed: int) -> dict:
    group = build_group(params["group"])
    rep_in = build_representation(group, params["rep_in"])
    rep_out = build_representation(group, params["rep_out"])
    tensor = build_psi(rep_in, rep_out)
    theta = random_equivariant_target(
        tensor, np.random.default_rng((seed, 13)),
        fro_norm=float(params.get("theta_norm", 1.0)),
    )
    config = LinearGapConfig(
        phi=rep_in, psi=rep_out, theta=theta, n=int(params["n"]),
        sigma_x=float(params.get("sigma_x", 1.0)),
        sigma_xi=float(params.get("sigma_xi", 1.0)),
        trials=int(params.get("trials", 10_000)),
        seed=seed,
    )
    report = monte_carlo_gap(config, experiment="gap-equivariant")
    return {
        "experiment": "gap-equivariant", "d": rep_in.dim, "k": rep_out.dim,
        "n": config.n, "group": group.name, "dim_A": report.dim_A,
        "sigma_x": config.sigma_x, "sigma_xi": config.sigma_xi,
        "trials": config.trials, "mc_mean": report.mc_gap_mean,
        "mc_se": report.mc_gap_se, "closed_form": report.closed_form,
        "verdict": report.verdict,
    }


def _run_gap_kernel(params: dict, seed: int) -> dict:
    _, rep = _rep_pair(params)
    mu = _mu_from(params, rep.dim)
    kernel = _kernel_from(params, rep, mu)
    theta = _invariant_theta(rep, params)
    config = KrrGapConfig(
        kernel=kernel,
        f_star=lambda X: X @ theta,
        mu=mu,
        n=int(params["n"]),
        sigma=float(params.get("sigma", 1.0)),
        rho=float(params["rho"]),
        trials=int(params.get("trials", 2000)),
        seed=seed,
        n_test=int(params.get("n_test", 256)),
        n_pairs=int(params.get("n_pairs", 4000)),
        bias_trials=int(params.get("bias_trials", 200)),
    )
    report = krr_gap_experiment(config)
    meta = report.metadata
    return {
        "experiment": "gap-kernel", "d": rep.dim, "k": 1, "n": config.n,
        "group": rep.group.name, "dim_A": report.dim_A,
        "sigma_xi": config.sigma, "trials": config.trials,
        "mc_mean": report.mc_gap_mean, "mc_se": report.mc_gap_se,
        "closed_form": report.closed_form, "verdict": report.verdict,
        "rho": meta["rho"], "Mk": meta["Mk"], "N_kperp": meta["N_kperp"],
        "bound_bias": meta["bound_bias"], "bound_variance": meta["bound_variance"],
    }


def _run_verify_wishart(params: dict, seed: int) -> dict:
    n, d = int(params["n"]), int(params["d"])
    trials = int(params.get("trials", 20_000))
    report = verify_wishart(n, d, trials, seed)
    diag_mean = float(np.trace(report.entry_mean) / d)
    diag_se = float(np.mean(np.diagonal(report.entry_se)))
    return {
        "experiment": "verify-wishart", "d": d, "n": n, "trials": trials,
        "mc_mean": diag_mean, "mc_se": diag_se,
        "closed_form": report.coefficient, "verdict": report.verdict,
    }


def _run_verify_projection_tensor(params: dict, seed: int) -> dict:
    n, d = int(params["n"]), int(params["d"])
    trials = int(params.get("trials", 20_000))
    report = verify_projection_tensor(n, d, trials, seed)
    return {
        "experiment": "verify-projection-tensor", "d": d, "n": n,
        "trials": trials, "mc_mean": report.alpha_hat, "mc_se": report.alpha_se,
        "closed_form": report.alpha, "verdict": report.verdict,
    }


def _run_verify_operators(params: dict, seed: int) -> dict:
    group = build_group(params["group"])
    rep_in = build_representation(group, params["rep"])
    rep_out = None
    if "rep_out" in params:
        rep_out = build_representation(group, params["rep_out"])
    out = verify_operator_identities(
        rep_in, rep_out=rep_out, n_samples=int(params.get("n_samples", 100_000)), seed=seed
    )
    return {
        "experiment": "verify-operators", "d": rep_in.dim,
        "k": rep_out.dim if rep_out is not None else 1,
        "group": group.name, "trials": int(params.get("n_samples", 100_000)),
        "mc_mean": out["inner_mean"], "mc_se": out["inner_se"],
        "closed_form": 0.0, "verdict": out["verdict"],
    }


def _run_orbit_equivalence(params: dict, seed: int) -> dict:
    cs = build_cross_section(params["cross_section"], dim=params.get("dim"))
    report = equivalence_demo(
        params["learner"], cs,
        n=int(params.get("n", 64)),
        trials=int(params.get("trials", 4)),
        sigma=float(params.get("sigma", 0.1)),
        seed=seed,
    )
    return {
        "experiment": "orbit-equivalence", "d": cs.dim,
        "n": int(params.get("n", 64)), "group": cs.action.group.name,
        "trials": int(params.get("trials", 4)),
        "mc_mean": report.risk_original, "mc_se": report.risk_deviation,
        "closed_form": report.risk_projected, "verdict": report.verdict,
    }


def _run_covering(params: dict, seed: int) -> dict:
    if "points_file" in params:
        cloud = PointCloud.from_file(params["points_file"], metric=params.get("metric", "euclidean"))
    elif "points" in params:
        cloud = PointCloud(np.asarray(params["points"], dtype=np.float64),
                           metric=params.get("metric", "euclidean"))
    else:
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.standard_normal((int(params.get("n", 100)), int(params.get("dim", 2)))),
                           metric=params.get("metric", "euclidean"))
    size = covering_number(cloud, float(params["eps"]))
    return {
        "experiment": "covering", "d": cloud.points.shape[1],
        "n": cloud.points.shape[0], "mc_mean": float(size),
        "verdict": "pass",
    }


def _layer_reps(params: dict):
    group = build_group(params["group"])
    return group, tuple(build_representation(group, r) for r in params["reps"])


def _load_matrix(path: str) -> np.ndarray:
    try:
        return np.atleast_2d(np.loadtxt(path))
    except ValueError:
        return np.atleast_2d(np.loadtxt(path, delimiter=","))


def _run_layer_project(params: dict, seed: int) -> dict:
    group, reps = _layer_reps(params)
    if "weights_files" in params:
        weights = tuple(_load_matrix(p) for p in params["weights_files"])
    else:
        rng = np.random.default_rng(seed)
        weights = tuple(
            rng.standard_normal((reps[i + 1].dim, reps[i].dim)) for i in range(len(reps) - 1)
        )
    spec = LayerSpec(reps=reps, weights=weights, activation=params.get("activation", "relu"))
    tied = project_spec(spec)
    report = equivariance_report(tied, n_samples=int(params.get("n_samples", 1000)), seed=seed)
    verdict = "pass" if report.violation <= 1e-8 else "fail"
    return {
        "experiment": "layer-project", "d": reps[0].dim, "k": reps[-1].dim,
        "group": group.name, "trials": report.samples,
        "mc_mean": report.violation, "closed_form": 0.0, "verdict": verdict,
    }


def _run_vc_bound(params: dict, seed: int) -> dict:
    group, reps = _layer_reps(params)
    bound = vc_bound(reps)
    return {
        "experiment": "vc-bound", "d": reps[0].dim, "k": reps[-1].dim,
        "group": group.name, "mc_mean": bound, "verdict": "pass",
    }


def _run_regularisation_bound(params: dict, seed: int) -> dict:
    group = build_group(params["group"])
    rep_in = build_representation(group, params["rep_in"])
    rep_out = build_representation(group, params["rep_out"])
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((rep_out.dim, rep_in.dim))
    out = check_regularisation_bound(
        W, rep_in, rep_out,
        activation=params.get("activation", "relu"),
        sigma=float(params.get("sigma", 1.0)),
        samples=int(params.get("samples", 10_000)),
        seed=seed,
    )
    return {
        "experiment": "regularisation-bound", "d": rep_in.dim, "k": rep_out.dim,
        "group": group.name, "sigma_x": float(params.get("sigma", 1.0)),
        "trials": int(params.get("samples", 10_000)),
        "mc_mean": out["lhs_mean"], "mc_se": out["lhs_se"],
        "closed_form": out["middle_bound"], "verdict": out["verdict"],
    }


# the keys each kind's runner reads; "kind" and "seed" are allowed on every experiment
_PARAMS = {
    "gap-linear": {"group", "rep", "theta", "n", "sigma_x", "sigma_xi", "trials"},
    "gap-equivariant": {
        "group", "rep_in", "rep_out", "theta_norm", "n", "sigma_x", "sigma_xi", "trials",
    },
    "gap-kernel": {
        "group", "rep", "mu", "kernel", "theta", "n", "sigma", "rho", "trials",
        "n_test", "n_pairs", "bias_trials",
    },
    "verify-wishart": {"n", "d", "trials"},
    "verify-projection-tensor": {"n", "d", "trials"},
    "verify-operators": {"group", "rep", "rep_out", "n_samples"},
    "orbit-equivalence": {"cross_section", "dim", "learner", "n", "trials", "sigma"},
    "covering": {"points_file", "points", "metric", "n", "dim", "eps"},
    "layer-project": {"group", "reps", "weights_files", "activation", "n_samples"},
    "vc-bound": {"group", "reps"},
    "regularisation-bound": {"group", "rep_in", "rep_out", "activation", "sigma", "samples"},
}
EXPERIMENT_KINDS = tuple(_PARAMS)
# the keys _kernel_from and _mu_from read from the nested objects
_NESTED_PARAMS = {"kernel": {"type", "bandwidth"}, "mu": {"kind", "scale", "radius"}}

_RUNNERS = {
    "gap-linear": _run_gap_linear,
    "gap-equivariant": _run_gap_equivariant,
    "gap-kernel": _run_gap_kernel,
    "verify-wishart": _run_verify_wishart,
    "verify-projection-tensor": _run_verify_projection_tensor,
    "verify-operators": _run_verify_operators,
    "orbit-equivalence": _run_orbit_equivalence,
    "covering": _run_covering,
    "layer-project": _run_layer_project,
    "vc-bound": _run_vc_bound,
    "regularisation-bound": _run_regularisation_bound,
}


def _config_hash(kind: str, params: dict, seed: int) -> str:
    blob = json.dumps({"kind": kind, "params": params, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_experiment(kind: str, params: dict, seed: int) -> dict:
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")
    row = {key: "" for key in CSV_COLUMNS}
    row.update(_RUNNERS[kind](params, seed))
    row["config_hash"] = _config_hash(kind, params, seed)
    row["seed"] = seed
    return row


def _apply_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form path=value")
    path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = path.split(".")
    node = config
    for key in keys[:-1]:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    last = keys[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value


def _validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if "seed" not in config:
        raise ConfigError("config error: missing required field 'seed'")
    if not isinstance(config["seed"], int) or isinstance(config["seed"], bool):
        raise ConfigError("config error: field 'seed' must be an integer")
    experiments = config.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        raise ConfigError("config error: field 'experiments' must be a non-empty array")
    for i, exp in enumerate(experiments):
        if not isinstance(exp, dict) or "kind" not in exp:
            raise ConfigError(f"config error: experiments[{i}] missing required field 'kind'")
        if exp["kind"] not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"config error: experiments[{i}].kind {exp['kind']!r} is not one of {EXPERIMENT_KINDS}"
            )
        unknown = sorted(set(exp) - {"kind", "seed"} - _PARAMS[exp["kind"]])
        if unknown:
            raise ConfigError(
                f"config error: experiments[{i}] ({exp['kind']}) has unknown key {unknown[0]!r}; "
                f"accepted: {sorted(_PARAMS[exp['kind']])}"
            )
        for key in sorted(_NESTED_PARAMS.keys() & exp.keys()):
            accepted = _NESTED_PARAMS[key]
            if not isinstance(exp[key], dict):
                raise ConfigError(f"config error: experiments[{i}].{key} must be a JSON object")
            unknown = sorted(set(exp[key]) - accepted)
            if unknown:
                raise ConfigError(
                    f"config error: experiments[{i}].{key} has unknown key {unknown[0]!r}; "
                    f"accepted: {sorted(accepted)}"
                )


def _write_results(rows: list, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_VERSION, ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "results.json").write_text(json.dumps(rows, indent=2, default=str) + "\n")


def run_config(config: dict, out_dir: Path) -> int:
    _validate_config(config)
    base_seed = config["seed"]
    rows = []
    all_pass = True
    for idx, exp in enumerate(config["experiments"]):
        params = {key: val for key, val in exp.items() if key not in ("kind", "seed")}
        seed = exp.get("seed", base_seed + idx)
        start = time.perf_counter()
        row = run_experiment(exp["kind"], params, seed)
        elapsed = time.perf_counter() - start
        rows.append(row)
        all_pass &= row["verdict"] == "pass"
        print(f"{exp['kind']:<26} verdict={row['verdict']:<4} ({elapsed:.1f}s)")
    _write_results(rows, out_dir)
    print(f"SUITE: {'PASS' if all_pass else 'FAIL'} ({len(rows)} experiments)")
    return 0 if all_pass else 1


def suite_config(name: str) -> dict:
    """The acceptance grid as a runnable config; 'full' multiplies trials by 10."""
    if name not in ("quick", "full"):
        raise ConfigError(f"unknown suite {name!r}; choose quick or full")
    mult = 10 if name == "full" else 1
    experiments = [
        # S_2 is the two-element group; trivial^3 (+) sign is a reflection of R^4
        {"kind": "gap-linear", "group": "symmetric 2",
         "rep": "direct_sum trivial 3 + sign", "n": 10,
         "trials": 10_000 * mult},
        {"kind": "gap-equivariant", "group": "symmetric 3",
         "rep_in": "natural_permutation", "rep_out": "natural_permutation",
         "n": 12, "trials": 10_000 * mult},
        {"kind": "verify-wishart", "n": 20, "d": 3, "trials": 20_000 * mult},
        {"kind": "verify-wishart", "n": 2, "d": 6, "trials": 20_000 * mult},
        {"kind": "verify-projection-tensor", "n": 2, "d": 5, "trials": 20_000 * mult},
    ]
    for group, rep in (
        ("cyclic 2", "natural_permutation"),
        ("cyclic 4", "rotation_block 1"),
        ("symmetric 3", "natural_permutation"),
        ("symmetric 4", "natural_permutation"),
        ("dihedral 4", "natural_permutation"),
        ("so2_quadrature 64", "rotation_block 1"),
    ):
        experiments.append({
            "kind": "verify-operators", "group": group, "rep": rep,
            "n_samples": 100_000,
        })
    for d in (4, 8):
        for n in (16, 64):
            for rho in (0.1, 1.0):
                for ktype in ("linear", "gaussian"):
                    experiments.append({
                        "kind": "gap-kernel", "group": f"cyclic {d}",
                        "rep": "natural_permutation",
                        "kernel": {"type": ktype, "bandwidth": math.sqrt(d)},
                        "mu": {"kind": "sphere"},
                        "n": n, "rho": rho, "sigma": 1.0,
                        "trials": 2000 * mult, "bias_trials": 100,
                    })
    for cs, learner in (
        ("sort_descending", "averaged_krr"),
        ("abs_first_coordinate", "invariant_least_squares"),
        ("polar_fold", "averaged_krr"),
        ("sort_descending", "raw_least_squares"),
    ):
        experiments.append({
            "kind": "orbit-equivalence", "cross_section": cs,
            "dim": 3 if cs == "sort_descending" else 2,
            "learner": learner, "n": 32, "trials": 2,
        })
    experiments.extend([
        {"kind": "covering", "n": 100, "dim": 2, "eps": 0.5},
        {"kind": "layer-project", "group": "symmetric 3",
         "reps": ["natural_permutation"] * 4, "activation": "relu"},
        {"kind": "regularisation-bound", "group": "symmetric 3",
         "rep_in": "natural_permutation", "rep_out": "natural_permutation",
         "samples": 10_000 * mult},
        {"kind": "vc-bound", "group": "symmetric 3",
         "reps": ["natural_permutation"] * 3},
    ])
    return {"seed": 20_240, "experiments": experiments}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(prog="symlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run experiments from a JSON config")
    p_run.add_argument("config", help="path to the JSON config file")
    p_run.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                       help="override a dotted config path")
    p_run.add_argument("--out", default=None,
                       help="output directory for results files (overrides the config's \"out\")")
    p_suite = sub.add_parser("suite", help="run a named suite")
    p_suite.add_argument("name", help="quick or full")
    p_suite.add_argument("--out", default=".", help="output directory for results files")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            path = Path(args.config)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                config = json.loads(path.read_text())
            except json.JSONDecodeError as err:
                raise ConfigError(f"config is not valid JSON: {err}") from err
            for assignment in args.set:
                _apply_override(config, assignment)
            out = args.out if args.out is not None else config.get("out", ".")
            return run_config(config, Path(out))
        return run_config(suite_config(args.name), Path(args.out))
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as err:
        # a ValueError subclass, but a failure of the run, not of its config
        print(f"numerical error: {err}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
