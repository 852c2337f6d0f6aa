"""Command-line harness: seeded experiment dispatch and result tables.

Config files are JSON with a mandatory top-level "seed" and an
"experiments" array; every run writes results.csv (versioned header) and
a results.json mirror, prints a per-experiment summary, and exits 0 only
when every verdict passes.  Identical config and seed produce
byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import sys
import time
from pathlib import Path
from types import UnionType
from typing import Annotated, Callable, Literal, get_args, get_origin

import numpy as np

from . import gates
from .averaging import _check_verify_operator_identities, build_phi, build_psi, verify_operator_identities
from .groups import FiniteGroup, Representation, build_group, build_representation
from .kernel_gap import KrrGapConfig, _square, gaussian_kernel, krr_gap_experiment, linear_kernel
from .layers import (
    ACTIVATIONS, BOUND_ACTIVATIONS, LayerSpec, _check_equivariance_report, _check_regularisation_bound,
    _check_vc_bound, check_regularisation_bound, equivariance_report, project_spec, vc_bound,
)
from .linear_gap import (
    LinearGapConfig, _check_verify_projection_tensor, _check_verify_wishart, invariant_config,
    monte_carlo_gap, random_equivariant_target, verify_projection_tensor, verify_wishart,
)
from .orbits import (
    LEARNER_NAMES, METRICS, CrossSection, PointCloud, _check_covering_number, _check_equivalence_demo,
    build_cross_section, covering_number, equivalence_demo,
)
from .sampling import gaussian, sphere, stream

CSV_VERSION = "# symlab-csv v7"
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


def _invariant_theta(rep, theta) -> np.ndarray:
    """An explicit theta, refused unless it is a vector of rep.dim numbers, or a column
    of them, that every group element fixes; by default the all-ones direction
    projected onto the invariant subspace, normalised."""
    phi = build_phi(rep)
    if theta is not None:
        try:
            theta = np.asarray(theta, dtype=np.float64)
        except TypeError:
            raise ValueError(f"theta is {theta!r}, not a list of numbers") from None
        if theta.shape not in ((rep.dim,), (rep.dim, 1)):
            raise ValueError(f"theta has shape {theta.shape}, expected ({rep.dim},) or ({rep.dim}, 1)")
        dev = float(np.max(np.abs(phi @ theta - theta)))
        if not dev <= 1e-10:  # NaN fails too
            raise ValueError(f"theta is not invariant: |Phi theta - theta|_max = {dev:.3e}")
        return theta
    theta = phi @ np.ones(rep.dim)
    norm = float(np.linalg.norm(theta))
    if norm < 1e-12:
        raise ValueError(
            "the invariant subspace does not contain the all-ones direction; pass theta explicitly"
        )
    return theta / norm


_Run = Callable[[], dict]  # a prepared experiment: calling it runs it and returns its row


# gap-kernel's nested objects: each one's keys are its maker's keyword-only parameters, typed as a
# runner's are; a None radius is the sampler's own, a None bandwidth sqrt(d)
def _mu_from(
    dim: int, *, kind: Literal["gaussian", "sphere"] = "gaussian", scale: float = 1.0,
    radius: float | None = None,
):
    if kind == "sphere":
        return sphere(dim, radius=radius)
    return gaussian(dim, scale=scale)


def _kernel_from(
    rep, mu, *, type: Literal["linear", "gaussian"] = "gaussian", bandwidth: float | None = None,
):
    if type == "linear":
        # sup k(x,x) on the support: radius^2 on a sphere, estimated otherwise
        return linear_kernel(rep, Mk=_square("mu.radius", mu.scale) if mu.kind == "sphere" else None)
    return gaussian_kernel(rep, bandwidth=math.sqrt(rep.dim) if bandwidth is None else bandwidth)


def _gap_row(report, rep, k: int, n: int, trials: int, **cells) -> dict:
    """The cells every gap runner reports, from its GapReport and its input representation."""
    return {
        "d": rep.dim, "k": k, "n": n, "group": rep.group.name, "dim_A": report.dim_A,
        "trials": trials, "mc_mean": report.mc_gap_mean, "mc_se": report.mc_gap_se,
        "closed_form": report.closed_form, "verdict": report.verdict, **cells,
    }


# Each runner is its kind's prepare step: its keyword-only parameters are the kind's config keys,
# typed as _runner_kwargs resolves them.  It builds the library objects that check the arguments,
# or calls the library's own check, and returns the run; it builds no group or representation.
def _run_gap_linear(
    seed: int, *, group: FiniteGroup, rep: Representation, n: int, theta=None,
    sigma_x: float = 1.0, sigma_xi: float = 1.0, trials: int = 10_000,
) -> _Run:
    config = invariant_config(
        rep, _invariant_theta(rep, theta), n,
        sigma_x=sigma_x, sigma_xi=sigma_xi, trials=trials, seed=seed,
    )
    return lambda: _gap_row(monte_carlo_gap(config), rep, 1, n, trials, sigma_x=sigma_x, sigma_xi=sigma_xi)


def _run_gap_equivariant(
    seed: int, *, group: FiniteGroup, rep_in: Representation, rep_out: Representation, n: int,
    theta_norm: float = 1.0, sigma_x: float = 1.0, sigma_xi: float = 1.0, trials: int = 10_000,
) -> _Run:
    tensor = build_psi(rep_in, rep_out)
    theta = random_equivariant_target(tensor, stream(seed, "target"), theta_norm)
    config = LinearGapConfig(
        tensor, theta, n, sigma_x=sigma_x, sigma_xi=sigma_xi, trials=trials, seed=seed,
    )
    return lambda: _gap_row(
        monte_carlo_gap(config), rep_in, rep_out.dim, n, trials, sigma_x=sigma_x, sigma_xi=sigma_xi,
    )


def _run_gap_kernel(
    seed: int, *, group: FiniteGroup, rep: Representation, n: int, rho: float,
    mu: Annotated[dict, _mu_from] = {}, kernel: Annotated[dict, _kernel_from] = {}, theta=None,
    sigma: float = 1.0, trials: int = 2000, n_test: int = 256, n_pairs: int = 4000, bias_trials: int = 200,
) -> _Run:
    mu = _mu_from(rep.dim, **mu)  # the {} defaults are only read
    kernel = _kernel_from(rep, mu, **kernel)
    theta = _invariant_theta(rep, theta)
    config = KrrGapConfig(
        kernel=kernel, f_star=lambda X: X @ theta, mu=mu, n=n, sigma=sigma, rho=rho,
        trials=trials, seed=seed, n_test=n_test, n_pairs=n_pairs, bias_trials=bias_trials,
    )

    def run() -> dict:
        report = krr_gap_experiment(config)
        meta = report.metadata
        bound = {key: meta[key] for key in ("Mk", "N_kperp", "bound_bias", "bound_variance")}
        return _gap_row(report, rep, 1, n, trials, sigma_xi=sigma, rho=rho, **bound)
    return run


def _run_verify_wishart(seed: int, *, n: int, d: int, trials: int = 20_000) -> _Run:
    _check_verify_wishart(n, d, trials)

    def run() -> dict:
        report = verify_wishart(n, d, trials, seed)
        return {
            "d": d, "n": n, "trials": trials, "mc_mean": float(np.trace(report.entry_mean) / d),
            "mc_se": float(np.mean(np.diagonal(report.entry_se))),
            "closed_form": report.coefficient, "verdict": report.verdict,
        }
    return run


def _run_verify_projection_tensor(seed: int, *, n: int, d: int, trials: int = 20_000) -> _Run:
    _check_verify_projection_tensor(n, d, trials)

    def run() -> dict:
        report = verify_projection_tensor(n, d, trials, seed)
        return {
            "d": d, "n": n, "trials": trials, "mc_mean": report.alpha_hat, "mc_se": report.alpha_se,
            "closed_form": report.alpha, "verdict": report.verdict,
        }
    return run


def _run_verify_operators(
    seed: int, *, group: FiniteGroup, rep: Representation, rep_out: Representation | None = None,
    n_samples: int = 100_000,
) -> _Run:
    _check_verify_operator_identities(rep, rep_out, n_samples)

    def run() -> dict:
        out = verify_operator_identities(rep, rep_out=rep_out, n_samples=n_samples, seed=seed)
        return {
            "d": rep.dim, "k": rep_out.dim if rep_out is not None else 1,
            "group": group.name, "trials": n_samples, "mc_mean": out["inner_mean"],
            "mc_se": out["inner_se"], "closed_form": 0.0, "verdict": out["verdict"],
        }
    return run


# dim is read only to build cross_section, so it comes first
def _run_orbit_equivalence(
    seed: int, *, dim: int | None = None, cross_section: CrossSection,
    learner: Literal[LEARNER_NAMES], n: int = 64, trials: int = 4, sigma: float = 0.1,
) -> _Run:
    _check_equivalence_demo(learner, n, trials, sigma)

    def run() -> dict:
        report = equivalence_demo(learner, cross_section, n=n, trials=trials, sigma=sigma, seed=seed)
        return {
            "d": cross_section.dim, "n": n, "group": cross_section.action.group.name, "trials": trials,
            "mc_mean": report.risk_original, "mc_se": report.risk_deviation,
            "closed_form": report.risk_projected, "verdict": report.verdict,
        }
    return run


def _run_covering(
    seed: int, *, eps: float, points_file: Path | None = None, points=None,
    metric: Literal[METRICS] = "euclidean", n: int = 100, dim: int = 2,
) -> _Run:
    if points_file is not None:
        cloud = PointCloud(_load_matrix(points_file), metric=metric)
    elif points is not None:
        cloud = PointCloud(points, metric=metric)
    else:
        for key, size in (("n", n), ("dim", dim)):
            if size < 1:
                raise ValueError(f"{key} is {size}, below 1")
        cloud = PointCloud(stream(seed, "main").standard_normal((n, dim)), metric=metric)
    _check_covering_number(eps)
    return lambda: {
        "d": cloud.points.shape[1], "n": cloud.points.shape[0],
        "mc_mean": float(covering_number(cloud, eps)), "verdict": gates.UNGATED,
    }


def _load_matrix(path: Path) -> np.ndarray:
    try:
        return np.loadtxt(path, ndmin=2)
    except ValueError:
        return np.loadtxt(path, delimiter=",", ndmin=2)


def _run_layer_project(
    seed: int, *, group: FiniteGroup, reps: tuple[Representation, ...],
    weights_files: tuple[Path, ...] | None = None, activation: Literal[tuple(ACTIVATIONS)] = "relu",
    n_samples: int = 1000,
) -> _Run:
    if weights_files is not None:
        weights = tuple(_load_matrix(p) for p in weights_files)
    else:
        rng = stream(seed, "weights")
        weights = tuple(rng.standard_normal((b.dim, a.dim)) for a, b in zip(reps, reps[1:]))
    projected = project_spec(LayerSpec(reps=reps, weights=weights, activation=activation))
    _check_equivariance_report(n_samples)

    def run() -> dict:
        report = equivariance_report(projected, n_samples=n_samples, seed=seed)
        return {
            "d": reps[0].dim, "k": reps[-1].dim, "group": group.name, "trials": report.samples,
            "mc_mean": report.violation, "closed_form": 0.0, "verdict": report.verdict,
        }
    return run


def _run_vc_bound(seed: int, *, group: FiniteGroup, reps: tuple[Representation, ...]) -> _Run:
    _check_vc_bound(reps)
    return lambda: {
        "d": reps[0].dim, "k": reps[-1].dim,
        "group": group.name, "mc_mean": vc_bound(reps), "verdict": gates.UNGATED,
    }


def _run_regularisation_bound(
    seed: int, *, group: FiniteGroup, rep_in: Representation, rep_out: Representation,
    activation: Literal[BOUND_ACTIVATIONS] = "relu", sigma: float = 1.0, samples: int = 10_000,
) -> _Run:
    _check_regularisation_bound(rep_in, rep_out, activation, sigma, samples)

    def run() -> dict:
        W = stream(seed, "weights").standard_normal((rep_out.dim, rep_in.dim))
        out = check_regularisation_bound(W, rep_in, rep_out, activation, sigma, samples, seed)
        return {
            "d": rep_in.dim, "k": rep_out.dim, "group": group.name, "sigma_x": sigma, "trials": samples,
            "mc_mean": out["lhs_mean"], "mc_se": out["lhs_se"],
            "closed_form": out["middle_bound"], "verdict": out["verdict"],
        }
    return run


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
EXPERIMENT_KINDS = tuple(_RUNNERS)
# a seed is one 32-bit word of its stream keys: a wider one can draw another key's stream
_SEED_LIMIT = 1 << 32


def _cast(where: str, value, cast):
    """``cast(value)``, refusing a bool, for an int key a float with a fractional part, and for a
    float key a number that is not finite: JSON has none, but Python's json reads NaN and Infinity."""
    truncated = cast is int and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or truncated:
            raise ValueError  # int() would take either without a word
        value = cast(value)
        if cast is float and not math.isfinite(value):
            raise ValueError
        return value
    except (TypeError, ValueError, OverflowError):  # float() of an int beyond the float range
        message = f"config error: {where} is {value!r}, not a valid {cast.__name__}"
        raise ConfigError(message) from None


def _reject_unknown(where: str, given: dict, accepted) -> None:
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        raise ConfigError(
            f"config error: {where} has unknown key {unknown[0]!r}; accepted: {sorted(accepted)}"
        )


def _choice(where: str, value, choices: tuple):
    if value not in choices:
        raise ConfigError(f"config error: {where} is {value!r}, not one of {choices}")
    return value


def _keyword_params(maker) -> dict:
    """A runner's or a nested object's maker's keyword-only parameters, by name: its config keys."""
    params = inspect.signature(maker, eval_str=True).parameters
    return {name: param for name, param in params.items() if param.kind is param.KEYWORD_ONLY}


def _resolved(key: str, annotation, value, builders: dict):
    """The runner argument for the config ``value`` at ``key``; see _runner_kwargs."""
    if get_origin(annotation) is UnionType:  # T | None
        if value is None:
            return None
        annotation = get_args(annotation)[0]
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Annotated:  # Annotated[dict, maker]
        if not isinstance(value, dict):
            raise ConfigError(f"config error: {key} must be a JSON object")
        accepted = _keyword_params(args[1])
        _reject_unknown(key, value, accepted)
        return {
            name: _resolved(f"{key}.{name}", param.annotation, value[name], builders)
            for name, param in accepted.items() if name in value
        }
    if origin is tuple:  # tuple[T, ...]
        if not isinstance(value, (list, tuple)):
            noun = "file paths" if args[0] is Path else "descriptor strings"
            raise ConfigError(f"config error: {key}: {value!r} is not a list of {noun}")
        return tuple(_resolved(f"{key}[{j}]", args[0], v, builders) for j, v in enumerate(value))
    if origin is Literal:
        return _choice(key, value, args)
    if annotation in (int, float):
        return _cast(key, value, annotation)
    if annotation is Path:
        if not (isinstance(value, str) and Path(value).is_file()):
            raise ConfigError(f"config error: {key}: {value!r} is not an existing file")
        return Path(value)
    if annotation not in builders:
        return value
    if not isinstance(value, str):
        raise ConfigError(f"config error: {key}: {value!r} is not a descriptor string")
    try:
        return builders[annotation](value)
    except ValueError as err:  # the library rejects the descriptor
        raise ConfigError(f"config error: {key}: {err}") from None


def _runner_kwargs(kind: str, params: dict, where: str) -> dict:
    """The runner's keyword arguments for ``params``, checked against its signature.

    A parameter without a default is a required key; absent keys keep their
    defaults.  By annotation, ``int``/``float`` cast, a ``Literal`` lists the
    allowed values, ``Annotated[dict, maker]`` is a nested object whose keys are
    the maker's keyword-only parameters, resolved by these same rules, a ``Path``
    names an existing file, ``tuple[T, ...]`` is a list of T, ``T | None`` also
    takes null, and ``FiniteGroup``, ``CrossSection`` (at ``dim``) and
    ``Representation`` (on ``group``) are built, each distinct descriptor once.
    _validate_config calls this and the prepare step for every experiment before
    any runs; run_experiment calls both again for its own.
    """
    accepted = _keyword_params(_RUNNERS[kind])
    _reject_unknown(f"{where} ({kind})", params, accepted)
    kwargs: dict = {}
    builders = {
        FiniteGroup: build_group,
        CrossSection: lambda name: build_cross_section(name, dim=kwargs.get("dim")),
        Representation: functools.cache(lambda rep: build_representation(kwargs["group"], rep)),
    }
    for name, param in accepted.items():
        key = f"{where}.{name}"
        if name in params:
            kwargs[name] = _resolved(key, param.annotation, params[name], builders)
        elif param.default is param.empty:
            raise ConfigError(f"config error: {key} is missing; {kind} requires it")
    return kwargs


def _experiment_params(exp: dict) -> dict:
    return {key: val for key, val in exp.items() if key not in ("kind", "seed")}


def _config_hash(kind: str, params: dict, seed: int) -> str:
    blob = json.dumps({"kind": kind, "params": params, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_experiment(kind: str, params: dict, seed: int) -> dict:
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")
    run = _RUNNERS[kind](seed, **_runner_kwargs(kind, params, "params"))
    row = {key: "" for key in CSV_COLUMNS}
    row.update(run())
    # the params as written, so that filling in a default never moves a hash
    row.update(experiment=kind, config_hash=_config_hash(kind, params, seed), seed=seed)
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
    try:
        for key in keys[:-1]:
            node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
        node[int(keys[-1]) if isinstance(node, list) else keys[-1]] = value
    except (AttributeError, IndexError, TypeError, ValueError):
        # a list index that is out of range or not an integer, or a key under a scalar
        raise ConfigError(f"config error: override path {path!r} does not fit the config") from None


def _validate_config(config: dict) -> None:
    """Raise ConfigError for the first experiment that cannot run, before any runs: each is resolved
    and prepared, and dropped, since holding it until its run would hold every experiment's."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown("config", config, ("seed", "experiments", "out"))
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
        _choice(f"experiments[{i}].kind", exp["kind"], EXPERIMENT_KINDS)
        # the seed the experiment runs at, as run_config computes it
        seed = exp.get("seed", config["seed"] + i)
        where = f"experiments[{i}].seed" if "seed" in exp else f"seed + {i}"
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"config error: {where} must be an integer")
        if not 0 <= seed < _SEED_LIMIT:
            raise ConfigError(f"config error: {where} is {seed}, outside [0, 2**32)")
        kwargs = _runner_kwargs(exp["kind"], _experiment_params(exp), f"experiments[{i}]")
        try:
            _RUNNERS[exp["kind"]](seed, **kwargs)
        except ValueError as err:
            raise ConfigError(f"config error: experiments[{i}]: {err}") from None


def _write_results(rows: list, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_VERSION, ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "results.json").write_text(json.dumps(rows, indent=2, default=str) + "\n")


def run_config(config: dict, out_dir: Path) -> int:
    _validate_config(config)
    rows = []
    for idx, exp in enumerate(config["experiments"]):
        seed = exp.get("seed", config["seed"] + idx)
        start = time.perf_counter()
        row = run_experiment(exp["kind"], _experiment_params(exp), seed)
        elapsed = time.perf_counter() - start
        rows.append(row)
        print(f"{exp['kind']:<26} verdict={row['verdict']:<4} ({elapsed:.1f}s)")
    _write_results(rows, out_dir)
    all_pass = all(row["verdict"] == gates.PASS for row in rows)
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
            except ValueError as err:  # undecodable text or JSON
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
        print(f"numerical error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:  # validation made each refusal of a config a ConfigError
        print(f"run error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
