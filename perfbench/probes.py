"""Spans and counters around the public functions of each symlab module.

``install`` wraps the calls into every layer from outside the package;
``layer_metrics`` turns what a traced pass recorded into the per-layer
metrics that BENCHMARK.json names.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import dataclasses

from symlab import averaging, cli, groups, kernel_gap, layers, linear_gap, orbits, sampling
from tracer import Patches, Tracer

MODULES = {
    module.__name__.split(".")[-1]: module
    for module in (groups, sampling, averaging, linear_gap, kernel_gap, orbits, layers, cli)
}

# (module, owner within the module or None, function) traced as spans
SPANS = (
    ("groups", None, "build_group"),
    ("groups", None, "build_representation"),
    ("sampling", "Distribution", "sample"),
    ("averaging", None, "build_phi"),
    ("averaging", None, "build_psi"),
    ("averaging", "DecomposedPredictor", "symmetric_part"),
    ("averaging", None, "verify_operator_identities"),
    ("linear_gap", None, "monte_carlo_gap"),
    ("linear_gap", None, "verify_wishart"),
    ("linear_gap", None, "verify_projection_tensor"),
    ("kernel_gap", None, "krr_gap_experiment"),
    ("kernel_gap", "AveragedKernel", "gram_bar"),
    ("kernel_gap", "KrrModel", "predict"),
    ("kernel_gap", "KrrModel", "predict_averaged"),
    ("kernel_gap", None, "fit_krr"),
    ("kernel_gap", None, "build_averaged_kernel"),
    ("kernel_gap", None, "estimate_N"),
    ("kernel_gap", None, "estimate_bias_term"),
    ("orbits", None, "covering_number"),
    ("orbits", None, "equivalence_demo"),
    ("layers", None, "project_spec"),
    ("layers", None, "equivariance_report"),
    ("layers", None, "check_regularisation_bound"),
    ("layers", None, "vc_bound"),
    ("cli", None, "run_experiment"),
    ("cli", None, "_write_results"),
)


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.lstrip('_')}"


def install(tracer: Tracer) -> Patches:
    """Wrap every probe; the caller restores the originals when done."""
    patches = Patches(MODULES.values())
    count = tracer.counters

    def after_sample(args, result, seconds):
        count["sampling.sample.rows"] += int(args[1])

    def after_linear(args, result, seconds):
        meta = getattr(result, "metadata", None)
        count["linear_gap.trials"] += meta["trials"] if meta else result.trials
        if meta:
            count["linear_gap.failed_trials"] += meta["failed_trials"]

    def after_experiment(args, result, seconds):
        count[f"cli.kind.{args[0]}.s"] += seconds

    after = {
        "sampling.sample": after_sample,
        "linear_gap.monte_carlo_gap": after_linear,
        "linear_gap.verify_wishart": after_linear,
        "linear_gap.verify_projection_tensor": after_linear,
        "cli.run_experiment": after_experiment,
    }
    for module, owner, attr in SPANS:
        name = _span_name(module, attr)
        target = getattr(MODULES[module], owner) if owner else MODULES[module]
        patches.replace(
            target, attr,
            lambda fn, name=name: tracer.wrap(fn, name, after.get(name)),
        )

    # base-kernel Gram entries: sum of rows(A) * rows(B) over gram calls
    def counted_gram(gram):
        def gram_counted(A, B):
            count["kernel_gap.kernel_evals"] += len(A) * len(B)
            return gram(A, B)
        return gram_counted

    def counting_factory(factory):
        def make_kernel(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return dataclasses.replace(spec, gram=counted_gram(spec.gram))
        return make_kernel

    for factory in ("linear_kernel", "gaussian_kernel"):
        patches.replace(kernel_gap, factory, counting_factory)

    def counting_cho_factor(cho_factor):
        def cho_factor_counted(*args, **kwargs):
            count["kernel_gap.cho_factor.calls"] += 1
            return cho_factor(*args, **kwargs)
        return cho_factor_counted

    patches.replace(kernel_gap, "cho_factor", counting_cho_factor)
    return patches


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer value a traced pass yields, keyed by metric name.

    Spans and kinds that the workload never reached read 0.
    """
    summary = tracer.summary()
    out: dict = {}
    for module, _, attr in SPANS:
        name = _span_name(module, attr)
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            (entry["self_s"] for name, entry in summary.items() if name.startswith(module + ".")), 0.0
        )
    for kind in cli.EXPERIMENT_KINDS:
        out[f"cli.kind.{kind}.s"] = float(tracer.counters[f"cli.kind.{kind}.s"])
    for name in (
        "sampling.sample.rows", "linear_gap.trials", "linear_gap.failed_trials",
        "kernel_gap.kernel_evals", "kernel_gap.cho_factor.calls",
    ):
        out[name] = int(tracer.counters[name])
    fits = out["kernel_gap.fit_krr.calls"]
    out["kernel_gap.cholesky_attempts_per_fit"] = (
        out["kernel_gap.cho_factor.calls"] / fits if fits else 0.0
    )
    return out
