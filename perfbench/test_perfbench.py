"""Tests of the benchmark's own machinery: self time, wrapping, counters."""

from __future__ import annotations

from pathlib import Path

import probes
from tracer import Tracer, covered
from symlab import cli, kernel_gap

SMALL_CONFIG = {
    "seed": 3,
    "experiments": [
        {"kind": "gap-linear", "group": "symmetric 2",
         "rep": "direct_sum trivial 3 + sign", "n": 10, "trials": 2000},
        {"kind": "verify-wishart", "n": 20, "d": 3, "trials": 2000},
        {"kind": "gap-kernel", "group": "cyclic 4", "rep": "natural_permutation",
         "kernel": {"type": "gaussian", "bandwidth": 2.0}, "mu": {"kind": "sphere"},
         "n": 16, "n_test": 32, "rho": 1.0, "sigma": 1.0, "trials": 20,
         "bias_trials": 5, "n_pairs": 1000},
        {"kind": "covering", "n": 50, "dim": 2, "eps": 0.5},
        {"kind": "vc-bound", "group": "symmetric 3", "reps": ["natural_permutation"] * 3},
    ],
}


def test_covered_is_the_union_of_clipped_intervals():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0
    assert covered(0.0, 10.0, [(2.0, 3.0), (3.0, 5.0)]) == 3.0
    assert covered(0.0, 10.0, [(5.0, 6.0), (1.0, 3.0), (0.0, 2.0)]) == 4.0
    assert covered(5.0, 6.0, []) == 0.0


def test_self_time_subtracts_nested_and_back_to_back_children():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 3.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")          # 0
    first = tracer.begin("child")          # 1
    inner = tracer.begin("grandchild")     # 2
    tracer.end(inner)                      # 2.5
    tracer.end(first)                      # 3
    second = tracer.begin("child")         # 3, back to back with the first
    tracer.end(second)                     # 6
    tracer.end(outer)                      # 10
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert summary["child"] == {"calls": 2, "total_s": 5.0, "self_s": 4.5}
    assert summary["grandchild"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}


def test_wrap_returns_the_same_object_and_records_a_span():
    tracer = Tracer()
    result = object()
    seen = []
    wrapped = tracer.wrap(lambda x, y=0: result, "f", after=lambda *a: seen.append(a[0]))
    assert wrapped(1, y=2) is result
    assert seen == [(1,)]
    assert tracer.summary()["f"]["calls"] == 1


def _traced_run(out: Path) -> tuple[bytes, dict]:
    tracer = Tracer()
    patches = probes.install(tracer)
    try:
        assert cli.run_config(SMALL_CONFIG, out) == 0
    finally:
        patches.restore()
    return (out / "results.csv").read_bytes(), probes.layer_metrics(tracer)


def test_probes_leave_results_untouched_and_counts_repeat(tmp_path, capsys):
    originals = {name: getattr(cli, name) for name in ("run_experiment", "build_group", "linear_kernel")}
    gram_bar = kernel_gap.AveragedKernel.gram_bar
    assert cli.run_config(SMALL_CONFIG, tmp_path / "plain") == 0
    plain = (tmp_path / "plain" / "results.csv").read_bytes()
    first_csv, first = _traced_run(tmp_path / "first")
    second_csv, second = _traced_run(tmp_path / "second")
    assert first_csv == plain == second_csv
    assert {name: getattr(cli, name) for name in originals} == originals
    assert kernel_gap.AveragedKernel.gram_bar is gram_bar

    counts = [name for name in first if not name.endswith("_s") and not name.endswith(".s")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["cli.run_experiment.calls"] == len(SMALL_CONFIG["experiments"])
    assert first["linear_gap.trials"] == 4000
    assert first["kernel_gap.fit_krr.calls"] == 25
    assert first["kernel_gap.cholesky_attempts_per_fit"] == 1.0
    assert first["kernel_gap.kernel_evals"] > 0
    assert first["kernel_gap.self_s"] > 0
    assert set(first) >= {f"cli.kind.{kind}.s" for kind in cli.EXPERIMENT_KINDS}

