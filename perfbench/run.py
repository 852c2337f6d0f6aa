"""symlab benchmark: run one workload through ``symlab.cli.run_config``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each pass is a fresh process (perfbench/worker.py) with the library's
default BLAS threading.  With ``--trace 0`` the command times passes until
S seconds have gone by, at least two, each after two set-up-only
processes, and reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics.  Every pass must give verdict=pass on every experiment and a
results.csv byte-identical to the first pass's; each miss counts as a
failed experiment.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_PER_PASS = 2
MIN_PASSES = 2
BUDGET_S = 170.0  # the whole command must end within 180 s

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so worker readings compare with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, workload: str, seed: int, runs_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.runs_dir = runs_dir
        self.deadline = deadline
        self.launched = 0
        paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def launch(self, mode: str = "") -> dict:
        """Start one worker, wait for it, and return its report."""
        self.launched += 1
        out = self.runs_dir / f"{self.launched:02d}{mode.replace('--', '-')}"
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), str(out)]
        start = monotonic()
        proc = subprocess.run(
            cmd + ([mode] if mode else []), env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=max(self.deadline - start, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        report = json.loads((out / "report.json").read_text())
        report["setup_s"] = report["ready"] - start
        report["out"] = out
        return report


def check_pass(report: dict, reference: list | None) -> tuple[int, int, list]:
    """(attempted, failed, csv lines) of one pass.

    A failed experiment is a verdict other than pass, a raised exception,
    or a results.csv row that differs from the reference pass's row.
    """
    if report["error"] is not None:
        printed = report["printed_verdicts"]
        print(f"  experiment {len(printed) + 1} raised:\n{report['error']}")
        return len(printed) + 1, sum(v != "pass" for v in printed) + 1, []
    lines = (report["out"] / "results.csv").read_text().splitlines()
    head, rows = lines[:2], lines[2:]
    column = head[1].split(",").index("verdict")
    attempted = max(len(rows), report["experiments"])
    failed = attempted - len(rows)
    if reference is not None and len(lines) != len(reference):
        print(f"  results.csv has {len(lines)} lines, the first pass's {len(reference)}")
    for i, row in enumerate(rows):
        verdict = row.split(",")[column]
        differs = reference is not None and (head != reference[:2] or reference[2:][i:i + 1] != [row])
        if verdict != "pass" or differs:
            failed += 1
            print(f"  row {i + 1}: verdict={verdict}" + (", differs from the first pass" if differs else ""))
    return attempted, failed, lines


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()

    if not (ROOT / "src" / "symlab" / "cli.py").is_file():
        print(f"no symlab sources under {ROOT / 'src'}; run from a symlab checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # on SIGTERM, unwind so subprocess.run kills the worker and the finally cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runs_dir = HERE / ".runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, runs_dir, started + BUDGET_S)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    try:
        if args.trace:
            passes = [runner.launch(), runner.launch("--trace")]
        else:
            setups, passes = [], []
            first = monotonic()
            while len(passes) < MIN_PASSES or monotonic() - first < args.seconds:
                # set-up samples spread over the run, not bunched in one slow spell
                setups += [runner.launch("--setup-only") for _ in range(SETUP_ONLY_PER_PASS)]
                passes.append(runner.launch())

        print("machine " + json.dumps(passes[0]["facts"]))
        attempted = failed = 0
        reference = None
        for i, report in enumerate(passes):
            label = "traced" if "layers" in report else "untraced"
            print(f"pass {i + 1} ({label}): run_s {report['run_s']:.4f} s, cpu_s {report['cpu_s']:.4f} s, "
                  f"peak_rss_mb {report['peak_rss_mb']:.1f} MB, setup_s {report['setup_s']:.4f} s")
            a, f, lines = check_pass(report, reference)
            attempted, failed = attempted + a, failed + f
            if lines:
                digest = hashlib.md5(("\n".join(lines) + "\n").encode()).hexdigest()
                print(f"  {a - f}/{a} experiments pass; results.csv md5 {digest}")
                reference = reference or lines
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)

    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} experiments in {len(passes)} passes)")
    if args.trace:
        untraced, traced = passes
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = traced["run_s"] / untraced["run_s"] - 1.0
        wanted = spec["per_layer"]
    else:
        setup_samples = [r["setup_s"] for r in setups + passes]
        values = {
            "run_s": statistics.median(r["run_s"] for r in passes),
            "cpu_s": statistics.median(r["cpu_s"] for r in passes),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "setup_s": statistics.median(setup_samples),
        }
        counts = {"setup_s": len(setup_samples)}
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        source = "traced pass" if args.trace else f"median of {counts.get(name, len(passes))}"
        print(f"{name:<44} {values[name]:.6g} {unit} ({source})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
