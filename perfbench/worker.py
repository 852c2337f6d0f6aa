"""One pass of one workload in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR [--trace | --setup-only]

The parent reads the monotonic clock just before it starts this process;
``ready`` is read after ``import symlab.cli`` and config generation, so
set-up time is ``ready`` minus the parent's reading.  A pass hands the
config to ``symlab.cli.run_config`` and writes ``report.json`` to OUT_DIR
next to the results.csv and results.json that run_config writes there.
"""

import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import sys
import time
import traceback
from pathlib import Path


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts[f"{module.__name__}_blas"] = f"{blas['name']} {blas['version']}"
        # thread count of the module's bundled OpenBLAS as configured here
        facts[f"{module.__name__}_blas_threads"] = None
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    facts[f"{module.__name__}_blas_threads"] = int(getattr(handle, symbol)())
                    break
    return facts


def run_pass(run_config, config: dict, out_dir: Path, trace: bool) -> dict:
    if trace:
        import probes
        from tracer import Tracer

        tracer = Tracer()
        patches = probes.install(tracer)
    log = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log):
            run_config(config, out_dir)
    except Exception:  # an experiment that raises counts as failed
        error = traceback.format_exc()
    run_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "run_s": run_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "experiments": len(config["experiments"]),
        "printed_verdicts": re.findall(r"verdict=(\S+)", log.getvalue()),
        "error": error,
        "facts": machine_facts(),
    }
    if trace:
        patches.restore()
        report["layers"] = probes.layer_metrics(tracer)
    return report


def main(argv: list) -> None:
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    mode = argv[3] if len(argv) > 3 else ""
    from symlab.cli import run_config
    from workloads import WORKLOADS

    config = WORKLOADS[workload](seed)
    report = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode != "--setup-only":
        report.update(run_pass(run_config, config, out_dir, trace=mode == "--trace"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
