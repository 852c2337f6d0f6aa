#!/usr/bin/env bash
# The body of each step of .github/workflows/tier1.yml, runnable offline.
#
#   ci/checks.sh NAME   run one check; ci/checks.sh all runs every check in the
#                       workflow's order
#
# SYMLAB is the symlab command: `symlab` where the package is installed, and by
# default `python3 -m symlab.cli`.  src/ goes first on PYTHONPATH either way.  The
# checks run from the root of the checkout and write every output under ci/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
read -ra symlab <<< "${SYMLAB:-python3 -m symlab.cli}"
out=ci/out
mkdir -p "$out"

CHECKS=(
    tier1 suite-twice suite-vmem suite-seed7 s7-operators overcap prepare nan-weights
    nonfinite overflow large-group-seed7 traced-large-group traced-suite-quick linear-mc-seed7
    traced-linear-mc
)

# `symlab run CONFIG --out ci/out/NAME` must exit 2 and print no verdict
exits_2_before_any_verdict() {
    local code=0
    "${symlab[@]}" run "$1" --out "$out/$2" > "$out/$2-out.txt" || code=$?
    test "$code" -eq 2
    if grep -q "verdict=" "$out/$2-out.txt"; then
        echo "$2: a verdict was printed before exit 2" >&2
        return 1
    fi
}

# one benchmark pass of WORKLOAD at SEED, traced or not, must read correct: true
benchmark_correct() {
    python3 perfbench/run.py --workload "$1" --seed "$2" --seconds 1 --trace "$3" | tee "$out/$4"
    tail -n 1 "$out/$4" | python3 -c 'import json, sys; sys.exit(not json.load(sys.stdin)["correct"])'
}

# results.csv md5s depend on the BLAS build, so none are pinned here.  A NaN, overflow
# or zero-dof RuntimeWarning in the library fails the run; the log names the ten
# slowest tests, since Tier-1 wall time is tracked.
check_tier1() {
    python3 -m pytest -q --continue-on-collection-errors -W error::RuntimeWarning --durations=10
}

# every verdict of the full quick grid must pass, and a rerun must write the same
# bytes, also with single-threaded BLAS and on one core, where the KRR trial loop's
# two workers share it; a RuntimeWarning is an error here too
check_suite-twice() {
    export PYTHONWARNINGS=error::RuntimeWarning
    "${symlab[@]}" suite quick --out "$out/suite-a"
    "${symlab[@]}" suite quick --out "$out/suite-b"
    cmp "$out/suite-a/results.csv" "$out/suite-b/results.csv"
    OPENBLAS_NUM_THREADS=1 "${symlab[@]}" suite quick --out "$out/suite-c"
    cmp "$out/suite-a/results.csv" "$out/suite-c/results.csv"
    taskset -c 0 "${symlab[@]}" suite quick --out "$out/suite-d"
    cmp "$out/suite-a/results.csv" "$out/suite-d/results.csv"
}

# every memory-blocked loop runs in blocks of sampling.BLOCK_ENTRIES entries: a suite
# run's peak address space (VmPeak) read about 330 MB on a 2-core host, so under a
# 1 GB limit it must still write the same bytes as suite-twice's first run
check_suite-vmem() {
    export PYTHONWARNINGS=error::RuntimeWarning
    [ -f "$out/suite-a/results.csv" ] || "${symlab[@]}" suite quick --out "$out/suite-a"
    (ulimit -v 1000000; "${symlab[@]}" suite quick --out "$out/suite-vmem")
    cmp "$out/suite-a/results.csv" "$out/suite-vmem/results.csv"
}

# the gap-kernel streams are drawn afresh in symlab-csv v2: every verdict of the quick
# grid must also pass at a second seed, not only at the default one; symlab-csv v6
# redraws only orbit-equivalence, layer-project and regularisation-bound, whose
# verdicts do not depend on chance
check_suite-seed7() {
    export PYTHONWARNINGS=error::RuntimeWarning
    python3 -c 'import sys; from pathlib import Path; from symlab.cli import run_config, suite_config; c = suite_config("quick"); c["seed"] = 7; sys.exit(run_config(c, Path(sys.argv[1])))' "$out/suite-seed7"
}

# the Q o Q check scales with the generators, so verify-operators runs on the
# largest group the library builds
check_s7-operators() {
    timeout 120 "${symlab[@]}" run ci/s7.json --out "$out/s7"
}

# a representation past MAX_REP_ENTRIES is refused before it is allocated: under a
# 2 GB address-space limit the 26.8 GiB np.eye would otherwise fail with a traceback
check_overcap() {
    local code=0
    (ulimit -v 2000000; "${symlab[@]}" run ci/overcap.json --out "$out/overcap") || code=$?
    test "$code" -eq 2
}

# each experiment is prepared before any runs, and the library's own checks refuse its
# inputs then: gap-kernel's n_test 0 used to print vc-bound's verdict, then a traceback
check_prepare() {
    exits_2_before_any_verdict ci/prepare.json prepare
}

# a NaN layer weight used to project to NaN and pass as a zero equivariance violation:
# LayerSpec refuses a weight that is not finite when the experiment is prepared
check_nan-weights() {
    exits_2_before_any_verdict ci/nan-weights.json nan-weights
}

# Python's json reads NaN, and a NaN orbit-equivalence sigma used to run to verdict=pass:
# a float key that is not finite is refused when the config is read
check_nonfinite() {
    exits_2_before_any_verdict ci/nonfinite.json nonfinite
}

# a float key whose square overflows, or underflows to 0, used to end in a traceback: a
# Gaussian bandwidth's or a sphere radius's while the config was checked, rho's only after
# every trial had run, a tiny bandwidth's as a NaN Gram, and regularisation-bound's sigma
# after vc-bound's verdict; each is refused where it is squared, so the config exits 2
# before any verdict, with a RuntimeWarning an error too
check_overflow() {
    export PYTHONWARNINGS=error::RuntimeWarning
    local name
    for name in overflow-bandwidth overflow-bandwidth-tiny overflow-radius overflow-rho overflow-sigma; do
        exits_2_before_any_verdict "ci/$name.json" "$name"
    done
}

# symlab-csv v3 moved the S7, product-group and S4 kernel bytes: every verdict of
# large-group must also pass at a second seed, not only at the default one
check_large-group-seed7() {
    benchmark_correct large-group 7 0 large-group-seed7.txt
}

# the probes wrap the builders, run_experiment, fit_krr (called with the chunk's
# stacked Gram as a keyword) and every kernel's gram by name: a traced pass must still
# run every experiment, its S4 Gaussian kernel gap included, and pass the benchmark's
# correctness gate
check_traced-large-group() {
    benchmark_correct large-group 20240 1 trace.txt
}

# the probes patch kernel_gap.cho_factor and wrap every gram: a traced suite-quick pass
# must still write the untraced pass's bytes
check_traced-suite-quick() {
    benchmark_correct suite-quick 20240 1 trace-quick.txt
}

# symlab-csv v4 solves linear-mc's least squares through the Gram inverse, with pinv
# only for the trials its condition gate refuses: every verdict must also pass at a
# second seed, not only at the default one
check_linear-mc-seed7() {
    benchmark_correct linear-mc 7 0 linear-mc-seed7.txt
}

# the probes wrap monte_carlo_gap, verify_wishart and verify_projection_tensor and read
# their reports: a traced linear-mc pass must still run every experiment and pass the
# benchmark's correctness gate
check_traced-linear-mc() {
    benchmark_correct linear-mc 20240 1 trace-linear.txt
}

case "${1:-}" in
    all)
        for name in "${CHECKS[@]}"; do
            echo "== $name"
            (check_"$name")
        done
        ;;
    *)
        if [[ " ${CHECKS[*]} " != *" ${1:-} "* ]]; then
            echo "usage: ci/checks.sh all|NAME, NAME one of: ${CHECKS[*]}" >&2
            exit 2
        fi
        check_"$1"
        ;;
esac
