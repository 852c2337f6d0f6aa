"""The benchmark's workloads, each a symlab JSON config built from a seed.

Every workload is closed loop: one caller hands one config to
``symlab.cli.run_config``, which runs its experiments in sequence, each
starting when the one before it finishes.  The seed is the config's
top-level ``seed``; the CLI derives every experiment's stream from it.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import math


def suite_quick(seed: int) -> dict:
    """The exact 35-experiment ``suite quick`` grid, at ``seed``."""
    # imported here: run.py loads this module before it checks that src/ exists
    from symlab.cli import suite_config

    config = suite_config("quick")
    config["seed"] = seed
    return config


def linear_mc(seed: int) -> dict:
    """Only linear-gap Monte Carlo, at ``suite full`` trial counts."""
    experiments = [
        {"kind": "gap-linear", "group": "symmetric 2",
         "rep": "direct_sum trivial 3 + sign", "n": 10, "trials": 100_000},
        # d = 12 > n + 1: the overparameterised closed form
        {"kind": "gap-linear", "group": "cyclic 12",
         "rep": "natural_permutation", "n": 6, "trials": 100_000},
        {"kind": "gap-equivariant", "group": "symmetric 3",
         "rep_in": "natural_permutation", "rep_out": "natural_permutation",
         "n": 12, "trials": 100_000},
        {"kind": "gap-equivariant", "group": "dihedral 4",
         "rep_in": "natural_permutation", "rep_out": "natural_permutation",
         "n": 2, "trials": 100_000},
        {"kind": "verify-wishart", "n": 20, "d": 3, "trials": 200_000},
        {"kind": "verify-wishart", "n": 2, "d": 6, "trials": 200_000},
        {"kind": "verify-projection-tensor", "n": 2, "d": 5, "trials": 200_000},
    ]
    return {"seed": seed, "experiments": experiments}


def large_group(seed: int) -> dict:
    """Large groups, a product group and an (n, n, d) covering array."""
    experiments = [
        # every experiment builds its own group: S7 is built twice
        {"kind": "vc-bound", "group": "symmetric 7",
         "reps": ["natural_permutation"] * 3},
        {"kind": "gap-linear", "group": "symmetric 7",
         "rep": "natural_permutation", "n": 16, "trials": 20_000},
        {"kind": "gap-equivariant", "group": "dihedral 6 * cyclic 5",
         "rep_in": "natural_permutation", "rep_out": "natural_permutation",
         "n": 16, "trials": 20_000},
        # not S7: the Q-idempotence check is O(|G|^2) predictor calls
        {"kind": "verify-operators", "group": "symmetric 5",
         "rep": "natural_permutation", "n_samples": 100_000},
        {"kind": "layer-project", "group": "symmetric 5",
         "reps": ["natural_permutation"] * 4, "activation": "relu"},
        {"kind": "regularisation-bound", "group": "symmetric 5",
         "rep_in": "natural_permutation", "rep_out": "natural_permutation",
         "samples": 10_000},
        {"kind": "gap-kernel", "group": "symmetric 4", "rep": "natural_permutation",
         "kernel": {"type": "gaussian", "bandwidth": math.sqrt(4)},
         "mu": {"kind": "gaussian"}, "n": 64, "n_test": 256,
         "rho": 1.0, "sigma": 1.0, "trials": 200, "bias_trials": 50},
        {"kind": "covering", "n": 3000, "dim": 3, "eps": 0.5},
    ]
    return {"seed": seed, "experiments": experiments}


WORKLOADS = {
    "suite-quick": suite_quick,
    "linear-mc": linear_mc,
    "large-group": large_group,
}
