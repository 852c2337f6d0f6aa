"""The gate table: every verdict comes from symlab.gates, each gate reads as the check it
replaced, and a NaN fails every gate."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from symlab import cli, gates
from symlab.orbits import build_cross_section, equivalence_demo

NAN = float("nan")
EPS64 = 64 * np.finfo(np.float64).eps

# one small experiment of every kind, orbit-equivalence once per kind of learner, with the
# gates its verdict reads; covering and vc-bound are ungated
READS = [
    ({"kind": "gap-linear", "group": "symmetric 2", "rep": "direct_sum trivial 3 + sign",
      "n": 10, "trials": 20}, {"closed_form"}),
    ({"kind": "gap-equivariant", "group": "symmetric 3", "rep_in": "natural_permutation",
      "rep_out": "natural_permutation", "n": 12, "trials": 20}, {"closed_form"}),
    ({"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation",
      "kernel": {"type": "linear"}, "mu": {"kind": "gaussian"}, "n": 4, "rho": 1.0,
      "trials": 4, "n_test": 4, "n_pairs": 1000, "bias_trials": 4}, {"lower_bound"}),
    ({"kind": "verify-wishart", "n": 12, "d": 3, "trials": 1000}, {"closed_form"}),
    ({"kind": "verify-projection-tensor", "n": 3, "d": 4, "trials": 20},
     {"closed_form", "contraction_fit"}),
    ({"kind": "verify-operators", "group": "symmetric 3", "rep": "natural_permutation",
      "n_samples": 20}, {"identity", "orthogonality"}),
    ({"kind": "orbit-equivalence", "cross_section": "abs_first_coordinate", "dim": 3,
      "learner": "invariant_least_squares", "n": 16, "trials": 2}, {"identity"}),
    ({"kind": "orbit-equivalence", "cross_section": "sort_descending", "dim": 3,
      "learner": "raw_least_squares", "n": 32, "trials": 2}, {"metamorphic"}),
    ({"kind": "covering", "n": 20, "dim": 3, "eps": 0.5}, set()),
    ({"kind": "layer-project", "group": "symmetric 3", "reps": ["natural_permutation"] * 3,
      "n_samples": 20}, {"equivariance"}),
    ({"kind": "vc-bound", "group": "cyclic 2", "reps": ["trivial 1"] * 2}, set()),
    ({"kind": "regularisation-bound", "group": "symmetric 3", "rep_in": "natural_permutation",
      "rep_out": "natural_permutation", "samples": 20}, {"upper_bound", "bound_order"}),
]


def _failing_rows() -> set:
    rows = (
        cli.run_experiment(exp["kind"], {k: v for k, v in exp.items() if k != "kind"}, 2)
        for exp, _ in READS
    )
    return {i for i, row in enumerate(rows) if row["verdict"] != gates.PASS}


def test_pass_and_fail_are_written_only_in_gates():
    package = Path(gates.__file__).parent
    writers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value in ("pass", "fail")
    }
    assert writers == {"gates.py"}


def test_each_gate_fails_exactly_the_experiments_that_read_it(monkeypatch):
    assert {exp["kind"] for exp, _ in READS} == set(cli.EXPERIMENT_KINDS)
    assert set().union(*(reads for _, reads in READS)) == set(gates.GATES)
    assert _failing_rows() == set()
    for name in gates.GATES:
        with monkeypatch.context() as m:
            m.setitem(gates.GATES, name, lambda *operands: False)
            assert _failing_rows() == {i for i, (_, reads) in enumerate(READS) if name in reads}, name


@pytest.mark.parametrize("name", sorted(gates.GATES))
def test_a_nan_operand_fails_every_gate(name):
    # (estimate, reference, se, scale) that pass; each in turn set to NaN must fail
    passing = (2.0 if gates.GATES[name].compare == "above" else 1.0, 1.0, 1.0, 1.0)
    assert gates.holds(name, *passing)
    for i in range(len(passing)):
        operands = list(passing)
        operands[i] = NAN
        assert not gates.holds(name, *operands), operands
    # an array estimate, as the Wishart check passes, fails on one NaN entry
    operands = [np.full(2, value) for value in passing]
    assert gates.holds(name, *operands)
    operands[0][1] = NAN
    assert not gates.holds(name, *operands)


# each gate as its sites wrote it before the table, and which operands they pass
REFERENCES = {
    "closed_form": (lambda e, r, se, sc: abs(e - r) <= 4 * se + EPS64 * sc, True, True, True),
    "orthogonality": (lambda e, r, se, sc: abs(e) <= 3.0 * max(se, 1e-15), False, True, False),
    "lower_bound": (lambda e, r, se, sc: e + 4.0 * se >= r, True, True, False),
    "upper_bound": (lambda e, r, se, sc: e <= r + 4.0 * se + EPS64 * sc, True, True, True),
    "identity": (lambda e, r, se, sc: e <= 1e-9, False, False, False),
    "equivariance": (lambda e, r, se, sc: e <= 1e-8, False, False, False),
    "bound_order": (lambda e, r, se, sc: e <= r + 1e-12, True, False, False),
    "contraction_fit": (
        lambda e, r, se, sc: np.allclose(e, r, rtol=1e-6, atol=1e-12), True, False, False,
    ),
    "metamorphic": (lambda e, r, se, sc: e > 1e-9, False, False, False),
}
# values on both sides of every k, floor and tolerance, with exact ties among them
VALUES = (0.0, 1e-16, 1e-15, 1e-12, 1e-9 - 1e-18, 1e-9, 1e-9 + 1e-18, 1e-8, 0.25, 1.0,
          1.0 + 1e-12, 1.0 + 1e-6, 3.0, 4.0, 5.0, 7.0)


def test_each_gate_decides_as_the_check_it_replaced():
    assert set(REFERENCES) == set(gates.GATES)
    for name, (reference, with_ref, with_se, with_scale) in REFERENCES.items():
        for e, r, se, sc in itertools.product(
            VALUES, VALUES if with_ref else (0.0,), VALUES if with_se else (0.0,),
            (0.0, 1.0, 25.0) if with_scale else (0.0,),
        ):
            assert gates.holds(name, e, r, se, sc) == bool(reference(e, r, se, sc)), (name, e, r, se, sc)


def test_an_invariant_learner_with_nan_noise_fails():
    # builtin max(0.0, nan) kept the risk deviation at 0.0, and the verdict passed
    cs = build_cross_section("abs_first_coordinate", dim=3)
    report = equivalence_demo("invariant_least_squares", cs, n=16, trials=2, sigma=NAN, seed=1)
    assert math.isnan(report.risk_deviation)
    assert report.verdict == "fail"
