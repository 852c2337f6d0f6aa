"""Harness behaviour: config validation, determinism, exit codes, output files."""

import functools
import gc
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

from symlab import averaging, cli, linear_gap, sampling


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


FAST_CONFIG = {
    "seed": 11,
    "experiments": [
        {"kind": "verify-wishart", "n": 12, "d": 3, "trials": 2000},
        {"kind": "vc-bound", "group": "symmetric 3",
         "reps": ["natural_permutation", "natural_permutation",
                  "natural_permutation", "natural_permutation"]},
        {"kind": "covering", "n": 50, "dim": 2, "eps": 0.5},
    ],
}


def test_run_writes_versioned_csv_and_json(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", FAST_CONFIG)
    code = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    csv_text = (tmp_path / "out" / "results.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "# symlab-csv v7"
    assert lines[1].split(",") == list(cli.CSV_COLUMNS)
    assert len(lines) == 2 + len(FAST_CONFIG["experiments"])
    rows = json.loads((tmp_path / "out" / "results.json").read_text())
    assert len(rows) == 3
    assert all(r["verdict"] == "pass" for r in rows)


def test_same_seed_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", FAST_CONFIG)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() == \
        (tmp_path / "b" / "results.csv").read_bytes()


def test_rows_carry_hash_and_seed(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", FAST_CONFIG)
    cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    rows = json.loads((tmp_path / "out" / "results.json").read_text())
    for i, row in enumerate(rows):
        assert len(row["config_hash"]) == 12
        assert int(row["config_hash"], 16) >= 0
        assert row["seed"] == FAST_CONFIG["seed"] + i
    # distinct experiments hash differently
    assert len({r["config_hash"] for r in rows}) == 3


def test_missing_seed_exits_2_naming_field(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", {"experiments": [{"kind": "covering", "eps": 1.0}]})
    assert cli.main(["run", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_kind_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"seed": 1, "experiments": [{"kind": "warp-drive"}]},
    )
    assert cli.main(["run", cfg]) == 2
    assert "warp-drive" in capsys.readouterr().err


def test_misspelt_key_exits_2_before_any_experiment_runs(tmp_path, capsys):
    # "trails" used to be dropped, so the run silently used the default 20000 trials
    payload = {"seed": 1, "experiments": [
        {"kind": "covering", "n": 30, "dim": 2, "eps": 0.5},
        {"kind": "verify-wishart", "n": 12, "d": 3, "trails": 5},
    ]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "experiments[1]" in captured.err and "'trails'" in captured.err
    assert "verdict" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exp,key", [
    ({"kind": "verify-wishart", "n": 12, "d": 3, "trials": 999}, "trials"),
    ({"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation",
      "n": 8, "rho": 1.0, "trials": 2, "n_pairs": 999}, "n_pairs"),
])
def test_below_minimum_exits_2_before_any_experiment_runs(tmp_path, capsys, exp, key):
    # each used to be refused by the library only when its experiment ran, after covering
    payload = {"seed": 1, "experiments": [{"kind": "covering", "n": 30, "dim": 2, "eps": 0.5}, exp]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert f"experiments[1]: {key} is 999, below 1000" in captured.err
    assert "verdict" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exp,message", [
    ({"kind": "verify-wishart", "n": 3, "d": 3}, "n = 3 lies in the divergent band [d-1, d+1] = [2, 4]"),
    ({"kind": "gap-linear", "group": "symmetric 3", "rep": "natural_permutation", "n": 3},
     "n = 3 lies in the divergent band [d-1, d+1] = [2, 4]"),
    ({"kind": "gap-equivariant", "group": "symmetric 3", "rep_in": "natural_permutation",
      "rep_out": "natural_permutation", "n": 4}, "n = 4 lies in the divergent band"),
    ({"kind": "gap-linear", "group": "cyclic 4", "rep": "rotation_block 1", "n": 10},
     "does not contain the all-ones direction"),
    ({"kind": "gap-kernel", "group": "cyclic 4", "rep": "rotation_block 1", "n": 8, "rho": 1.0},
     "does not contain the all-ones direction"),
    # <chi_sign, chi_natural> = 0 on S3: random_equivariant_target used to find the map vanish
    ({"kind": "gap-equivariant", "group": "symmetric 3", "rep_in": "natural_permutation",
      "rep_out": "sign", "n": 12}, "no equivariant map between them"),
    ({"kind": "gap-linear", "group": "cyclic 4", "rep": "natural_permutation", "n": 10,
      "theta": [1, 1, 1]}, "theta has shape (3,), expected (4,) or (4, 1)"),
    ({"kind": "gap-linear", "group": "cyclic 4", "rep": "natural_permutation", "n": 10,
      "theta": [1, 0, 0, 0]}, "theta is not invariant"),
    ({"kind": "gap-kernel", "group": "cyclic 4", "rep": "natural_permutation", "n": 8, "rho": 1.0,
      "theta": [[1, 1, 1, 1]]}, "theta has shape (1, 4), expected (4,) or (4, 1)"),
    ({"kind": "gap-kernel", "group": "cyclic 4", "rep": "natural_permutation", "n": 8, "rho": 1.0,
      "theta": [1, 2, 1, 2]}, "theta is not invariant"),
    ({"kind": "gap-kernel", "group": "cyclic 4", "rep": "natural_permutation", "n": 8, "rho": 1.0,
      "theta": {"a": 1}}, "not a list of numbers"),
    # the limits below live in the library, which the prepare step of each kind calls
    ({"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation", "n": 8, "rho": 1.0,
      "n_test": 0}, "n_test is 0, below 1"),
    ({"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation", "n": 8, "rho": 1.0,
      "bias_trials": 0}, "bias_trials is 0, below 1"),
    ({"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation", "n": 8, "rho": 0},
     "need rho > 0 and sigma >= 0"),
    ({"kind": "gap-linear", "group": "symmetric 3", "rep": "natural_permutation", "n": 10,
      "trials": 0}, "n and trials must be >= 1"),
    ({"kind": "gap-equivariant", "group": "symmetric 3", "rep_in": "natural_permutation",
      "rep_out": "natural_permutation", "n": 12, "sigma_x": 0}, "sigma_x must be > 0"),
    ({"kind": "covering", "eps": 0}, "eps must be > 0"),
    ({"kind": "covering", "eps": 0.5, "n": -1}, "n is -1, below 1"),
    ({"kind": "covering", "eps": 0.5, "points": []}, "points must be a non-empty finite (n, d) array"),
    ({"kind": "orbit-equivalence", "cross_section": "abs_first_coordinate", "dim": 2,
      "learner": "invariant_least_squares", "n": 8}, "need n >= 16"),
    ({"kind": "layer-project", "group": "symmetric 3", "reps": ["natural_permutation"]},
     "need L >= 1 weight matrices and L+1 representations"),
    ({"kind": "layer-project", "group": "symmetric 3", "reps": ["natural_permutation"] * 2,
      "n_samples": 0}, "n_samples must be >= 1, got 0"),
    ({"kind": "regularisation-bound", "group": "symmetric 3", "rep_in": "natural_permutation",
      "rep_out": "natural_permutation", "samples": 0}, "samples must be >= 1, got 0"),
    ({"kind": "regularisation-bound", "group": "symmetric 3", "rep_in": "natural_permutation",
      "rep_out": "sign"}, "relu requires a permutation-type output representation"),
    ({"kind": "verify-projection-tensor", "n": 3, "d": 3}, "needs 0 < n < d"),
    ({"kind": "verify-operators", "group": "symmetric 3", "rep": "natural_permutation",
      "n_samples": 0}, "n_samples must be >= 1, got 0"),
    ({"kind": "verify-operators", "group": "cyclic 2", "rep": "trivial 40", "rep_out": "trivial 40"},
     "dense intertwiner storage cap exceeded: d*k = 1600 > 1000"),
], ids=["wishart-band", "gap-linear-band", "gap-equivariant-band", "gap-linear-theta",
        "gap-kernel-theta", "gap-equivariant-no-map", "gap-linear-theta-shape",
        "gap-linear-theta-not-invariant", "gap-kernel-theta-shape", "gap-kernel-theta-not-invariant",
        "gap-kernel-theta-not-numbers", "gap-kernel-n_test", "gap-kernel-bias_trials", "gap-kernel-rho",
        "gap-linear-trials", "gap-equivariant-sigma_x", "covering-eps", "covering-n",
        "covering-no-points", "orbit-equivalence-n", "layer-project-one-rep", "layer-project-n_samples",
        "regularisation-bound-samples", "regularisation-bound-sign", "projection-tensor-n-is-d",
        "verify-operators-n_samples", "verify-operators-tensor-cap"])
def test_run_time_refusals_exit_2_before_any_experiment_runs(tmp_path, capsys, exp, message):
    # each used to be refused only when its experiment ran, after covering had printed its verdict
    payload = {"seed": 1, "experiments": [{"kind": "covering", "n": 30, "dim": 2, "eps": 0.5}, exp]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: experiments[1]: ")
    assert message in captured.err
    assert not (tmp_path / "out").exists()


def test_a_file_that_does_not_parse_exits_2_before_any_experiment_runs(tmp_path, capsys):
    # a file's contents used to be read only when its experiment ran, after covering
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nthree 4\n")
    for exp in ({"kind": "covering", "eps": 0.5, "points_file": str(bad)},
                {"kind": "layer-project", "group": "symmetric 3", "reps": ["natural_permutation"] * 2,
                 "weights_files": [str(bad)]}):
        payload = {"seed": 1, "experiments": [{"kind": "covering", "n": 30, "dim": 2, "eps": 0.5}, exp]}
        cfg = _write_config(tmp_path / "cfg.json", payload)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: experiments[1]: ")
        assert not (tmp_path / "out").exists()


def test_an_explicit_invariant_theta_runs_as_the_default_one(tmp_path, capsys):
    # on C4's natural action the default theta is the all-ones direction, exactly [0.5] * 4;
    # gap-linear reads an explicit theta as a vector or as a column
    exp = {"kind": "gap-linear", "group": "cyclic 4", "rep": "natural_permutation", "n": 10,
           "trials": 600}
    rows = []
    for i, theta in enumerate(([0.5] * 4, [[0.5]] * 4, None)):
        cli.run_config({"seed": 1, "experiments": [exp if theta is None else dict(exp, theta=theta)]},
                       tmp_path / str(i))
        rows.append(json.loads((tmp_path / str(i) / "results.json").read_text())[0])
    assert rows[0]["mc_mean"] == rows[1]["mc_mean"] == rows[2]["mc_mean"]
    assert rows[0]["config_hash"] != rows[2]["config_hash"]


def test_deleted_covering_mode_key_exits_2(tmp_path, capsys):
    payload = {"seed": 1, "experiments": [
        {"kind": "covering", "n": 30, "dim": 2, "eps": 0.5, "mode": "greedy_upper"},
    ]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "experiments[0]" in err and "'mode'" in err


# the experiment that a case below sets its key on: by key=value, else by key, else gap-kernel
KEY_HOSTS = {
    "gap-kernel": {"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation",
                   "n": 8, "rho": 1.0, "trials": 2},
    "learner": {"kind": "orbit-equivalence", "cross_section": "sort_descending", "dim": 3,
                "learner": "averaged_krr", "n": 16, "trials": 1},
    "activation": {"kind": "layer-project", "group": "symmetric 3",
                   "reps": ["natural_permutation"] * 3},
    "activation=tanh": {"kind": "regularisation-bound", "group": "symmetric 3",
                        "rep_in": "natural_permutation", "rep_out": "natural_permutation"},
    "metric": {"kind": "covering", "n": 30, "dim": 2, "eps": 0.5},
}
KEY_HOSTS.update(cross_section=KEY_HOSTS["learner"], points_file=KEY_HOSTS["metric"],
                 weights_files=KEY_HOSTS["activation"])


@pytest.mark.parametrize("nested,value,bad", [
    # each typo used to fall back to a default: a Gaussian kernel, Gaussian inputs
    ("kernel", {"tpye": "linear"}, "'tpye'"),
    ("mu", {"knid": "sphere"}, "'knid'"),
    ("mu", "sphere", "must be a JSON object"),
    # each bad value used to fail only when its experiment ran, after the ones before it
    ("kernel", {"type": "poly"}, "kernel.type is 'poly'"),
    ("kernel", {"bandwidth": "wide"}, "kernel.bandwidth is 'wide'"),
    ("mu", {"kind": "cube"}, "mu.kind is 'cube'"),
    ("mu", {"scale": None}, "mu.scale is None"),
    ("n", "ten", "n is 'ten'"),
    ("seed", "x", "seed must be an integer"),  # used to raise TypeError in numpy
    # each used to be truncated by int() without a word: n=8.5 ran as 8, true as 1
    ("n", 8.5, "n is 8.5, not a valid int"),
    ("trials", True, "trials is True, not a valid int"),
    ("rho", False, "rho is False, not a valid float"),
    # each group or representation the library rejects used to fail only when
    # its experiment ran; a non-string one raised AttributeError
    ("group", "frobnicate 3", "group: unknown group kind 'frobnicate'"),
    ("group", "symmetric 8", "past the 5040 cap"),
    ("group", 5, "group: 5 is not a descriptor string"),
    ("rep", "sign", "rep: sign representation requires a symmetric group"),
    ("rep", ["trivial 1"], "is not a descriptor string"),
    # each used to fail only when its experiment ran, after the ones before it;
    # these keys are set on the experiments in KEY_HOSTS
    ("learner", "bogus", "learner is 'bogus', not one of ('averaged_krr', "),
    ("cross_section", "bogus", "cross_section: unknown cross-section kind 'bogus'"),
    ("cross_section", "polar_fold", "cross_section: polar_fold acts on the plane"),
    ("activation", "swish", "activation is 'swish', not one of ('relu', 'identity', 'tanh')"),
    ("activation", "tanh", "activation is 'tanh', not one of ('relu', 'identity')"),
    ("metric", "manhattan", "metric is 'manhattan', not one of ('euclidean', 'sup')"),
    # used to raise a FileNotFoundError traceback and exit 1
    ("points_file", "/nonexistent/points.txt", "points_file: '/nonexistent/points.txt' is not an"),
    ("weights_files", ["/nonexistent/w0.txt"], "weights_files[0]: '/nonexistent/w0.txt' is not an"),
    # extra tokens used to be ignored (trivial 3 junk built with dim 3), and a bad frequency
    # raised int()'s own message or named no descriptor
    ("rep", "trivial 3 junk", "rep: trivial takes at most one argument, got 'trivial 3 junk'"),
    ("rep", "rotation_block x", "rep: rotation_block frequency in 'rotation_block x' must be an"),
    ("rep", "direct_sum trivial 1 + trivial 1 extra", "rep: trivial takes at most one argument"),
    ("rep", "rotation_block 1 -1", "rep: rotation_block frequency in 'rotation_block 1 -1' must be >= 0"),
])
def test_unknown_nested_key_exits_2_before_any_experiment_runs(tmp_path, capsys, nested, value, bad):
    host = KEY_HOSTS.get(f"{nested}={value}", KEY_HOSTS.get(nested, KEY_HOSTS["gap-kernel"]))
    payload = {"seed": 1, "experiments": [
        {"kind": "covering", "n": 30, "dim": 2, "eps": 0.5},
        {**host, nested: value},
    ]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert f"experiments[1].{nested}" in captured.err and bad in captured.err
    assert "verdict" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("group,reps", [
    # each used to fail with an _ArrayMemoryError traceback under a 3 GB address-space limit
    ("cyclic 2", ["trivial 1", "trivial 60000"]),  # 26.8 GiB for np.eye
    ("cyclic 600", ["trivial 1", "natural_permutation"]),  # 1.61 GiB
    ("cyclic 5040", ["trivial 1", "natural_permutation"]),  # its 5040 permutations are not built
    ("cyclic 600", ["trivial 1", "rotation_block " + " ".join(["1"] * 100)]),
    # each part fits; their sum does not
    ("cyclic 2", ["trivial 1", "direct_sum " + " + ".join(["trivial 100"] * 16)]),
], ids=["trivial", "natural", "natural 5040", "rotation_block", "direct_sum"])
def test_over_cap_representation_exits_2_without_allocating_it(tmp_path, capsys, group, reps):
    payload = {"seed": 1, "experiments": [{"kind": "vc-bound", "group": group, "reps": reps}]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    tracemalloc.start()
    try:
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("config error: experiments[0].reps[1]: ") and "past the 4194304 cap" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exp,key", [
    ({"kind": "gap-equivariant", "rep_in": "rotation_block 1", "rep_out": "natural_permutation",
      "n": 4}, "rep_in"),
    ({"kind": "regularisation-bound", "rep_in": "natural_permutation",
      "rep_out": "rotation_block 1"}, "rep_out"),
    ({"kind": "verify-operators", "rep": "natural_permutation", "rep_out": "rotation_block 1"},
     "rep_out"),
    ({"kind": "layer-project", "reps": ["natural_permutation", "rotation_block 1"]}, "reps[1]"),
    ({"kind": "vc-bound", "reps": ["natural_permutation", "rotation_block 1"]}, "reps[1]"),
])
def test_representation_that_does_not_fit_its_group_exits_2_up_front(tmp_path, capsys, exp, key):
    payload = {"seed": 1, "experiments": [
        {"kind": "covering", "n": 30, "dim": 2, "eps": 0.5},
        {"group": "symmetric 3", **exp},
    ]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert f"config error: experiments[1].{key}: rotation_block requires a cyclic" in captured.err
    assert "verdict" not in captured.out
    assert not (tmp_path / "out").exists()


def test_reps_given_as_one_string_exits_2_up_front(tmp_path, capsys):
    payload = {"seed": 1, "experiments": [
        {"kind": "vc-bound", "group": "symmetric 3", "reps": "natural_permutation"},
    ]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "experiments[0].reps: 'natural_permutation' is not a list" in capsys.readouterr().err


def test_each_distinct_descriptor_is_built_once_per_resolution(tmp_path, monkeypatch):
    calls = Counter()

    def counted(build):
        def counting(*args):
            calls[build.__name__, args[-1]] += 1
            return build(*args)
        return counting

    monkeypatch.setattr(cli, "build_group", counted(cli.build_group))
    monkeypatch.setattr(cli, "build_representation", counted(cli.build_representation))
    received = {}

    def spied(kind):
        runner = cli._RUNNERS[kind]

        @functools.wraps(runner)
        def spy(seed, **kwargs):
            before = sum(calls.values())
            received[kind] = kwargs
            run = runner(seed, **kwargs)

            def spied_run():
                row = run()
                assert sum(calls.values()) == before, f"{kind}'s runner built a descriptor"
                return row
            return spied_run
        return spy

    for kind in ("vc-bound", "gap-equivariant"):
        monkeypatch.setitem(cli._RUNNERS, kind, spied(kind))
    payload = {"seed": 1, "experiments": [
        {"kind": "vc-bound", "group": "symmetric 3", "reps": ["natural_permutation"] * 3},
        {"kind": "gap-equivariant", "group": "symmetric 3", "rep_in": "natural_permutation",
         "rep_out": "natural_permutation", "n": 12, "trials": 1000},
    ]}
    assert cli.run_config(payload, tmp_path / "out") == 0
    # two resolutions of each experiment, one to validate the config and one to run it
    assert calls == {("build_group", "symmetric 3"): 4,
                     ("build_representation", "natural_permutation"): 4}
    reps = received["vc-bound"]["reps"]
    assert reps[0] is reps[1] is reps[2]
    assert received["gap-equivariant"]["rep_in"] is received["gap-equivariant"]["rep_out"]


def test_gap_equivariant_builds_psi_once_per_prepare(monkeypatch):
    # the target's tensor is the one the config checks theta against, not a second build
    built = []
    build_psi = averaging.build_psi

    def counted(rep_in, rep_out):
        built.append((rep_in.name, rep_out.name))
        return build_psi(rep_in, rep_out)

    for module in (averaging, linear_gap, cli):
        monkeypatch.setattr(module, "build_psi", counted)
    kwargs = cli._runner_kwargs("gap-equivariant", {
        "group": "symmetric 3", "rep_in": "natural_permutation", "rep_out": "natural_permutation",
        "n": 12, "trials": 10,
    }, "params")
    cli._RUNNERS["gap-equivariant"](1, **kwargs)
    assert built == [("natural_permutation", "natural_permutation")]


def test_validation_frees_what_it_built_without_the_cycle_collector():
    # a reference cycle through the resolver would keep every validated
    # experiment's group and representations alive until a gc pass
    gc.disable()
    try:
        kwargs = cli._runner_kwargs(
            "vc-bound", {"group": "symmetric 5", "reps": ["natural_permutation"] * 3}, "params"
        )
        built = [weakref.ref(kwargs["group"]), weakref.ref(kwargs["reps"][0])]
        del kwargs
        assert all(ref() is None for ref in built)
    finally:
        gc.enable()


def test_integral_floats_and_numeric_strings_still_cast():
    kwargs = cli._runner_kwargs("verify-wishart", {"n": 12.0, "d": "3", "trials": 2000.0}, "params")
    assert kwargs == {"n": 12, "d": 3, "trials": 2000}
    assert all(type(value) is int for value in kwargs.values())


def test_missing_required_key_exits_2_before_any_experiment_runs(tmp_path, capsys):
    # used to surface as "config error: 'n'" once the experiments before it had run
    payload = {"seed": 1, "experiments": [
        {"kind": "covering", "n": 30, "dim": 2, "eps": 0.5},
        {"kind": "gap-linear", "group": "symmetric 2", "rep": "trivial 1"},
    ]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "experiments[1].n is missing" in captured.err
    assert "verdict" not in captured.out
    assert not (tmp_path / "out").exists()


def test_an_unknown_top_level_key_exits_2_before_any_experiment_runs(tmp_path, capsys):
    # a misspelt "out" used to be dropped, and the run wrote elsewhere with exit 0
    vc = {"kind": "vc-bound", "group": "symmetric 3", "reps": ["natural_permutation"] * 2}
    payload = {"seed": 1, "experimnets": [], "experiments": [vc], "ouput": str(tmp_path / "there")}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: config has unknown key 'experimnets'; accepted: "
                                   "['experiments', 'out', 'seed']")
    assert "verdict" not in captured.out
    assert not (tmp_path / "out").exists() and not (tmp_path / "there").exists()
    # the three accepted keys run
    cfg = _write_config(tmp_path / "ok.json", {"seed": 1, "experiments": [vc], "out": str(tmp_path / "there")})
    assert cli.main(["run", cfg]) == 0
    assert (tmp_path / "there" / "results.csv").exists()


@pytest.mark.parametrize("name", ["quick", "full"])
def test_suites_use_only_accepted_keys(name):
    config = cli.suite_config(name)
    assert any("kernel" in exp and "mu" in exp for exp in config["experiments"])
    cli._validate_config(config)


def test_non_integer_seed_exits_2(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {"seed": "abc", "experiments": [{"kind": "covering"}]})
    assert cli.main(["run", cfg]) == 2


@pytest.mark.parametrize("top,own,message", [
    (-3, None, "seed + 0 is -3, outside [0, 2**32)"),
    (2 ** 32 - 1, None, "seed + 1 is 4294967296, outside [0, 2**32)"),
    (1, 2 ** 32 + 7 * 2 ** 64, f"experiments[1].seed is {2 ** 32 + 7 * 2 ** 64}, outside [0, 2**32)"),
    (1, -1, "experiments[1].seed is -1, outside [0, 2**32)"),
], ids=["negative", "top-level-plus-index", "own-too-wide", "own-negative"])
def test_a_seed_outside_32_bits_exits_2_before_any_experiment_runs(tmp_path, capsys, top, own, message):
    # a stream key is a tuple of 32-bit words: the key (2^32, 7, 0) and the seed 2^32 + 7 2^64
    # draw the same stream, and a negative seed used to fail only once its experiment ran
    second = {"kind": "covering", "n": 30, "dim": 2, "eps": 0.5}
    if own is not None:
        second["seed"] = own
    payload = {"seed": top, "experiments": [{"kind": "vc-bound", "group": "symmetric 3",
                                             "reps": ["natural_permutation"] * 2}, second]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "verdict=" not in captured.out
    assert captured.err.strip() == f"config error: {message}"
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2


def test_unknown_suite_exits_2(tmp_path):
    assert cli.main(["suite", "exhaustive", "--out", str(tmp_path)]) == 2


def test_failing_verdict_exits_1(tmp_path, monkeypatch):
    def rigged(seed, *, eps):
        return lambda: {"experiment": "covering", "verdict": "fail"}

    monkeypatch.setitem(cli._RUNNERS, "covering", rigged)
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"seed": 5, "experiments": [{"kind": "covering", "eps": 0.5}]},
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1


def test_numerical_failure_exits_1_not_as_config_error(tmp_path, monkeypatch, capsys):
    def singular(seed, *, eps):
        def run():
            raise np.linalg.LinAlgError("matrix is not positive definite")
        return run

    monkeypatch.setitem(cli._RUNNERS, "covering", singular)
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"seed": 5, "experiments": [{"kind": "covering", "eps": 0.5}]},
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "numerical error: matrix is not positive definite" in err
    assert "config error" not in err


def test_a_value_error_in_a_run_exits_1_naming_its_type(tmp_path, monkeypatch, capsys):
    # the prepare step passed, so the config is not at fault: this used to exit 2 as a config error
    def faulty(seed, *, eps):
        def run():
            raise ValueError("planted fault")
        return run

    monkeypatch.setitem(cli._RUNNERS, "covering", faulty)
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"seed": 5, "experiments": [{"kind": "covering", "eps": 0.5}]},
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "ValueError: planted fault" in err
    assert "config error" not in err
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_loads_numpy_but_not_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, symlab.cli; print('numpy' in sys.modules, 'scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "False"]


def test_threads_flag_is_gone(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", FAST_CONFIG)
    with pytest.raises(SystemExit):
        cli.main(["run", cfg, "--threads", "2"])


def test_set_override_reaches_experiment(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", FAST_CONFIG)
    cli.main(["run", cfg, "--out", str(tmp_path / "out"),
              "--set", "experiments.0.trials=1500", "--set", "seed=99"])
    rows = json.loads((tmp_path / "out" / "results.json").read_text())
    assert rows[0]["trials"] == 1500
    assert rows[0]["seed"] == 99


def test_override_changes_hash(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", FAST_CONFIG)
    cli.main(["run", cfg, "--out", str(tmp_path / "a")])
    cli.main(["run", cfg, "--out", str(tmp_path / "b"), "--set", "experiments.0.trials=2500"])
    rows_a = json.loads((tmp_path / "a" / "results.json").read_text())
    rows_b = json.loads((tmp_path / "b" / "results.json").read_text())
    assert rows_a[0]["config_hash"] != rows_b[0]["config_hash"]
    assert rows_a[1]["config_hash"] == rows_b[1]["config_hash"]


def test_malformed_override_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", FAST_CONFIG)
    assert cli.main(["run", cfg, "--set", "no_equals_sign"]) == 2
    assert "no_equals_sign" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", [
    "experiments.9.n=5",  # used to raise IndexError
    "seed.x=5",  # used to raise TypeError
])
def test_override_path_outside_config_exits_2(tmp_path, capsys, assignment):
    cfg = _write_config(tmp_path / "cfg.json", FAST_CONFIG)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out"), "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert f"config error: override path {assignment.split('=')[0]!r}" in err
    assert not (tmp_path / "out").exists()


def test_experiment_seed_field_wins(tmp_path):
    payload = {
        "seed": 11,
        "experiments": [{"kind": "covering", "eps": 0.5, "n": 30, "dim": 2, "seed": 404}],
    }
    cfg = _write_config(tmp_path / "cfg.json", payload)
    cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    rows = json.loads((tmp_path / "out" / "results.json").read_text())
    assert rows[0]["seed"] == 404


def test_config_out_field_sets_output_directory(tmp_path):
    payload = dict(FAST_CONFIG)
    payload["out"] = str(tmp_path / "from_config")
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg]) == 0
    assert (tmp_path / "from_config" / "results.csv").exists()


def test_layer_project_loads_weights_from_matrix_files(tmp_path):
    for i in range(2):
        (tmp_path / f"w{i}.txt").write_text(
            "\n".join(" ".join(str(float((r + c + i) % 3)) for c in range(3)) for r in range(3))
        )
    row = cli.run_experiment(
        "layer-project",
        {"group": "symmetric 3",
         "reps": ["natural_permutation"] * 3,
         "weights_files": [str(tmp_path / "w0.txt"), str(tmp_path / "w1.txt")]},
        seed=0,
    )
    assert row["verdict"] == "pass"


def test_a_nan_layer_weight_exits_2_before_any_verdict(tmp_path, capsys):
    # a NaN weight used to project to NaN and pass as a zero equivariance violation
    (tmp_path / "w0.txt").write_text("nan 0 0\n0 1 0\n0 0 1\n")
    cfg = _write_config(tmp_path / "cfg.json", {"seed": 0, "experiments": [
        {"kind": "vc-bound", "group": "symmetric 3", "reps": ["natural_permutation"] * 2},
        {"kind": "layer-project", "group": "symmetric 3",
         "reps": ["natural_permutation"] * 2, "weights_files": [str(tmp_path / "w0.txt")]},
    ]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "verdict=" not in captured.out
    assert captured.err.strip() == "config error: experiments[1]: weights[0] has an entry that is not finite"
    assert not (tmp_path / "out").exists()


def test_huge_layer_weights_exit_2_naming_the_projection(tmp_path, capsys):
    # finite weights whose group mean overflows used to fail only at run time, after
    # vc-bound's verdict, then in prepare with an overflow RuntimeWarning, which a warnings
    # filter of "error" turned into a traceback; LayerSpec now refuses them before any product
    (tmp_path / "w0.txt").write_text("1e308 1e308 1e308\n" * 3)
    cfg = _write_config(tmp_path / "cfg.json", {"seed": 0, "experiments": [
        {"kind": "vc-bound", "group": "symmetric 3", "reps": ["natural_permutation"] * 2},
        {"kind": "layer-project", "group": "symmetric 3",
         "reps": ["natural_permutation"] * 2, "weights_files": [str(tmp_path / "w0.txt")]},
    ]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "verdict=" not in captured.out
    assert captured.err.strip() == (
        "config error: experiments[1]: weights[0] has an entry of size 1.000e+308, "
        "and the stack's gain bound reaches inf, above 1e+100"
    )
    assert not (tmp_path / "out").exists()


_SQUARE_REFUSALS = {
    "overflow-bandwidth": "bandwidth is 1e+200: its square overflows",
    "overflow-bandwidth-tiny": "bandwidth is 1e-170: its square underflows to 0",
    "overflow-radius": "mu.radius is 1e+200: its square overflows",
    "overflow-rho": "rho is 1e+200 and Mk 1.0: the variance term's (sqrt(n) Mk + rho / sqrt(n))^2 overflows",
}


@pytest.mark.parametrize("name", _SQUARE_REFUSALS)
def test_a_float_whose_square_overflows_exits_2_before_any_verdict(tmp_path, capsys, name):
    # each square used to raise OverflowError as a traceback, the huge bandwidth's and
    # radius's while the config was checked and rho's after every trial had run; the tiny
    # bandwidth's square of 0 divided 0 by -0.0 into a NaN Gram.  The configs are the
    # ones ci/checks.sh overflow runs
    config = Path(__file__).resolve().parents[1] / "ci" / f"{name}.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "verdict=" not in captured.out
    assert captured.err.strip() == f"config error: experiments[0]: {_SQUARE_REFUSALS[name]}"
    assert not (tmp_path / "out").exists()


_SIGMA_KINDS = {
    "regularisation-bound": {"kind": "regularisation-bound", "group": "symmetric 3",
                             "rep_in": "natural_permutation", "rep_out": "natural_permutation",
                             "samples": 20},
    "orbit-equivalence": {"kind": "orbit-equivalence", "cross_section": "abs_first_coordinate",
                          "dim": 3, "learner": "invariant_least_squares", "n": 16, "trials": 3},
}


@pytest.mark.parametrize("kind", _SIGMA_KINDS)
@pytest.mark.parametrize("sigma,message", [
    (1e200, "sigma is 1e+200: its square overflows"),
    (-1, "sigma is -1.0: a standard deviation must be >= 0"),
], ids=["overflow", "negative"])
def test_a_sigma_that_is_negative_or_whose_square_overflows_exits_2(tmp_path, capsys, kind, sigma, message):
    # regularisation-bound's sigma 1e200 was an OverflowError traceback while the config was
    # checked, and orbit-equivalence's overflowed in the risks; sigma -1 ran both to
    # verdict=pass, the same experiment as sigma 1 under a second config hash
    cfg = _write_config(tmp_path / "cfg.json", {"seed": 1, "experiments": [
        FUZZ_FIRST, dict(_SIGMA_KINDS[kind], sigma=sigma),
    ]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "verdict=" not in captured.out
    assert captured.err.strip() == f"config error: experiments[1]: {message}"
    assert not (tmp_path / "out").exists()


def test_layer_project_reads_a_one_column_weights_file_as_a_column(tmp_path):
    # three lines of one number each: the (3, 1) map from natural_permutation to trivial 1
    (tmp_path / "w0.txt").write_text("1.0\n1.0\n1.0\n")
    cfg = _write_config(tmp_path / "cfg.json", {"seed": 0, "experiments": [
        {"kind": "layer-project", "group": "symmetric 3",
         "reps": ["trivial 1", "natural_permutation"],
         "weights_files": [str(tmp_path / "w0.txt")]},
    ]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert ",pass," in (tmp_path / "out" / "results.csv").read_text()


def test_numeric_text_files_parse_with_whitespace_or_commas(tmp_path):
    # points_file and weights_files go through one parser; a one-column file is a column
    column = tmp_path / "col.txt"
    column.write_text("0.0\n5.0\n")
    for name, sep in (("whitespace", " "), ("comma", ",")):
        points = tmp_path / f"pts-{name}.txt"
        points.write_text(f"0.0{sep}1.0\n2.0{sep}3.0\n")
        weights = tmp_path / f"w-{name}.txt"
        weights.write_text(
            "\n".join(sep.join(str(float((r + c) % 3)) for c in range(3)) for r in range(3))
        )
        cfg = _write_config(tmp_path / "cfg.json", {"seed": 0, "experiments": [
            {"kind": "covering", "points_file": str(points), "eps": 0.5},
            {"kind": "covering", "points_file": str(column), "eps": 0.5},
            {"kind": "layer-project", "group": "symmetric 3",
             "reps": ["natural_permutation"] * 2, "weights_files": [str(weights)]},
        ]})
        assert cli.main(["run", cfg, "--out", str(tmp_path / name)]) == 0
        rows = json.loads((tmp_path / name / "results.json").read_text())
        assert [(row["n"], row["d"]) for row in rows[:2]] == [(2, 2), (2, 1)]
        assert rows[2]["verdict"] == "pass"


def test_run_experiment_rejects_unknown_kind():
    with pytest.raises(cli.ConfigError, match="unknown experiment kind"):
        cli.run_experiment("nonsense", {}, seed=0)


def test_gap_linear_runner_row():
    row = cli.run_experiment(
        "gap-linear",
        {"group": "symmetric 2", "rep": "direct_sum trivial 3 + sign",
         "n": 10, "trials": 400},
        seed=3,
    )
    assert row["d"] == 4
    assert row["dim_A"] == 1
    assert row["closed_form"] == pytest.approx(0.2)
    assert row["verdict"] == "pass"


def test_suite_config_covers_every_kind():
    config = cli.suite_config("quick")
    kinds = {e["kind"] for e in config["experiments"]}
    assert kinds == set(cli.EXPERIMENT_KINDS)
    full = cli.suite_config("full")
    q = next(e for e in config["experiments"] if e["kind"] == "verify-wishart")
    f = next(e for e in full["experiments"] if e["kind"] == "verify-wishart")
    assert f["trials"] == 10 * q["trials"]


# the construction probes, (module, function): each draws one fixed stream whatever the seed
_FIXED_PROBES = {
    ("symlab.averaging", "build_psi"),
    ("symlab.kernel_gap", "_validate_kernel"),
    ("symlab.kernel_gap", "check_switch_condition"),
    ("symlab.kernel_gap", "build_averaged_kernel"),
    ("symlab.orbits", "averaged_loss"),
}
# sizes at which each kind keys the same streams and draws few values from them
_FEWER_DRAWS = {
    "gap-linear": {"trials": 50},
    "gap-equivariant": {"trials": 50},
    "gap-kernel": {"trials": 2, "bias_trials": 2, "n_test": 8, "n_pairs": 1000},
    "verify-wishart": {"trials": 1000},
    "verify-projection-tensor": {"trials": 50},
    "verify-operators": {"n_samples": 500},
    "layer-project": {"n_samples": 50},
    "regularisation-bound": {"samples": 100},
}


def test_no_two_streams_of_the_quick_suite_coincide(monkeypatch):
    # regularisation-bound's sample X once started with its weights W bit for bit, and
    # layer-project's X with its raw weights: two call sites drew default_rng(seed)
    config = cli.suite_config("quick")
    default_rng = np.random.default_rng
    sites, users, probes, current = {}, {}, {}, []

    def recording_rng(seed=None):
        rng = default_rng(seed)
        caller = sys._getframe(1)
        if caller.f_code is sampling.stream.__code__:  # the call site is stream's caller
            caller = caller.f_back
        site = (caller.f_globals["__name__"], caller.f_code.co_name)
        # two generators draw the same stream exactly when their seed sequences' states agree
        state = tuple(rng.bit_generator.seed_seq.generate_state(4))
        if site in _FIXED_PROBES:
            probes.setdefault(site, set()).add(state)
        else:
            sites.setdefault(state, set()).add(site)
            users.setdefault(state, set()).add(current[-1])
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    for idx, exp in enumerate(config["experiments"]):
        params = dict(cli._experiment_params(exp), **_FEWER_DRAWS.get(exp["kind"], {}))
        current.append(idx)
        cli.run_experiment(exp["kind"], params, config["seed"] + idx)
    # every experiment but vc-bound draws from its seed, and each gap-kernel from four streams
    drawn = Counter(idx for experiments in users.values() for idx in experiments)
    kinds = [exp["kind"] for exp in config["experiments"]]
    assert set(drawn) == {idx for idx, kind in enumerate(kinds) if kind != "vc-bound"}
    assert all(drawn[idx] >= 4 for idx, kind in enumerate(kinds) if kind == "gap-kernel")
    assert {state: where for state, where in sites.items() if len(where) > 1} == {}
    assert {state: who for state, who in users.items() if len(who) > 1} == {}
    # a probe draws the same stream in every experiment, and none that an experiment draws
    assert all(len(states) == 1 for states in probes.values())
    assert not set(users) & set().union(*probes.values())


# one experiment of each kind, several leaving keys to their defaults
ROW_CONFIG = {"seed": 3, "experiments": [
    {"kind": "gap-linear", "group": "symmetric 2", "rep": "direct_sum trivial 3 + sign",
     "n": 10, "trials": 300},
    {"kind": "gap-equivariant", "group": "symmetric 3", "rep_in": "natural_permutation",
     "rep_out": "natural_permutation", "n": 12, "sigma_x": 2, "trials": 300},
    {"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation",
     "mu": {"kind": "sphere", "radius": 2}, "n": 8, "rho": 1, "trials": 20, "n_test": 16,
     "n_pairs": 1000, "bias_trials": 10},
    {"kind": "verify-wishart", "n": 12, "d": 3, "trials": 1000},
    {"kind": "verify-projection-tensor", "n": 2, "d": 3, "trials": 1000},
    {"kind": "verify-operators", "group": "cyclic 4", "rep": "rotation_block 1",
     "rep_out": "natural_permutation", "n_samples": 500},
    {"kind": "orbit-equivalence", "cross_section": "abs_first_coordinate", "dim": 2,
     "learner": "invariant_least_squares", "n": 16, "trials": 2},
    {"kind": "covering", "n": 40, "dim": 2, "eps": 1},
    {"kind": "layer-project", "group": "symmetric 3",
     "reps": ["natural_permutation"] * 3, "n_samples": 50},
    {"kind": "vc-bound", "group": "symmetric 3", "reps": ["natural_permutation"] * 2},
    {"kind": "regularisation-bound", "group": "symmetric 3", "rep_in": "natural_permutation",
     "rep_out": "natural_permutation", "samples": 1000},
]}
# ROW_CONFIG's results.csv rows; the statistics' last bits depend on the BLAS build
ROW_EXPECTED = [
    "gap-linear,4,1,10,symmetric 2,1.0,1.0,1.0,300,0.22150685575257248,0.02676241932210699,0.2,"
    "pass,,,,,,6581f66b83e8,3",
    "gap-equivariant,3,3,12,symmetric 3,7.0,2.0,1.0,300,0.8209128450954241,0.033485882452420644,"
    "0.875,pass,,,,,,d1ffb2952da9,4",
    "gap-kernel,2,1,8,cyclic 2,1.0,,1.0,20,0.10156470481381323,0.03216068581698331,"
    "0.04543868366701156,pass,1.0,1.0,0.053829475998985736,0.04012219221032161,"
    "0.005316491456689949,9d53a806db68,5",
    "verify-wishart,3,,12,,,,,1000,0.12563210603648753,0.002251526189879003,0.125,"
    "pass,,,,,,381d78f89897,6",
    "verify-projection-tensor,3,,2,,,,,1000,0.4003250057374755,0.0009549625133634349,"
    "0.39999999999999997,pass,,,,,,430f2a77ea28,7",
    "verify-operators,2,4,,cyclic 4,,,,500,0.008125552003186398,0.01294522104638557,0.0,"
    "pass,,,,,,0f1c5ae2447a,8",
    "orbit-equivalence,2,,16,cyclic 2,,,,2,0.02041323998329691,0.0,0.02041323998329691,"
    "pass,,,,,,26abaa2957ec,9",
    "covering,2,,40,,,,,,8.0,,,pass,,,,,,71ef571c0353,10",
    "layer-project,3,3,,symmetric 3,,,,50,6.938893903907228e-17,,0.0,pass,,,,,,99d71359a00d,11",
    "vc-bound,3,3,,symmetric 3,,,,,15.075197125170574,,,pass,,,,,,806af7c6a44c,12",
    "regularisation-bound,3,3,,symmetric 3,,1.0,,1000,1.526994732157877,0.07225070024824289,"
    "9.199438162438014,pass,,,,,,a97decb22b56,13",
]
STATISTICS = {"mc_mean", "mc_se", "closed_form", "Mk", "N_kperp", "bound_bias", "bound_variance"}


def test_each_kind_writes_its_row_format(tmp_path):
    # pins the hash of the keys as written and each cell's int/float type
    assert [exp["kind"] for exp in ROW_CONFIG["experiments"]] == list(cli.EXPERIMENT_KINDS)
    cfg = _write_config(tmp_path / "cfg.json", ROW_CONFIG)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()[2:]
    assert len(lines) == len(ROW_EXPECTED)
    for line, expected in zip(lines, ROW_EXPECTED):
        cells = line.split(",")
        assert len(cells) == len(cli.CSV_COLUMNS)
        for column, got, want in zip(cli.CSV_COLUMNS, cells, expected.split(",")):
            if column in STATISTICS and want:
                assert got == repr(float(got)), (column, line)
                assert float(got) == pytest.approx(float(want)), (column, line)
            else:
                assert got == want, (column, line)


def _readme_kind_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) == 3 and cells[0].strip("`") in cli.EXPERIMENT_KINDS:
            rows[cells[0].strip("`")] = cells[1:]
    return rows


def test_readme_lists_each_kinds_keys_and_defaults():
    rows = _readme_kind_rows()
    assert set(rows) == set(cli.EXPERIMENT_KINDS)
    for kind, runner in cli._RUNNERS.items():
        required, optional = rows[kind]
        for param in inspect.signature(runner).parameters.values():
            if param.kind is not param.KEYWORD_ONLY:
                continue
            if param.default is param.empty:
                assert f"`{param.name}`" in required, (kind, param.name)
            elif param.default is None or isinstance(param.default, dict):
                assert f"`{param.name}` (" in optional, (kind, param.name)
            else:
                assert f"`{param.name}` ({json.dumps(param.default)})" in optional, (kind, param.name)


@pytest.mark.parametrize("exp", [
    # with its SE taken as inf, this one noisy trial passed however far it fell from the closed form
    {"kind": "gap-linear", "group": "symmetric 3", "rep": "natural_permutation",
     "n": 20, "trials": 1, "sigma_xi": 50},
    {"kind": "gap-kernel", "group": "cyclic 4", "rep": "natural_permutation",
     "kernel": {"type": "gaussian", "bandwidth": 2.0}, "mu": {"kind": "sphere"},
     "n": 16, "rho": 0.1, "trials": 1, "n_test": 64, "n_pairs": 1000, "bias_trials": 2},
    {"kind": "regularisation-bound", "group": "symmetric 3",
     "rep_in": "natural_permutation", "rep_out": "natural_permutation", "samples": 1},
    # a 3-SE gate; numpy warns "Degrees of freedom <= 0" on a one-sample std
    {"kind": "verify-operators", "group": "symmetric 3", "rep": "natural_permutation",
     "n_samples": 1},
], ids=["gap-linear", "gap-kernel", "regularisation-bound", "verify-operators"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_4se_gate_on_one_trial_fails(tmp_path, capsys, exp):
    # a standard error over one value is undefined: it is NaN, and every gate on it fails
    cfg = _write_config(tmp_path / "cfg.json", {"seed": 3, "experiments": [exp]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "verdict=fail" in capsys.readouterr().out
    lines = (tmp_path / "out" / "results.csv").read_text().strip().split("\n")
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["mc_se"] == "nan"
    assert row["verdict"] == "fail"


@pytest.mark.parametrize("n_samples", [0, -3])
def test_verify_operators_below_one_sample_exits_2_naming_it(tmp_path, capsys, n_samples):
    cfg = _write_config(tmp_path / "cfg.json", {"seed": 3, "experiments": [
        {"kind": "verify-operators", "group": "symmetric 3", "rep": "natural_permutation",
         "n_samples": n_samples},
    ]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"n_samples must be >= 1, got {n_samples}" in capsys.readouterr().err


# a small experiment of each kind, every size key at 3 or more; gap-kernel twice, so that each
# nested mu key is read: scale by the Gaussian, radius by the sphere
FUZZ_BASES = [
    {"kind": "gap-linear", "group": "symmetric 2", "rep": "direct_sum trivial 3 + sign", "n": 10,
     "trials": 20},
    {"kind": "gap-equivariant", "group": "symmetric 3", "rep_in": "natural_permutation",
     "rep_out": "natural_permutation", "n": 12, "trials": 20},
    {"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation",
     "kernel": {"type": "gaussian", "bandwidth": 1.0}, "mu": {"kind": "sphere", "radius": 1.0},
     "n": 4, "rho": 1.0, "trials": 4, "n_test": 4, "n_pairs": 1000, "bias_trials": 4},
    {"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation",
     "kernel": {"type": "linear"}, "mu": {"kind": "gaussian", "scale": 1.0},
     "n": 4, "rho": 1.0, "trials": 4, "n_test": 4, "n_pairs": 1000, "bias_trials": 4},
    {"kind": "verify-wishart", "n": 12, "d": 3, "trials": 1000},
    {"kind": "verify-projection-tensor", "n": 3, "d": 4, "trials": 20},
    {"kind": "verify-operators", "group": "symmetric 3", "rep": "natural_permutation",
     "n_samples": 20},
    {"kind": "orbit-equivalence", "cross_section": "abs_first_coordinate", "dim": 3,
     "learner": "invariant_least_squares", "n": 16, "trials": 3},
    {"kind": "covering", "n": 20, "dim": 3, "eps": 0.5},
    {"kind": "layer-project", "group": "symmetric 3", "reps": ["natural_permutation"] * 3,
     "n_samples": 20},
    {"kind": "regularisation-bound", "group": "symmetric 3", "rep_in": "natural_permutation",
     "rep_out": "natural_permutation", "samples": 20},
]
FUZZ_VALUES = (0, -1, 1, 2, 3, 0.5, float("nan"), float("inf"), float("-inf"))
FUZZ_FIRST = {"kind": "vc-bound", "group": "cyclic 2", "reps": ["trivial 1"] * 2}


def _numeric_keys(kind: str) -> list:
    """Each int or float key of a kind as _runner_kwargs reads it from the runner's signature,
    as a path: (key,), or (object, key) for a float key of a nested kernel or mu object."""
    keys = []
    for name, param in inspect.signature(cli._RUNNERS[kind], eval_str=True).parameters.items():
        if param.kind is not param.KEYWORD_ONLY:
            continue
        if param.annotation is dict:
            keys += [(name, key) for key in param.default if key not in cli._CHOICES]
        elif {int, float} & {param.annotation, *get_args(param.annotation)}:
            keys.append((name,))
    return keys


def _set(exp: dict, path: tuple, value) -> dict:
    exp = json.loads(json.dumps(exp))
    node = exp
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return exp


@pytest.mark.parametrize("sigma", [float("nan"), 10 ** 400], ids=["nan", "beyond-float"])
def test_a_non_finite_sigma_exits_2_before_any_verdict(tmp_path, capsys, sigma):
    # Python's json reads NaN; a NaN sigma used to run orbit-equivalence to verdict=pass
    cfg = _write_config(tmp_path / "cfg.json", {"seed": 1, "experiments": [
        FUZZ_FIRST,
        {"kind": "orbit-equivalence", "cross_section": "abs_first_coordinate", "dim": 3,
         "learner": "invariant_least_squares", "n": 16, "trials": 3, "sigma": sigma},
    ]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "verdict=" not in captured.out
    assert captured.err.startswith("config error: experiments[1].sigma is ")
    assert not (tmp_path / "out").exists()


def test_fuzzed_keys_are_refused_up_front_or_run_to_a_row(tmp_path, capsys):
    # each value of a key is refused before any experiment runs, or every experiment runs to a
    # verdict and a row; a refusal found only in a run used to lose vc-bound's row
    assert {exp["kind"] for exp in FUZZ_BASES} | {FUZZ_FIRST["kind"]} == set(cli.EXPERIMENT_KINDS)
    cases = [(exp, (), None) for exp in FUZZ_BASES]  # each base runs and passes
    cases += [(exp, path, value) for exp in FUZZ_BASES for path in _numeric_keys(exp["kind"])
              for value in FUZZ_VALUES]
    outcomes = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, (base, path, value) in enumerate(cases):
            exp = _set(base, path, value) if path else base
            out = tmp_path / str(i)
            cfg = _write_config(tmp_path / "cfg.json", {"seed": 1, "experiments": [FUZZ_FIRST, exp]})
            code = cli.main(["run", cfg, "--out", str(out)])
            captured = capsys.readouterr()
            printed = captured.out
            where = (base["kind"], path, value)
            if not path:
                assert code == 0, where
            if base["kind"] == "covering" and path in (("n",), ("dim",)) and value in (0, -1):
                # numpy's "negative dimensions are not allowed" used to name no key
                assert code == 2, where
                assert captured.err.strip() == f"config error: experiments[1]: {path[0]} is {value}, below 1"
            if code == 2:
                assert "verdict=" not in printed and not out.exists(), where
            else:
                assert code in (0, 1) and printed.count("verdict=") == 2, where
                assert len((out / "results.csv").read_text().splitlines()) == 4, where
            outcomes[base["kind"], code == 2] += 1
    # every kind with a numeric key has values on both sides of its limits
    assert all(outcomes[exp["kind"], True] and outcomes[exp["kind"], False] for exp in FUZZ_BASES)
