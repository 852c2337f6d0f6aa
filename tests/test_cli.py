"""Harness behaviour: config validation, determinism, exit codes, output files."""

import functools
import gc
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from symlab import cli


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
    assert lines[0] == "# symlab-csv v5"
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
    assert f"experiments[1].{key} is 999, below 1000" in captured.err
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
], ids=["wishart-band", "gap-linear-band", "gap-equivariant-band", "gap-linear-theta",
        "gap-kernel-theta", "gap-equivariant-no-map", "gap-linear-theta-shape",
        "gap-linear-theta-not-invariant", "gap-kernel-theta-shape", "gap-kernel-theta-not-invariant",
        "gap-kernel-theta-not-numbers"])
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
            row = runner(seed, **kwargs)
            assert sum(calls.values()) == before, f"{kind}'s runner built a descriptor"
            return row
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


@pytest.mark.parametrize("name", ["quick", "full"])
def test_suites_use_only_accepted_keys(name):
    config = cli.suite_config(name)
    assert any("kernel" in exp and "mu" in exp for exp in config["experiments"])
    cli._validate_config(config)


def test_non_integer_seed_exits_2(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {"seed": "abc", "experiments": [{"kind": "covering"}]})
    assert cli.main(["run", cfg]) == 2


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
        return {"experiment": "covering", "verdict": "fail"}

    monkeypatch.setitem(cli._RUNNERS, "covering", rigged)
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"seed": 5, "experiments": [{"kind": "covering", "eps": 0.5}]},
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1


def test_numerical_failure_exits_1_not_as_config_error(tmp_path, monkeypatch, capsys):
    def singular(seed, *, eps):
        raise np.linalg.LinAlgError("matrix is not positive definite")

    monkeypatch.setitem(cli._RUNNERS, "covering", singular)
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"seed": 5, "experiments": [{"kind": "covering", "eps": 0.5}]},
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "numerical error: matrix is not positive definite" in err
    assert "config error" not in err


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


# kernel_gap's probes of the kernel itself, each on the same fixed seed in every experiment
_FIXED_PROBES = {"_validate_kernel", "check_switch_condition", "build_averaged_kernel"}


def test_kernel_gap_streams_differ_between_the_quick_suites_experiments(monkeypatch):
    # experiment 11 seeded its N estimate with default_rng(20251 + 7): experiment 18's trial stream
    config = cli.suite_config("quick")
    default_rng = np.random.default_rng
    seeded, probes, current = {}, {}, []

    def recording_rng(seed=None):
        rng = default_rng(seed)
        caller = sys._getframe(1)
        if caller.f_globals["__name__"] == "symlab.kernel_gap":
            # two generators draw the same stream exactly when their seed sequences' states agree
            state = tuple(rng.bit_generator.seed_seq.generate_state(4))
            where = probes if caller.f_code.co_name in _FIXED_PROBES else seeded
            where.setdefault(current[-1], []).append(state)
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    for idx, exp in enumerate(config["experiments"]):
        if exp["kind"] == "gap-kernel":
            # the streams' entropy depends on the seed alone, so fewer draws of each will do
            params = dict(cli._experiment_params(exp), trials=2, bias_trials=2, n_test=8, n_pairs=1000)
            current.append(idx)
            cli.run_experiment(exp["kind"], params, config["seed"] + idx)
    assert len(current) == 16 and set(seeded) == set(current)
    # the trial, bias, N-estimator and target-check streams, each its own
    assert all(len(set(states)) == len(states) >= 4 for states in seeded.values())
    used_by = {}
    for idx, states in seeded.items():
        for state in states:
            used_by.setdefault(state, []).append(idx)
    assert {state: users for state, users in used_by.items() if len(users) > 1} == {}
    # the fixed probes are the same in every experiment and share no stream with one
    assert len({tuple(states) for states in probes.values()}) == 1
    assert not set(used_by) & set(probes[current[0]])


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
    "orbit-equivalence,2,,16,cyclic 2,,,,2,0.02232800539513579,0.0,0.02232800539513579,"
    "pass,,,,,,26abaa2957ec,9",
    "covering,2,,40,,,,,,8.0,,,pass,,,,,,71ef571c0353,10",
    "layer-project,3,3,,symmetric 3,,,,50,2.636779683484747e-16,,0.0,pass,,,,,,99d71359a00d,11",
    "vc-bound,3,3,,symmetric 3,,,,,15.075197125170574,,,pass,,,,,,806af7c6a44c,12",
    "regularisation-bound,3,3,,symmetric 3,,1.0,,1000,6.057069143933699,0.30615415073911934,"
    "33.838015937207224,pass,,,,,,a97decb22b56,13",
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
