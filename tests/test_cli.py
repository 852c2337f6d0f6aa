"""Harness behaviour: config validation, determinism, exit codes, output files."""

import json

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
    assert lines[0] == "# symlab-csv v1"
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


def test_deleted_covering_mode_key_exits_2(tmp_path, capsys):
    payload = {"seed": 1, "experiments": [
        {"kind": "covering", "n": 30, "dim": 2, "eps": 0.5, "mode": "greedy_upper"},
    ]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "experiments[0]" in err and "'mode'" in err


@pytest.mark.parametrize("nested,value,bad", [
    # each typo used to fall back to a default: a Gaussian kernel, Gaussian inputs
    ("kernel", {"tpye": "linear"}, "'tpye'"),
    ("mu", {"knid": "sphere"}, "'knid'"),
    ("mu", "sphere", "must be a JSON object"),
])
def test_unknown_nested_key_exits_2_before_any_experiment_runs(tmp_path, capsys, nested, value, bad):
    payload = {"seed": 1, "experiments": [
        {"kind": "covering", "n": 30, "dim": 2, "eps": 0.5},
        {"kind": "gap-kernel", "group": "cyclic 2", "rep": "natural_permutation",
         "n": 8, "rho": 1.0, "trials": 2, nested: value},
    ]}
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert f"experiments[1].{nested}" in captured.err and bad in captured.err
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
    def rigged(params, seed):
        return {"experiment": "covering", "verdict": "fail"}

    monkeypatch.setitem(cli._RUNNERS, "covering", rigged)
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"seed": 5, "experiments": [{"kind": "covering", "eps": 0.5}]},
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1


def test_numerical_failure_exits_1_not_as_config_error(tmp_path, monkeypatch, capsys):
    def singular(params, seed):
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
