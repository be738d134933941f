import json

import pytest

from vlaps.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from vlaps.harness import collect_expert_trajectories, parse_summary_csv
from vlaps.macrolib import MacroLibrary, save_trajectories
from vlaps.search import SearchConfig


@pytest.fixture(scope="module")
def traj_file(env, tasks, tmp_path_factory):
    path = tmp_path_factory.mktemp("demos") / "trajs.jsonl"
    save_trajectories(collect_expert_trajectories(env, tasks, [0, 1, 2]), path)
    return path


def test_build_library_command(traj_file, tmp_path, capsys):
    out = tmp_path / "lib.json"
    code = main([
        "build-library", "--input", str(traj_file), "--size", "16",
        "--seed", "3", "--horizon", "4", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "m=16" in capsys.readouterr().out
    lib = MacroLibrary.load(out)
    assert lib.m == 16 and lib.horizon == 4 and lib.action_dim == 3


def test_full_pipeline(traj_file, tmp_path, monkeypatch, capsys):
    lib_path = tmp_path / "lib.json"
    assert main([
        "build-library", "--input", str(traj_file), "--size", "32",
        "--seed", "7", "--out", str(lib_path),
    ]) == EXIT_OK

    cfg = {
        "task_ids": ["move_obj0_to_region0"],
        "noise_levels": [0.0],
        "seeds": [0, 1],
        "search": SearchConfig(n_mc=10, d_sim_max=60, t_max=5.0).to_json(),
        "library_path": str(lib_path),
        "out_dir": "results",
    }
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("VLAPS_OUTPUT_ROOT", str(tmp_path))

    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "4 records" in out  # 1 task x 1 noise x 2 seeds x 2 methods
    results = tmp_path / "results"
    assert (results / "records.jsonl").exists()
    before = (results / "summary.csv").read_bytes()

    assert main(["report", "--records", str(results)]) == EXIT_OK
    assert (results / "summary.csv").read_bytes() == before
    rows = parse_summary_csv(results / "summary.csv")
    assert {row["method"] for row in rows} == {"vlaps", "prior_only"}


def test_missing_library_is_config_error(tmp_path, capsys):
    cfg = {"library_path": str(tmp_path / "nope.json"), "seeds": [0]}
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "build-library" in capsys.readouterr().err


def test_bad_config_key_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"not_a_field": 1}))
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("key", ["c_exp", "literal_eq2"])
def test_removed_search_knob_is_config_error(key, tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"search": {"N_mc": 10, key: 1.4}}))
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


@pytest.mark.parametrize("key,value", [("k", 2.5), ("T_max", float("nan"))])
def test_bad_search_value_is_config_error(key, value, tmp_path, capsys):
    # json writes NaN as a bare token, which json.loads reads back
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"search": {"N_mc": 10, key: value}}))
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert main([
        "build-library", "--input", str(tmp_path / "missing.jsonl"),
        "--size", "8", "--out", str(tmp_path / "lib.json"),
    ]) == EXIT_IO
    assert "I/O error" in capsys.readouterr().err


def test_malformed_config_json_is_io_error(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text("{not json")
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_IO


def test_report_missing_records_is_config_error(tmp_path, capsys):
    assert main(["report", "--records", str(tmp_path)]) == EXIT_CONFIG
