import csv
import json
import math

import numpy as np
import pytest

from vlaps.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUN, main
from vlaps.harness import collect_expert_trajectories
from vlaps.macrolib import MacroLibrary, save_trajectories
from vlaps.search import SearchConfig
from vlaps.world import ScriptedExpertPrior


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


def test_negative_library_seed_is_config_error(traj_file, tmp_path, capsys):
    # numpy's default_rng rejects a negative seed with a bare ValueError
    assert main(["build-library", "--input", str(traj_file), "--size", "16",
                 "--seed", "-1", "--out", str(tmp_path / "lib.json")]) == EXIT_CONFIG
    assert "library seed -1" in capsys.readouterr().err


def test_full_pipeline(traj_file, tmp_path, capsys):
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
        "out_dir": str(tmp_path / "results"),
    }
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg))

    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "4 records" in out  # 1 task x 1 noise x 2 seeds x 2 methods
    results = tmp_path / "results"
    assert (results / "records.jsonl").exists()
    before = (results / "summary.csv").read_bytes()

    assert main(["report", "--records", str(results)]) == EXIT_OK
    assert (results / "summary.csv").read_bytes() == before
    with open(results / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
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


def test_removed_suite_key_is_config_error(tmp_path, capsys):
    # SuiteConfig no longer has an environment key: BlockNav is the only one
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"environment": "blocknav", "seeds": [0]}))
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "environment" in err


@pytest.mark.parametrize("key,value", [("k", 2.5), ("T_max", float("nan"))])
def test_bad_search_value_is_config_error(key, value, tmp_path, capsys):
    # json writes NaN as a bare token, which json.loads reads back
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"search": {"N_mc": 10, key: value}}))
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("seeds", ["x"]), ("seeds", [True]), ("library_size", "64"),
    ("task_ids", "move_obj0_to_region0"), ("noise_levels", ["high"]),
    ("library_seed", 1.5), ("library_path", 3), ("out_dir", None),
    ("search", None), ("search", ["N_mc"]),
])
def test_bad_suite_value_type_is_config_error(key, value, tmp_path, monkeypatch, capsys):
    # a value of the wrong type stops at the config, naming its key, before it
    # reaches RngFactory or build_library or is iterated character by character
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"seeds": [0], key: value}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


@pytest.mark.parametrize("key,value", [("seeds", [0, 0, 1]), ("noise_levels", [])])
def test_repeated_or_missing_suite_entries_are_config_error(key, value, tmp_path,
                                                            monkeypatch, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"seeds": [0], key: value}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert f"configuration error: SuiteConfig: {key}" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


@pytest.mark.parametrize("config,field", [
    ({"seeds": [0, 2**32]}, "SuiteConfig: seeds"),
    ({"seeds": [-1]}, "SuiteConfig: seeds"),
    ({"seeds": [0], "search": {"N_mc": 5, "seed": -1}}, "SearchConfig: seed"),
    ({"seeds": [0], "search": {"N_mc": 5, "seed": 2**32}}, "SearchConfig: seed"),
])
def test_a_seed_outside_32_bits_is_config_error(config, field, tmp_path, monkeypatch, capsys):
    # RngFactory keeps a seed's low 32 bits: 2**32 would rerun seed 0's
    # streams and -1 those of 2**32 - 1
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {field} must lie in [0, 2**32)")
    assert err.count("\n") == 1
    assert not (tmp_path / "records.jsonl").exists()


def test_suite_without_search_iterations_is_config_error(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"seeds": [0], "search": {"N_mc": 0}}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "with N_mc at least 1, got SearchConfig(n_mc=0" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


def test_negative_suite_library_seed_is_config_error(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"seeds": [0], "library_seed": -1}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "library seed -1" in capsys.readouterr().err


def test_suite_config_that_is_not_an_object_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text("[0]")
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert main([
        "build-library", "--input", str(tmp_path / "missing.jsonl"),
        "--size", "8", "--out", str(tmp_path / "lib.json"),
    ]) == EXIT_IO
    assert "I/O error" in capsys.readouterr().err


def test_malformed_config_json_is_config_error_naming_the_path(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text("{not json")
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(cfg_path) in err
    # a config that cannot be read is still an I/O error
    assert main(["run-suite", "--config", str(tmp_path / "missing.json")]) == EXIT_IO


def test_unparseable_library_json_is_config_error_naming_the_path(tmp_path, monkeypatch,
                                                                  capsys):
    # a valid config whose library file does not parse: the error names the
    # library, not only the decoder's position in some file
    lib_path = tmp_path / "lib.json"
    lib_path.write_text('{"prototypes": [}')
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"library_path": str(lib_path), "seeds": [0]}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(lib_path) in err
    assert str(cfg_path) not in err


def test_report_missing_records_is_config_error(tmp_path, capsys):
    assert main(["report", "--records", str(tmp_path)]) == EXIT_CONFIG


def test_unparseable_records_line_is_config_error_naming_the_line(tmp_path, capsys):
    (tmp_path / "records.jsonl").write_text(json.dumps(_RECORD) + "\nnot json\n")
    assert main(["report", "--records", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "records.jsonl:2" in err
    assert not (tmp_path / "summary.csv").exists()


def test_unparseable_trajectory_line_is_config_error_naming_the_line(traj_file, tmp_path,
                                                                    capsys):
    path = tmp_path / "trajs.jsonl"
    path.write_text(traj_file.read_text().splitlines()[0] + "\nnot json\n")
    assert main(["build-library", "--input", str(path), "--size", "2",
                 "--out", str(tmp_path / "lib.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "trajs.jsonl:2" in err


# -- malformed input files -------------------------------------------------------

def test_record_with_unknown_key_is_config_error(tmp_path, capsys):
    record = {"task_id": "t", "noise_level": 0.0, "method": "vlaps", "seed": 0,
              "success": True, "wall_time": 1.0, "iterations": 3, "prior_queries": 4}
    lines = [json.dumps(record), json.dumps({**record, "bogus": 1})]
    (tmp_path / "records.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["report", "--records", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "records.jsonl:2" in err and "bogus" in err


_RECORD = {"task_id": "t", "noise_level": 0.0, "method": "vlaps", "seed": 0,
           "success": True, "wall_time": 1.0, "iterations": 3, "prior_queries": 4}


@pytest.mark.parametrize("key,value", [
    ("noise_level", "high"), ("seed", 1.5), ("seed", True), ("wall_time", False),
    ("success", 1), ("task_id", 3), ("decision_points", None), ("root_tie", "no"),
    ("wall_time", float("nan")), ("noise_level", float("inf")),
])
def test_record_with_bad_value_type_is_config_error(key, value, tmp_path, capsys):
    # json.loads reads a bare NaN or Infinity, which must not reach summary.csv
    lines = [json.dumps(_RECORD), json.dumps({**_RECORD, key: value})]
    (tmp_path / "records.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["report", "--records", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "records.jsonl:2" in err and key in err
    assert not (tmp_path / "summary.csv").exists()


def test_old_records_and_integer_numbers_load(tmp_path, capsys):
    # records written before decision_points and root_tie existed still load,
    # and JSON integers are accepted where a float is expected
    record = {**_RECORD, "noise_level": 0, "wall_time": 2}
    (tmp_path / "records.jsonl").write_text(json.dumps(record) + "\n")
    assert main(["report", "--records", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["noise"], row["mean_runtime_s"]) for row in rows] == [("0", "2.0")]


@pytest.mark.parametrize("second_id", [5, 6])
def test_ragged_trajectory_actions_are_config_error(second_id, tmp_path, capsys):
    # actions of different lengths within one trajectory or across two
    path = tmp_path / "trajs.jsonl"
    lines = [{"traj_id": traj_id, "success": True, "state": [0.0], "action": action}
             for traj_id, action in ((5, [0.0, 0.0, 1.0]), (second_id, [0.0, 0.0]))]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert main(["build-library", "--input", str(path), "--size", "2",
                 "--out", str(tmp_path / "lib.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "trajs.jsonl" in err and f"traj_id={second_id}" in err


def test_mixed_traj_id_types_are_config_error(tmp_path, capsys):
    path = tmp_path / "trajs.jsonl"
    lines = [{"traj_id": traj_id, "success": True, "state": [0.0], "action": [0.0, 0.0, 1.0]}
             for traj_id in (0, "a")]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert main(["build-library", "--input", str(path), "--size", "2",
                 "--out", str(tmp_path / "lib.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "trajs.jsonl" in err and "traj_id" in err


@pytest.mark.parametrize("alias", [True, 1.0])
def test_traj_id_that_is_no_integer_or_string_is_config_error(alias, tmp_path, capsys):
    # true and 1.0 equal 1 as dict keys, so they would merge into trajectory 1
    path = tmp_path / "trajs.jsonl"
    lines = [{"traj_id": traj_id, "success": True, "state": [0.0], "action": [0.0, 0.0, 1.0]}
             for traj_id in (1, alias, 1, 2)]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert main(["build-library", "--input", str(path), "--size", "2",
                 "--out", str(tmp_path / "lib.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "trajs.jsonl:2" in err and "traj_id must be an integer or a string" in err


# one trajectory's "success" values as JSON text, one per record (None leaves
# the key out), and the line that is refused
BAD_SUCCESS_FLAGS = {
    "missing": ([None], 1),
    "string": (['"false"'] * 4, 1),
    "null": (["true", "true", "null"], 3),
    "list": (["[1]"] * 4, 1),
    "number": (["1"] * 4, 1),
    "disagreeing": (["true", "true", "false", "true"], 3),
}


@pytest.mark.parametrize("case", sorted(BAD_SUCCESS_FLAGS))
def test_trajectory_without_a_boolean_success_is_config_error(case, tmp_path, capsys):
    # a truthy "false" or [1] used to count a failed trajectory as a success and
    # put its macros into the library; records that disagree let the first win
    flags, line = BAD_SUCCESS_FLAGS[case]
    step = '"traj_id": 0, "state": [0.0], "action": [0.0, 0.0, 1.0]'
    path = tmp_path / "trajs.jsonl"
    path.write_text("".join("{" + step + (f', "success": {flag}' if flag else "") + "}\n"
                            for flag in flags))
    assert main(["build-library", "--input", str(path), "--size", "2",
                 "--out", str(tmp_path / "lib.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"trajs.jsonl:{line}:" in err and "success" in err


def test_library_without_prototypes_is_config_error(tmp_path, monkeypatch, capsys):
    lib_path = tmp_path / "lib.json"
    lib_path.write_text(json.dumps({"format_version": 1, "H": 4, "n": 3, "m": 2,
                                    "per_dim_mean": [0.0] * 3, "per_dim_std": [1.0] * 3}))
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"library_path": str(lib_path), "seeds": [0]}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "lib.json" in err and "prototypes" in err


def test_nan_extent_is_config_error(tmp_path, monkeypatch, capsys):
    # a NaN extent would otherwise surface as a bad prior or too few macros
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"extent": float("nan"), "seeds": [0]}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "extent" in capsys.readouterr().err


def test_an_extent_at_which_a_squared_distance_can_overflow_is_config_error(
        tmp_path, monkeypatch, capsys):
    # at 1e308 the expert's norm overflowed in numpy during the library build
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"extent": 1e308, "seeds": [0]}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: BlockNavEnv: extent must be at most 1e+150")
    assert err.count("\n") == 1 and not (tmp_path / "records.jsonl").exists()


@pytest.mark.parametrize("shape", [(16, 8, 3), (16, 4, 2)], ids=["H8", "n2"])
def test_library_of_another_shape_is_config_error(shape, tmp_path, monkeypatch, capsys):
    # an H=8 library under "H": 4, or macros of 2 columns for the 3-column
    # BlockNav actions, used to fail deep in distances_to
    lib_path = tmp_path / "lib.json"
    prototypes = np.random.default_rng(0).normal(size=shape)
    MacroLibrary(prototypes, np.zeros(shape[2]), np.ones(shape[2])).save(lib_path)
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"library_path": str(lib_path), "seeds": [0],
                                    "search": {"N_mc": 5, "H": 4}}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"({shape[1]}, {shape[2]})" in err and "(4, 3)" in err


@pytest.mark.parametrize("name,bad", [("prototypes", math.nan), ("per_dim_std", math.inf),
                                      ("per_dim_mean", -math.inf)])
def test_non_finite_library_is_config_error(name, bad, tmp_path, monkeypatch, capsys):
    # such a library used to reach the prior as a NaN probability vector and
    # end the run with a traceback
    data = MacroLibrary(np.random.default_rng(0).normal(size=(16, 4, 3)), np.zeros(3),
                        np.ones(3)).to_json()
    if name == "prototypes":
        data[name][3][1][2] = bad
    else:
        data[name][1] = bad
    lib_path = tmp_path / "lib.json"
    lib_path.write_text(json.dumps(data))
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"library_path": str(lib_path), "seeds": [0],
                                    "search": {"N_mc": 5}}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "lib.json" in err and name in err and "is not finite" in err


def test_non_finite_trajectory_action_is_config_error(traj_file, tmp_path, capsys):
    # one NaN action used to give a library whose per_dim_mean is NaN
    lines = traj_file.read_text().splitlines()
    record = json.loads(lines[2])
    record["action"][1] = math.nan
    lines[2] = json.dumps(record)
    path = tmp_path / "trajs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "lib.json"
    assert main(["build-library", "--input", str(path), "--size", "16",
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "trajs.jsonl:3" in err and "not finite" in err and not out.exists()


def test_failed_run_is_exit_4_with_one_line(tmp_path, monkeypatch, capsys):
    # a package error other than configuration or I/O, here the search's
    # PriorQueryError around a failing expert, is reported, not raised
    def broken(self, obs, task, rng):
        raise RuntimeError("expert broke")

    monkeypatch.setattr(ScriptedExpertPrior, "sample_macro", broken)
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"task_ids": ["move_obj0_to_region2"], "seeds": [0],
                                    "noise_levels": [0.0], "search": {"N_mc": 5}}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_RUN
    err = capsys.readouterr().err
    assert err.startswith("run failed: PriorQueryError: ") and "expert broke" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _run_at_alpha(key, tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"task_ids": ["move_obj0_to_region2"], "seeds": [0],
                                    "noise_levels": [1.0],
                                    "search": {"N_mc": 5, key: 1e308}}))
    monkeypatch.chdir(tmp_path)
    assert main(["run-suite", "--config", str(cfg_path)]) == EXIT_OK
    out, err = capsys.readouterr()
    # numpy warns of no overflow (tier-1 makes a RuntimeWarning an error)
    assert "2 records" in out and err == ""


def test_an_alpha_at_which_every_scaled_distance_overflows_runs(tmp_path, monkeypatch, capsys):
    # -alpha * dists is -inf for every macro, where the softmax's max-shift
    # alone would give NaN; the prior is then uniform over the nearest macros
    _run_at_alpha("alpha_beta", tmp_path, monkeypatch, capsys)


def test_an_alpha_psi_at_which_some_scaled_distances_overflow_runs(tmp_path, monkeypatch,
                                                                   capsys):
    # a candidate whose -alpha * dist overflows gets a selection prior of 0
    _run_at_alpha("alpha_psi", tmp_path, monkeypatch, capsys)
