import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from vlaps.errors import ConfigurationError
from vlaps.harness import (
    CSV_COLUMNS,
    METHOD_PRIOR_ONLY,
    METHOD_VLAPS,
    RunRecord,
    SuiteConfig,
    aggregate,
    load_records,
    render_report,
    resolve_library,
    run_and_report,
    run_suite,
    write_records,
)
from vlaps.search import EpisodeResult, SearchConfig
from vlaps.world import BlockNavEnv


def read_summary_csv(path):
    """summary.csv's rows with their summary.json types; an empty cell is None."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_COLUMNS
        rows = list(reader)
    for row in rows:
        for key in ("noise", "success_rate", "mean_runtime_s", "mean_prior_queries"):
            row[key] = float(row[key]) if row[key] else None
        row["n"] = int(row["n"])
    return rows


def _small_config(**kwargs):
    defaults = dict(
        task_ids=["move_obj0_to_region0", "move_obj1_to_region1"],
        noise_levels=[0.0, 0.6],
        seeds=[0, 1, 2],
        search=SearchConfig(n_mc=30, d_sim_max=60, t_max=5.0),
    )
    defaults.update(kwargs)
    return SuiteConfig(**defaults)


@pytest.fixture(scope="module")
def small_records():
    return run_suite(_small_config())


def test_record_count_arithmetic(small_records):
    # tasks x noise levels x seeds x methods
    assert len(small_records) == 2 * 2 * 3 * 2


def test_paired_seed_invariant(small_records):
    cells = {(r.task_id, r.noise_level, r.seed, r.method) for r in small_records}
    for rec in small_records:
        other = METHOD_VLAPS if rec.method == METHOD_PRIOR_ONLY else METHOD_PRIOR_ONLY
        assert (rec.task_id, rec.noise_level, rec.seed, other) in cells


def test_strict_improvement_per_seed(small_records):
    # wherever the prior-only baseline succeeds, the paired search run does too
    outcome = {(r.task_id, r.noise_level, r.seed, r.method): r.success
               for r in small_records}
    for (task_id, noise, seed, method), ok in outcome.items():
        if method == METHOD_PRIOR_ONLY and ok:
            assert outcome[(task_id, noise, seed, METHOD_VLAPS)]


def test_records_sorted(small_records):
    keys = [r.sort_key() for r in small_records]
    assert keys == sorted(keys)


def test_suite_deterministic(small_records):
    again = run_suite(_small_config())
    assert again == small_records


def test_records_round_trip(small_records, tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(small_records, path)
    loaded = load_records(path)
    assert [r.to_json() for r in loaded] == [r.to_json() for r in small_records]


def test_aggregate_rates_and_runtimes(small_records):
    rows = aggregate(small_records)
    assert len(rows) == 4  # 2 noise levels x 2 methods
    for row in rows:
        assert row["n"] == 6
        assert 0.0 <= row["success_rate"] <= 1.0
    by_key = {(row["noise"], row["method"]): row for row in rows}
    assert by_key[(0.0, METHOD_PRIOR_ONLY)]["success_rate"] == 1.0


def test_aggregate_runtime_excludes_failures():
    recs = [
        RunRecord("t", 0.0, METHOD_VLAPS, 0, True, 1.0, 5, 5),
        RunRecord("t", 0.0, METHOD_VLAPS, 1, True, 3.0, 5, 5),
        RunRecord("t", 0.0, METHOD_VLAPS, 2, False, 99.0, 5, 5),
    ]
    row = aggregate(recs)[0]
    assert row["success_rate"] == pytest.approx(2 / 3)
    assert row["mean_runtime_s"] == pytest.approx(2.0)


def test_aggregate_runtime_none_without_successes():
    recs = [RunRecord("t", 0.0, METHOD_VLAPS, s, False, 9.0, 5, 5) for s in range(3)]
    assert aggregate(recs)[0]["mean_runtime_s"] is None


def test_failed_search_run_consumes_full_budget():
    # noise 1.0 prior + minuscule budget: failures report at least the budget
    cfg = _small_config(
        task_ids=["move_obj0_to_region2"],
        noise_levels=[1.0],
        seeds=[0],
        search=SearchConfig(n_mc=5, d_sim_max=10, d_max=2, t_max=0.001),
    )
    records = run_suite(cfg)
    vlaps = [r for r in records if r.method == METHOD_VLAPS][0]
    assert not vlaps.success
    assert vlaps.wall_time >= cfg.search.t_max


def test_report_files(small_records, tmp_path):
    rows = aggregate(small_records)
    paths = render_report(rows, tmp_path)
    names = {p.name for p in paths}
    assert names == {"summary.csv", "summary.json", "success_rate.svg", "runtime.svg"}
    for p in paths:
        assert p.exists() and p.stat().st_size > 0
    parsed = read_summary_csv(tmp_path / "summary.csv")
    assert parsed == [{k: row[k] for k in CSV_COLUMNS} for row in rows]
    # every summary.json field, mean_prior_queries included, is in the CSV
    assert set(CSV_COLUMNS) == set(rows[0])
    assert [r["mean_prior_queries"] for r in parsed] == [r["mean_prior_queries"] for r in rows]
    assert json.loads((tmp_path / "summary.json").read_text()) == rows
    svg = (tmp_path / "success_rate.svg").read_text()
    assert svg.startswith("<svg") and METHOD_VLAPS in svg


def test_report_handles_empty_summary(tmp_path):
    render_report([], tmp_path)
    assert read_summary_csv(tmp_path / "summary.csv") == []
    assert (tmp_path / "runtime.svg").read_text().startswith("<svg")


def test_report_renders_missing_runtime_as_na(tmp_path):
    rows = aggregate(
        [RunRecord("t", 0.0, METHOD_VLAPS, 0, False, 9.0, 5, 5)]
    )
    render_report(rows, tmp_path)
    assert "N/A" in (tmp_path / "runtime.svg").read_text()
    parsed = read_summary_csv(tmp_path / "summary.csv")
    assert parsed[0]["mean_runtime_s"] is None


def test_resolve_library_missing_path_names_cli():
    cfg = _small_config(library_path="/nonexistent/lib.json")
    env = BlockNavEnv(extent=cfg.extent, object_count=cfg.object_count)
    with pytest.raises(ConfigurationError, match="build-library"):
        resolve_library(cfg, env, env.tasks())


def test_suite_config_rejects_a_search_without_iterations():
    # at N_mc 0 the vlaps arm would be a second prior-only arm, labelled vlaps
    message = "SuiteConfig: search must be a SearchConfig with N_mc at least 1"
    with pytest.raises(ConfigurationError, match=message):
        SuiteConfig(search=SearchConfig(n_mc=0))
    with pytest.raises(ConfigurationError, match=message):
        SuiteConfig.from_json({"search": {"N_mc": 0}})
    with pytest.raises(ConfigurationError, match=message):
        SuiteConfig(search={"N_mc": 5})  # from Python: a dict is no SearchConfig
    assert SearchConfig(n_mc=0).n_mc == 0  # the prior-only arm's run_episode config


def test_run_suite_rejects_more_candidates_than_macros_before_any_episode(monkeypatch):
    # k = 10 with 5 macros used to fail only in the first expansion, after the
    # first prior-only episode had run
    episodes = []
    monkeypatch.setattr("vlaps.harness.run_episode",
                        lambda *a, **kw: episodes.append(a) or EpisodeResult(False, 0, 0, 0.0, 0))
    cfg = _small_config(library_size=5, search=SearchConfig(n_mc=5, k=10, d_sim_max=20))
    with pytest.raises(ConfigurationError, match="search.k = 10 .* only 5 macros"):
        run_suite(cfg)
    assert episodes == []
    run_suite(dataclasses.replace(cfg, search=SearchConfig(n_mc=5, k=5, d_sim_max=20)))
    assert len(episodes) == 2 * 2 * 2 * 3  # k == m is allowed


def test_suite_config_validation():
    with pytest.raises(ConfigurationError):
        SuiteConfig(seeds=[])
    with pytest.raises(ConfigurationError):
        SuiteConfig(noise_levels=[1.5])
    with pytest.raises(ConfigurationError):
        SuiteConfig.from_json({"bogus_key": 1})


@pytest.mark.parametrize("field,values", [
    ("seeds", [0, 0, 1]),
    ("seeds", [np.int64(2), 2]),
    ("noise_levels", [0.4, 0.4]),
    ("noise_levels", [0, 0.0]),
    ("task_ids", ["move_obj0_to_region0", "move_obj0_to_region0"]),
])
def test_suite_config_rejects_a_repeated_entry_naming_the_field(field, values):
    # a repeat would run the same paired episodes again and count them twice
    # in the success rates
    with pytest.raises(ConfigurationError, match=f"SuiteConfig: {field} repeats an entry"):
        SuiteConfig(**{field: values})


@pytest.mark.parametrize("seeds", [[0, 2**32], [-1], [3, np.int64(2**32 + 3)]])
def test_suite_config_rejects_a_seed_outside_32_bits(seeds):
    # RngFactory keeps a seed's low 32 bits, so 2**32 would rerun seed 0's
    # streams and count its episodes twice
    with pytest.raises(ConfigurationError, match=r"SuiteConfig: seeds must lie in \[0, 2\*\*32\)"):
        SuiteConfig(seeds=seeds)
    assert SuiteConfig(seeds=[0, 2**32 - 1]).seeds == [0, 2**32 - 1]


@pytest.mark.parametrize("field", ["seeds", "noise_levels"])
def test_suite_config_rejects_an_empty_list_naming_the_field(field):
    # an empty seeds or noise_levels would run no episode at all; an empty
    # task_ids means every task
    with pytest.raises(ConfigurationError, match=f"SuiteConfig: {field} needs at least one"):
        SuiteConfig(**{field: []})
    assert SuiteConfig(task_ids=[]).task_ids == []


def test_suite_config_accepts_numpy_integer_seeds(tmp_path):
    # the same rule as SearchConfig's: any integer counts; numpy numbers are
    # stored as Python ones, so configs and records serialise to JSON
    assert json.loads(json.dumps(SearchConfig(k=np.int64(4)).to_json()))["k"] == 4
    cfg = _small_config(task_ids=["move_obj0_to_region0"], noise_levels=[np.float32(0.2)],
                        seeds=[np.int64(0)], search=SearchConfig(n_mc=5, d_sim_max=20))
    assert json.loads(json.dumps(cfg.to_json()))["noise_levels"] == [float(np.float32(0.2))]
    records = run_suite(cfg)
    write_records(records, tmp_path / "records.jsonl")
    reloaded = load_records(tmp_path / "records.jsonl")
    assert [r.to_json() for r in reloaded] == [r.to_json() for r in records]
    assert [r.seed for r in reloaded] == [0, 0]


_RECORD = dict(task_id="t", noise_level=0.0, method="vlaps", seed=0, success=True,
               wall_time=1.0, iterations=3, prior_queries=4)


@pytest.mark.parametrize("cls,base,int_field,real_field", [
    pytest.param(SearchConfig, {}, "k", "t_max", id="SearchConfig"),
    pytest.param(SuiteConfig, {}, "library_size", "extent", id="SuiteConfig"),
    pytest.param(RunRecord, _RECORD, "seed", "wall_time", id="RunRecord"),
    pytest.param(BlockNavEnv, {}, "object_count", "pick_radius", id="BlockNavEnv"),
])
@pytest.mark.parametrize("value", [2.5, True, "3", math.nan, math.inf])
def test_every_class_read_from_outside_rejects_bad_values_naming_the_field(
        cls, base, int_field, real_field, value):
    # one type rule: 2.5 is a number but no integer, and the rest are neither
    for name in [int_field] + ([] if value == 2.5 else [real_field]):
        with pytest.raises(ConfigurationError, match=f"{cls.__name__}: {name} must be"):
            cls(**{**base, name: value})
    if cls is SuiteConfig:
        with pytest.raises(ConfigurationError, match="SuiteConfig: seeds must be"):
            cls(seeds=[0, value])


def test_suite_config_json_round_trip():
    cfg = _small_config()
    assert SuiteConfig.from_json(cfg.to_json()) == cfg


def test_run_and_report_outputs(tmp_path):
    cfg = _small_config(
        task_ids=["move_obj0_to_region0"],
        noise_levels=[0.0],
        seeds=[0],
        search=SearchConfig(n_mc=10, d_sim_max=60, t_max=5.0),
        out_dir=str(tmp_path / "sweep"),
    )
    records, summary = run_and_report(cfg)
    out = tmp_path / "sweep"
    assert (out / "records.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "success_rate.svg").exists()
    assert [r.to_json() for r in load_records(out / "records.jsonl")] == [
        r.to_json() for r in records
    ]
    assert len(records) == 2 and len(summary) == 2


def test_run_and_report_byte_identical(tmp_path):
    cfg_kwargs = dict(
        task_ids=["move_obj0_to_region0"],
        noise_levels=[0.4],
        seeds=[0, 1],
        search=SearchConfig(n_mc=20, d_sim_max=60, t_max=5.0),
    )
    blobs = []
    for name in ("a", "b"):
        run_and_report(_small_config(**cfg_kwargs, out_dir=str(tmp_path / name)))
        blobs.append((tmp_path / name / "records.jsonl").read_bytes())
    assert blobs[0] == blobs[1]
