import dataclasses
import json

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
    parse_summary_csv,
    render_report,
    resolve_library,
    run_and_report,
    run_suite,
    write_records,
)
from vlaps.search import SearchConfig
from vlaps.world import make_blocknav_env


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
def small_records(library):
    return run_suite(_small_config(), library=library)


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


def test_suite_deterministic(library, small_records):
    again = run_suite(_small_config(), library=library)
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


def test_failed_search_run_consumes_full_budget(library):
    # noise 1.0 prior + minuscule budget: failures report at least the budget
    cfg = _small_config(
        task_ids=["move_obj0_to_region2"],
        noise_levels=[1.0],
        seeds=[0],
        search=SearchConfig(n_mc=5, d_sim_max=10, d_max=2, t_max=0.001),
    )
    records = run_suite(cfg, library=library)
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
    parsed = parse_summary_csv(tmp_path / "summary.csv")
    assert parsed == [{k: row[k] for k in CSV_COLUMNS} for row in rows]
    # every summary.json field, mean_prior_queries included, is in the CSV
    assert set(CSV_COLUMNS) == set(rows[0])
    assert [r["mean_prior_queries"] for r in parsed] == [r["mean_prior_queries"] for r in rows]
    assert json.loads((tmp_path / "summary.json").read_text()) == rows
    svg = (tmp_path / "success_rate.svg").read_text()
    assert svg.startswith("<svg") and METHOD_VLAPS in svg


def test_report_handles_empty_summary(tmp_path):
    render_report([], tmp_path)
    assert parse_summary_csv(tmp_path / "summary.csv") == []
    assert (tmp_path / "runtime.svg").read_text().startswith("<svg")


def test_report_renders_missing_runtime_as_na(tmp_path):
    rows = aggregate(
        [RunRecord("t", 0.0, METHOD_VLAPS, 0, False, 9.0, 5, 5)]
    )
    render_report(rows, tmp_path)
    assert "N/A" in (tmp_path / "runtime.svg").read_text()
    parsed = parse_summary_csv(tmp_path / "summary.csv")
    assert parsed[0]["mean_runtime_s"] is None


def test_parse_summary_rejects_bad_header(tmp_path):
    bad = tmp_path / "summary.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigurationError):
        parse_summary_csv(bad)


def test_resolve_library_missing_path_names_cli():
    cfg = _small_config(library_path="/nonexistent/lib.json")
    env, tasks = make_blocknav_env(cfg.extent, cfg.object_count)
    with pytest.raises(ConfigurationError, match="build-library"):
        resolve_library(cfg, env, tasks)


def test_suite_config_validation():
    with pytest.raises(ConfigurationError):
        SuiteConfig(seeds=[])
    with pytest.raises(ConfigurationError):
        SuiteConfig(noise_levels=[1.5])
    with pytest.raises(ConfigurationError):
        SuiteConfig.from_json({"bogus_key": 1})


def test_suite_config_json_round_trip():
    cfg = _small_config()
    assert SuiteConfig.from_json(cfg.to_json()) == cfg


def test_run_and_report_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("VLAPS_OUTPUT_ROOT", str(tmp_path))
    cfg = _small_config(
        task_ids=["move_obj0_to_region0"],
        noise_levels=[0.0],
        seeds=[0],
        search=SearchConfig(n_mc=10, d_sim_max=60, t_max=5.0),
        out_dir="sweep",
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


def test_run_and_report_byte_identical(tmp_path, monkeypatch):
    cfg_kwargs = dict(
        task_ids=["move_obj0_to_region0"],
        noise_levels=[0.4],
        seeds=[0, 1],
        search=SearchConfig(n_mc=20, d_sim_max=60, t_max=5.0),
    )
    blobs = []
    for name in ("a", "b"):
        monkeypatch.setenv("VLAPS_OUTPUT_ROOT", str(tmp_path / name))
        run_and_report(_small_config(**cfg_kwargs))
        blobs.append((tmp_path / name / "records.jsonl").read_bytes())
    assert blobs[0] == blobs[1]
