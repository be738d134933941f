import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def recorder():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  REPO / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not (REPO / ".git").exists(), reason="needs the repository's history")
def test_one_short_pair_of_head_against_itself(recorder, tmp_path, monkeypatch):
    # the paired record end to end through the command line, HEAD against
    # itself: two exports, one 0.01-s pair and the traced run of each of two
    # workloads, and the tier-1 and criterion-7 timings stubbed
    exports, export, record = [], recorder.export, recorder.record

    def counted(rev, dest):
        exports.append(rev)
        return export(rev, dest)

    def short(parent, spec):
        return record(parent, dict(spec, run_seconds=0.01, workloads=[
            {"name": "uniform_deep"}, {"name": "expand_heavy"}]))

    timed = []
    monkeypatch.setattr(recorder, "PAIRS", 1)
    monkeypatch.setattr(recorder, "export", counted)
    monkeypatch.setattr(recorder, "record", short)
    monkeypatch.setattr(recorder, "timed", lambda args: timed.append(args) or {
        "seconds": 1.0, "exit": 0, "summary": "1 passed"})
    # the refusal of a modified checkout has its own test; HEAD's two exports
    # are what this one measures, whatever the checkout holds
    monkeypatch.setattr(recorder, "MEASURED", ["BENCHMARK.json"])
    out = tmp_path / "bench.json"
    code = recorder.main(["--parent", "HEAD", "--out", str(out)])
    result = json.loads(out.read_text())
    assert code == 0 and exports == ["HEAD", "HEAD"]
    assert timed == [recorder.TIER1, recorder.CRITERION_7]
    assert result["tier1"]["summary"] == result["criterion_7"]["summary"] == "1 passed"
    assert result["commit"] == result["parent_commit"] and len(result["commit"]) == 40
    assert (result["seeds"], result["seconds"]) == ([0], 0.01)
    assert sorted(result["pairs"]) == ["expand_heavy", "uniform_deep"] == sorted(
        result["workloads"])
    for workload, pairs in result["pairs"].items():
        assert [(run["side"], run["exit"], run["correct"]) for run in pairs["runs"]] == [
            ("parent", 0, True), ("change", 0, True)]
        assert pairs["runs"][0]["pins"]["setup"] == "unchanged"
        assert pairs["metrics"]["ops_per_s"]["pairs"] == 1
        assert result["workloads"][workload]["traced_counts_match"]
