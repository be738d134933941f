import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def pairs_tool(monkeypatch):
    # the tool imports its sibling bench_record, as it does when run as a script
    monkeypatch.syspath_prepend(str(REPO / "tools"))
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_alternate_in_abba_order(pairs_tool):
    assert pairs_tool.abba(4) == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
                                  (2, "parent"), (2, "change"), (3, "change"), (3, "parent")]


def test_run_pairs_runs_each_side_in_its_own_checkout_on_the_pairs_seed(pairs_tool):
    calls = []

    def fake(workload, seed, seconds, trace, root):
        calls.append((workload, seed, seconds, trace, root))
        return {"exit": 0, "seed": seed}

    roots = {"parent": Path("/parent"), "change": Path("/change")}
    runs = pairs_tool.run_pairs(roots, "trend_suite", 2, 7, 0.5, run=fake)
    assert calls == [("trend_suite", 7, 0.5, 0, Path("/parent")),
                     ("trend_suite", 7, 0.5, 0, Path("/change")),
                     ("trend_suite", 8, 0.5, 0, Path("/change")),
                     ("trend_suite", 8, 0.5, 0, Path("/parent"))]
    assert [(run["pair"], run["side"], run["seed"]) for run in runs] == [
        (0, "parent", 7), (0, "change", 7), (1, "change", 8), (1, "parent", 8)]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_above_the_parents_iqr(pairs_tool):
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    # inclusive quartiles of the parent: 102.25 and 106.75, so its IQR is 4.5
    change = [x + 10.0 for x in parent]
    result = pairs_tool.compare(parent, change, "higher", 0.2)
    assert result["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75, "n": 10}
    assert result["change"]["median"] == 114.5
    assert (result["wins"], result["pairs"], result["parent_iqr"]) == (10, 10, 4.5)
    assert math.isclose(result["relative_change"], 10.0 / 104.5)
    assert result["within_bound"] and result["gain"]
    # 8 wins of 10 is no gain, whatever the gap
    lost = change[:8] + [parent[8] - 1.0, parent[9] - 1.0]
    assert pairs_tool.compare(parent, lost, "higher", 0.2)["wins"] == 8
    assert not pairs_tool.compare(parent, lost, "higher", 0.2)["gain"]
    # 10 wins with a gap of 4 medians below the IQR of 4.5 is no gain either
    small = [x + 4.0 for x in parent]
    assert pairs_tool.compare(parent, small, "higher", 0.2)["wins"] == 10
    assert not pairs_tool.compare(parent, small, "higher", 0.2)["gain"]


def test_a_lower_is_better_metric_wins_by_falling_and_is_bounded_by_rising(pairs_tool):
    parent = [1.0, 1.0, 1.0, 1.0]
    faster = pairs_tool.compare(parent, [0.5] * 4, "lower", 0.2)
    assert (faster["wins"], faster["relative_change"], faster["gain"]) == (4, -0.5, True)
    assert faster["within_bound"]
    slower = pairs_tool.compare(parent, [1.3] * 4, "lower", 0.2)
    assert (slower["wins"], slower["within_bound"], slower["gain"]) == (0, False, False)
    assert pairs_tool.compare(parent, [1.2] * 4, "lower", 0.2)["within_bound"]
    assert not pairs_tool.compare(parent, [0.7] * 4, "higher", 0.2)["within_bound"]
    # ties win nothing
    assert pairs_tool.compare(parent, parent, "lower", 0.2)["wins"] == 0


def _run(pair, side, ops, failed=0):
    return {"pair": pair, "side": side, "seed": pair, "trace": 0, "exit": 0,
            "pins": {"setup": "unchanged"},
            "meta": {"probe_ms": 2.5, "loadavg_1m": 0.4},
            "result": {"correct": True, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"}}}}


def test_summarise_pairs_each_metric_by_pair_and_keeps_every_run(pairs_tool):
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}
    runs = [_run(0, "parent", 10.0), _run(0, "change", 12.0),
            _run(1, "change", 13.0), _run(1, "parent", 11.0, failed=1)]
    summary = pairs_tool.summarise(runs, spec)
    assert list(summary["metrics"]) == ["ops_per_s"]  # setup_s has no values
    ops = summary["metrics"]["ops_per_s"]
    assert (ops["parent"]["median"], ops["change"]["median"], ops["wins"]) == (10.5, 12.5, 2)
    assert [(run["pair"], run["side"], run["failed"]) for run in summary["runs"]] == [
        (0, "parent", 0), (0, "change", 0), (1, "change", 0), (1, "parent", 1)]
    assert summary["runs"][0]["probe_ms"] == 2.5 and summary["runs"][0]["pins"] == {
        "setup": "unchanged"}
    json.dumps(summary)


def test_pair_workloads_runs_each_workload_in_the_same_two_checkouts(pairs_tool):
    # canned runs: every workload's pairs run in the one parent export and this
    # checkout, on the same seeds, and each is summarised apart from the others
    calls = []

    def fake(workload, seed, seconds, trace, root):
        calls.append((workload, seed, root))
        ops = {"trend_suite": 10.0, "expand_heavy": 20.0}[workload]
        return dict(_run(0, "", ops + 1.0 if root == Path("/change") else ops), seed=seed)

    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.2}]}
    roots = {"parent": Path("/parent"), "change": Path("/change")}
    results = pairs_tool.pair_workloads(roots, ["trend_suite", "expand_heavy"], 2, 5, 0.5,
                                        spec, run=fake)
    assert list(results) == ["trend_suite", "expand_heavy"]
    assert calls == [(workload, seed, Path(root)) for workload in ("trend_suite", "expand_heavy")
                     for seed, root in ((5, "/parent"), (5, "/change"),
                                        (6, "/change"), (6, "/parent"))]
    for workload, base in (("trend_suite", 10.0), ("expand_heavy", 20.0)):
        ops = results[workload]["metrics"]["ops_per_s"]
        assert (ops["parent"]["median"], ops["change"]["median"], ops["wins"]) == (
            base, base + 1.0, 2)
        assert [(run["pair"], run["side"], run["seed"]) for run in results[workload]["runs"]] == [
            (0, "parent", 5), (0, "change", 5), (1, "change", 6), (1, "parent", 6)]


@pytest.mark.skipif(not (REPO / ".git").exists(), reason="needs the repository's history")
def test_one_short_pair_of_head_against_itself(pairs_tool, tmp_path, monkeypatch):
    # the tool end to end: HEAD exported once, one 0.01-s pair of each of two
    # workloads, their summaries added to a file that already holds other keys
    exports, export = [], pairs_tool.export

    def counted(rev, dest):
        exports.append(rev)
        return export(rev, dest)

    monkeypatch.setattr(pairs_tool, "export", counted)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"src.lines": 1}))
    code = pairs_tool.main(["--parent", "HEAD", "--workload", "uniform_deep", "--workload",
                            "expand_heavy", "--pairs", "1", "--seconds", "0.01",
                            "--out", str(out)])
    record = json.loads(out.read_text())
    assert code == 0 and record["src.lines"] == 1 and exports == ["HEAD"]
    assert sorted(record["pairs"]) == ["expand_heavy", "uniform_deep"]
    for workload, result in record["pairs"].items():
        assert result["workload"] == workload
        assert len(result["parent_commit"]) == 40 and result["first_seed"] == 1
        assert [(run["side"], run["exit"], run["correct"]) for run in result["runs"]] == [
            ("parent", 0, True), ("change", 0, True)]
        assert result["runs"][0]["pins"]["setup"] == "unchanged"
        assert result["metrics"]["ops_per_s"]["pairs"] == 1
