import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
needs_history = pytest.mark.skipif(not (REPO / ".git").exists(),
                                   reason="needs the repository's history")


@pytest.fixture
def recorder():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  REPO / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rev_parse(rev):
    return subprocess.run(["git", "rev-parse", rev], cwd=REPO, capture_output=True, text=True,
                          check=True).stdout.strip()


def _run(pair, side, ops, failed=0, lines=2000):
    return {"pair": pair, "side": side, "seed": pair, "trace": 0, "exit": 0,
            "pins": {"setup": "unchanged"}, "counts_match": False,
            "meta": {"probe_ms": 2.5, "loadavg_1m": 0.4, "commit": "unknown",
                     "src.lines": lines},
            "result": {"correct": True, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"}}}}


SPEC = {"run_seconds": 0.5,
        "workloads": [{"name": "trend_suite"}, {"name": "expand_heavy"}],
        "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.2}]}


def canned_record(recorder, parent):
    # canned runs in real exports: the parent's reports 10 ops/s and 1,000
    # source lines, the change's one op/s more and 2,000 lines
    calls = []

    def fake(workload, seed, seconds, trace, root):
        assert (root / "bench" / "run.py").is_file() and seconds == 0.5
        calls.append((workload, seed, trace, root))
        change = root.name == "change"
        return dict(_run(0, "", 11.0 if change else 10.0, lines=2000 if change else 1000),
                    seed=seed)

    return recorder.record(parent, SPEC, run=fake), calls


def test_spread_gives_the_median_and_inclusive_quartiles(recorder):
    assert recorder.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}


def test_runs_alternate_in_abba_order(recorder):
    assert recorder.abba(4) == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
                                (2, "parent"), (2, "change"), (3, "change"), (3, "parent")]


def test_run_pairs_runs_each_side_in_its_own_checkout_on_the_pairs_seed(recorder, monkeypatch):
    calls = []

    def fake(workload, seed, seconds, trace, root):
        calls.append((workload, seed, seconds, trace, root))
        return {"exit": 0, "seed": seed}

    monkeypatch.setattr(recorder, "PAIRS", 2)
    roots = {"parent": Path("/parent"), "change": Path("/change")}
    runs = recorder.run_pairs(roots, "trend_suite", 0.5, fake)
    assert calls == [("trend_suite", 0, 0.5, 0, Path("/parent")),
                     ("trend_suite", 0, 0.5, 0, Path("/change")),
                     ("trend_suite", 1, 0.5, 0, Path("/change")),
                     ("trend_suite", 1, 0.5, 0, Path("/parent"))]
    assert [(run["pair"], run["side"], run["seed"]) for run in runs] == [
        (0, "parent", 0), (0, "change", 0), (1, "change", 1), (1, "parent", 1)]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_above_the_parents_iqr(recorder):
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    # inclusive quartiles of the parent: 102.25 and 106.75, so its IQR is 4.5
    change = [x + 10.0 for x in parent]
    result = recorder.compare(parent, change, "higher", 0.2)
    assert result["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75, "n": 10}
    assert result["change"]["median"] == 114.5
    assert (result["wins"], result["pairs"], result["parent_iqr"]) == (10, 10, 4.5)
    assert math.isclose(result["relative_change"], 10.0 / 104.5)
    assert result["within_bound"] and result["gain"]
    # 8 wins of 10 is no gain, whatever the gap
    lost = change[:8] + [parent[8] - 1.0, parent[9] - 1.0]
    assert recorder.compare(parent, lost, "higher", 0.2)["wins"] == 8
    assert not recorder.compare(parent, lost, "higher", 0.2)["gain"]
    # 10 wins with a gap of 4 medians below the IQR of 4.5 is no gain either
    small = [x + 4.0 for x in parent]
    assert recorder.compare(parent, small, "higher", 0.2)["wins"] == 10
    assert not recorder.compare(parent, small, "higher", 0.2)["gain"]


def test_a_lower_is_better_metric_wins_by_falling_and_is_bounded_by_rising(recorder):
    parent = [1.0, 1.0, 1.0, 1.0]
    faster = recorder.compare(parent, [0.5] * 4, "lower", 0.2)
    assert (faster["wins"], faster["relative_change"], faster["gain"]) == (4, -0.5, True)
    assert faster["within_bound"]
    slower = recorder.compare(parent, [1.3] * 4, "lower", 0.2)
    assert (slower["wins"], slower["within_bound"], slower["gain"]) == (0, False, False)
    assert recorder.compare(parent, [1.2] * 4, "lower", 0.2)["within_bound"]
    assert not recorder.compare(parent, [0.7] * 4, "higher", 0.2)["within_bound"]
    # ties win nothing
    assert recorder.compare(parent, parent, "lower", 0.2)["wins"] == 0


def test_summarise_pairs_each_metric_by_pair_and_keeps_every_run(recorder):
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}
    runs = [_run(0, "parent", 10.0), _run(0, "change", 12.0),
            _run(1, "change", 13.0), _run(1, "parent", 11.0, failed=1)]
    traced = dict(_run(0, "change", 0.0), seed=3, trace=1, counts_match=True)
    traced["result"]["metrics"] = {"world.step.calls": {"value": 7, "unit": "count"}}
    workload, pairs = recorder.summarise(runs, traced, spec)
    assert list(pairs["metrics"]) == ["ops_per_s"]  # setup_s has no values
    ops = pairs["metrics"]["ops_per_s"]
    assert (ops["parent"]["median"], ops["change"]["median"], ops["wins"]) == (10.5, 12.5, 2)
    assert [(run["pair"], run["side"], run["failed"]) for run in pairs["runs"]] == [
        (0, "parent", 0), (0, "change", 0), (1, "change", 0), (1, "parent", 1)]
    assert pairs["runs"][0]["probe_ms"] == 2.5 and pairs["runs"][0]["pins"] == {
        "setup": "unchanged"}
    # the workload's own entry: the change side's spread and the traced layers
    assert workload["metrics"] == {"ops_per_s": {"median": 12.5, "q1": 12.25, "q3": 12.75,
                                                 "n": 2}}
    assert workload["layers"] == {"world.step.calls": 7} and workload["traced_counts_match"]
    assert (workload["traced"]["seed"], workload["traced"]["trace"]) == (3, 1)
    json.dumps([workload, pairs])


@needs_history
def test_record_runs_each_workload_in_the_same_two_exports(recorder):
    # every workload's pairs run in the one parent export and the one HEAD
    # export, on seeds 0 to 9, then one traced run of the change at seed 3
    result, calls = canned_record(recorder, "HEAD")
    assert len({call[3] for call in calls}) == 2
    order = [(workload, seed, trace, root.name) for workload, seed, trace, root in calls]
    for workload in ("trend_suite", "expand_heavy"):
        expected = [(workload, pair, 0, side) for pair, side in recorder.abba(10)]
        assert [call for call in order if call[0] == workload] == expected + [
            (workload, 3, 1, "change")]
        ops = result["pairs"][workload]["metrics"]["ops_per_s"]
        assert (ops["parent"]["median"], ops["change"]["median"], ops["wins"]) == (10.0, 11.0, 10)
        assert [(run["pair"], run["side"], run["seed"])
                for run in result["pairs"][workload]["runs"]] == [
            (pair, side, pair) for pair, side in recorder.abba(10)]
        assert result["workloads"][workload]["metrics"]["ops_per_s"]["median"] == 11.0
    assert [call[0] for call in calls] == ["trend_suite"] * 21 + ["expand_heavy"] * 21
    assert (result["seeds"], result["seconds"]) == (list(range(10)), 0.5)


@needs_history
def test_both_exports_are_equal_length_siblings_outside_the_checkout(recorder):
    _, calls = canned_record(recorder, "HEAD")
    roots = {call[3].name: call[3] for call in calls}
    assert len({call[3] for call in calls}) == 2
    parent, change = roots["parent"], roots["change"]
    assert parent.parent == change.parent and len(str(parent)) == len(str(change))
    assert not parent.exists()  # the temporary directory is gone once the record is made
    for root in (parent, change):
        assert REPO.resolve() not in (root.resolve(), *root.resolve().parents)


@needs_history
def test_record_takes_ids_from_git_and_src_lines_from_the_change_side(recorder):
    # an export has no .git, so the bench's meta reads "unknown"; and the ABBA
    # order runs the parent first, so its meta must not give src.lines
    result, _ = canned_record(recorder, "HEAD~1")
    assert result["commit"] == rev_parse("HEAD")
    assert result["parent_commit"] == rev_parse("HEAD~1") != result["commit"]
    assert result["parent"] == "HEAD~1" and result["src.lines"] == 2000


@needs_history
def test_a_modified_tracked_file_under_src_is_refused(recorder, tmp_path, monkeypatch, capsys):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("a\n")
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (tmp_path / "notes.txt").write_text("b\n")  # outside what is measured: no refusal
    monkeypatch.setattr(recorder, "REPO", tmp_path)
    started = []
    monkeypatch.setattr(recorder, "record", lambda *args, **kwargs: started.append(args))
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    out = tmp_path / "bench.json"
    assert recorder.main(["--parent", "HEAD", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "src/a.py" in err and "notes.txt" not in err
    assert started == [] and not out.exists()


@needs_history
def test_recorder_summarises_one_short_bench_run(recorder, monkeypatch):
    # the record end to end, HEAD against itself: one 0.01-s pair and the traced
    # run of one workload; tier-1 and criterion 7 are not started here
    monkeypatch.setattr(recorder, "PAIRS", 1)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    spec = dict(spec, run_seconds=0.01, workloads=[{"name": "trend_suite"}])
    result = recorder.record("HEAD", spec)
    assert result["commit"] == result["parent_commit"] == rev_parse("HEAD")
    listed = subprocess.run(["git", "ls-tree", "--name-only", "HEAD", "src/vlaps/"], cwd=REPO,
                            capture_output=True, text=True, check=True).stdout.split()
    assert result["src.lines"] == sum(
        len(subprocess.run(["git", "show", f"HEAD:{path}"], cwd=REPO, capture_output=True,
                           text=True, check=True).stdout.splitlines())
        for path in listed if path.endswith(".py"))
    assert list(result["pairs"]) == ["trend_suite"] == list(result["workloads"])
    for workload, pairs in result["pairs"].items():
        assert [(run["side"], run["exit"], run["correct"], run["failed"])
                for run in pairs["runs"]] == [("parent", 0, True, 0), ("change", 0, True, 0)]
        assert pairs["runs"][0]["pins"] == {"setup": "unchanged",
                                            f"fingerprint {workload} seed 0": "unchanged"}
        assert all(run["probe_ms"] > 0 and run["loadavg_1m"] >= 0 for run in pairs["runs"])
        assert pairs["metrics"]["ops_per_s"]["pairs"] == 1
        entry = result["workloads"][workload]
        ops = pairs["metrics"]["ops_per_s"]["change"]["median"]
        assert entry["metrics"]["ops_per_s"] == {"median": ops, "q1": ops, "q3": ops, "n": 1}
        assert entry["traced_counts_match"] and entry["layers"]["world.step.calls"] > 0
        assert (entry["traced"]["exit"], entry["traced"]["correct"]) == (0, True)


@needs_history
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


DURATIONS = """.                                                                        [100%]
============================== slowest durations ===============================
2.65s call     tests/test_acceptance.py::test_criterion_7_search_space_tractability
0.12s setup    tests/test_acceptance.py::test_criterion_7_search_space_tractability
0.00s teardown tests/test_acceptance.py::test_criterion_7_search_space_tractability
1 passed, 9 deselected in 4.85s
"""


def test_call_seconds_sums_the_call_lines_of_a_durations_report(recorder):
    # criterion 7's process is half start-up and collection; the record keeps
    # the test's own call time beside it, from pytest's --durations lines
    assert recorder.call_seconds(DURATIONS) == 2.65
    two = DURATIONS.replace("0.12s setup", "1.25s call ")
    assert recorder.call_seconds(two) == 2.65 + 1.25
    assert recorder.call_seconds("1 passed in 4.85s\n") is None
    assert recorder.call_seconds("0.50s calls t.py::a\n12 call\n") is None
    assert "--durations=0" in recorder.CRITERION_7 and "--durations-min=0" in recorder.CRITERION_7


def test_timed_records_wall_seconds_exit_summary_and_call_seconds(recorder):
    done = recorder.timed(["-c", "print('0.50s call     t.py::a'); print('1 passed in 0.6s')"])
    assert done["exit"] == 0 and done["summary"] == "1 passed in 0.6s"
    assert done["call_s"] == 0.5 and done["seconds"] > 0
    assert recorder.timed(["-c", "print('5 passed')"])["call_s"] is None
