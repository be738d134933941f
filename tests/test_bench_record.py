import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  REPO / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_summarises_one_short_bench_run():
    # one short untraced run, parsed and summarised as the recorder does for
    # each seed; tier-1 and criterion 7 are not started here
    recorder = load_recorder()
    run = recorder.bench_run("uniform_deep", 0, 0.01, 0)
    assert run["exit"] == 0 and run["result"]["correct"] is True
    assert run["pins"] == {"setup": "unchanged", "fingerprint uniform_deep seed 0": "unchanged"}
    summary = recorder.summarise([run])
    lines = sum(len(p.read_text().splitlines()) for p in (REPO / "src" / "vlaps").glob("*.py"))
    assert summary["src.lines"] == lines
    entry = summary["workloads"]["uniform_deep"]
    ops = run["result"]["metrics"]["ops_per_s"]["value"]
    assert entry["metrics"]["ops_per_s"] == {"median": ops, "q1": ops, "q3": ops, "n": 1}
    assert set(entry["metrics"]) == set(run["result"]["metrics"]) and entry["layers"] == {}
    (seen,) = entry["runs"]
    assert seen["probe_ms"] > 0 and seen["loadavg_1m"] >= 0 and seen["failed"] == 0


def test_spread_gives_the_median_and_inclusive_quartiles():
    recorder = load_recorder()
    assert recorder.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
