import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _run_and_check_pins(workload, trace):
    """The standard output lines of one short seed-0 run of ``workload``, after
    checking that it exits 0, is correct and matches its setup and seed-0 pins."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
               "--seconds", "0.01", "--trace", str(trace)]
    run = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stderr
    pinned = [line for line in lines
              if line.startswith(("setup:", f"fingerprint {workload} seed 0:"))]
    assert len(pinned) == 2 and all(line.endswith("(unchanged)") for line in pinned), pinned
    return lines


@pytest.mark.parametrize("workload", ["trend_suite", "uniform_deep", "expand_heavy"])
def test_bench_workload_runs_and_matches_its_pins(workload):
    # the other tests reach none of the bench's imports, its set-up, its clock
    # hooks, its checks or its search digests; one short run of each workload
    # does, and an exception escaping its per-op guard exits 1
    _run_and_check_pins(workload, 0)


def test_traced_trend_suite_counts_match_the_cost_meter():
    # a traced run also reaches the tracer's counters and the layer table
    lines = _run_and_check_pins("trend_suite", 1)
    assert any(line.startswith("traced counts match the CostMeter:") for line in lines), lines


def test_a_seed_beyond_32_bits_of_op_seeds_runs():
    # the bench seeds each search's RngFactory with 1000 * seed + index, which
    # passes 2**32 from this seed on; RngFactory keeps 32 bits of its entropy,
    # and a run whose every op failed would exit 1 with no latency to report
    command = [sys.executable, "bench/run.py", "--workload", "uniform_deep", "--seed",
               "4294968", "--seconds", "0.01"]
    run = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stderr


@pytest.fixture
def workloads(monkeypatch):
    """``bench/workloads.py`` as a module, with ``bench/`` on the path for its imports."""
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_search_digests_match_their_pins_on_more_seeds(tmp_path, workloads):
    # the runs above check the search digests of seed 0 only; the searches of
    # seeds 1-3 of both search workloads must match their pins too
    pinned = json.loads((REPO / "bench" / "pinned.json").read_text())
    env, library_path, library_sha = workloads.set_up(tmp_path)
    assert library_sha == pinned["library"]
    for name in ("uniform_deep", "expand_heavy"):
        for seed in (1, 2, 3):
            workload = workloads.SearchWorkload(name, seed, env, library_path)
            workload.prepare()
            calls = [workload.call(index) for index in range(workloads.FIXED_CALLS[name])]
            assert all(workload.check(call) for call in calls), (name, seed)
            assert workload.fingerprint(calls) == pinned[name][str(seed)], (name, seed)


def test_the_bench_check_replays_goal_plans_that_rollouts_found(tmp_path, workloads):
    # the short runs above reach no goal plan; these two uniform_deep searches
    # find one in a rollout, and the bench's check replays it on a fresh env
    env, library_path, _ = workloads.set_up(tmp_path)
    for seed, index, macros in ((1, 67, 32), (0, 79, 40)):
        workload = workloads.SearchWorkload("uniform_deep", seed, env, library_path)
        workload.prepare()
        call = workload.call(index)
        outcome = call.output[1]
        assert (outcome.kind, len(outcome.plan)) == (workloads.GOAL_PLAN, macros)
        assert workload.check(call)
