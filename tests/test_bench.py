import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["trend_suite", "uniform_deep", "expand_heavy"])
def test_bench_workload_runs_and_matches_its_pins(workload):
    # the other tests reach none of the bench's imports, its set-up, its clock
    # hooks, its checks or its search digests; one short run of each workload
    # does, and an exception escaping its per-op guard exits 1
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
               "--seconds", "0.01", "--trace", "0"]
    run = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stderr
    pinned = [line for line in lines
              if line.startswith(("setup:", f"fingerprint {workload} seed 0:"))]
    assert len(pinned) == 2 and all(line.endswith("(unchanged)") for line in pinned), pinned
