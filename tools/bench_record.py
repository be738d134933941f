"""Record the benchmark into one JSON file, for a change to quote before and after.

    python3 tools/bench_record.py --out BENCH_<n>.json

It runs ``python3 bench/run.py`` as subprocesses: each workload of
``BENCHMARK.json`` at ``--trace 0`` once per seed of ``SEEDS``, for the file's
``run_seconds`` each, and once at ``--trace 1`` on the first seed.  It also
times tier-1 and criterion 7 with ``perf_counter``.  The file holds, per
workload, the median and quartiles of each end-to-end metric, the per-layer
metrics of the traced pass, every fingerprint's status as the bench printed
it, and each run's ``probe_ms`` and load average, so a slow host can be told
from a slow change; and ``src.lines``.  The seeds and run length are fixed, so
every such file is comparable with the last.  Standard library only; it
changes nothing under ``bench/`` or ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (3, 0, 1)  # each workload runs once per seed; the first is also traced
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
CRITERION_7 = ["-m", "pytest", "-q", "tests/test_acceptance.py", "-k", "criterion_7"]


def bench_run(workload: str, seed: int, seconds: float, trace: int, root: Path = REPO) -> dict:
    """One ``bench/run.py`` process of the checkout at ``root``: its exit code, its
    last line's JSON, its ``meta:`` line, the status of each pinned line and whether
    a traced pass printed that its counts match the CostMeter."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    run = {"workload": workload, "seed": seed, "trace": trace, "exit": done.returncode,
           "result": None, "meta": None, "pins": {}, "counts_match": False}
    for line in lines:
        if line.startswith("meta: "):
            run["meta"] = json.loads(line[len("meta: "):])
        elif line.startswith(("setup:", "fingerprint ")):
            # "setup: ... sha256 <hex> (unchanged)", "fingerprint <w> seed <s>: <hex> (changed)"
            name = line.split(":", 1)[0]
            run["pins"][name] = line.rsplit("(", 1)[-1].rstrip(")")
        elif line.startswith("traced counts match the CostMeter"):
            run["counts_match"] = True
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    return run


def spread(values: list) -> dict:
    """The median and quartiles of ``values`` (the value itself three times for one)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def outcome(run: dict) -> dict:
    """A run's seed, exit code, outcome, pin statuses and host readings."""
    meta, result = run["meta"] or {}, run["result"] or {}
    return {"seed": run["seed"], "trace": run["trace"], "exit": run["exit"],
            "correct": result.get("correct"), "attempted": result.get("attempted"),
            "failed": result.get("failed"), "pins": run["pins"],
            "probe_ms": meta.get("probe_ms"), "loadavg_1m": meta.get("loadavg_1m")}


def summarise(runs: list) -> dict:
    """Per workload: each end-to-end metric's spread over its untraced runs, the
    traced run's metrics, and every run's pins, host readings and outcome."""
    workloads = {}
    for run in runs:
        entry = workloads.setdefault(run["workload"], {"metrics": {}, "layers": {}, "runs": []})
        values = {name: m["value"]
                  for name, m in (run["result"] or {}).get("metrics", {}).items()}
        if run["trace"]:
            entry["layers"] = values
            entry["traced_counts_match"] = run["counts_match"]
        else:
            for name, value in values.items():
                entry["metrics"].setdefault(name, []).append(value)
        entry["runs"].append(outcome(run))
    for entry in workloads.values():
        entry["metrics"] = {name: spread(values) for name, values in entry["metrics"].items()}
    metas = [run["meta"] for run in runs if run["meta"]]
    return {"src.lines": metas[0]["src.lines"] if metas else None,
            "commit": metas[0]["commit"] if metas else None,
            "workloads": workloads}


def timed(args: list) -> dict:
    """Wall seconds of ``python <args>`` at the repository root, with ``src/`` on
    the path, its exit code and pytest's last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=REPO, env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - start
    last = done.stdout.strip().splitlines()[-1:] or [""]
    return {"seconds": seconds, "exit": done.returncode, "summary": last[0]}


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    seconds, runs = spec["run_seconds"], []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            runs.append(bench_run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: exit {runs[-1]['exit']}", file=sys.stderr)
        runs.append(bench_run(workload, SEEDS[0], seconds, 1))
        print(f"{workload} traced: exit {runs[-1]['exit']}", file=sys.stderr)
    record = summarise(runs)
    record["seconds"], record["seeds"] = seconds, list(SEEDS)
    record["tier1"] = timed(TIER1)
    record["criterion_7"] = timed(CRITERION_7)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    failed = [run for run in runs if run["exit"] != 0 or not (run["result"] or {}).get("correct")]
    return 1 if failed or record["tier1"]["exit"] or record["criterion_7"]["exit"] else 0


if __name__ == "__main__":
    sys.exit(main())
