"""Record the benchmark, this commit against a parent revision, into one JSON file.

    python3 tools/bench_record.py --parent REV --out BENCH_<n>.json

It exports ``REV`` and ``HEAD`` with ``git archive REV | tar -x`` into two
sibling directories of one temporary directory, whose paths have equal length:
which directory a tree runs from moves ``setup_s`` by itself, so neither side
runs from the checkout.  This needs no network and leaves no worktree behind.
Since the change side is ``HEAD``'s export, a checkout whose tracked files
under ``src``, ``bench`` or ``tools`` or whose ``BENCHMARK.json`` differ from
``HEAD`` is refused with exit code 2 before anything runs.

On each workload of ``BENCHMARK.json`` in turn it runs ``bench/run.py --trace 0``
as ``PAIRS`` pairs of subprocesses, for the file's ``run_seconds`` each: pair
``i`` runs both sides on seed ``i``, in ABBA order (parent first in even pairs,
the change first in odd ones), so slow drift of the host cancels.  Then it runs
one ``--trace 1`` pass of the change at ``TRACED_SEED``.  Last it times tier-1
and criterion 7 in the checkout with ``perf_counter``.  Criterion 7 is one
unpaired pytest process, about half of it start-up and collection, so its record
also holds the test's own call seconds, which pytest's ``--durations`` reports.

The file holds, per workload, under ``workloads`` the change side's median and
quartiles of each metric and the traced pass's per-layer metrics, and under
``pairs`` each end-to-end metric's verdict: each side's median and quartiles,
the pairs the change won, the parent's IQR, the relative change of the medians,
whether that stays within the metric's ``BENCHMARK.json`` bound, and the gain
rule's verdict (at least 9 wins in 10 and a median better than the parent's by
more than the parent's IQR).  Every run's exit code, outcome, pin statuses,
``probe_ms`` and load average are kept, so a slow host can be told from a slow
change; and ``src.lines`` of the change.  The seeds and run length are fixed,
so every such file is comparable with the last.  Standard library only; it
changes nothing under ``bench/`` or ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PAIRS = 10  # pair i runs both sides on seed i; the gain rule needs at least 10
TRACED_SEED = 3
PARENT, CHANGE = "parent", "change"
WIN_SHARE = 0.9  # the gain rule's wins: 9 of 10 pairs
MEASURED = ["src", "bench", "tools", "BENCHMARK.json"]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
CRITERION_7 = ["-m", "pytest", "-q", "tests/test_acceptance.py", "-k", "criterion_7",
               "--durations=0", "--durations-min=0"]


def bench_run(workload: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """One ``bench/run.py`` process of the tree at ``root``: its exit code, its
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


def abba(pairs: int) -> list[tuple[int, str]]:
    """The run order, (pair, side) for each run: parent first in even pairs."""
    order = []
    for pair in range(pairs):
        sides = (PARENT, CHANGE) if pair % 2 == 0 else (CHANGE, PARENT)
        order += [(pair, side) for side in sides]
    return order


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's pairs, ``parent[i]`` against ``change[i]``: each side's spread,
    the change's wins, the parent's IQR, the relative change of the medians, whether
    the change is worse by at most ``bound`` and whether the gain rule holds."""
    sign = 1.0 if better == "higher" else -1.0
    before, after = spread(parent), spread(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    iqr = before["q3"] - before["q1"]
    delta = after["median"] - before["median"]
    if before["median"]:
        relative = delta / abs(before["median"])
    else:
        relative = math.copysign(math.inf, delta) if delta else 0.0
    return {PARENT: before, CHANGE: after, "wins": wins, "pairs": len(parent),
            "parent_iqr": iqr, "relative_change": relative, "bound": bound,
            "within_bound": sign * relative >= -bound,
            "gain": wins >= math.ceil(WIN_SHARE * len(parent)) and sign * delta > iqr}


def run_pairs(roots: dict, workload: str, seconds: float, run) -> list[dict]:
    """Every run of the pairs in ABBA order; ``roots`` maps each side to its tree."""
    runs = []
    for pair, side in abba(PAIRS):
        result = run(workload, pair, seconds, 0, roots[side])
        runs.append(dict(result, pair=pair, side=side))
        print(f"{workload} pair {pair} {side}: exit {result['exit']}", file=sys.stderr)
    return runs


def summarise(runs: list[dict], traced: dict, spec: dict) -> tuple[dict, dict]:
    """One workload's record: the change side's spread of each metric with the
    traced run's metrics, and each end-to-end metric of ``spec`` compared over
    the pairs with every paired run's outcome."""
    values = {}
    for run in runs:
        for name, metric in (run["result"] or {}).get("metrics", {}).items():
            values.setdefault(name, {}).setdefault(run["side"], {})[run["pair"]] = metric["value"]
    compared = {}
    for metric in spec["end_to_end"]:
        sides = values.get(metric["name"], {})
        paired = sorted(set(sides.get(PARENT, {})) & set(sides.get(CHANGE, {})))
        if paired:
            compared[metric["name"]] = compare([sides[PARENT][i] for i in paired],
                                               [sides[CHANGE][i] for i in paired],
                                               metric["better"], metric["bound"])
    layers = {name: m["value"] for name, m in (traced["result"] or {}).get("metrics", {}).items()}
    workload = {"metrics": {name: spread(list(sides[CHANGE].values()))
                            for name, sides in values.items() if CHANGE in sides},
                "layers": layers, "traced_counts_match": traced["counts_match"],
                "traced": outcome(traced)}
    kept = [dict(outcome(run), pair=run["pair"], side=run["side"]) for run in runs]
    return workload, {"metrics": compared, "runs": kept}


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; returns its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=REPO,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=REPO, capture_output=True,
                             check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def record(parent: str, spec: dict, run=bench_run) -> dict:
    """Every workload of ``spec`` paired and traced in exports of ``parent`` and
    ``HEAD``, with the two commit ids and the change's ``src.lines``."""
    seconds = spec["run_seconds"]
    result = {"parent": parent, "seconds": seconds, "seeds": list(range(PAIRS)),
              "src.lines": None, "workloads": {}, "pairs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        # equal-length names: a tree's path alone moves its set-up time
        roots = {PARENT: Path(tmp) / PARENT, CHANGE: Path(tmp) / CHANGE}
        result["parent_commit"] = export(parent, roots[PARENT])
        result["commit"] = export("HEAD", roots[CHANGE])
        for workload in (w["name"] for w in spec["workloads"]):
            runs = run_pairs(roots, workload, seconds, run)
            traced = run(workload, TRACED_SEED, seconds, 1, roots[CHANGE])
            print(f"{workload} traced: exit {traced['exit']}", file=sys.stderr)
            result["workloads"][workload], result["pairs"][workload] = summarise(
                runs, traced, spec)
            result["src.lines"] = result["src.lines"] or (traced["meta"] or {}).get("src.lines")
    return result


def call_seconds(output: str) -> float | None:
    """The summed ``call`` seconds of pytest's ``--durations`` report in ``output``,
    lines such as ``2.31s call     tests/test_x.py::test_y``; None without one."""
    calls = [float(seconds) for seconds in re.findall(r"^(\d+\.\d+)s call\s", output, re.M)]
    return math.fsum(calls) if calls else None


def timed(args: list) -> dict:
    """Wall seconds of ``python <args>`` at the repository root, with ``src/`` on
    the path, its exit code, pytest's last line and the tests' ``call_seconds``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=REPO, env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - start
    last = done.stdout.strip().splitlines()[-1:] or [""]
    return {"seconds": seconds, "exit": done.returncode, "summary": last[0],
            "call_s": call_seconds(done.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    changed = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no", "--",
                              *MEASURED], cwd=REPO, capture_output=True, text=True,
                             check=True).stdout.splitlines()
    if changed:
        print("error: the record measures HEAD's export, and these files differ from HEAD:\n"
              + "\n".join(changed), file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    result = record(args.parent, spec)
    for workload, pairs in result["pairs"].items():
        for name, m in pairs["metrics"].items():
            print(f"{workload} {name}: {m[PARENT]['median']:.6g} -> {m[CHANGE]['median']:.6g} "
                  f"({m['relative_change']:+.1%}), won {m['wins']}/{m['pairs']}, parent IQR "
                  f"{m['parent_iqr']:.4g}, within bound {m['within_bound']}, gain {m['gain']}",
                  file=sys.stderr)
    result["tier1"] = timed(TIER1)
    result["criterion_7"] = timed(CRITERION_7)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    runs = [entry["traced"] for entry in result["workloads"].values()]
    runs += [r for p in result["pairs"].values() for r in p["runs"]]
    failed = [r for r in runs if r["exit"] != 0 or not r["correct"]]
    return 1 if failed or result["tier1"]["exit"] or result["criterion_7"]["exit"] else 0


if __name__ == "__main__":
    sys.exit(main())
