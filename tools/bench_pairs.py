"""Alternated A/B runs of benchmark workloads, a parent revision against this checkout.

    python3 tools/bench_pairs.py --parent REV --workload W [--workload W2 ...] \
        [--pairs 10] [--first-seed 1] [--seconds S] [--out BENCH_<n>.json]

It exports ``REV`` with ``git archive REV | tar -x`` into a temporary directory,
which needs no network and leaves no worktree behind, and runs
``bench/run.py --trace 0`` there and in this checkout, for ``BENCHMARK.json``'s
``run_seconds`` unless ``--seconds`` is given.  The workloads run one after
another from that one export, each on the same seeds: pair ``i`` runs both sides
on seed ``first_seed + i``, in ABBA order (parent first in even pairs, the change
first in odd ones), so slow drift of the host cancels.  For each end-to-end metric it
writes each side's median and quartiles, the pairs the change won, the parent's
IQR, the change of the medians, whether that stays within the metric's
``BENCHMARK.json`` bound, and the gain rule's verdict: the change wins at least 9
pairs in 10 and its median is better than the parent's by more than the parent's
IQR.  Every run's exit code, ``failed`` count, pin statuses, ``probe_ms`` and load
average are kept.  The results are printed as JSON by workload, or with ``--out``
added under ``pairs`` and each workload's name to that file, beside what
``tools/bench_record.py`` wrote there.  Standard library only; it changes nothing
under ``bench/`` or ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import REPO, bench_run, outcome, spread

PARENT, CHANGE = "parent", "change"
WIN_SHARE = 0.9  # the gain rule's wins: 9 of 10 pairs


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


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; returns its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=REPO,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=REPO, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_pairs(roots: dict, workload: str, pairs: int, first_seed: int, seconds: float,
              run=bench_run) -> list[dict]:
    """Every run of the pairs in ABBA order; ``roots`` maps each side to its checkout."""
    runs = []
    for pair, side in abba(pairs):
        seed = first_seed + pair
        result = run(workload, seed, seconds, 0, roots[side])
        runs.append(dict(result, pair=pair, side=side))
        print(f"pair {pair} {side} seed {seed}: exit {result['exit']}", file=sys.stderr)
    return runs


def summarise(runs: list[dict], spec: dict) -> dict:
    """Each end-to-end metric of ``spec`` compared over the pairs, and each run's
    outcome, pins and host readings."""
    values = {}
    for run in runs:
        metrics = (run["result"] or {}).get("metrics", {})
        for name, metric in metrics.items():
            values.setdefault(name, {}).setdefault(run["side"], {})[run["pair"]] = metric["value"]
    metrics = {}
    for metric in spec["end_to_end"]:
        sides = values.get(metric["name"], {})
        paired = sorted(set(sides.get(PARENT, {})) & set(sides.get(CHANGE, {})))
        if paired:
            metrics[metric["name"]] = compare([sides[PARENT][i] for i in paired],
                                              [sides[CHANGE][i] for i in paired],
                                              metric["better"], metric["bound"])
    kept = [dict(outcome(run), pair=run["pair"], side=run["side"]) for run in runs]
    return {"metrics": metrics, "runs": kept}


def pair_workloads(roots: dict, workloads: list[str], pairs: int, first_seed: int,
                   seconds: float, spec: dict, run=bench_run) -> dict:
    """Each workload's pairs in the same two checkouts, one workload after another,
    summarised by workload."""
    return {workload: summarise(run_pairs(roots, workload, pairs, first_seed, seconds, run),
                                spec) for workload in workloads}


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--workload", required=True, action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    workloads = list(dict.fromkeys(args.workload))
    with tempfile.TemporaryDirectory() as tmp:
        commit = export(args.parent, Path(tmp))
        results = pair_workloads({PARENT: Path(tmp), CHANGE: REPO}, workloads, args.pairs,
                                 args.first_seed, args.seconds, spec)
    for workload, result in results.items():
        result.update(workload=workload, parent=args.parent, parent_commit=commit,
                      seconds=args.seconds, first_seed=args.first_seed)
        for name, metric in result["metrics"].items():
            print(f"{workload} {name}: {metric[PARENT]['median']:.6g} -> "
                  f"{metric[CHANGE]['median']:.6g} ({metric['relative_change']:+.1%}), "
                  f"won {metric['wins']}/{metric['pairs']}, parent IQR "
                  f"{metric['parent_iqr']:.4g}, within bound {metric['within_bound']}, "
                  f"gain {metric['gain']}", file=sys.stderr)
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record.setdefault("pairs", {}).update(results)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(results, indent=1, sort_keys=True))
    failed = [run for result in results.values() for run in result["runs"]
              if run["exit"] != 0 or not run["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
