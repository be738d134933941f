"""Workloads, metrics and output checks of the vlaps benchmark.

Every workload is a closed loop in one thread: the next op starts when the
previous one returns.  Set-up (environment, default library, library JSON) is
shared by all workloads and timed on its own as ``setup_s``.

* ``trend_suite`` runs ``vlaps run-suite`` in-process on the paired-seed noise
  sweep of the paper's headline comparison; one op is one episode.
* ``uniform_deep`` runs full-budget searches with an uninformed prior and long
  rollouts; one op is one ``search_once``.
* ``expand_heavy`` runs full-budget searches with a noisy expert prior and
  eight-step rollouts, so expansion dominates; one op is one ``search_once``.

Timings are read from a ``ReferenceClock``: host seconds scaled to a fixed
reference speed of the host, which a probe run between pieces of work measures.

With ``--trace 1`` the fixed ops that make the behaviour fingerprint run once
without and once with the outside-in tracer, and the per-layer metrics come
from the traced pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np
import scipy

import vlaps.cli
import vlaps.search
from vlaps.harness import METHOD_PRIOR_ONLY, METHOD_VLAPS, default_library
from vlaps.macrolib import MacroLibrary
from vlaps.prior import UniformLibraryPrior
from vlaps.rngutil import RngFactory, stable_hash
from vlaps.search import GOAL_PLAN, CostMeter, SearchConfig
from vlaps.world import BlockNavEnv, ScriptedExpertPrior

from refclock import ReferenceClock, array_probe, python_probe
from tracer import FUNCTIONS, Tracer

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# each set-up lies between two bursts of this many array probes: set-up is
# short and its speed is read from probes just before and after it
SETUP_PROBES = 10
LIBRARY = {"horizon": 4, "size": 64, "seed": 7}
# the reference clock probes the host's speed at the start of these calls,
# once this many seconds of work have passed since its last probe
PROBE_INTERVAL_S = 0.1
PROBE_POINTS = [
    (vlaps.search, "expand"),
    (vlaps.search, "rollout"),
    (vlaps.harness, "run_episode"),
]

# Criterion 6's sweep, the same in every run.  Its work depends heavily on the
# episode seeds: over twelve blocks of ten seeds the simulated steps of a
# sweep spread by 21% between quartiles, more than any bound a speed change
# could be held to, so the benchmark seed varies the search workloads only.
TREND_TASKS = [
    "move_obj0_to_region0",
    "move_obj0_to_region1",
    "move_obj0_to_region2",
    "move_obj1_to_region0",
    "move_obj1_to_region1",
]
NOISE_LEVELS = [0.0, 0.2, 0.4, 0.6]
TREND_SEEDS = list(range(10))
EPISODES_PER_PASS = len(TREND_TASKS) * len(NOISE_LEVELS) * len(TREND_SEEDS) * 2
DEEP_TASK = "move_obj0_to_region2"

# Calls of the program per workload that make the behaviour fingerprint and
# the traced pass: one whole sweep, or this many searches.  Every untraced run
# completes at least these before its time is up.
FIXED_CALLS = {"trend_suite": 1, "uniform_deep": 2, "expand_heavy": 5}
# a tail percentile needs ten samples beyond it; below this many samples the
# reported tail is the p90: the maximum of the 8-25 searches of a run is set
# by the one search that a blip of the host hit hardest
TAIL_MIN_SAMPLES = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "sim_steps_per_s": "1/s",
    "iters_per_s": "1/s",
    "decision_p50_s": "s",
    "decision_tail_s": "s",
    "peak_rss_mb": "MB",
}
# Self time goes in the result line only for functions that every workload
# calls; the others read 0 on some workload and are printed in the table.
SELF_TIME_FUNCTIONS = [
    "world.step", "world.goal", "world.step_macro",
    "macrolib.distances_to", "macrolib.build_library", "macrolib.load",
    "prior.beta_distribution", "prior.sample_candidates", "prior.psi_prior",
    "search.search_once", "search.expand", "search.rollout",
    "search.select_path", "search.backpropagate", "rngutil.rng",
]
PER_CALL_FUNCTIONS = ["world.step", "world.expert_prior", "prior.sample_candidates"]
COUNTS = [
    "search.iterations", "search.nodes_created", "search.max_depth",
    "search.sim_steps.expand", "search.sim_steps.rollout", "search.sim_steps.execute",
    "search.prior_queries.expand", "search.prior_queries.rollout",
]


@dataclass
class Call:
    """One call of the program: a whole sweep, or one search."""

    ops: int
    wall: float  # host seconds; ``measure`` leaves out the probes
    ref: float = 0.0  # reference seconds, set by ``measure``
    sim_steps: int = 0
    queries: int = 0
    iterations: int = 0
    successes: int = 0
    searched: int = 0  # search-arm ops
    cost_model: list = field(default_factory=list)  # of successful search-arm ops
    output: Any = None
    failed: int = 0


class TrendSuite:
    """``vlaps run-suite`` in-process; the output is ``records.jsonl``."""

    def __init__(self, workdir: Path, library_path: Path):
        self.config_path = workdir / "suite.json"
        self.out_dir = workdir / "suite"
        self.config = {
            "task_ids": TREND_TASKS,
            "noise_levels": NOISE_LEVELS,
            "seeds": TREND_SEEDS,
            "search": {"N_mc": 300, "k": 10, "d_sim_max": 80, "T_max": 10.0},
            "library_path": str(library_path),
            "out_dir": str(self.out_dir),
        }
        self.expected = {(t, n, s, m) for t in TREND_TASKS for n in NOISE_LEVELS
                         for s in TREND_SEEDS for m in (METHOD_PRIOR_ONLY, METHOD_VLAPS)}
        costs = SearchConfig()
        self.query_cost, self.step_cost = costs.prior_query_cost_s, costs.sim_step_cost_s
        self.first_records = None

    def prepare(self) -> None:
        self.config_path.write_text(json.dumps(self.config))

    def call(self, index: int) -> Call:
        with redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = vlaps.cli.main(["run-suite", "--config", str(self.config_path)])
            wall = perf_counter() - start
        if code != 0:
            return Call(EPISODES_PER_PASS, wall, failed=EPISODES_PER_PASS)
        data = (self.out_dir / "records.jsonl").read_bytes()
        records = [json.loads(line) for line in data.splitlines()]
        searched = [r for r in records if r["method"] == METHOD_VLAPS]
        return Call(
            ops=len(records), wall=wall,
            # the record's cost-model time is queries and steps at fixed prices
            sim_steps=sum(round((r["wall_time"] - r["prior_queries"] * self.query_cost)
                                / self.step_cost) for r in records),
            queries=sum(r["prior_queries"] for r in records),
            iterations=sum(r["iterations"] for r in records),
            searched=len(searched),
            successes=sum(r["success"] for r in searched),
            cost_model=[r["wall_time"] for r in searched if r["success"]],
            output=data,
        )

    def check(self, call: Call) -> bool:
        """400 records over the whole grid, the search arm never below the
        prior-only arm at any noise level, and the same bytes as the first
        sweep of the run."""
        if call.output is None:
            return False
        if self.first_records is None:
            self.first_records = call.output
        records = [json.loads(line) for line in call.output.splitlines()]
        keys = {(r["task_id"], r["noise_level"], r["seed"], r["method"]) for r in records}
        rates = defaultdict(list)
        for r in records:
            rates[(r["noise_level"], r["method"])].append(r["success"])
        dominant = all(
            np.mean(rates[(n, METHOD_VLAPS)]) >= np.mean(rates[(n, METHOD_PRIOR_ONLY)])
            for n in NOISE_LEVELS
        )
        return (len(records) == EPISODES_PER_PASS and keys == self.expected
                and dominant and call.output == self.first_records)

    @staticmethod
    def fingerprint(calls: list[Call]) -> str:
        return hashlib.sha256(calls[0].output or b"").hexdigest()


class SearchWorkload:
    """Repeated ``search_once`` on the deepest BlockNav task."""

    def __init__(self, name: str, seed: int, env: BlockNavEnv, library_path: Path):
        self.name = name
        self.seed = seed
        self.env = env
        self.model = BlockNavEnv.from_json(env.to_json())
        self.library_path = library_path
        if name == "uniform_deep":  # criterion 7's uniform arm
            self.cfg = SearchConfig(t_max=1e9, epsilon_beta=1.0, alpha_psi=0.0)
        else:
            self.cfg = SearchConfig(d_sim_max=8, t_max=1e9)
        self.lib = self.prior = None

    def prepare(self) -> None:
        self.lib = MacroLibrary.load(self.library_path)
        if self.name == "uniform_deep":
            self.prior = UniformLibraryPrior(self.lib)
        else:
            self.prior = ScriptedExpertPrior(self.model, self.cfg.horizon, 0.6)

    def call(self, index: int) -> Call:
        op_seed = 1000 * self.seed + index
        start = perf_counter()
        task = self.env.task_by_id(DEEP_TASK)
        state = self.env.reset(op_seed, task.task_id)
        meter = CostMeter(self.cfg)
        outcome = vlaps.search.search_once(
            state, task, self.prior, self.lib, self.model, self.cfg,
            streams=RngFactory(op_seed, stable_hash(task.task_id)), meter=meter,
        )
        wall = perf_counter() - start
        success = outcome.kind == GOAL_PLAN
        return Call(
            ops=1, wall=wall, sim_steps=meter.sim_steps, queries=meter.queries,
            iterations=outcome.iterations_used, searched=1, successes=int(success),
            cost_model=[meter.elapsed()] if success else [], output=(op_seed, outcome),
        )

    def check(self, call: Call) -> bool:
        """A goal plan reaches the goal when replayed on a fresh environment;
        otherwise the search spent its budget and returned a library macro."""
        if call.output is None:
            return False
        op_seed, outcome = call.output
        if outcome.kind == GOAL_PLAN:
            fresh = BlockNavEnv.from_json(self.env.to_json())
            task = fresh.task_by_id(DEEP_TASK)
            final, reached, _ = vlaps.search.replay_plan(
                fresh, fresh.reset(op_seed, DEEP_TASK), outcome.plan, task)
            return reached and task.goal_predicate(final)
        return (outcome.iterations_used == self.cfg.n_mc
                and any(np.array_equal(outcome.best_macro, p) for p in self.lib.prototypes))

    @staticmethod
    def fingerprint(calls: list[Call]) -> str:
        digest = hashlib.sha256()
        for call in calls:
            if call.output is None:
                digest.update(b"error")
                continue
            _, outcome = call.output
            digest.update(json.dumps([outcome.kind, outcome.iterations_used,
                                      outcome.nodes_created, call.sim_steps,
                                      call.queries]).encode())
            plan = outcome.plan if outcome.kind == GOAL_PLAN else [outcome.best_macro]
            for macro in plan:
                digest.update(np.ascontiguousarray(macro, dtype=float).tobytes())
        return digest.hexdigest()


# -- set-up and the measuring loop -------------------------------------------


def set_up(workdir: Path) -> tuple[BlockNavEnv, Path, str]:
    """Build the environment and the default library, and save it as JSON."""
    env = BlockNavEnv(extent=10.0, object_count=2)
    lib = default_library(env, env.tasks(), **LIBRARY)
    path = workdir / "library.json"
    lib.save(path)
    return env, path, hashlib.sha256(path.read_bytes()).hexdigest()


def guarded(workload, index: int, ops_per_call: int) -> Call:
    """Run one call; an exception counts all of its ops as failed."""
    start = perf_counter()
    try:
        return workload.call(index)
    except Exception:  # noqa: BLE001 - a failed op is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        return Call(ops_per_call, perf_counter() - start, failed=ops_per_call)


def measure(workload, seconds: float, fixed: int, ops_per_call: int,
            clock: ReferenceClock) -> tuple[list, list, list]:
    """Closed loop for ``seconds`` (and at least ``fixed`` calls).

    Returns the calls and, per call, the reference and the host latency of
    every ``search_once`` it made.
    """
    marks: list[tuple[float, float]] = []
    spans: list[tuple[float, float]] = []
    bounds = [0]
    original = vlaps.search.search_once

    def timed(*args, **kwargs):
        start = clock.now()
        try:
            return original(*args, **kwargs)
        finally:
            marks.append((start, clock.now()))

    vlaps.search.search_once = timed
    clock.install(PROBE_POINTS)
    try:
        calls = []
        clock.probe()
        begin = perf_counter()
        while len(calls) < fixed or perf_counter() - begin < seconds:
            clock.tick()
            start = clock.now()
            calls.append(guarded(workload, len(calls), ops_per_call))
            spans.append((start, clock.now()))
            bounds.append(len(marks))
        clock.probe()
    finally:
        clock.uninstall()
        vlaps.search.search_once = original
    for call, ref, (start, end) in zip(calls, clock.durations(spans), spans):
        call.ref, call.wall = ref, end - start
    ref = clock.durations(marks)
    wall = [end - start for start, end in marks]
    return (calls, [ref[a:b] for a, b in zip(bounds, bounds[1:])],
            [wall[a:b] for a, b in zip(bounds, bounds[1:])])


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with ten samples beyond it, or the p90."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= TAIL_MIN_SAMPLES:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    if n == 1:
        return ordered[0], "only sample"
    return statistics.quantiles(ordered, n=10, method="inclusive")[-1], f"p90 of {n}"


def decision_latency(groups: list[list[float]]) -> tuple[float, float, str]:
    """Median and tail ``search_once`` latency of a run.

    A sweep repeats the same searches, so pooling sweeps would let the number
    of sweeps decide which search is the tail: each sweep is summarised on
    its own and the run reports the median over sweeps.  Single searches
    are pooled.
    """
    if all(len(g) >= TAIL_MIN_SAMPLES for g in groups):
        medians = [statistics.median(g) for g in groups]
        tails = [tail(g) for g in groups]
        return (statistics.median(medians), statistics.median(t for t, _ in tails),
                f"{tails[0][1]} per sweep, median over {len(groups)} sweeps")
    pooled = [x for g in groups for x in g]
    value, label = tail(pooled)
    return statistics.median(pooled), value, label


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# -- tracing ------------------------------------------------------------------


class Counters:
    """Search counts gathered from the return values of traced calls."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts = dict.fromkeys(COUNTS, 0)
        self.searches = self.goal_plans = self.rollouts = self.goal_rollouts = 0
        self.unsearched_queries = 0
        tracer.hook("search.search_once", self.on_search)
        tracer.hook("search.expand", self.on_expand)
        tracer.hook("search.rollout", self.on_rollout)
        tracer.hook("search.run_episode", self.on_episode)

    def on_search(self, args, outcome) -> None:
        self.searches += 1
        self.goal_plans += outcome.kind == GOAL_PLAN
        self.counts["search.iterations"] += outcome.iterations_used
        self.counts["search.nodes_created"] += outcome.nodes_created

    def on_expand(self, args, children) -> None:
        node = args.arguments["node"]
        base = node.sim_state.step_count
        self.counts["search.sim_steps.expand"] += sum(c.sim_state.step_count - base
                                                      for c in children)
        self.counts["search.prior_queries.expand"] += 1
        self.counts["search.max_depth"] = max(self.counts["search.max_depth"], node.depth + 1)

    def on_rollout(self, args, result) -> None:
        # the prior-only arm rolls out in the true environment: those steps
        # are executed, and run_episode reports them
        success, steps, macros = result
        if not self.tracer.active("search.search_once"):
            self.unsearched_queries += len(macros)
            return
        self.rollouts += 1
        self.goal_rollouts += bool(success)
        self.counts["search.sim_steps.rollout"] += steps
        self.counts["search.prior_queries.rollout"] += len(macros)

    def on_episode(self, args, result) -> None:
        self.counts["search.sim_steps.execute"] += result.primitive_steps


def traced_pass(workload, fixed: int, ops_per_call: int, workdir: Path):
    """Run the fixed calls untraced, then set-up and the same calls traced.

    Returns the untraced and traced calls, the tracer with its counters, the
    untraced wall of the calls and the traced wall of set-up plus the calls.
    """
    start = perf_counter()
    reference = [guarded(workload, i, ops_per_call) for i in range(fixed)]
    untraced_wall = perf_counter() - start

    tracer = Tracer()
    counters = Counters(tracer)
    tracer.install()
    try:
        start = perf_counter()
        tracer.op = 0
        set_up(workdir)
        workload.prepare()
        traced = []
        for i in range(fixed):
            tracer.op = i + 1
            traced.append(guarded(workload, i, ops_per_call))
        traced_wall = perf_counter() - start
    finally:
        tracer.uninstall()
    return reference, traced, tracer, counters, untraced_wall, traced_wall


def layer_table(tracer: Tracer, counters: Counters, calls: list[Call],
                untraced_wall: float, traced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics for the result line, and a printable table of all.

    ``untraced_wall`` covers set-up and the calls, as ``traced_wall`` does.
    """
    totals, top_level = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (totals[name][0], "count")
    for name in SELF_TIME_FUNCTIONS:
        metrics[f"{name}.self_s"] = (totals[name][1], "s")
    # inclusive: the expert prior's time per query includes its own steps
    per_call = {name: 1e6 * totals[name][2] / totals[name][0]
                for name in PER_CALL_FUNCTIONS if totals[name][0]}
    for name in ("world.step", "prior.sample_candidates"):
        metrics[f"{name}.us_per_call"] = (per_call[name], "us")
    for name, value in counters.counts.items():
        metrics[name] = (value, "count")
    metrics["search.rollout_goal_ratio"] = (
        counters.goal_rollouts / counters.rollouts if counters.rollouts else 0.0, "ratio")
    metrics["search.goal_plan_ratio"] = (
        counters.goal_plans / counters.searches if counters.searches else 0.0, "ratio")
    metrics["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    metrics["trace.uncovered_frac"] = (1.0 - top_level / traced_wall, "ratio")

    lines = [f"{'function':<26}{'calls':>9}{'self_s':>10}{'self%':>7}"
             f"{'incl_s':>10}{'incl%':>7}{'incl_us':>10}"]
    for name in FUNCTIONS:
        n, self_s, incl = totals[name]
        us = f"{1e6 * incl / n:10.1f}" if n else f"{'-':>10}"
        lines.append(f"{name:<26}{n:>9}{self_s:>10.4f}{self_s / traced_wall:>7.1%}"
                     f"{incl:>10.4f}{incl / traced_wall:>7.1%}{us}")
    episodes = tracer.durations("search.run_episode")
    if len(episodes) > 1:
        p95 = 1e3 * statistics.quantiles(episodes, n=20)[-1]
        lines.append(f"harness.episode_p95_ms = {p95:.3f} ms over {len(episodes)} episodes")
    for name in PER_CALL_FUNCTIONS:
        if name in per_call:
            lines.append(f"{name}.us_per_call = {per_call[name]:.1f} us")

    # the tracer sees every step and query the CostMeter charged, or a
    # wrapped name is no longer where the program looks it up
    counts = counters.counts
    charged = (sum(c.sim_steps for c in calls), sum(c.queries for c in calls))
    seen = (counts["search.sim_steps.expand"] + counts["search.sim_steps.rollout"]
            + counts["search.sim_steps.execute"],
            counts["search.prior_queries.expand"] + counts["search.prior_queries.rollout"]
            + counters.unsearched_queries)
    if charged != seen:
        raise RuntimeError(f"traced (steps, queries) {seen} differ from the CostMeter's "
                           f"{charged}: a wrapped name is bypassed")
    lines.append(f"traced counts match the CostMeter: {charged[0]} steps, {charged[1]} queries")
    return metrics, lines


# -- metadata and fingerprints --------------------------------------------------


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(root: Path, blas_vars) -> dict:
    sources = sorted((root / "src" / "vlaps").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        # other tenants of a shared host change how fast this process runs,
        # and the load average inside the guest does not show it; this does
        "probe_ms": 1e3 * statistics.median(python_probe() for _ in range(5)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "commit": git_commit(root),
        "src.lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def pinned_status(kind: str, seed: int, value: str) -> str:
    """Compare a fingerprint with ``pinned.json``: one value for a kind whose
    inputs ignore the seed, otherwise one per seed."""
    pinned = json.loads((BENCH / "pinned.json").read_text())[kind]
    expected = pinned.get(str(seed)) if isinstance(pinned, dict) else pinned
    if expected is None:
        return "unpinned"
    return "unchanged" if expected == value else f"CHANGED (pinned {expected})"


# -- entry point ----------------------------------------------------------------


def run(args, root: Path, blas_vars) -> int:
    meta = metadata(root, blas_vars)
    workdir = root / ".bench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_clock = ReferenceClock(PROBE_INTERVAL_S, array_probe)
    spans, library_shas = [], set()
    for _ in range(SETUP_REPEATS):
        setup_clock.probe(SETUP_PROBES)
        start = setup_clock.now()
        env, library_path, library_sha = set_up(workdir)
        spans.append((start, setup_clock.now()))
        library_shas.add(library_sha)
    setup_clock.probe(SETUP_PROBES)
    setup_times = setup_clock.durations(spans)
    setup_walls = [end - start for start, end in spans]

    if args.workload == "trend_suite":
        workload = TrendSuite(workdir, library_path)
        ops_per_call = EPISODES_PER_PASS
    else:
        workload = SearchWorkload(args.workload, args.seed, env, library_path)
        ops_per_call = 1
    workload.prepare()
    fixed = FIXED_CALLS[args.workload]

    if args.trace:
        reference, calls, tracer, counters, untraced_wall, traced_wall = traced_pass(
            workload, fixed, ops_per_call, workdir)
        checked = reference + calls
    else:
        clock = ReferenceClock(PROBE_INTERVAL_S)
        calls, latencies, wall_latencies = measure(workload, args.seconds, fixed,
                                                   ops_per_call, clock)
        checked = calls
    for call in checked:
        if not call.failed and not workload.check(call):
            call.failed = call.ops
    attempted = sum(c.ops for c in checked)
    failed = sum(c.failed for c in checked)
    fingerprint = workload.fingerprint(calls[:fixed])
    # set-up builds the same library every time, and tracing changes nothing
    deterministic = len(library_shas) == 1
    if args.trace:
        deterministic = deterministic and fingerprint == workload.fingerprint(reference)

    print(f"meta: {json.dumps(meta)}")
    print(f"setup: {SETUP_REPEATS} builds, library sha256 {library_sha} "
          f"({pinned_status('library', args.seed, library_sha)})")
    print(f"fingerprint {args.workload} seed {args.seed}: {fingerprint} "
          f"({pinned_status(args.workload, args.seed, fingerprint)})")
    print(f"checks: {attempted} ops attempted, {failed} failed, "
          f"failed_frac {failed / attempted:.6g}; deterministic: {deterministic}")
    searched_ops = sum(c.searched for c in checked)
    successes = sum(c.successes for c in checked)
    costs = [x for c in checked for x in c.cost_model]
    print(f"info success_rate = {successes / max(searched_ops, 1):.4f} ratio "
          f"(search-arm ops reaching the goal, {successes} of {searched_ops})")
    print("info cost_model_s = "
          + (f"{statistics.fmean(costs):.6f} s (mean CostMeter seconds of "
             f"{len(costs)} successful search-arm ops)" if costs else "n/a (no successful op)"))

    if args.trace:
        metrics, lines = layer_table(tracer, counters, calls,
                                     statistics.median(setup_walls) + untraced_wall, traced_wall)
        spans = root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans)
        print(f"traced pass: {fixed} calls, untraced {untraced_wall:.3f} s, traced "
              f"{traced_wall:.3f} s, {len(tracer.span_name)} spans in {spans.relative_to(root)}")
        for line in lines:
            print(line)
    else:
        wall = sum(c.wall for c in calls)
        ops = sum(c.ops for c in calls)
        p50, tail_value, tail_label = decision_latency(latencies)
        wall_p50, wall_tail, _ = decision_latency(wall_latencies)

        def rate(work, clock_of=lambda c: c.ref) -> float:
            # the median over calls, so that a call slowed by another
            # process on the machine does not move the run's figure
            return statistics.median(work(c) / clock_of(c) for c in calls)

        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": rate(lambda c: c.ops),
            "sim_steps_per_s": rate(lambda c: c.sim_steps),
            "iters_per_s": rate(lambda c: c.iterations),
            "decision_p50_s": p50,
            "decision_tail_s": tail_value,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
        print(f"measured: {len(calls)} calls, {ops} ops in {wall:.3f} s; "
              f"{sum(map(len, latencies))} decisions, tail is the {tail_label}")
        probes = clock.probe_s
        print(f"clock: {len(probes)} probes, {1e3 * statistics.median(probes):.3f} ms median "
              f"(range {1e3 * min(probes):.3f}-{1e3 * max(probes):.3f}); host seconds: "
              f"setup {statistics.median(setup_walls):.6g} s, ops {rate(lambda c: c.ops, lambda c: c.wall):.6g} 1/s, "
              f"decision p50 {wall_p50:.6g} s, tail {wall_tail:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
