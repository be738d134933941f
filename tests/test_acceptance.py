"""End-to-end acceptance criteria.

Each test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to see
them on success) and enforces its stated runtime budget.
"""

import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import spearmanr

import vlaps.prior as prior_mod
from vlaps.harness import (
    METHOD_PRIOR_ONLY,
    METHOD_VLAPS,
    SuiteConfig,
    aggregate,
    run_suite,
    write_records,
)
from vlaps.macrolib import MacroLibrary, build_library
from vlaps.prior import UniformLibraryPrior, beta_distribution
from vlaps.rngutil import RngFactory, stable_hash
from vlaps.search import GOAL_PLAN, SearchConfig, replay_plan, search_once
from vlaps.world import BlockNavEnv, ScriptedExpertPrior

PINNED = Path(__file__).resolve().parents[1] / "bench" / "pinned.json"

TREND_TASKS = [
    "move_obj0_to_region0",
    "move_obj0_to_region1",
    "move_obj0_to_region2",
    "move_obj1_to_region0",
    "move_obj1_to_region1",
]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] criterion {num}: {name}{suffix}", flush=True)
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _trend_config():
    return SuiteConfig(
        task_ids=list(TREND_TASKS),
        noise_levels=[0.0, 0.2, 0.4, 0.6],
        seeds=list(range(10)),
        search=SearchConfig(d_sim_max=80, t_max=10.0),
    )


@pytest.fixture(scope="module")
def trend_run(library):
    # a spy on the package's vector check re-checks every probability vector
    # the trend suite produces: non-negative, normalized, and the eps floor
    checks = [0, 0]
    validated = prior_mod._validated

    def spy(probs, epsilon):
        values = probs.tolist()
        ok = (min(values) >= 0.0 and abs(math.fsum(values) - 1.0) <= 1e-9
              and (epsilon <= 0.0 or min(values) >= epsilon / len(values) - 1e-12))
        checks[0] += 1
        checks[1] += not ok
        return validated(probs, epsilon)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prior_mod, "_validated", spy)
        start = time.perf_counter()
        records = run_suite(_trend_config(), library=library)
        elapsed = time.perf_counter() - start
    return records, aggregate(records), elapsed, tuple(checks)


def _standardized(macro, mean, std):
    """A macro's entries as Python floats, each action dimension standardized."""
    return [(a - mu) / sd
            for row in macro.tolist() for a, mu, sd in zip(row, mean.tolist(), std.tolist())]


def test_criterion_1_distribution_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 21))
        horizon = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        protos = rng.normal(size=(m, horizon, dim))
        mean = rng.normal(size=dim)
        std = rng.uniform(0.5, 2.0, size=dim)
        lib = MacroLibrary(protos, mean, std)
        anchor = rng.normal(size=(horizon, dim))
        alpha = float(rng.uniform(0.0, 20.0))
        epsilon = float(rng.uniform(0.0, 1.0))

        probs = beta_distribution(lib.distances_to(anchor), alpha, epsilon)

        # independent scalar transcription of the distances and the mixture
        target = _standardized(anchor, mean, std)
        dists = [math.sqrt(sum((a - b) ** 2 for a, b in zip(_standardized(p, mean, std), target)))
                 for p in protos]
        weights = [math.exp(-alpha * d) for d in dists]
        total = sum(weights)
        oracle = [(1 - epsilon) * w / total + epsilon / m for w in weights]
        worst = max(worst, float(np.max(np.abs(probs - np.asarray(oracle)))))
    elapsed = time.perf_counter() - start
    _report(1, "sampling-distribution oracle equivalence",
            worst < 1e-12 and elapsed < 10.0,
            f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_probability_vector_contract(trend_run):
    _, _, _, (produced, violations) = trend_run
    _report(2, "probability-vector floor/normalization contract",
            produced > 0 and violations == 0,
            f"{produced} vectors checked, {violations} violations")


def test_criterion_3_prior_proportional_allocation():
    from vlaps.search import TreeNode, _best_candidate
    from vlaps.world import StateVec

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    psi = rng.dirichlet(np.ones(10))
    node = TreeNode(StateVec(np.zeros(1)), 0, 0)
    node.children = [TreeNode(StateVec(np.zeros(1)), 1, i + 1, proto=i, psi=float(p))
                     for i, p in enumerate(psi)]
    for _ in range(10_000):
        node.children[_best_candidate(node)].visits += 1
    visits = np.array([child.visits for child in node.children])
    freqs = visits / visits.sum()
    corr = float(spearmanr(freqs, psi).statistic)
    gap = float(np.max(np.abs(freqs - psi)))
    elapsed = time.perf_counter() - start
    _report(3, "prior-proportional visit allocation",
            corr >= 0.99 and gap <= 0.05 and elapsed < 5.0,
            f"spearman {corr:.4f}, max gap {gap:.4f}, {elapsed:.1f}s")


def test_criterion_4_clustering_small_instance_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    exact = 0
    worst_ratio = 1.0
    for trial in range(20):
        count = int(rng.integers(7, 16))
        macros = [rng.normal(size=(2, 2)) for _ in range(count)]
        lib = build_library(macros, 3, seed=trial)

        flat = lib.normalize(np.asarray(macros)).reshape(count, -1)
        dist = cdist(flat, flat)
        medoid_idx = []
        for proto in lib.prototypes:
            matches = [i for i, mac in enumerate(macros)
                       if np.array_equal(mac, proto)]
            medoid_idx.append(matches[0])
        pam_cost = dist[:, medoid_idx].min(axis=1).sum()
        best = min(
            dist[:, list(combo)].min(axis=1).sum()
            for combo in itertools.combinations(range(count), 3)
        )
        if pam_cost <= best + 1e-9:
            exact += 1
        worst_ratio = max(worst_ratio, pam_cost / best)
    elapsed = time.perf_counter() - start
    _report(4, "clustering small-instance optimality",
            exact >= 18 and worst_ratio <= 1.05 and elapsed < 30.0,
            f"{exact}/20 exact, worst ratio {worst_ratio:.4f}, {elapsed:.1f}s")


def test_criterion_5_perfect_prior_shortcut(env, model, tasks, library):
    start = time.perf_counter()
    cfg = SearchConfig()
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    trials = list(itertools.product(range(9), tasks))[:50]
    hits = 0
    for seed, task in trials:
        state = env.reset(seed, task.task_id)
        out = search_once(state, task, prior, library, model, cfg,
                          streams=RngFactory(seed, stable_hash(task.task_id)))
        hits += out.kind == GOAL_PLAN and out.iterations_used == 1
    elapsed = time.perf_counter() - start
    _report(5, "perfect-prior immediate solution",
            hits == 50 and elapsed < 60.0,
            f"{hits}/50 one-iteration plans, {elapsed:.1f}s")


def test_criterion_6_trend_reproduction(trend_run):
    records, summary, elapsed, _ = trend_run
    rates = {(r["noise"], r["method"]): r["success_rate"] for r in summary}
    runtimes = {(r["noise"], r["method"]): r["mean_runtime_s"] for r in summary}
    noises = sorted({r["noise"] for r in summary})

    dominance = all(
        rates[(n, METHOD_VLAPS)] >= rates[(n, METHOD_PRIOR_ONLY)] for n in noises
    )
    band = [n for n in noises if 0.05 <= rates[(n, METHOD_PRIOR_ONLY)] <= 0.50]
    band_gain = band and all(
        rates[(n, METHOD_VLAPS)] - rates[(n, METHOD_PRIOR_ONLY)] >= 0.25
        for n in band
    )
    weakest = max(n for n in noises if rates[(n, METHOD_VLAPS)] > 0
                  and runtimes[(n, METHOD_VLAPS)] is not None)
    ratio = runtimes[(0.0, METHOD_VLAPS)] / runtimes[(weakest, METHOD_VLAPS)]

    ok = (len(records) == len(TREND_TASKS) * 4 * 10 * 2
          and dominance and bool(band_gain) and ratio <= 0.25
          and elapsed < 600.0)
    _report(6, "noise-sweep trend reproduction", ok,
            f"dominance={dominance}, band={band} gain ok={bool(band_gain)}, "
            f"runtime ratio {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_7_search_space_tractability(env, model, library):
    start = time.perf_counter()
    task = env.task_by_id("move_obj0_to_region2")  # macro-depth >= 8 at H=4

    guided_cfg = SearchConfig(t_max=1e9)
    uniform_cfg = SearchConfig(t_max=1e9, epsilon_beta=1.0, alpha_psi=0.0)
    guided_hits = uniform_hits = 0
    for seed in range(20):
        streams = RngFactory(seed, stable_hash(task.task_id))
        state = env.reset(seed, task.task_id)
        prior = ScriptedExpertPrior(model, guided_cfg.horizon, 0.4)
        out = search_once(state, task, prior, library, model, guided_cfg,
                          streams=streams)
        guided_hits += out.kind == GOAL_PLAN

        state = env.reset(seed, task.task_id)
        out = search_once(state, task, UniformLibraryPrior(library), library,
                          model, uniform_cfg, streams=streams)
        uniform_hits += out.kind == GOAL_PLAN
    elapsed = time.perf_counter() - start
    ok = (guided_hits >= 16 and uniform_hits <= 4 and elapsed < 300.0)
    _report(7, "search-space tractability",
            ok, f"guided {guided_hits}/20, uniform {uniform_hits}/20, "
                f"{elapsed:.1f}s")


def test_criterion_8_end_to_end_determinism(library, tmp_path):
    cfg = SuiteConfig(
        task_ids=["move_obj0_to_region0", "move_obj1_to_region2"],
        noise_levels=[0.0, 0.4],
        seeds=[0, 1, 2],
        search=SearchConfig(n_mc=40, d_sim_max=80, t_max=5.0),
    )
    blobs = []
    for name in ("first", "second"):
        records = run_suite(cfg, library=library)
        path = tmp_path / f"{name}.jsonl"
        write_records(records, path)
        blobs.append(path.read_bytes())
    _report(8, "end-to-end determinism", blobs[0] == blobs[1],
            f"{len(blobs[0])} bytes per file")


def test_pinned_fingerprints_are_unchanged(library, trend_run, tmp_path):
    # the default library as JSON and the criterion-6 records are the bytes
    # the benchmark pins; records must stay byte-identical for a fixed config
    pinned = json.loads(PINNED.read_text())
    library.save(tmp_path / "library.json")
    write_records(trend_run[0], tmp_path / "records.jsonl")
    shas = {name: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            for name, file in (("library", "library.json"), ("trend_suite", "records.jsonl"))}
    assert shas == {name: pinned[name] for name in shas}


def test_criterion_9_goal_plan_soundness(env, model, tasks, library):
    violations = 0
    plans = 0
    cfg = SearchConfig(d_sim_max=80, t_max=1e9)
    for noise in (0.0, 0.4):
        for task in tasks:
            for seed in range(5):
                prior = ScriptedExpertPrior(model, cfg.horizon, noise)
                state = env.reset(seed, task.task_id)
                out = search_once(
                    state, task, prior, library, model, cfg,
                    streams=RngFactory(seed, stable_hash(task.task_id),
                                       int(noise * 1000)),
                )
                if out.kind != GOAL_PLAN:
                    continue
                plans += 1
                fresh = BlockNavEnv.from_json(env.to_json())
                final, ok, _ = replay_plan(fresh, env.reset(seed, task.task_id),
                                           out.plan, task)
                if not (ok and task.goal_predicate(final)):
                    violations += 1
    _report(9, "goal-plan replay soundness",
            plans > 0 and violations == 0,
            f"{plans} plans replayed, {violations} violations")
