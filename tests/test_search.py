import collections
import copy
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vlaps.search
import vlaps.world
from vlaps.errors import ConfigurationError, ContractViolationError, PriorQueryError
from vlaps.macrolib import MacroLibrary
from vlaps.prior import (
    UniformLibraryPrior,
    beta_distribution,
    psi_prior,
    sample_candidates,
)
from vlaps.rngutil import CANDIDATES, PRIOR_QUERY, ROLLOUT, RngFactory
from vlaps.search import (
    BEST_ROOT_MACRO,
    GOAL_PLAN,
    CostMeter,
    SearchConfig,
    SearchOutcome,
    TreeNode,
    _best_candidate,
    _check_tree,
    _path_macros,
    _query_prior,
    backpropagate,
    expand,
    replay_plan,
    rollout,
    run_episode,
    search_once,
    select_path,
)
from vlaps.world import (
    BlockNavEnv,
    CheckedMacro,
    ScriptedExpertPrior,
    StateVec,
    TaskSpec,
    WorldModel,
    _steer_values,
    check_macro,
    step_macro,
)


# -- config ------------------------------------------------------------------

def test_config_defaults():
    cfg = SearchConfig()
    assert cfg.n_mc == 300
    assert cfg.k == 10
    assert cfg.d_sim_max == 300
    assert cfg.horizon == 4
    assert cfg.d_max == 100
    assert cfg.t_max == 600.0
    assert cfg.alpha_beta == 10.0
    assert cfg.epsilon_beta == 0.1
    assert cfg.alpha_psi == 5.0


def test_config_json_round_trip():
    cfg = SearchConfig(n_mc=50, k=4, t_max=12.5)
    data = cfg.to_json()
    assert data["N_mc"] == 50 and data["T_max"] == 12.5 and data["H"] == 4
    assert SearchConfig.from_json(data) == cfg


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigurationError):
        SearchConfig.from_json({"N_mc": 10, "bogus": 1})
    with pytest.raises(ConfigurationError):
        SearchConfig(epsilon_beta=2.0)
    with pytest.raises(ConfigurationError):
        SearchConfig(k=0)


@pytest.mark.parametrize("field,value", [
    ("t_max", math.nan), ("t_max", math.inf), ("alpha_beta", math.nan),
    ("alpha_psi", math.nan), ("alpha_psi", math.inf), ("epsilon_psi", math.nan),
    ("prior_query_cost_s", -0.002), ("prior_query_cost_s", math.nan),
    ("sim_step_cost_s", -1e-4), ("sim_step_cost_s", math.nan), ("sim_step_cost_s", math.inf),
    ("k", 2.5), ("n_mc", 2.5), ("d_sim_max", 2.5), ("horizon", 2.5), ("d_max", 2.5),
    ("k", 3.0), ("k", "3"), ("k", True), ("t_max", "10"),
    # RngFactory keeps a seed's low 32 bits, so -1 would run 2**32 - 1's streams
    ("seed", -1), ("seed", 2**32),
])
def test_config_rejects_non_finite_negative_and_non_integer_values(field, value):
    with pytest.raises(ConfigurationError, match=field):
        SearchConfig(**{field: value})


def test_config_checks_integer_fields_before_real_ones():
    # t_max precedes seed in the dataclass, but the integer checks run first
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        SearchConfig(t_max=math.nan, seed=2.5)


def test_config_accepts_large_budgets_and_numpy_integers():
    cfg = SearchConfig(t_max=1e9, k=np.int64(4), n_mc=np.int32(7), prior_query_cost_s=0,
                       sim_step_cost_s=0.0, seed=2**32 - 1)
    assert (cfg.t_max, cfg.k, cfg.n_mc, cfg.seed) == (1e9, 4, 7, 2**32 - 1)


def test_config_json_round_trip_of_every_field():
    # every knob round-trips through suite configs; none is settable only in code
    cfg = SearchConfig(n_mc=7, k=3, d_sim_max=11, horizon=2, d_max=5, t_max=9.5,
                       alpha_beta=1.5, epsilon_beta=0.25, alpha_psi=2.5, epsilon_psi=0.5,
                       seed=13, prior_query_cost_s=0.5, sim_step_cost_s=0.125)
    assert all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(SearchConfig))
    data = json.loads(json.dumps(cfg.to_json()))
    assert list(data) == ["N_mc", "k", "d_sim_max", "H", "d_max", "T_max", "alpha_beta",
                          "epsilon_beta", "alpha_psi", "epsilon_psi", "seed",
                          "prior_query_cost_s", "sim_step_cost_s"]
    assert SearchConfig.from_json(data) == cfg


# -- score / selection / backprop ---------------------------------------------

def _fake_node(psi, counts, protos=None):
    """An expanded root whose children carry the given edge stats."""
    node = TreeNode(StateVec(np.zeros(2)), depth=0, node_id=0)
    protos = range(len(psi)) if protos is None else protos
    node.children = [TreeNode(StateVec(np.zeros(2)), 1, i + 1, proto=proto, psi=float(p),
                              visits=int(n))
                     for i, (proto, p, n) in enumerate(zip(protos, psi, counts))]
    return node


def numpy_score(psi, counts, i):
    """The selection score as it was, on a node's numpy psi and count arrays."""
    n_i = float(counts[i])
    return float(psi[i]) * math.sqrt(float(counts.sum())) / (1.0 + n_i)


def numpy_best_candidate(psi, counts):
    """The selection as it was: ties to the higher psi, then the lower index."""
    return max(range(len(psi)), key=lambda i: (numpy_score(psi, counts, i), float(psi[i]), -i))


def test_score_zero_counts():
    node = _fake_node([0.2, 0.5, 0.3], [0, 0, 0])
    counts = np.zeros(3, dtype=np.int64)
    assert [numpy_score(np.array([0.2, 0.5, 0.3]), counts, i) for i in range(3)] == [0.0] * 3
    # tie broken by higher psi, then lower index
    assert _best_candidate(node) == 1
    tied = _fake_node([0.4, 0.4, 0.2], [0, 0, 0])
    assert _best_candidate(tied) == 0


def test_score_hand_example():
    # scores 0.5 * sqrt(1) / 2 = 0.25 and 0.5 * sqrt(1) / 1 = 0.5
    psi, counts = np.array([0.5, 0.5]), np.array([1, 0])
    assert [numpy_score(psi, counts, i) for i in range(2)] == [0.25, 0.5]
    assert _best_candidate(_fake_node(psi, counts)) == 1


def test_score_scaling_invariance():
    a = _fake_node([0.1, 0.6, 0.3], [3, 1, 2])
    b = _fake_node([0.2, 1.2, 0.6], [3, 1, 2])
    assert _best_candidate(a) == _best_candidate(b)


def test_best_candidate_matches_numpy_reference():
    # the list form takes the same IEEE steps on the same doubles as the numpy
    # score did, so it picks the same child, exact ties included
    gen = np.random.default_rng(17)
    seen = collections.Counter()
    for trial in range(3000):
        k = int(gen.integers(1, 12))
        if trial % 2:
            psi = gen.dirichlet(np.ones(k))
            counts = gen.integers(0, 50, size=k)
        else:
            # few distinct values: equal scores with equal psi (psi 0.25 and 1
            # visit ties psi 0.25 and 1 visit) and with different psi (psi 0.25
            # and no visit ties psi 0.5 and 1 visit)
            psi = gen.choice([0.125, 0.25, 0.5], size=k)
            counts = gen.integers(0, 4, size=k)
        if trial % 4 == 2:
            # psi 0 and, in about half of these nodes, no visits at all
            psi = np.where(gen.random(k) < 0.5, 0.0, psi)
            counts = counts * gen.integers(0, 2)
        want = numpy_best_candidate(psi, counts)
        assert _best_candidate(_fake_node(psi, counts)) == want, trial
        scores = [numpy_score(psi, counts, i) for i in range(k)]
        top = [i for i in range(k) if scores[i] == scores[want]]
        seen["score_tie_equal_psi"] += any(psi[i] == psi[want] for i in top if i != want)
        seen["score_tie_other_psi"] += any(psi[i] != psi[want] for i in top)
        seen["no_visits"] += not counts.any()
        seen["psi_zero_chosen"] += float(psi[want]) == 0.0
    assert min(seen["score_tie_equal_psi"], seen["score_tie_other_psi"]) >= 100, seen
    assert min(seen["no_visits"], seen["psi_zero_chosen"]) >= 50, seen


def test_select_path_fresh_root():
    node = TreeNode(StateVec(np.zeros(2)), 0, 0)
    leaf, path = select_path(node, SearchConfig())
    assert leaf is node and path == []


def test_backpropagate_locality():
    a = _fake_node([0.5, 0.5], [0, 0])
    b = _fake_node([0.5, 0.5], [0, 0])
    backpropagate([(a, 1)])
    assert [child.visits for child in a.children] == [0, 1]
    assert [child.visits for child in b.children] == [0, 0]


def test_select_path_deterministic():
    cfg = SearchConfig()
    root = _fake_node([0.3, 0.7], [2, 5])
    l1, p1 = select_path(root, cfg)
    l2, p2 = select_path(root, cfg)
    assert l1 is l2 and [i for _, i in p1] == [i for _, i in p2]


# -- expansion / rollout -------------------------------------------------------

@pytest.fixture
def search_setup(env, model, tasks, library):
    cfg = SearchConfig(k=5, n_mc=20, d_sim_max=80, t_max=1e9)
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    return cfg, prior


def test_expand_creates_k_children(env, model, tasks, library, search_setup):
    cfg, prior = search_setup
    task = tasks[0]
    node = TreeNode(env.reset(0, task.task_id), 0, 0)
    meter = CostMeter(cfg)
    children = expand(node, prior, library, model, task, cfg,
                      np.random.default_rng(0), np.random.default_rng(1), meter, 1)
    assert len(children) == cfg.k and node.children == children
    assert len({child.proto for child in children}) == cfg.k
    assert sum(child.psi for child in children) == pytest.approx(1.0)
    assert all(child.visits == 0 for child in children)
    assert meter.queries == 1  # exactly one prior query per expansion
    # expand charges the steps of every child's macro (step_macro charges none)
    assert meter.sim_steps == sum(c.sim_state.step_count - node.sim_state.step_count
                                  for c in children) > 0
    with pytest.raises(ContractViolationError):
        expand(node, prior, library, model, task, cfg,
               np.random.default_rng(0), np.random.default_rng(1), meter, 10)


def test_expand_depth_cap(env, model, tasks, library, search_setup):
    cfg, prior = search_setup
    node = TreeNode(env.reset(0, tasks[0].task_id), cfg.d_max, 0)
    with pytest.raises(ContractViolationError):
        expand(node, prior, library, model, tasks[0], cfg,
               np.random.default_rng(0), np.random.default_rng(1), CostMeter(cfg), 1)


def reference_expand(node, prior, lib, model, task, cfg, rng_query, rng_sample, meter,
                     next_id):
    """expand as it was: each candidate stepped by step_macro, which checks the
    macro's shape and tests the goal on the start state before stepping."""
    meter.queries += 1
    where = f"in expand at depth {node.depth}"
    anchor = _query_prior(prior, model, node.sim_state, task, rng_query, where)
    dists = lib.distances_to(anchor)
    dist = beta_distribution(dists, cfg.alpha_beta, cfg.epsilon_beta)
    indices = sample_candidates(dist, cfg.k, rng_sample)
    psi = psi_prior(dists[indices], cfg.alpha_psi, cfg.epsilon_psi).tolist()
    for slot, (proto, weight) in enumerate(zip(indices, psi)):
        state, success, used = step_macro(model, node.sim_state.copy(),
                                          lib.prototypes[proto], task)
        meter.sim_steps += used
        node.children.append(TreeNode(state, node.depth + 1, next_id + slot,
                                      success, proto, weight))
    return node.children


def test_expand_matches_step_macro_reference(env, model, tasks, library):
    # random non-goal nodes, many a few steps from the goal on the expert's
    # path so that candidates reach it in mid-macro
    gen = np.random.default_rng(31)
    seen = collections.Counter()
    for trial in range(300):
        task = tasks[trial % len(tasks)]
        cfg = SearchConfig(k=int(gen.integers(1, 12)), alpha_beta=float(gen.uniform(0, 20)),
                           epsilon_beta=float(gen.uniform()), t_max=1e9)
        prior = ScriptedExpertPrior(model, cfg.horizon, float(gen.choice([0.0, 0.3, 1.0])))
        path = [env.reset(trial, task.task_id)]
        while not task.goal_predicate(path[-1]):
            path.append(env.step(path[-1], _steer_values(env, task)(path[-1].values)))
        back = int(gen.integers(1, 4)) if trial % 3 else int(gen.integers(1, len(path)))
        start = path[len(path) - 1 - back]
        depth = int(gen.integers(0, 5))
        children = []
        for fn in (reference_expand, expand):
            meter = CostMeter(cfg)
            node = TreeNode(start.copy(), depth, 7)
            fn(node, prior, library, model, task, cfg, RngFactory(trial).rng(PRIOR_QUERY),
               RngFactory(trial).rng(CANDIDATES), meter, 8)
            children.append(([(c.sim_state.values, c.sim_state.step_count, c.depth,
                               c.node_id, c.is_goal, c.proto, c.psi, c.visits)
                              for c in node.children], meter.queries, meter.sim_steps))
        assert children[0] == children[1], trial
        for _, step_count, _, _, is_goal, _, _, _ in children[1][0]:
            steps = step_count - start.step_count
            seen["goal_mid_macro" if is_goal and steps < cfg.horizon
                 else "goal_last_step" if is_goal else "no_goal"] += 1
    assert min(seen.values()) >= 20, seen


def test_expand_rejects_a_goal_node(env, model, tasks, library, search_setup):
    # the search stops at a goal node; expanding one is a caller's error
    cfg, prior = search_setup
    node = TreeNode(env.reset(0, tasks[0].task_id), 0, 0, is_goal=True)
    with pytest.raises(ContractViolationError, match="goal node"):
        expand(node, prior, library, model, tasks[0], cfg,
               np.random.default_rng(0), np.random.default_rng(1), CostMeter(cfg), 1)
    assert node.children == []


def test_rollout_degenerate_start(env, model, tasks, library, search_setup):
    cfg, prior = search_setup
    task = tasks[0]
    # drive the expert to the goal first
    state = env.reset(0, task.task_id)
    while not task.goal_predicate(state):
        state = env.step(state, _steer_values(env, task)(state.values))
    success, steps, macros = rollout(model, prior, state, task, cfg,
                                     np.random.default_rng(0), CostMeter(cfg))
    assert success and steps == 0 and macros == []


def test_rollout_respects_step_cap(model, env, tasks, library):
    cfg = SearchConfig(d_sim_max=17, t_max=1e9)
    prior = UniformLibraryPrior(library)
    state = env.reset(0, tasks[2].task_id)
    success, steps, _ = rollout(model, prior, state, tasks[2], cfg,
                                np.random.default_rng(0), CostMeter(cfg))
    assert steps <= 17
    if not success:
        assert steps == 17


def test_replaced_goal_predicate_sees_every_rollout_step(model, env, tasks, library):
    # a counting predicate installed with dataclasses.replace, as a tracer
    # wraps it, is the rollout's only goal test: once on entry, then after
    # every simulated step of a rollout that misses the goal
    task, calls = tasks[2], []

    def counting(state):
        calls.append(state.step_count)
        return task.goal_predicate(state)

    cfg = SearchConfig(d_sim_max=50, t_max=1e9)
    state = env.reset(0, task.task_id)
    success, steps, _ = rollout(model, UniformLibraryPrior(library), state,
                                dataclasses.replace(task, goal_predicate=counting), cfg,
                                np.random.default_rng(0), CostMeter(cfg))
    assert (success, steps) == (False, 50)
    assert calls == list(range(51))


def test_rollout_deterministic(model, env, tasks, library):
    cfg = SearchConfig(d_sim_max=40, t_max=1e9)
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.5)
    state = env.reset(1, tasks[0].task_id)
    runs = [rollout(model, prior, state, tasks[0], cfg, np.random.default_rng(9),
                    CostMeter(cfg)) for _ in range(2)]
    assert runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1]
    for m1, m2 in zip(runs[0][2], runs[1][2]):
        assert np.array_equal(m1, m2)


# -- search_once ----------------------------------------------------------------

def test_perfect_prior_returns_plan_in_one_iteration(env, model, tasks, library):
    cfg = SearchConfig()
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    state = env.reset(0, tasks[0].task_id)
    out = search_once(state, tasks[0], prior, library, model, cfg,
                      streams=RngFactory(0), meter=CostMeter(cfg))
    assert out.kind == GOAL_PLAN and out.iterations_used == 1


def test_goal_plans_replay_to_goal(env, model, tasks, library):
    cfg = SearchConfig(d_sim_max=80, t_max=1e9)
    for noise, seed in [(0.0, 0), (0.4, 1), (0.6, 2)]:
        prior = ScriptedExpertPrior(model, cfg.horizon, noise)
        task = tasks[2]
        state = env.reset(seed, task.task_id)
        out = search_once(state, task, prior, library, model, cfg,
                          streams=RngFactory(seed), meter=CostMeter(cfg))
        if out.kind == GOAL_PLAN:
            final, ok, _ = replay_plan(BlockNavEnv.from_json(env.to_json()),
                                       state, out.plan, task)
            assert ok and task.goal_predicate(final)


def test_root_already_at_goal(env, model, tasks, library):
    task = tasks[0]
    state = env.reset(0, task.task_id)
    while not task.goal_predicate(state):
        state = env.step(state, _steer_values(env, task)(state.values))
    cfg = SearchConfig()
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    out = search_once(state, task, prior, library, model, cfg, streams=RngFactory(0),
                      meter=CostMeter(cfg))
    assert out.kind == GOAL_PLAN and out.plan == [] and out.iterations_used == 0


def test_budget_exhaustion_returns_most_visited(env, model, tasks, library):
    cfg = SearchConfig(n_mc=15, d_sim_max=20, t_max=1e9)
    prior = UniformLibraryPrior(library)
    task = tasks[2]
    state = env.reset(0, task.task_id)
    out = search_once(state, task, prior, library, model, cfg, streams=RngFactory(3),
                      meter=CostMeter(cfg))
    assert out.kind == BEST_ROOT_MACRO
    assert out.iterations_used == cfg.n_mc
    assert np.shape(out.best_macro) == (library.horizon, library.action_dim)
    assert out.nodes_created <= 1 + cfg.n_mc * cfg.k


def test_search_deterministic(env, model, tasks, library):
    cfg = SearchConfig(n_mc=10, d_sim_max=40, t_max=1e9)
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.7)
    task = tasks[1]
    state = env.reset(5, task.task_id)
    outs = [search_once(state, task, prior, library, model, cfg,
                        streams=RngFactory(5), meter=CostMeter(cfg)) for _ in range(2)]
    assert outs[0].kind == outs[1].kind
    assert outs[0].iterations_used == outs[1].iterations_used
    if outs[0].kind == GOAL_PLAN:
        for m1, m2 in zip(outs[0].plan, outs[1].plan):
            assert np.array_equal(m1, m2)
    else:
        assert np.array_equal(outs[0].best_macro, outs[1].best_macro)


def test_search_deadline_cuts_iterations(env, model, tasks, library):
    cfg = SearchConfig(n_mc=200, d_sim_max=20, t_max=0.05)
    prior = UniformLibraryPrior(library)
    state = env.reset(0, tasks[2].task_id)
    out = search_once(state, tasks[2], prior, library, model, cfg,
                      streams=RngFactory(0), meter=CostMeter(cfg))
    assert out.kind == BEST_ROOT_MACRO
    assert out.iterations_used < 200


def test_search_with_a_used_meter_stops_at_t_max(env, model, tasks, library):
    # the budget is cfg.t_max on the meter: a meter that already reads half of
    # it leaves the search what a fresh meter and half the budget leave it
    cfg = SearchConfig(n_mc=200, d_sim_max=20, t_max=0.1)
    half = dataclasses.replace(cfg, t_max=0.05)
    prior = UniformLibraryPrior(library)
    task = tasks[2]
    state = env.reset(0, task.task_id)
    used = CostMeter(cfg)
    used.sim_steps += 500  # 0.05 cost-model seconds
    outs = [search_once(state, task, prior, library, model, c, streams=RngFactory(0),
                        meter=meter)
            for c, meter in ((cfg, CostMeter(cfg)), (cfg, used), (half, CostMeter(half)))]
    assert [out.kind for out in outs] == [BEST_ROOT_MACRO] * 3
    assert 1 < outs[1].iterations_used == outs[2].iterations_used < outs[0].iterations_used
    assert np.array_equal(outs[1].best_macro, outs[2].best_macro)
    assert used.elapsed() >= cfg.t_max


def test_prior_proportional_allocation():
    # single-node simulation: visit frequencies track the selection prior
    from scipy.stats import spearmanr
    rng = np.random.default_rng(0)
    psi = rng.dirichlet(np.ones(10))
    node = _fake_node(psi, np.zeros(10, dtype=int))
    for _ in range(5000):
        node.children[_best_candidate(node)].visits += 1
    visits = np.array([child.visits for child in node.children])
    freqs = visits / visits.sum()
    assert spearmanr(freqs, psi).statistic >= 0.99
    assert np.max(np.abs(freqs - psi)) <= 0.05


# -- tiny discrete optimality oracle ------------------------------------------

class ChainWorld(WorldModel):
    """1-D integer line in [0, 5]; one action dim, moves round(a).  Its state's
    values are a list of one Python float."""

    def __init__(self, goal_pos):
        self.goal_pos = goal_pos

    @property
    def action_dim(self):
        return 1

    def reset(self, seed, task_id):
        return StateVec([0.0])

    def step(self, state, action):
        pos = float(np.clip(state.values[0] + round(float(action[0])), 0, 5))
        return StateVec([pos], state.step_count + 1)

    def observe(self, state):
        return state.values.copy()

    def task(self):
        goal = self.goal_pos
        return TaskSpec("chain", "reach the goal cell",
                        lambda s: bool(s.values[0] == goal))


def _chain_library():
    protos = np.array([[[-1.0]], [[0.0]], [[1.0]], [[2.0]]])
    return MacroLibrary(protos, np.zeros(1), np.ones(1))


def _enumerate_reachable(world, task, depth, lib):
    state = world.reset(0, "chain")
    frontier = [state]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for proto in lib.prototypes:
                s2 = world.step(s, proto[0])
                if task.goal_predicate(s2):
                    return True
                nxt.append(s2)
        frontier = nxt
    return False


@pytest.mark.parametrize("goal_pos,reachable", [(5.0, True), (4.5, False)])
def test_small_instance_optimality(goal_pos, reachable):
    world = ChainWorld(goal_pos)
    task = world.task()
    lib = _chain_library()
    assert _enumerate_reachable(world, task, 3, lib) == reachable
    cfg = SearchConfig(n_mc=400, k=4, d_max=3, d_sim_max=3, horizon=1,
                       epsilon_beta=1.0, alpha_psi=0.0, t_max=1e9)
    prior = UniformLibraryPrior(lib)
    out = search_once(world.reset(0, "chain"), task, prior, lib, world, cfg,
                      streams=RngFactory(0), meter=CostMeter(cfg))
    assert (out.kind == GOAL_PLAN) == reachable


# -- run_episode ----------------------------------------------------------------

def test_episode_prior_only_mode(env, model, tasks, library):
    cfg = SearchConfig(n_mc=0, d_sim_max=80)
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    result = run_episode(env, model, tasks[0], prior, library, cfg,
                         streams=RngFactory(0), reset_seed=0)
    assert result.success and result.decision_points == 0
    assert result.primitive_steps <= 80


def test_episode_goal_plan_execution(env, model, tasks, library):
    cfg = SearchConfig(d_sim_max=80, t_max=1e6)
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    result = run_episode(env, model, tasks[2], prior, library, cfg,
                         streams=RngFactory(0), reset_seed=0)
    assert result.success
    assert result.total_search_iterations == 1


def test_episode_deterministic(env, model, tasks, library):
    cfg = SearchConfig(n_mc=20, d_sim_max=60, t_max=1e6)
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.6)
    results = [run_episode(env, model, tasks[2], prior, library, cfg,
                           streams=RngFactory(7), reset_seed=7) for _ in range(2)]
    assert results[0] == results[1]


def test_episode_receding_horizon_replans(env, model, tasks, library):
    # tiny budget + weak prior: the runner must execute root macros and re-search
    cfg = SearchConfig(n_mc=2, d_sim_max=8, d_max=6, t_max=1e6)
    prior = UniformLibraryPrior(library)
    result = run_episode(env, model, tasks[2], prior, library, cfg,
                         streams=RngFactory(1), reset_seed=1)
    assert result.decision_points > 1


@pytest.mark.parametrize("field,seed,task_index", [("max_step", 0, 0), ("pick_radius", 3, 1)])
def test_episode_replans_after_a_goal_plan_misses(field, seed, task_index, env, tasks, library):
    # a model that moves or picks further than the environment makes goal
    # plans that miss on it; the runner searches again from where it ended
    model = BlockNavEnv.from_json({**env.to_json(), field: 0.7})
    cfg = SearchConfig(n_mc=30, d_sim_max=80, t_max=1e6)
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.2)
    task = tasks[task_index]
    start = env.reset(seed, task.task_id)
    first = search_once(start, task, prior, library, model, cfg, streams=RngFactory(seed),
                        meter=CostMeter(cfg))
    assert first.kind == GOAL_PLAN and not replay_plan(env, start, first.plan, task)[1]
    result = run_episode(env, model, task, prior, library, cfg,
                         streams=RngFactory(seed), reset_seed=seed)
    assert result.success and result.decision_points > 1


# -- the search writes no state it is given ---------------------------------------

def _snapshot(state):
    return list(state.values), state.step_count


def _no_write_cases(world_name, env, tasks, library):
    """(world, task, library, prior, config, the search's exit) for a search that
    finds a goal plan and one that spends its budget; ChainWorld steps macros
    through the step-and-test loop of WorldModel.run_macro."""
    if world_name == "blocknav":
        return [(env, tasks[2], library, prior, cfg, kind) for prior, cfg, kind in (
            (ScriptedExpertPrior(env, 4, 0.0), SearchConfig(d_sim_max=80, t_max=1e9), GOAL_PLAN),
            (UniformLibraryPrior(library), SearchConfig(n_mc=15, d_sim_max=20, t_max=1e9),
             BEST_ROOT_MACRO))]
    lib = _chain_library()
    cfg = SearchConfig(n_mc=60, k=4, d_max=3, d_sim_max=3, horizon=1,
                       epsilon_beta=1.0, alpha_psi=0.0, t_max=1e9)
    return [(world, world.task(), lib, UniformLibraryPrior(lib), cfg, kind)
            for world, kind in ((ChainWorld(5.0), GOAL_PLAN), (ChainWorld(4.5), BEST_ROOT_MACRO))]


@pytest.mark.parametrize("world_name", ["blocknav", "chain"])
def test_search_writes_no_state_it_is_given(world_name, env, tasks, library):
    # nothing copies a state on the way in, so each call must leave the values
    # and step count of the state it is handed as they were
    for world, task, lib, prior, cfg, kind in _no_write_cases(world_name, env, tasks, library):
        start = world.reset(0, task.task_id)
        before = _snapshot(start)
        out = search_once(start, task, prior, lib, world, cfg, streams=RngFactory(0),
                          meter=CostMeter(cfg))
        assert out.kind == kind and _snapshot(start) == before
        plan = out.plan if kind == GOAL_PLAN else [out.best_macro]
        assert replay_plan(world, start, plan, task)[2] > 0 and _snapshot(start) == before
        assert step_macro(world, start, plan[0], task)[2] > 0 and _snapshot(start) == before
        rollout(world, prior, start, task, cfg, np.random.default_rng(0), CostMeter(cfg))
        assert _snapshot(start) == before
        handed, reset = [], world.reset

        def kept_reset(*args):
            handed.append(reset(*args))
            return handed[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(world, "reset", kept_reset)
            result = run_episode(world, world, task, prior, lib,
                                 dataclasses.replace(cfg, d_max=3), streams=RngFactory(0))
        assert result.decision_points > 0 and [_snapshot(s) for s in handed] == [before]


def test_check_tree_rejects_too_many_children():
    cfg = SearchConfig(k=2, n_mc=5)
    root = _fake_node([0.4, 0.3, 0.3], [0, 0, 0])
    outcome = SearchOutcome(GOAL_PLAN, plan=[])
    with pytest.raises(ContractViolationError, match="_check_tree: node 0 at depth 0 has 3"):
        _check_tree(root, outcome, cfg)


def test_check_tree_rejects_duplicate_library_indices():
    cfg = SearchConfig(k=3, n_mc=5)
    root = _fake_node([0.4, 0.3, 0.3], [0, 0, 0], protos=[7, 2, 9])
    _check_tree(root, SearchOutcome(GOAL_PLAN, plan=[]), cfg)
    root.children[0].children = _fake_node([0.5, 0.5], [0, 0], protos=[4, 4]).children
    with pytest.raises(ContractViolationError,
                       match=r"_check_tree: node 1 at depth 1 .* indices \[4, 4\]"):
        _check_tree(root, SearchOutcome(GOAL_PLAN, plan=[]), cfg)


def test_check_tree_rejects_too_many_nodes_and_lost_visits():
    cfg = SearchConfig(k=2, n_mc=1)
    root = _fake_node([0.5, 0.5], [1, 0])
    root.children[0].children = [TreeNode(StateVec(np.zeros(2)), 2, 3)]
    with pytest.raises(ContractViolationError, match="_check_tree: tree has 4 nodes"):
        _check_tree(root, SearchOutcome(GOAL_PLAN, plan=[]), cfg)
    root.children[0].children = []
    _check_tree(root, SearchOutcome(BEST_ROOT_MACRO, iterations_used=1), cfg)
    with pytest.raises(ContractViolationError, match="_check_tree: root visit counts"):
        _check_tree(root, SearchOutcome(BEST_ROOT_MACRO, iterations_used=2), cfg)


# -- a state whose carried slot is not a number --------------------------------


@settings(max_examples=30, deadline=None)
@given(carried=st.sampled_from([math.nan, math.inf, -math.inf, 2.0, 0.5, -2.0]),
       values=st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6),
       grip=st.sampled_from([-1.0, 0.0, 1.0]), which=st.integers(0, 5))
def test_a_carried_slot_naming_no_object_is_a_contract_violation_naming_the_site(
        env, model, tasks, library, carried, values, grip, which):
    # a carried slot that is not a number, or a number that is no object index
    # (2.0 is the fixture's object count): the goal, the kernel's entry check for
    # step, run_macro and advance, and the expert's own kernel pass each name
    # where the state was refused by the one rule, the environment's carried
    # slots; step_macro and the search test the goal on it first, the expert
    # enters the kernel before it steers or draws, and none of them changes it
    assert env.object_count == 2
    rx, ry, *objects = values
    state = StateVec([rx, ry, grip, carried, *objects], 2)
    before = repr(state.values)
    task = tasks[which]
    cfg = SearchConfig(n_mc=2, k=4, d_sim_max=8)
    expert = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    macro = [(0.1, 0.0, 1.0)] * 4
    goal_site = f"goal of {task.task_id}"
    sites = [
        (goal_site, lambda: task.goal_predicate(state)),
        (goal_site, lambda: step_macro(env, state, macro, task)),
        (goal_site, lambda: search_once(state, task, expert, library, model, cfg,
                                        streams=RngFactory(0), meter=CostMeter(cfg))),
        ("ScriptedExpertPrior.sample_macro", lambda: expert.sample_macro(
            model.observe(state), task, np.random.default_rng(0))),
        ("BlockNavEnv.step", lambda: env.step(state, macro[0])),
        ("BlockNavEnv.run_macro", lambda: env.run_macro(state, macro, task)),
        ("BlockNavEnv.advance", lambda: env.advance(state, macro, task)),
        ("ScriptedExpertPrior.sample_macro", lambda: ScriptedExpertPrior(
            model, cfg.horizon, 1.0).sample_macro(model.observe(state), task,
                                                  np.random.default_rng(0))),
    ]
    for site, call in sites:
        with pytest.raises(ContractViolationError, match=(
                rf"^{re.escape(site)}: the state's carried slot \(index 3\) holds "
                rf"{re.escape(repr(carried))}")):
            call()
        assert repr(state.values) == before and state.step_count == 2


def test_search_refuses_a_root_whose_carried_slot_names_no_object_before_any_query(
        model, tasks, library):
    # the first goal test refuses the root by the kernel's rule, so the error
    # names the goal, not a prior query that stepped the state
    cfg = SearchConfig(n_mc=2, k=4, d_sim_max=8)
    meter = CostMeter(cfg)
    root = StateVec([5.0, 5.0, 1.0, 5.0, 1.0, 1.0, 2.0, 2.0])
    with pytest.raises(ContractViolationError, match=re.escape(
            "goal of move_obj0_to_region0: the state's carried slot (index 3) holds 5.0")):
        search_once(root, tasks[0], ScriptedExpertPrior(model, cfg.horizon, 0.0), library,
                    model, cfg, streams=RngFactory(0), meter=meter)
    assert (meter.queries, meter.sim_steps) == (0, 0)


# -- rollout against the row-by-row loop ----------------------------------------

def reference_rollout(model, prior, start, task, cfg, rng, meter=None):
    """The rollout loop as it was before it stepped through step_macro."""
    state = start.copy()
    if task.goal_predicate(state):
        return True, 0, []
    steps = 0
    macros = []
    while steps < cfg.d_sim_max:
        if meter is not None:
            meter.queries += 1
        macro = prior.sample_macro(model.observe(state), task, rng)
        macros.append(macro)
        for row in macro:
            state = model.step(state, row)
            steps += 1
            if meter is not None:
                meter.sim_steps += 1
            if task.goal_predicate(state):
                return True, steps, macros
            if steps >= cfg.d_sim_max:
                break
    return False, steps, macros


def _rollout_against_reference(world, prior, start, task, cfg, seed):
    """What ``reference_rollout`` and ``rollout`` return from one start on fresh
    generators of ``seed``, each with its meter's counts and the generator's next
    draw, the macros as bytes; ``prior`` may be a factory making a fresh prior."""
    runs = []
    for fn in (reference_rollout, rollout):
        meter, rng = CostMeter(cfg), np.random.default_rng(seed)
        success, steps, macros = fn(world, prior() if callable(prior) else prior,
                                    start, task, cfg, rng, meter)
        runs.append((success, steps, [np.asarray(m, dtype=float).tobytes() for m in macros],
                     meter.queries, meter.sim_steps, rng.random()))
    return runs


def _rollout_outcome(success, steps, lengths):
    """How a rollout ended: at the goal, at the cap at a macro's end, or at a cap
    that cut a later macro short; ``lengths`` are the rows of each macro as the
    prior gave them."""
    if success:
        return "goal"
    if sum(lengths) == steps:
        return "cap_at_macro_end"
    assert len(lengths) > 1
    return "cap_cut_later_macro"


def test_rollout_matches_reference_loop(model, tasks, library):
    # H = 4 and H = 1 priors; caps of 5, 17 and 30 cut a later H = 4 macro short
    priors = [UniformLibraryPrior(library)] + [
        ScriptedExpertPrior(model, horizon, noise)
        for horizon in (4, 1) for noise in (0.0, 0.3, 0.6, 1.0)]
    outcomes = set()
    for seed in range(270):
        cfg = SearchConfig(d_sim_max=(5, 17, 30, 80, 9)[seed % 5], t_max=1e9)
        prior = priors[seed % len(priors)]
        task = tasks[seed % len(tasks)]
        start = model.reset(seed, task.task_id)
        runs = _rollout_against_reference(model, prior, start, task, cfg, seed)
        assert runs[0] == runs[1], seed
        success, steps, macros = runs[1][:3]
        lengths = [len(m) // (8 * model.action_dim) for m in macros]  # float64 bytes
        outcomes.add((lengths[0], _rollout_outcome(success, steps, lengths)))
    assert outcomes == {(4, "goal"), (4, "cap_at_macro_end"), (4, "cap_cut_later_macro"),
                        (1, "goal"), (1, "cap_at_macro_end")}, outcomes


class _HomingPrior:
    """A ChainWorld prior whose reply depends on its observation: two rows, each a
    step toward cell 4 plus a random -1, 0 or 1, so a stale observation shows."""

    def sample_macro(self, obs, task, rng):
        drift = float(np.sign(4.0 - obs[0]))
        return [[drift + float(rng.integers(-1, 2))] for _ in range(2)]


def test_rollout_on_a_model_whose_step_returns_new_states_queries_each_written_state():
    # ChainWorld's step returns a new state, and it keeps WorldModel's advance,
    # which must write each one into the rollout's own state: the prior between
    # macros must see the state the last row made, not the first macro's end
    assert "advance" not in vars(ChainWorld)
    outcomes = set()
    for seed in range(60):
        world = (ChainWorld(5.0), ChainWorld(4.5))[seed % 2]
        cfg = SearchConfig(d_sim_max=(9, 12, 30)[seed % 3], horizon=2, t_max=1e9)
        start = StateVec([float(seed % 3)], 2)
        runs = _rollout_against_reference(world, _HomingPrior(), start, world.task(), cfg, seed)
        assert runs[0] == runs[1], seed
        assert (start.values, start.step_count) == ([float(seed % 3)], 2)
        success, steps = runs[1][:2]
        outcomes.add("goal" if success else "cap")
        if success:  # runs[1][3] counts the macros queried
            outcomes.add("goal_in_macro_3_on" if runs[1][3] > 2 else "goal_in_macro_1_or_2")
    assert outcomes == {"goal", "cap", "goal_in_macro_3_on", "goal_in_macro_1_or_2"}, outcomes


class _FailingPrior:
    """Asks ``inner``, but raises on its ``fail_at``-th query (counted from 1)."""

    def __init__(self, inner, fail_at):
        self.inner, self.fail_at, self.count = inner, fail_at, 0

    def sample_macro(self, obs, task, rng):
        self.count += 1
        if self.count == self.fail_at:
            raise ValueError(f"query {self.count} refused")
        return self.inner.sample_macro(obs, task, rng)


@pytest.mark.parametrize("fail_at", [1, 2, 5])
@pytest.mark.parametrize("world_name", ["blocknav", "chain"])
def test_a_prior_that_raises_in_a_rollout_leaves_the_meter_as_the_macro_loop_does(
        world_name, fail_at, model, tasks, library):
    # the query that raises may be the first or a later one, all made inside
    # advance's pass; either way the meter has charged that query
    # and every step before it, as the per-macro loop did, and start is as it was
    for seed in range(6):
        if world_name == "blocknav":
            world, task, rows = model, tasks[2], 4
            start, inner = model.reset(seed, task.task_id), UniformLibraryPrior(library)
        else:
            world, rows = ChainWorld(4.5), 2
            task, start, inner = world.task(), StateVec([float(seed % 4)], 1), _HomingPrior()
        before = _snapshot(start)
        cfg = SearchConfig(d_sim_max=80, t_max=1e9)
        readings = []
        for fn, error in ((reference_rollout, ValueError), (rollout, PriorQueryError)):
            meter = CostMeter(cfg)
            with pytest.raises(error) as raised:
                fn(world, _FailingPrior(inner, fail_at), start, task, cfg,
                   np.random.default_rng(seed), meter)
            readings.append((meter.queries, meter.sim_steps))
            assert _snapshot(start) == before
        assert str(raised.value) == f"prior query failed in rollout: query {fail_at} refused"
        assert type(raised.value.__cause__) is ValueError
        assert readings[0] == readings[1] == (fail_at, rows * (fail_at - 1)), seed


def test_a_blocknav_rollout_enters_the_kernel_once(model, tasks, library, monkeypatch):
    # one advance pass steps every macro, so the kernel's entry checks run once
    # whatever the rollout's length
    kernel, calls = BlockNavEnv._step_rows, []

    def counted(self, state, rows, goal, what):
        calls.append(what)
        return kernel(self, state, rows, goal, what)

    monkeypatch.setattr(BlockNavEnv, "_step_rows", counted)
    lengths = set()
    for seed in range(36):
        task = tasks[seed % len(tasks)]
        prior = (UniformLibraryPrior(library), ScriptedExpertPrior(model, 4, 0.5))[seed % 2]
        cfg = SearchConfig(d_sim_max=(4, 8, 80)[seed % 3], t_max=1e9)
        calls.clear()
        _, _, macros = rollout(model, prior, model.reset(seed, task.task_id), task, cfg,
                               np.random.default_rng(seed), CostMeter(cfg))
        own = [what for what in calls if what != "ScriptedExpertPrior.sample_macro"]
        assert own == ["BlockNavEnv.advance"]
        lengths.add(min(len(macros), 3))
    assert lengths == {1, 2, 3}


def test_chain_world_takes_default_macro_loop():
    # ChainWorld does not override run_macro: WorldModel's step-and-test loop
    world = ChainWorld(goal_pos=3)
    task = world.task()
    assert "run_macro" not in vars(ChainWorld)
    start = world.reset(0, "chain")
    macro = np.array([[1.0], [1.0], [1.0], [1.0]])
    state, ok, used = step_macro(world, start, macro, task)
    assert (state.values[0], state.step_count, ok, used) == (3.0, 3, True, 3)
    state, ok, used = step_macro(world, start, macro[:2], task)
    assert (state.values[0], ok, used) == (2.0, False, 2)
    # it hands each row to step, whatever its type, so an array, its rows or
    # rows of numpy scalars leave the Python floats step makes in the state
    for rows in (macro[:2], list(macro[:2]), [[np.float64(1.0)], [np.float64(1.0)]]):
        state, ok, used = world.run_macro(start, rows, task)
        assert (state.values, state.step_count, ok, used) == ([2.0], 2, False, 2)
        assert type(state.values) is list and all(type(x) is float for x in state.values)
    assert start.values == [0.0]
    cfg = SearchConfig(d_sim_max=9, horizon=1, t_max=1e9)
    prior = UniformLibraryPrior(_chain_library())
    for seed in range(20):
        runs = [fn(world, prior, start, task, cfg, np.random.default_rng(seed), CostMeter(cfg))
                for fn in (reference_rollout, rollout)]
        assert runs[0][:2] == runs[1][:2]
        assert [np.asarray(m, dtype=float).tobytes() for m in runs[0][2]] == [
            np.asarray(m, dtype=float).tobytes() for m in runs[1][2]]


def _step_loop(world, state, rows, task):
    """A macro as a loop of ``step`` calls with the goal tested after each: the
    reference for WorldModel's default ``advance`` and ``run_macro``."""
    steps = 0
    for row in rows:
        state = world.step(state, row)
        steps += 1
        if task.goal_predicate(state):
            return state, True, steps
    return state, False, steps


def test_chain_world_advance_steps_in_place_to_its_run_macro():
    # ChainWorld keeps WorldModel's advance, which steps the state it is handed
    # in place to the step loop's values, step count, flag and count, from any
    # iterable of rows, taking each row only after the last is written; its
    # run_macro is advance on a copy
    world = ChainWorld(goal_pos=3)
    task = world.task()
    assert "advance" not in vars(ChainWorld)
    start = StateVec([1.0], 4)
    for rows in ([[1.0]], [[1.0], [1.0], [1.0]], [[-1.0], [0.0]], np.array([[1.0], [1.0]])):
        ref, ref_ok, ref_used = _step_loop(world, start, rows, task)
        got, ok, used = world.run_macro(start, rows, task)
        assert got is not start and (got.values, got.step_count, ok, used) == (
            ref.values, ref.step_count, ref_ok, ref_used)
        for given in (rows, (row for row in rows)):
            own = StateVec([1.0], 4)
            got, ok, used = world.advance(own, given, task)
            assert got is own and (own.values, own.step_count, ok, used) == (
                ref.values, ref.step_count, ref_ok, ref_used)
        assert (start.values, start.step_count) == ([1.0], 4)
    own, seen = StateVec([0.0], 0), []

    def reading():
        while True:
            seen.append(own.values[0])
            yield [1.0]

    assert world.advance(own, reading(), task) == (own, True, 3)
    assert (seen, own.values, own.step_count) == ([0.0, 1.0, 2.0], [3.0], 3)


class _StillChain(ChainWorld):
    """A ChainWorld whose step returns the state it is given for a row that does
    not move, as a model may for a no-op."""

    def step(self, state, action):
        return state if round(float(action[0])) == 0 else super().step(state, action)


class _FixedReplies:
    """Replies with ``replies`` in turn, whatever it observes."""

    def __init__(self, replies):
        self.replies = iter(replies)

    def sample_macro(self, obs, task, rng):
        return next(self.replies)


def test_rollout_writes_no_start_its_model_handed_back():
    # a model whose step returns the state it is given for a first macro that
    # does not move; the rollout steps its own copy, not the caller's state
    world = _StillChain(goal_pos=3)
    replies = [[[0.0], [0.0]]] + [[[1.0], [1.0]]] * 5
    cfg = SearchConfig(d_sim_max=9, horizon=2, t_max=1e9)
    start = StateVec([0.0], 5)
    runs = _rollout_against_reference(world, lambda: _FixedReplies(replies), start,
                                      world.task(), cfg, 0)
    assert runs[0] == runs[1] and runs[1][:2] == (True, 5)
    assert (start.values, start.step_count) == ([0.0], 5)


def test_rollout_leaves_its_start_unchanged(model, tasks):
    # a rollout copies start once and advances the copy in place; start keeps
    # its values and step count whether the goal comes in mid-macro, at a
    # macro's end or not at all
    two_rows = UniformLibraryPrior(MacroLibrary(np.array([[[1.0], [1.0]]]), np.zeros(1),
                                                np.ones(1)))
    runs = [(chain, chain.task(), two_rows, StateVec([0.0], 5), cap)
            for chain, cap in ((ChainWorld(3), 9), (ChainWorld(4), 9), (ChainWorld(5), 3))]
    for seed in range(24):
        task = tasks[seed % len(tasks)]
        runs.append((model, task, ScriptedExpertPrior(model, 4, (0.0, 0.4)[seed % 2]),
                     StateVec(model.reset(seed, task.task_id).values, 5), (7, 80)[seed // 12]))
    seen = collections.Counter()
    for seed, (world, task, prior, start, cap) in enumerate(runs):
        before = list(start.values)
        cfg = SearchConfig(d_sim_max=cap, t_max=1e9)
        success, steps, macros = rollout(world, prior, start, task, cfg,
                                         np.random.default_rng(seed), CostMeter(cfg))
        assert (start.values, start.step_count) == (before, 5)
        assert steps > 0 and len(macros) > 1
        end = sum(map(len, macros)) == steps
        seen[(type(world).__name__,
              ("goal_at_macro_end" if end else "goal_mid_macro") if success else "cap")] += 1
    assert set(seen) == {(name, kind) for name in ("ChainWorld", "BlockNavEnv")
                         for kind in ("goal_at_macro_end", "goal_mid_macro", "cap")}, seen



class _NoQueries:
    """A prior that must not be asked."""

    def sample_macro(self, obs, task, rng):
        raise AssertionError("a rollout given its known result queried the prior")


def test_rollout_given_its_known_result_charges_what_the_live_rollout_did(model, tasks):
    # a known result is returned as it is, with its queries and steps charged
    # on top of what the meter read, no prior query, no step and no generator;
    # the cases are a cap that cut the last macro, the goal inside the last
    # macro, a failure at a macro's end and a start that is already the goal
    seen = set()
    for seed in range(40):
        task = tasks[seed % len(tasks)]
        noise, cap = (0.0, 0.3, 0.6)[seed % 3], (6, 8, 30, 80)[seed % 4]
        start = model.reset(seed, task.task_id)
        cfg = SearchConfig(d_sim_max=cap, t_max=1e9)
        live, meter = CostMeter(cfg), CostMeter(cfg)
        live.queries = meter.queries = 3
        live.sim_steps = meter.sim_steps = 7
        known = rollout(model, ScriptedExpertPrior(model, 4, noise), start, task, cfg,
                        np.random.default_rng(seed), live)
        before = list(start.values)
        assert rollout(model, _NoQueries(), start, task, cfg, None, meter, known) is known
        assert (meter.queries, meter.sim_steps) == (live.queries, live.sim_steps)
        assert (meter.queries - 3, meter.sim_steps - 7) == (len(known[2]), known[1])
        assert start.values == before
        success, steps, macros = known
        cut = sum(map(len, macros)) > steps
        seen.add(("goal_in_last_macro" if cut else "goal") if success
                 else "cap_cut_last_macro" if cut else "failed_at_macro_end")
    assert seen >= {"goal_in_last_macro", "cap_cut_last_macro", "failed_at_macro_end"}, seen
    goal_task = tasks[0]
    at_goal = StateVec(model.reset(0, goal_task.task_id).values, 0)
    at_goal.values[4:6] = model.regions[0].tolist()
    cfg, meter = SearchConfig(t_max=1e9), CostMeter(SearchConfig())
    known = rollout(model, _NoQueries(), at_goal, goal_task, cfg, None, meter)
    assert known == (True, 0, []) and (meter.queries, meter.sim_steps) == (0, 0)
    assert rollout(model, _NoQueries(), at_goal, goal_task, cfg, None, meter, known) is known
    assert (meter.queries, meter.sim_steps) == (0, 0)


class SpyPrior:
    """Asks ``inner`` after checking the generator contract that the block-drawing
    uniform prior relies on: nothing draws from a generator between two queries
    on it, and no generator comes back once another one has been handed over."""

    def __init__(self, inner):
        self.inner, self.rng, self.after, self.retired = inner, None, None, {}
        self.repeats = 0

    def sample_macro(self, obs, task, rng):
        if rng is self.rng:
            assert rng.bit_generator.state == self.after, "a draw between two queries"
            self.repeats += 1
        else:
            assert id(rng) not in self.retired, "a generator came back"
            self.retired[id(self.rng)] = self.rng  # kept alive, so its id stays its own
            self.rng = rng
        macro = self.inner.sample_macro(obs, task, rng)
        self.after = rng.bit_generator.state
        return macro


@pytest.mark.parametrize("expert", [False, True])
@pytest.mark.parametrize("run", ["search_once", "episode_n_mc_0", "episode_n_mc_5"])
def test_the_search_keeps_the_generator_contract_of_priors(env, model, tasks, library,
                                                           expert, run):
    task = tasks[2]
    prior = SpyPrior(ScriptedExpertPrior(model, 4, 0.6) if expert
                     else UniformLibraryPrior(library))
    cfg = SearchConfig(n_mc=5 if run == "episode_n_mc_5" else 0 if run == "episode_n_mc_0"
                       else 40, d_sim_max=60, t_max=1e9)
    if run == "search_once":
        search_once(env.reset(3, task.task_id), task, prior, library, model, cfg,
                    streams=RngFactory(3), meter=CostMeter(cfg))
    else:
        run_episode(env, model, task, prior, library, cfg, streams=RngFactory(3), reset_seed=3)
    assert prior.repeats > 0 and len(prior.retired) > (run != "episode_n_mc_0")


# -- search_once against the loop with three rollout paths -----------------------

def reference_best_candidate(node, c_exp=1.4):
    """Selection with the exploration constant the score used to carry, on
    numpy arrays of the children's psi and visit counts."""
    psi = np.array([child.psi for child in node.children])
    counts = np.array([child.visits for child in node.children], dtype=np.int64)

    def reference_score(i):
        n_i = float(counts[i])
        total = float(counts.sum())
        return c_exp * float(psi[i]) * math.sqrt(total) / (1.0 + n_i)
    return max(range(len(psi)), key=lambda i: (reference_score(i), float(psi[i]), -i))


def reference_select_path(root, cfg):
    node, path = root, []
    while node.children and not node.is_goal and node.depth < cfg.d_max:
        idx = reference_best_candidate(node)
        path.append((node, idx))
        node = node.children[idx]
    return node, path


def reference_search_once(root_state, task, prior, lib, model, cfg, streams, meter):
    """search_once as it was with a separate root, post-expansion and
    depth-capped rollout; returns the outcome and the name of its exit."""
    def finish(outcome, exit_name):
        _check_tree(root, outcome, cfg)
        return outcome, exit_name

    root = TreeNode(root_state.copy(), 0, 0,
                    is_goal=task.goal_predicate(root_state))
    nodes_created = 1
    if root.is_goal:
        return finish(SearchOutcome(GOAL_PLAN, plan=[], iterations_used=0), "root_goal")

    rollouts_done = 0
    iterations = 0
    for it in range(1, cfg.n_mc + 1):
        if meter.elapsed() >= cfg.t_max:
            break
        iterations = it
        if it == 1:
            success, _, macros = rollout(
                model, prior, root.sim_state, task, cfg,
                streams.rng(ROLLOUT, 0, rollouts_done), meter,
            )
            rollouts_done += 1
            if success:
                out = SearchOutcome(GOAL_PLAN, plan=macros, iterations_used=1,
                                    nodes_created=nodes_created)
                return finish(out, "root_rollout_goal")
            leaf, path = root, []
        else:
            leaf, path = reference_select_path(root, cfg)

        if leaf.is_goal:
            out = SearchOutcome(GOAL_PLAN, plan=_path_macros(path, lib),
                                iterations_used=it, nodes_created=nodes_created)
            return finish(out, "goal_leaf")

        if not leaf.children and leaf.depth < cfg.d_max:
            children = expand(
                leaf, prior, lib, model, task, cfg,
                streams.rng(PRIOR_QUERY, 0, leaf.node_id),
                streams.rng(CANDIDATES, 0, leaf.node_id),
                meter, nodes_created,
            )
            nodes_created += len(children)
            for idx, child in enumerate(children):
                if child.is_goal:
                    plan = _path_macros(path + [(leaf, idx)], lib)
                    return finish(SearchOutcome(
                        GOAL_PLAN, plan=plan, iterations_used=it,
                        nodes_created=nodes_created), "goal_child")
            ci = reference_best_candidate(leaf)
            success, _, macros = rollout(
                model, prior, leaf.children[ci].sim_state, task, cfg,
                streams.rng(ROLLOUT, 0, rollouts_done), meter,
            )
            rollouts_done += 1
            if success:
                plan = _path_macros(path + [(leaf, ci)], lib) + macros
                return finish(SearchOutcome(
                    GOAL_PLAN, plan=plan, iterations_used=it,
                    nodes_created=nodes_created), "expansion_rollout_goal")
            backpropagate(path + [(leaf, ci)])
        else:
            success, _, macros = rollout(
                model, prior, leaf.sim_state, task, cfg,
                streams.rng(ROLLOUT, 0, rollouts_done), meter,
            )
            rollouts_done += 1
            if success:
                plan = _path_macros(path, lib) + macros
                return finish(SearchOutcome(
                    GOAL_PLAN, plan=plan, iterations_used=it,
                    nodes_created=nodes_created), "depth_capped_goal")
            backpropagate(path)

    if not root.children:
        raise ConfigurationError("search budget exhausted before the root could be expanded")
    counts = np.array([child.visits for child in root.children], dtype=np.int64)
    psi = np.array([child.psi for child in root.children])
    best = max(range(len(counts)),
               key=lambda i: (counts[i], float(psi[i]), -i))
    macro = lib.prototypes[root.children[best].proto].copy()
    return finish(SearchOutcome(
        BEST_ROOT_MACRO, best_macro=macro, iterations_used=iterations,
        nodes_created=nodes_created),
        "budget_spent" if iterations == cfg.n_mc else "deadline_cut")


def _search_fingerprint(outcome, meter, log):
    # the reference loop's plans end in the rows rollout returns
    plan = ([np.asarray(m, dtype=float).tobytes() for m in outcome.plan]
            if outcome.plan is not None else None)
    best = (np.asarray(outcome.best_macro, dtype=float).tobytes()
            if outcome.best_macro is not None else None)
    return (outcome.kind, plan, best, outcome.iterations_used, outcome.nodes_created,
            meter.queries, meter.sim_steps, log)


def _record_calls(patch, namespace, meter):
    """Wrap the expand, rollout and backpropagate that a search loop looks up
    in ``namespace`` (a module's globals) so that each call logs the node ids
    it touched or the rollout's start step, and ``meter``'s reading after it."""
    log = []
    expand_fn, rollout_fn, backpropagate_fn = (
        namespace[name] for name in ("expand", "rollout", "backpropagate"))

    def logged_expand(node, *args):
        children = expand_fn(node, *args)
        log.append(("expand", node.node_id, [child.node_id for child in children],
                    meter.elapsed()))
        return children

    def logged_rollout(model, prior, start, *args):
        result = rollout_fn(model, prior, start, *args)
        log.append(("rollout", start.step_count, result[:2], meter.elapsed()))
        return result

    def logged_backpropagate(path):
        log.append(("backpropagate", [(node.node_id, node.children[idx].node_id)
                                      for node, idx in path], meter.elapsed()))
        backpropagate_fn(path)

    patch.setitem(namespace, "expand", logged_expand)
    patch.setitem(namespace, "rollout", logged_rollout)
    patch.setitem(namespace, "backpropagate", logged_backpropagate)
    return log


def test_search_once_matches_reference_loop(env, model, tasks, library):
    priors = [UniformLibraryPrior(library)] + [
        ScriptedExpertPrior(model, 4, noise) for noise in (0.0, 0.2, 0.3, 0.45, 0.6, 1.0)]
    exits, calls = collections.Counter(), collections.Counter()
    for case in range(400):
        rng = np.random.default_rng(case)
        cfg = SearchConfig(
            n_mc=int(rng.integers(1, 40)), k=int(rng.integers(2, 9)),
            d_max=int(rng.choice([1, 1, 2, 3, 100])),
            d_sim_max=int(rng.choice([2, 4, 9, 30])),
            # at 0.005 the root rollout alone can cross the deadline
            t_max=float(rng.choice([0.005, 0.02, 0.1, 1e9, 1e9])),
        )
        prior = priors[case % len(priors)]
        task = tasks[case % len(tasks)]
        # start about one rollout's length from the goal along the expert's
        # path, where every exit of the search is common
        state = env.reset(case, task.task_id)
        path = [state]
        while not task.goal_predicate(path[-1]):
            path.append(env.step(path[-1], _steer_values(env, task)(path[-1].values)))
        state = path[max(0, len(path) - 1 - cfg.d_sim_max - int(rng.integers(0, 6)))]
        runs = []
        for fn, namespace in ((reference_search_once, globals()),
                              (search_once, vars(vlaps.search))):
            meter, rolled = CostMeter(cfg), []
            with pytest.MonkeyPatch.context() as patch:
                log = _record_calls(patch, namespace, meter)
                logged_rollout = namespace["rollout"]

                def kept_rollout(*args):
                    rolled.append(logged_rollout(*args))
                    return rolled[-1]

                patch.setitem(namespace, "rollout", kept_rollout)
                outcome = fn(state, task, prior, library, model, cfg,
                             streams=RngFactory(case), meter=meter)
            if fn is reference_search_once:
                outcome, exit_name = outcome
            elif outcome.plan is None:
                assert any(outcome.best_macro is row for row in library.rows), case
            else:
                # search_once hands out the rows it stepped: each edge is the
                # library's own row, and a plan that a rollout's goal ends (the
                # three such exits are each counted below) ends in the very rows
                # check_macro returned for the prior's replies
                tail = rolled[-1][2] if rolled and rolled[-1][0] else []
                edges = outcome.plan[:len(outcome.plan) - len(tail)]
                assert all(any(m is row for row in library.rows) for m in edges), case
                assert all(m is t for m, t in zip(outcome.plan[len(edges):], tail)), case
                assert all(check_macro(m, model.action_dim, "m") is m for m in tail), case
            runs.append(_search_fingerprint(outcome, meter, log))
        assert runs[0] == runs[1], (case, exit_name)
        exits[exit_name] += 1
        calls.update(entry[0] for entry in log)
    assert min(calls[name] for name in ("expand", "rollout", "backpropagate")) >= 100, calls
    assert "goal_leaf" not in exits
    for name in ("root_rollout_goal", "goal_child", "expansion_rollout_goal",
                 "depth_capped_goal", "budget_spent", "deadline_cut"):
        assert exits[name] >= 10, exits


# -- prior outputs ---------------------------------------------------------------

class _FixedPrior:
    def __init__(self, output):
        self.output = output

    def sample_macro(self, obs, task, rng):
        if isinstance(self.output, Exception):
            raise self.output
        return self.output


# each bad prior reply, and what its error says: the test of check_macro that
# failed (naming the first non-finite row), or the prior's own message; numpy
# reads a numeric string or a bool as a number, but neither is one
BAD_PRIOR_OUTPUTS = {
    "empty": (np.zeros((0, 3)), r"shape \(0, 3\) is not \(H, 3\) with H >= 1"),
    "empty_list": ([], r"shape \(0,\) is not \(H, 3\) with H >= 1"),
    "nan": (np.array([[0.1, 0.0, 1.0], [np.nan, 0.0, 1.0]]),
            r"row 1 \[nan, 0.0, 1.0\] is not finite"),
    "inf": (np.array([[0.1, -np.inf, 1.0]]), r"row 0 \[0.1, -inf, 1.0\] is not finite"),
    "plus_inf": (np.array([[0.1, 0.0, 1.0], [0.1, 0.0, 1.0], [0.2, 0.0, np.inf]]),
                 r"row 2 \[0.2, 0.0, inf\] is not finite"),
    "wrong_columns": (np.zeros((4, 2)), r"shape \(4, 2\) is not \(H, 3\)"),
    "one_row_wrong_columns": ([[0.1, 0.0, 1.0, 0.0]], r"shape \(1, 4\) is not \(H, 3\)"),
    "zero_dimensional": (0.5, r"shape \(\) is not \(H, 3\)"),
    "one_dimensional": (np.zeros(3), r"shape \(3,\) is not \(H, 3\)"),
    "three_dimensional": (np.zeros((1, 4, 3)), r"shape \(1, 4, 3\) is not \(H, 3\)"),
    "not_numeric": ([["a", "b", "c"]], r"\[\['a', 'b', 'c'\]\] is not numeric"),
    "ragged": ([[0.1, 0.0, 1.0], [0.1, 0.0]], "is not numeric"),
    "numeric_strings": ([["0.1", "0", "-1"]], r"\[\['0.1', '0', '-1'\]\] is not numeric"),
    "bools": ([[True, False, True]], r"\[\[True, False, True\]\] is not numeric"),
    "bool_among_floats": ([[True, 0.5, 1.0]], r"\[\[True, 0.5, 1.0\]\] is not numeric"),
    "bool_array": (np.array([[True, False, True]]),
                   r"array\(\[\[ True, False,  True\]\]\) is not numeric"),
    # what a prior that parses a JSON reply hands the search
    "line_reply_strings": (json.loads('{"macro": [["0.1", 0, 0], [0.0, 0.0, 1.0]]}')["macro"],
                           r"\[\['0.1', 0, 0\], \[0.0, 0.0, 1.0\]\] is not numeric"),
    "raises": (ValueError("prior crashed"), "prior crashed"),
}
# the bad macros of one row: BlockNavEnv.step, handed that row as its action,
# checks it as this macro of one row and says the same of it
ONE_ROW_BAD_OUTPUTS = ("inf", "not_numeric", "one_row_wrong_columns", "three_dimensional",
                       "numeric_strings", "bools", "bool_among_floats")


@pytest.mark.parametrize("name", sorted(BAD_PRIOR_OUTPUTS))
def test_rollout_rejects_bad_prior_output(name, model, tasks):
    # an empty macro used to loop forever and a NaN one to drive the state to NaN
    output, reason = BAD_PRIOR_OUTPUTS[name]
    task = tasks[0]
    start = model.reset(0, task.task_id)
    with pytest.raises(PriorQueryError, match=f"in rollout: .*{reason}"):
        rollout(model, _FixedPrior(output), start, task, SearchConfig(),
                np.random.default_rng(0), CostMeter(SearchConfig()))


@pytest.mark.parametrize("name", sorted(BAD_PRIOR_OUTPUTS))
def test_expand_rejects_bad_prior_output(name, model, tasks, library):
    output, reason = BAD_PRIOR_OUTPUTS[name]
    cfg = SearchConfig(k=5, t_max=1e9)
    node = TreeNode(model.reset(0, tasks[0].task_id), 2, 0)
    with pytest.raises(PriorQueryError, match=f"in expand at depth 2: .*{reason}"):
        expand(node, _FixedPrior(output), library, model, tasks[0], cfg,
               np.random.default_rng(0), np.random.default_rng(1), CostMeter(cfg), 1)
    assert node.children == []


@pytest.mark.parametrize("name", sorted(set(BAD_PRIOR_OUTPUTS) - {"raises"}))
def test_step_macro_rejects_each_bad_macro_naming_itself(name, env, tasks):
    # the same rule as for a prior's reply, with step_macro's own name and
    # error type, before any row is applied
    output, reason = BAD_PRIOR_OUTPUTS[name]
    state = env.reset(0, tasks[0].task_id)
    before = state.copy()
    with pytest.raises(ContractViolationError, match=f"^step_macro: macro .*{reason}"):
        step_macro(env, state, output, tasks[0])
    assert state == before


@pytest.mark.parametrize("name", sorted(set(BAD_PRIOR_OUTPUTS) - {"raises"}))
def test_run_macro_rejects_each_bad_macro_naming_itself(name, env, tasks):
    # BlockNavEnv.run_macro takes its macro through check_macro as well: a NaN
    # row would give a NaN state, and an empty or mis-shaped macro a bare error
    output, reason = BAD_PRIOR_OUTPUTS[name]
    state = env.reset(0, tasks[0].task_id)
    before = state.copy()
    with pytest.raises(ContractViolationError,
                       match=f"^BlockNavEnv.run_macro: macro .*{reason}"):
        env.run_macro(state, output, tasks[0])
    assert state == before


@pytest.mark.parametrize("name", ONE_ROW_BAD_OUTPUTS)
def test_step_rejects_each_bad_one_row_macro_as_an_action(name, env, tasks):
    output, reason = BAD_PRIOR_OUTPUTS[name]
    assert len(output) == 1
    state = env.reset(0, tasks[0].task_id)
    before = state.copy()
    with pytest.raises(ContractViolationError, match=f"^BlockNavEnv.step: action .*{reason}"):
        env.step(state, output[0])
    assert state == before


@pytest.mark.parametrize("name", ["nan", "not_numeric", "wrong_columns", "empty_list"])
def test_checked_macro_is_built_only_from_a_macro_that_passes_check_macro(name):
    output, reason = BAD_PRIOR_OUTPUTS[name]
    with pytest.raises(ContractViolationError, match=f"^library row .*{reason}"):
        CheckedMacro(output, 3, "library row")


def test_check_macro_reads_a_checked_macro_only_at_another_width(monkeypatch):
    # a CheckedMacro is an immutable tuple of float row tuples that check_macro
    # passes as it is at its width; anything else is read row by row, even a
    # plain tuple of the same rows
    rows = [[0.1, 0.0, -1.0], [0.2, -0.3, 1.0]]
    checked = CheckedMacro(np.array(rows), 3, "m")
    assert checked == tuple(map(tuple, rows)) and all(type(row) is tuple for row in checked)
    assert {type(x) for row in checked for x in row} == {float}
    with pytest.raises(TypeError):
        checked[0] = (0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        checked[0][0] = 1.0
    with pytest.raises(AttributeError):
        checked.rows = rows
    for copied in (pickle.loads(pickle.dumps(checked)), copy.deepcopy(checked)):
        assert type(copied) is CheckedMacro and copied == checked
    original, read = vlaps.world._float_rows, []

    def reading(macro, action_dim):
        read.append(macro)
        return original(macro, action_dim)

    monkeypatch.setattr(vlaps.world, "_float_rows", reading)
    assert check_macro(checked, 3, "m") is checked and read == []
    with pytest.raises(ContractViolationError, match=r"^m shape \(2, 3\) is not \(H, 4\)"):
        check_macro(checked, 4, "m")
    plain = tuple(checked)
    assert check_macro(plain, 3, "m") is plain
    nan = (checked[0], (math.nan, 0.0, 1.0))
    with pytest.raises(ContractViolationError, match=r"^m row 1 \[nan, 0.0, 1.0\] is not finite"):
        check_macro(nan, 3, "m")
    assert read == [checked, plain, nan]


ARRAY_LIKE_MACROS = {
    "list": [[0.1, 0.0, -1.0], [0.2, -0.3, 1.0]],
    "tuple_rows": [(0.1, 0.0, -1.0), (0.2, -0.3, 1.0)],
    "int_array": np.array([[1, 0, -1], [0, -1, 1]]),
    "one_row": [[0.1, 0.0, -1.0]],
}


@pytest.mark.parametrize("name", sorted(ARRAY_LIKE_MACROS))
def test_check_macro_accepts_array_likes_as_their_float_arrays(name, env, tasks):
    # a prior may reply with any H x n array-like; every entry point takes it
    # as the float array numpy makes of it, bit for bit
    macro = ARRAY_LIKE_MACROS[name]
    expected = np.asarray(macro, dtype=float)
    checked = check_macro(macro, env.action_dim, "macro")
    assert np.asarray(checked, dtype=float).tobytes() == expected.tobytes()
    assert np.shape(checked) == expected.shape
    assert {type(x) for row in checked for x in row} == {float}
    task = tasks[0]
    start = env.reset(0, task.task_id)
    cfg = SearchConfig(d_sim_max=2 * len(expected), t_max=1e9)
    _, _, macros = rollout(env, _FixedPrior(macro), start, task, cfg,
                           np.random.default_rng(0), CostMeter(cfg))
    assert [np.asarray(m, dtype=float).tobytes() for m in macros] == [expected.tobytes()] * 2
    assert all(np.shape(m) == expected.shape for m in macros)
    never = dataclasses.replace(task, goal_predicate=lambda state: False)
    got, want = step_macro(env, start, macro, never), step_macro(env, start, expected, never)
    assert (got[0].values, got[0].step_count, got[1:]) == (
        want[0].values, want[0].step_count, want[1:])
    for row, float_row in zip(macro, expected):
        assert env.step(start, row) == env.step(start, float_row)


# a rollout takes a macro of any length, but expansion measures the anchor's
# distance to the library's H-row prototypes
EXPAND_ONLY_BAD_OUTPUTS = {"three_rows": np.zeros((3, 3)), "five_rows": np.zeros((5, 3))}


@pytest.mark.parametrize("name", sorted(EXPAND_ONLY_BAD_OUTPUTS))
def test_expand_requires_library_horizon_rows(name, model, tasks, library):
    prior = _FixedPrior(EXPAND_ONLY_BAD_OUTPUTS[name])
    cfg = SearchConfig(k=5, d_sim_max=12, t_max=1e9)
    node = TreeNode(model.reset(0, tasks[0].task_id), 2, 0)
    rows = len(EXPAND_ONLY_BAD_OUTPUTS[name])
    with pytest.raises(PriorQueryError, match=f"{rows} rows in expand at depth 2"):
        expand(node, prior, library, model, tasks[0], cfg,
               np.random.default_rng(0), np.random.default_rng(1), CostMeter(cfg), 1)
    assert node.children == []
    success, steps, _ = rollout(model, prior, node.sim_state, tasks[0], cfg,
                                np.random.default_rng(0), CostMeter(cfg))
    assert (success, steps) == (False, 12)


@pytest.mark.parametrize("entry", [1e300, 1.7e308, -1e200])
def test_a_reply_too_large_to_square_is_infinitely_far_from_every_prototype(
        entry, model, tasks, library):
    # a finite reply whose normalized squares overflow: every distance is inf
    # and the prior rule takes its uniform limit, with no numpy warning (a
    # warning is an error in this suite)
    cfg = SearchConfig(n_mc=5, k=4, d_sim_max=8, t_max=1e9)
    reply = [[entry, 0.0, -1.0]] * cfg.horizon
    dists = library.distances_to(reply)
    assert np.isinf(dists).all()
    assert (beta_distribution(dists, cfg.alpha_beta, cfg.epsilon_beta) == 1 / library.m).all()
    outcome = search_once(model.reset(0, tasks[0].task_id), tasks[0], _FixedPrior(reply),
                          library, model, cfg, streams=RngFactory(0), meter=CostMeter(cfg))
    assert outcome.kind == BEST_ROOT_MACRO and outcome.iterations_used == cfg.n_mc


def test_an_infinitely_far_reply_at_alpha_zero_is_uniform(model, tasks, library):
    # at alpha 0 the rule is uniform whatever the distances; the max-shift's
    # -0.0 * inf would be NaN (uniform_deep selects with alpha_psi 0)
    for alphas in ({"alpha_psi": 0.0}, {"alpha_beta": 0.0, "alpha_psi": 0.0}):
        cfg = SearchConfig(n_mc=5, k=4, d_sim_max=8, t_max=1e9, **alphas)
        reply = [[1e300, 0.0, -1.0]] * cfg.horizon
        dists = library.distances_to(reply)
        assert (psi_prior(dists[:cfg.k], cfg.alpha_psi, 0.0) == 1 / cfg.k).all()
        outcome = search_once(model.reset(0, tasks[0].task_id), tasks[0], _FixedPrior(reply),
                              library, model, cfg, streams=RngFactory(0), meter=CostMeter(cfg))
        assert outcome.kind == BEST_ROOT_MACRO and outcome.iterations_used == cfg.n_mc


def test_prior_only_episode_rejects_nan_macro(env, model, tasks, library):
    prior = _FixedPrior(BAD_PRIOR_OUTPUTS["nan"][0])
    with pytest.raises(PriorQueryError):
        run_episode(env, model, tasks[0], prior, library, SearchConfig(n_mc=0),
                    streams=RngFactory(0))


def test_prior_output_accepts_lists_and_one_row_macros(model, tasks):
    task = tasks[0]
    start = model.reset(0, task.task_id)
    cfg = SearchConfig(d_sim_max=5, t_max=1e9)
    success, steps, macros = rollout(model, _FixedPrior([[0.1, 0.0, -1.0]]), start, task,
                                     cfg, np.random.default_rng(0), CostMeter(cfg))
    assert (success, steps, len(macros)) == (False, 5, 5)
    assert all(np.asarray(m).dtype == float and np.shape(m) == (1, 3) for m in macros)
