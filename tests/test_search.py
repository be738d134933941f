import collections
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from vlaps.errors import ConfigurationError, ContractViolationError, PriorQueryError
from vlaps.macrolib import MacroLibrary
from vlaps.prior import CandidateSet, UniformLibraryPrior
from vlaps.rngutil import CANDIDATES, PRIOR_QUERY, ROLLOUT, RngFactory
from vlaps.search import (
    BEST_ROOT_MACRO,
    GOAL_PLAN,
    CostMeter,
    SearchConfig,
    SearchOutcome,
    TreeNode,
    _CONFIG_KEY_MAP,
    _best_candidate,
    _check_tree,
    _path_macros,
    _trace,
    backpropagate,
    expand,
    replay_plan,
    rollout,
    run_episode,
    score,
    search_once,
    select_path,
)
from vlaps.world import (
    BlockNavEnv,
    ScriptedExpertPrior,
    StateVec,
    TaskSpec,
    WorldModel,
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
])
def test_config_rejects_non_finite_negative_and_non_integer_values(field, value):
    with pytest.raises(ConfigurationError, match=field):
        SearchConfig(**{field: value})


def test_config_accepts_large_budgets_and_numpy_integers():
    cfg = SearchConfig(t_max=1e9, k=np.int64(4), n_mc=np.int32(7), prior_query_cost_s=0,
                       sim_step_cost_s=0.0)
    assert (cfg.t_max, cfg.k, cfg.n_mc) == (1e9, 4, 7)


def test_config_fields_all_have_json_keys():
    # every knob round-trips through suite configs; none is settable only in code
    fields = {f.name for f in dataclasses.fields(SearchConfig)}
    assert fields == set(_CONFIG_KEY_MAP.values())
    assert len(fields) == len(_CONFIG_KEY_MAP) == 13


# -- score / selection / backprop ---------------------------------------------

def _fake_node(psi, counts):
    node = TreeNode(StateVec(np.zeros(2)), depth=0, node_id=0)
    node.candidates = CandidateSet(tuple(range(len(psi))), np.zeros((1, 1)))
    node.psi = np.asarray(psi, dtype=float)
    node.visit_counts = np.asarray(counts, dtype=np.int64)
    return node


def test_score_zero_counts():
    node = _fake_node([0.2, 0.5, 0.3], [0, 0, 0])
    assert [score(node, i) for i in range(3)] == [0.0, 0.0, 0.0]
    # tie broken by higher psi, then lower index
    assert _best_candidate(node) == 1
    tied = _fake_node([0.4, 0.4, 0.2], [0, 0, 0])
    assert _best_candidate(tied) == 0


def test_score_hand_example():
    node = _fake_node([0.5, 0.5], [1, 0])
    assert score(node, 0) == pytest.approx(0.25)
    assert score(node, 1) == pytest.approx(0.5)
    assert _best_candidate(node) == 1


def test_score_scaling_invariance():
    a = _fake_node([0.1, 0.6, 0.3], [3, 1, 2])
    b = _fake_node([0.2, 1.2, 0.6], [3, 1, 2])
    assert _best_candidate(a) == _best_candidate(b)


def test_score_requires_expansion():
    node = TreeNode(StateVec(np.zeros(2)), 0, 0)
    with pytest.raises(ContractViolationError):
        score(node, 0)


def test_select_path_fresh_root():
    node = TreeNode(StateVec(np.zeros(2)), 0, 0)
    leaf, path = select_path(node, SearchConfig())
    assert leaf is node and path == []


def test_backpropagate_locality():
    a = _fake_node([0.5, 0.5], [0, 0])
    b = _fake_node([0.5, 0.5], [0, 0])
    backpropagate([(a, 1)])
    assert list(a.visit_counts) == [0, 1]
    assert list(b.visit_counts) == [0, 0]


def test_select_path_deterministic():
    cfg = SearchConfig()
    root = _fake_node([0.3, 0.7], [2, 5])
    for i in range(2):
        root.children[i] = TreeNode(StateVec(np.zeros(2)), 1, i + 1)
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
    assert len(children) == cfg.k
    assert len(node.candidates) == cfg.k
    assert meter.queries == 1  # exactly one prior query per expansion
    with pytest.raises(ContractViolationError):
        expand(node, prior, library, model, task, cfg,
               np.random.default_rng(0), np.random.default_rng(1), meter, 10)


def test_expand_depth_cap(env, model, tasks, library, search_setup):
    cfg, prior = search_setup
    node = TreeNode(env.reset(0, tasks[0].task_id), cfg.d_max, 0)
    with pytest.raises(ContractViolationError):
        expand(node, prior, library, model, tasks[0], cfg,
               np.random.default_rng(0), np.random.default_rng(1), CostMeter(cfg), 1)


def test_rollout_degenerate_start(env, model, tasks, library, search_setup):
    cfg, prior = search_setup
    task = tasks[0]
    # drive the expert to the goal first
    from vlaps.world import greedy_expert_action
    state = env.reset(0, task.task_id)
    while not task.goal_predicate(state):
        state = env.step(state, greedy_expert_action(env, state, task))
    success, steps, macros = rollout(model, prior, state, task, cfg,
                                     np.random.default_rng(0))
    assert success and steps == 0 and macros == []


def test_rollout_respects_step_cap(model, env, tasks, library):
    cfg = SearchConfig(d_sim_max=17, t_max=1e9)
    prior = UniformLibraryPrior(library)
    state = env.reset(0, tasks[2].task_id)
    success, steps, _ = rollout(model, prior, state, tasks[2], cfg,
                                np.random.default_rng(0))
    assert steps <= 17
    if not success:
        assert steps == 17


def test_rollout_deterministic(model, env, tasks, library):
    cfg = SearchConfig(d_sim_max=40, t_max=1e9)
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.5)
    state = env.reset(1, tasks[0].task_id)
    runs = [rollout(model, prior, state, tasks[0], cfg, np.random.default_rng(9))
            for _ in range(2)]
    assert runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1]
    for m1, m2 in zip(runs[0][2], runs[1][2]):
        assert np.array_equal(m1, m2)


# -- search_once ----------------------------------------------------------------

def test_perfect_prior_returns_plan_in_one_iteration(env, model, tasks, library):
    cfg = SearchConfig()
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    state = env.reset(0, tasks[0].task_id)
    out = search_once(state, tasks[0], prior, library, model, cfg,
                      streams=RngFactory(0))
    assert out.kind == GOAL_PLAN and out.iterations_used == 1


def test_goal_plans_replay_to_goal(env, model, tasks, library):
    cfg = SearchConfig(d_sim_max=80, t_max=1e9)
    for noise, seed in [(0.0, 0), (0.4, 1), (0.6, 2)]:
        prior = ScriptedExpertPrior(model, cfg.horizon, noise)
        task = tasks[2]
        state = env.reset(seed, task.task_id)
        out = search_once(state, task, prior, library, model, cfg,
                          streams=RngFactory(seed))
        if out.kind == GOAL_PLAN:
            final, ok, _ = replay_plan(BlockNavEnv.from_json(env.to_json()),
                                       state, out.plan, task)
            assert ok and task.goal_predicate(final)


def test_root_already_at_goal(env, model, tasks, library):
    task = tasks[0]
    from vlaps.world import greedy_expert_action
    state = env.reset(0, task.task_id)
    while not task.goal_predicate(state):
        state = env.step(state, greedy_expert_action(env, state, task))
    cfg = SearchConfig()
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    out = search_once(state, task, prior, library, model, cfg, streams=RngFactory(0))
    assert out.kind == GOAL_PLAN and out.plan == [] and out.iterations_used == 0


def test_budget_exhaustion_returns_most_visited(env, model, tasks, library):
    cfg = SearchConfig(n_mc=15, d_sim_max=20, t_max=1e9)
    prior = UniformLibraryPrior(library)
    task = tasks[2]
    state = env.reset(0, task.task_id)
    out = search_once(state, task, prior, library, model, cfg, streams=RngFactory(3))
    assert out.kind == BEST_ROOT_MACRO
    assert out.iterations_used == cfg.n_mc
    assert out.best_macro.shape == (library.horizon, library.action_dim)
    assert out.nodes_created <= 1 + cfg.n_mc * cfg.k


def test_search_deterministic(env, model, tasks, library):
    cfg = SearchConfig(n_mc=10, d_sim_max=40, t_max=1e9)
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.7)
    task = tasks[1]
    state = env.reset(5, task.task_id)
    outs = [search_once(state, task, prior, library, model, cfg,
                        streams=RngFactory(5)) for _ in range(2)]
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
                      streams=RngFactory(0))
    assert out.kind == BEST_ROOT_MACRO
    assert out.iterations_used < 200


def test_trace_export(env, model, tasks, library):
    cfg = SearchConfig(n_mc=5, d_sim_max=20, t_max=1e9)
    prior = UniformLibraryPrior(library)
    state = env.reset(0, tasks[2].task_id)
    buf = io.StringIO()
    search_once(state, tasks[2], prior, library, model, cfg,
                streams=RngFactory(0), trace=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert len(lines) == 5
    for rec in lines:
        assert set(rec) >= {"iteration", "path", "expanded_node_id",
                            "rollout_result", "elapsed"}


def test_prior_proportional_allocation():
    # single-node simulation: visit frequencies track the selection prior
    from scipy.stats import spearmanr
    rng = np.random.default_rng(0)
    psi = rng.dirichlet(np.ones(10))
    node = _fake_node(psi, np.zeros(10, dtype=int))
    for _ in range(5000):
        node.visit_counts[_best_candidate(node)] += 1
    freqs = node.visit_counts / node.visit_counts.sum()
    assert spearmanr(freqs, psi).statistic >= 0.99
    assert np.max(np.abs(freqs - psi)) <= 0.05


# -- tiny discrete optimality oracle ------------------------------------------

class ChainWorld(WorldModel):
    """1-D integer line in [0, 5]; one action dim, moves round(a)."""

    def __init__(self, goal_pos):
        self.goal_pos = goal_pos

    @property
    def action_dim(self):
        return 1

    def reset(self, seed, task_id):
        return StateVec(np.zeros(1))

    def step(self, state, action):
        pos = float(np.clip(state.values[0] + round(float(action[0])), 0, 5))
        return StateVec(np.array([pos]), state.step_count + 1)

    def observe(self, state):
        from vlaps.world import Observation
        return Observation(state.values.copy())

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
                      streams=RngFactory(0))
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


def test_episode_requires_library_when_searching(env, model, tasks):
    cfg = SearchConfig()
    prior = ScriptedExpertPrior(model, cfg.horizon, 0.0)
    with pytest.raises(ConfigurationError):
        run_episode(env, model, tasks[0], prior, None, cfg, streams=RngFactory(0))


def test_check_tree_rejects_too_many_children():
    cfg = SearchConfig(k=2, n_mc=5)
    root = _fake_node([0.5, 0.5], [0, 0])
    for i in range(3):
        root.children[i] = TreeNode(StateVec(np.zeros(2)), 1, i + 1)
    outcome = SearchOutcome(GOAL_PLAN, plan=[])
    with pytest.raises(ContractViolationError, match="_check_tree: node 0 at depth 0 has 3"):
        _check_tree(root, outcome, cfg)


def test_check_tree_rejects_too_many_nodes_and_lost_visits():
    cfg = SearchConfig(k=2, n_mc=1)
    root = _fake_node([0.5, 0.5], [1, 0])
    child = _fake_node([0.5, 0.5], [0, 0])
    root.children = {0: child, 1: TreeNode(StateVec(np.zeros(2)), 1, 2)}
    child.children = {0: TreeNode(StateVec(np.zeros(2)), 2, 3)}
    with pytest.raises(ContractViolationError, match="_check_tree: tree has 4 nodes"):
        _check_tree(root, SearchOutcome(GOAL_PLAN, plan=[]), cfg)
    root.children = {}
    _check_tree(root, SearchOutcome(BEST_ROOT_MACRO, iterations_used=1), cfg)
    with pytest.raises(ContractViolationError, match="_check_tree: root visit counts"):
        _check_tree(root, SearchOutcome(BEST_ROOT_MACRO, iterations_used=2), cfg)


# -- rollout against the row-by-row loop ----------------------------------------

def reference_rollout(model, prior, start, task, cfg, rng, meter=None):
    """The rollout loop as it was before it stepped through step_macro."""
    state = model.clone_state(start)
    if task.goal_predicate(state):
        return True, 0, []
    steps = 0
    macros = []
    while steps < cfg.d_sim_max:
        if meter is not None:
            meter.add_query()
        macro = prior.sample_macro(model.observe(state), task, rng)
        macros.append(macro)
        for row in macro:
            state = model.step(state, row)
            steps += 1
            if meter is not None:
                meter.add_steps(1)
            if task.goal_predicate(state):
                return True, steps, macros
            if steps >= cfg.d_sim_max:
                break
    return False, steps, macros


def test_rollout_matches_reference_loop(model, tasks, library):
    priors = [UniformLibraryPrior(library)] + [
        ScriptedExpertPrior(model, 4, noise) for noise in (0.0, 0.3, 0.6, 1.0)]
    outcomes = set()
    for seed in range(200):
        cfg = SearchConfig(d_sim_max=(5, 17, 30, 80)[seed % 4], t_max=1e9)
        prior = priors[seed % len(priors)]
        task = tasks[seed % len(tasks)]
        start = model.reset(seed, task.task_id)
        runs = []
        for fn in (reference_rollout, rollout):
            meter, rng = CostMeter(cfg), np.random.default_rng(seed)
            success, steps, macros = fn(model, prior, start, task, cfg, rng, meter)
            runs.append((success, steps, [m.tobytes() for m in macros],
                         meter.queries, meter.sim_steps, rng.random()))
        assert runs[0] == runs[1], seed
        success, steps = runs[1][:2]
        outcomes.add("goal" if success else "cap" if steps % 4 else "cap_at_macro_end")
    assert outcomes == {"goal", "cap", "cap_at_macro_end"}


def test_chain_world_takes_default_macro_loop():
    # ChainWorld does not override run_macro: WorldModel's step-and-test loop
    world = ChainWorld(goal_pos=3)
    task = world.task()
    assert task.goal_on_values is None
    start = world.reset(0, "chain")
    macro = np.array([[1.0], [1.0], [1.0], [1.0]])
    meter = CostMeter(SearchConfig())
    state, ok, used = step_macro(world, start, macro, task, meter=meter)
    assert (state.values[0], state.step_count, ok, used) == (3.0, 3, True, 3)
    assert meter.sim_steps == 3
    state, ok, used = step_macro(world, start, macro, task, limit=2)
    assert (state.values[0], ok, used) == (2.0, False, 2)
    cfg = SearchConfig(d_sim_max=9, horizon=1, t_max=1e9)
    prior = UniformLibraryPrior(_chain_library())
    for seed in range(20):
        runs = [fn(world, prior, start, task, cfg, np.random.default_rng(seed))
                for fn in (reference_rollout, rollout)]
        assert runs[0][:2] == runs[1][:2]
        assert [m.tobytes() for m in runs[0][2]] == [m.tobytes() for m in runs[1][2]]


# -- search_once against the loop with three rollout paths -----------------------

def reference_best_candidate(node, c_exp=1.4):
    """Selection with the exploration constant the score used to carry."""
    def reference_score(i):
        n_i = float(node.visit_counts[i])
        total = float(node.visit_counts.sum())
        return c_exp * float(node.psi[i]) * math.sqrt(total) / (1.0 + n_i)
    return max(range(len(node.candidates)),
               key=lambda i: (reference_score(i), float(node.psi[i]), -i))


def reference_select_path(root, cfg):
    node, path = root, []
    while node.candidates is not None and not node.is_goal and node.depth < cfg.d_max:
        idx = reference_best_candidate(node)
        path.append((node, idx))
        node = node.children[idx]
    return node, path


def reference_search_once(root_state, task, prior, lib, model, cfg, streams,
                          meter, deadline=None, trace=None):
    """search_once as it was with a separate root, post-expansion and
    depth-capped rollout; returns the outcome and the name of its exit."""
    if deadline is None:
        deadline = meter.elapsed() + cfg.t_max
    start_time = meter.elapsed()

    def finish(outcome, exit_name):
        outcome.wall_time = meter.elapsed() - start_time
        _check_tree(root, outcome, cfg)
        return outcome, exit_name

    root = TreeNode(model.clone_state(root_state), 0, 0,
                    is_goal=task.goal_predicate(root_state))
    nodes_created = 1
    if root.is_goal:
        return finish(SearchOutcome(GOAL_PLAN, plan=[], iterations_used=0), "root_goal")

    rollouts_done = 0
    iterations = 0
    for it in range(1, cfg.n_mc + 1):
        if meter.elapsed() >= deadline:
            break
        iterations = it
        record = {"iteration": it, "path": [], "expanded_node_id": None,
                  "rollout_result": None}
        if it == 1:
            success, _, macros = rollout(
                model, prior, root.sim_state, task, cfg,
                streams.rng(ROLLOUT, 0, rollouts_done), meter,
            )
            rollouts_done += 1
            if success:
                out = SearchOutcome(GOAL_PLAN, plan=macros, iterations_used=1,
                                    nodes_created=nodes_created)
                _trace(trace, record, meter, rollout_result="goal")
                return finish(out, "root_rollout_goal")
            leaf, path = root, []
        else:
            leaf, path = reference_select_path(root, cfg)
        record["path"] = [node.node_id for node, _ in path]

        if leaf.is_goal:
            out = SearchOutcome(GOAL_PLAN, plan=_path_macros(path, lib),
                                iterations_used=it, nodes_created=nodes_created)
            return finish(out, "goal_leaf")

        if leaf.candidates is None and leaf.depth < cfg.d_max:
            children = expand(
                leaf, prior, lib, model, task, cfg,
                streams.rng(PRIOR_QUERY, 0, leaf.node_id),
                streams.rng(CANDIDATES, 0, leaf.node_id),
                meter, nodes_created,
            )
            nodes_created += len(children)
            record["expanded_node_id"] = leaf.node_id
            for idx, child in enumerate(children):
                if child.is_goal:
                    plan = _path_macros(path + [(leaf, idx)], lib)
                    _trace(trace, record, meter, rollout_result="goal_child")
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
                _trace(trace, record, meter, rollout_result="goal")
                return finish(SearchOutcome(
                    GOAL_PLAN, plan=plan, iterations_used=it,
                    nodes_created=nodes_created), "expansion_rollout_goal")
            backpropagate(path + [(leaf, ci)])
            _trace(trace, record, meter, rollout_result="fail")
        else:
            success, _, macros = rollout(
                model, prior, leaf.sim_state, task, cfg,
                streams.rng(ROLLOUT, 0, rollouts_done), meter,
            )
            rollouts_done += 1
            if success:
                plan = _path_macros(path, lib) + macros
                _trace(trace, record, meter, rollout_result="goal")
                return finish(SearchOutcome(
                    GOAL_PLAN, plan=plan, iterations_used=it,
                    nodes_created=nodes_created), "depth_capped_goal")
            backpropagate(path)
            _trace(trace, record, meter, rollout_result="fail")

    if root.candidates is None:
        raise ConfigurationError("search budget exhausted before the root could be expanded")
    counts = root.visit_counts
    best = max(range(len(counts)),
               key=lambda i: (counts[i], float(root.psi[i]), -i))
    macro = lib.prototypes[root.candidates.indices[best]].copy()
    return finish(SearchOutcome(
        BEST_ROOT_MACRO, best_macro=macro, iterations_used=iterations,
        nodes_created=nodes_created),
        "budget_spent" if iterations == cfg.n_mc else "deadline_cut")


def _search_fingerprint(outcome, meter, trace):
    plan = [m.tobytes() for m in outcome.plan] if outcome.plan is not None else None
    best = outcome.best_macro.tobytes() if outcome.best_macro is not None else None
    return (outcome.kind, plan, best, outcome.iterations_used, outcome.nodes_created,
            outcome.wall_time, meter.queries, meter.sim_steps, trace.getvalue())


def test_search_once_matches_reference_loop(env, model, tasks, library):
    from vlaps.world import greedy_expert_action
    priors = [UniformLibraryPrior(library)] + [
        ScriptedExpertPrior(model, 4, noise) for noise in (0.0, 0.2, 0.3, 0.45, 0.6, 1.0)]
    exits = collections.Counter()
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
            path.append(env.step(path[-1], greedy_expert_action(env, path[-1], task)))
        state = path[max(0, len(path) - 1 - cfg.d_sim_max - int(rng.integers(0, 6)))]
        runs = []
        for fn in (reference_search_once, search_once):
            meter, trace = CostMeter(cfg), io.StringIO()
            outcome = fn(state, task, prior, library, model, cfg,
                         streams=RngFactory(case), meter=meter, trace=trace)
            if fn is reference_search_once:
                outcome, exit_name = outcome
            runs.append(_search_fingerprint(outcome, meter, trace))
        assert runs[0] == runs[1], (case, exit_name)
        exits[exit_name] += 1
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


BAD_PRIOR_OUTPUTS = {
    "empty": np.zeros((0, 3)),
    "nan": np.array([[0.1, 0.0, 1.0], [np.nan, 0.0, 1.0]]),
    "inf": np.array([[0.1, -np.inf, 1.0]]),
    "wrong_columns": np.zeros((4, 2)),
    "one_dimensional": np.zeros(3),
    "three_dimensional": np.zeros((1, 4, 3)),
    "not_numeric": [["a", "b", "c"]],
    "raises": ValueError("prior crashed"),
}


@pytest.mark.parametrize("name", sorted(BAD_PRIOR_OUTPUTS))
def test_rollout_rejects_bad_prior_output(name, model, tasks):
    # an empty macro used to loop forever and a NaN one to drive the state to NaN
    prior = _FixedPrior(BAD_PRIOR_OUTPUTS[name])
    task = tasks[0]
    start = model.reset(0, task.task_id)
    with pytest.raises(PriorQueryError, match="in rollout"):
        rollout(model, prior, start, task, SearchConfig(), np.random.default_rng(0))


@pytest.mark.parametrize("name", sorted(BAD_PRIOR_OUTPUTS))
def test_expand_rejects_bad_prior_output(name, model, tasks, library):
    prior = _FixedPrior(BAD_PRIOR_OUTPUTS[name])
    cfg = SearchConfig(k=5, t_max=1e9)
    node = TreeNode(model.reset(0, tasks[0].task_id), 2, 0)
    with pytest.raises(PriorQueryError, match="in expand at depth 2"):
        expand(node, prior, library, model, tasks[0], cfg,
               np.random.default_rng(0), np.random.default_rng(1), CostMeter(cfg), 1)
    assert node.candidates is None


def test_prior_only_episode_rejects_nan_macro(env, model, tasks, library):
    prior = _FixedPrior(BAD_PRIOR_OUTPUTS["nan"])
    with pytest.raises(PriorQueryError):
        run_episode(env, model, tasks[0], prior, library, SearchConfig(n_mc=0),
                    streams=RngFactory(0))


def test_prior_output_accepts_lists_and_one_row_macros(model, tasks):
    task = tasks[0]
    start = model.reset(0, task.task_id)
    cfg = SearchConfig(d_sim_max=5, t_max=1e9)
    success, steps, macros = rollout(model, _FixedPrior([[0.1, 0.0, -1.0]]), start, task,
                                     cfg, np.random.default_rng(0))
    assert (success, steps, len(macros)) == (False, 5, 5)
    assert all(m.dtype == float and m.shape == (1, 3) for m in macros)
