"""Macro-action tree search at one decision point, plus the episode runner.

The search is PUCT-style with no value estimates: visits are allocated by a
prior over each node's sampled candidate macro-actions, counts are the only
backpropagated quantity, and the search terminates as soon as any simulated
state satisfies the goal.  ``search_once`` has one iteration path: select a
leaf, expand it with candidates sampled around the prior's macro, roll the
prior out from the best-prior child, backpropagate.  The episode runner
replans in a receding-horizon loop, executing either the returned goal plan
or the most-visited root macro.

Time accounting is a deterministic cost model (a fixed charge per prior query
and per simulated primitive step) so that identical configurations produce
byte-identical results; see ``CostMeter``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError, PriorQueryError
from .macrolib import MacroLibrary
from .prior import (
    CandidateSet,
    PriorPolicy,
    beta_distribution,
    psi_prior,
    sample_candidates,
)
from .rngutil import CANDIDATES, PRIOR_QUERY, ROLLOUT, RngFactory
from .world import StateVec, TaskSpec, WorldModel, step_macro

GOAL_PLAN = "goal_plan"
BEST_ROOT_MACRO = "best_root_macro"

_CONFIG_KEY_MAP = {
    # JSON key -> attribute
    "N_mc": "n_mc",
    "k": "k",
    "d_sim_max": "d_sim_max",
    "H": "horizon",
    "d_max": "d_max",
    "T_max": "t_max",
    "alpha_beta": "alpha_beta",
    "epsilon_beta": "epsilon_beta",
    "alpha_psi": "alpha_psi",
    "epsilon_psi": "epsilon_psi",
    "seed": "seed",
    "prior_query_cost_s": "prior_query_cost_s",
    "sim_step_cost_s": "sim_step_cost_s",
}

_INT_FIELDS = ("n_mc", "k", "d_sim_max", "horizon", "d_max", "seed")
_REAL_FIELDS = ("t_max", "alpha_beta", "epsilon_beta", "alpha_psi", "epsilon_psi",
                "prior_query_cost_s", "sim_step_cost_s")


@dataclass
class SearchConfig:
    """All search hyperparameters (defaults are the reference large-scale values)."""

    n_mc: int = 300            # search iterations per decision point
    k: int = 10                # candidate expansions per node
    d_sim_max: int = 300       # primitive steps per simulated rollout
    horizon: int = 4           # macro-action length H
    d_max: int = 100           # max tree depth / decision points per episode
    t_max: float = 600.0       # wall-clock budget (cost-model seconds)
    alpha_beta: float = 10.0   # sampling-distribution temperature
    epsilon_beta: float = 0.1  # uniform-mixing probability for sampling
    alpha_psi: float = 5.0     # selection-prior temperature
    epsilon_psi: float = 0.0   # optional uniform term in the selection prior
    seed: int = 0
    prior_query_cost_s: float = 0.002
    sim_step_cost_s: float = 0.0001

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not 0 <= value < math.inf):
                raise ConfigurationError(
                    f"{name} must be a finite non-negative number, got {value!r}")
        if self.n_mc < 0 or self.k < 1 or self.d_sim_max < 1 or self.horizon < 1:
            raise ConfigurationError("n_mc, k, d_sim_max, horizon must be positive")
        if self.d_max < 1 or self.t_max <= 0:
            raise ConfigurationError("d_max, t_max must be positive")
        if self.epsilon_beta > 1.0 or self.epsilon_psi > 1.0:
            raise ConfigurationError("epsilon values must lie in [0,1]")

    def to_json(self) -> dict:
        return {key: getattr(self, attr) for key, attr in _CONFIG_KEY_MAP.items()}

    @classmethod
    def from_json(cls, data: dict) -> "SearchConfig":
        unknown = set(data) - set(_CONFIG_KEY_MAP)
        if unknown:
            raise ConfigurationError(f"unknown search config keys: {sorted(unknown)}")
        return cls(**{_CONFIG_KEY_MAP[key]: value for key, value in data.items()})


class CostMeter:
    """Deterministic wall-clock proxy: counts prior queries and simulated steps."""

    def __init__(self, cfg: SearchConfig):
        self.query_cost = cfg.prior_query_cost_s
        self.step_cost = cfg.sim_step_cost_s
        self.queries = 0
        self.sim_steps = 0

    def add_query(self, n: int = 1) -> None:
        self.queries += n

    def add_steps(self, n: int) -> None:
        self.sim_steps += n

    def elapsed(self) -> float:
        return self.queries * self.query_cost + self.sim_steps * self.step_cost


@dataclass
class TreeNode:
    sim_state: StateVec
    depth: int
    node_id: int
    is_goal: bool = False
    candidates: Optional[CandidateSet] = None
    psi: Optional[np.ndarray] = None
    visit_counts: Optional[np.ndarray] = None
    children: dict = field(default_factory=dict)


@dataclass
class SearchOutcome:
    kind: str  # GOAL_PLAN or BEST_ROOT_MACRO
    plan: Optional[list] = None        # macro sequence root -> goal
    best_macro: Optional[np.ndarray] = None
    iterations_used: int = 0
    wall_time: float = 0.0
    nodes_created: int = 1


@dataclass
class EpisodeResult:
    success: bool
    primitive_steps: int
    decision_points: int
    total_wall_time: float
    total_prior_queries: int
    total_search_iterations: int = 0


def score(node: TreeNode, i: int) -> float:
    """Selection score of candidate i at a node (no value estimates).

    ``psi_i * sqrt(sum_j N_j) / (1 + N_i)``: the parent-total visit count in
    the numerator is what makes visit allocation track the prior.  With no Q
    term an exploration constant would scale every score alike, so there is
    none.
    """
    if node.candidates is None:
        raise ContractViolationError("score requires an expanded node")
    n_i = float(node.visit_counts[i])
    return float(node.psi[i]) * math.sqrt(float(node.visit_counts.sum())) / (1.0 + n_i)


def _best_candidate(node: TreeNode) -> int:
    # ties: higher psi, then lower index (deterministic replay)
    return max(
        range(len(node.candidates)),
        key=lambda i: (score(node, i), float(node.psi[i]), -i),
    )


def select_path(root: TreeNode, cfg: SearchConfig) -> tuple[TreeNode, list]:
    """Descend through expanded nodes by argmax score.

    Returns the reached leaf and the list of (node, candidate-index) choices
    made on the way down.  Stops at an unexpanded node, a goal node, or at
    maximum depth.
    """
    node, path = root, []
    while node.candidates is not None and not node.is_goal and node.depth < cfg.d_max:
        idx = _best_candidate(node)
        path.append((node, idx))
        node = node.children[idx]
    return node, path


def backpropagate(path: list) -> None:
    """Increment the visit count of each chosen candidate along the path."""
    for node, idx in path:
        node.visit_counts[idx] += 1


def _query_prior(
    prior: PriorPolicy,
    model: WorldModel,
    state: StateVec,
    task: TaskSpec,
    rng: np.random.Generator,
    where: str,
) -> np.ndarray:
    """Ask the prior for a macro at ``state`` and check what it returns.

    Raises ``PriorQueryError``, naming ``where``, if the prior raises or its
    macro is not a finite 2-D float array with at least one row and
    ``model.action_dim`` columns.
    """
    obs = model.observe(state)
    try:
        macro = np.asarray(prior.sample_macro(obs, task, rng), dtype=float)
    except Exception as exc:  # noqa: BLE001 - surface with search context
        raise PriorQueryError(f"prior query failed {where}: {exc}") from exc
    if macro.ndim != 2 or macro.shape[0] < 1 or macro.shape[1] != model.action_dim:
        raise PriorQueryError(
            f"prior returned a macro of shape {macro.shape} {where}; expected "
            f"(H, {model.action_dim}) with H >= 1"
        )
    # a Python check over the floats is about twice as fast as np.isfinite
    # on an H x 3 macro, and the rollout loop queries the prior every H steps
    if not all(map(math.isfinite, macro.ravel().tolist())):
        raise PriorQueryError(f"prior returned a non-finite macro {where}")
    return macro


def expand(
    node: TreeNode,
    prior: PriorPolicy,
    lib: MacroLibrary,
    model: WorldModel,
    task: TaskSpec,
    cfg: SearchConfig,
    rng_query: np.random.Generator,
    rng_sample: np.random.Generator,
    meter: CostMeter,
    next_id: int,
) -> list[TreeNode]:
    """Create the node's k candidate children.

    Queries the prior exactly once for the anchor macro, samples the fixed
    candidate set from the library, computes the selection prior, and steps
    the world model through each candidate macro.
    """
    if node.candidates is not None:
        raise ContractViolationError("node is already expanded")
    if node.depth >= cfg.d_max:
        raise ContractViolationError("cannot expand a node at maximum depth")
    meter.add_query()
    anchor = _query_prior(prior, model, node.sim_state, task, rng_query,
                          f"in expand at depth {node.depth}")
    dist = beta_distribution(lib, anchor, cfg.alpha_beta, cfg.epsilon_beta)
    node.candidates = sample_candidates(dist, cfg.k, rng_sample, anchor=anchor)
    node.psi = psi_prior(node.candidates, lib, anchor, cfg.alpha_psi, cfg.epsilon_psi)
    node.visit_counts = np.zeros(cfg.k, dtype=np.int64)

    children = []
    for slot, proto_idx in enumerate(node.candidates.indices):
        macro = lib.prototypes[proto_idx]
        state, success, _ = step_macro(
            model, model.clone_state(node.sim_state), macro, task, meter=meter
        )
        child = TreeNode(state, node.depth + 1, next_id + slot, is_goal=success)
        node.children[slot] = child
        children.append(child)
    return children


def rollout(
    model: WorldModel,
    prior: PriorPolicy,
    start: StateVec,
    task: TaskSpec,
    cfg: SearchConfig,
    rng: np.random.Generator,
    meter: Optional[CostMeter] = None,
) -> tuple[bool, int, list]:
    """Simulate the prior policy from a state until goal or the step cap.

    Returns (success, primitive steps used, macro sequence queried); the last
    macro may have been cut short by the cap or by reaching the goal.  Raises
    ``PriorQueryError`` if the prior fails or returns a malformed macro.
    """
    state = model.clone_state(start)
    if task.goal_predicate(state):
        return True, 0, []
    steps = 0
    macros: list[np.ndarray] = []
    while steps < cfg.d_sim_max:
        if meter is not None:
            meter.add_query()
        macro = _query_prior(prior, model, state, task, rng, "in rollout")
        macros.append(macro)
        # the goal was tested on ``state`` by the check above or after the
        # previous macro's last step, so this skips step_macro's start test
        state, success, used = model.run_macro(
            state, macro[:cfg.d_sim_max - steps], task)
        if meter is not None:
            meter.add_steps(used)
        steps += used
        if success:
            return True, steps, macros
    return False, steps, macros


def _path_macros(path: list, lib: MacroLibrary) -> list:
    return [lib.prototypes[node.candidates.indices[idx]].copy() for node, idx in path]


def search_once(
    root_state: StateVec,
    task: TaskSpec,
    prior: PriorPolicy,
    lib: MacroLibrary,
    model: WorldModel,
    cfg: SearchConfig,
    streams: Optional[RngFactory] = None,
    dp: int = 0,
    meter: Optional[CostMeter] = None,
    deadline: Optional[float] = None,
    trace=None,
) -> SearchOutcome:
    """Run one decision point's search.

    Each iteration selects a leaf, expands it if it is shallower than
    ``d_max``, rolls the prior out from the best-prior new child (or from the
    leaf itself at ``d_max``), and backpropagates visit counts.  Iteration 1 first
    rolls the prior out from the root, so a prior that already solves the
    task returns its solution at once.  Returns a goal plan as soon as any
    simulated state satisfies the goal, otherwise the most-visited root macro
    once the iteration budget or deadline is spent.
    """
    if cfg.n_mc < 1:
        raise ConfigurationError("search_once requires n_mc >= 1")
    if streams is None:
        streams = RngFactory(cfg.seed)
    if meter is None:
        meter = CostMeter(cfg)
    if deadline is None:
        deadline = meter.elapsed() + cfg.t_max
    start_time = meter.elapsed()
    nodes_created = 1
    iterations = 0

    def finish(kind: str, plan=None, best_macro=None) -> SearchOutcome:
        outcome = SearchOutcome(kind, plan=plan, best_macro=best_macro,
                                iterations_used=iterations, nodes_created=nodes_created,
                                wall_time=meter.elapsed() - start_time)
        _check_tree(root, outcome, cfg)
        return outcome

    root = TreeNode(model.clone_state(root_state), 0, 0,
                    is_goal=task.goal_predicate(root_state))
    if root.is_goal:
        return finish(GOAL_PLAN, plan=[])

    rollouts = 0
    for it in range(1, cfg.n_mc + 1):
        if meter.elapsed() >= deadline:
            break
        iterations = it
        leaf, path = select_path(root, cfg) if it > 1 else (root, [])
        record = {"iteration": it, "path": [node.node_id for node, _ in path],
                  "expanded_node_id": None, "rollout_result": None}
        # iteration 1 rolls the prior out from the root before it expands the
        # root, with no deadline check in between
        for expand_leaf in ((False, True) if it == 1 else (True,)):
            if expand_leaf and leaf.depth < cfg.d_max:
                children = expand(
                    leaf, prior, lib, model, task, cfg,
                    streams.rng(PRIOR_QUERY, dp, leaf.node_id),
                    streams.rng(CANDIDATES, dp, leaf.node_id),
                    meter, nodes_created,
                )
                nodes_created += len(children)
                record["expanded_node_id"] = leaf.node_id
                for idx, child in enumerate(children):
                    if child.is_goal:
                        _trace(trace, record, meter, rollout_result="goal_child")
                        plan = _path_macros(path + [(leaf, idx)], lib)
                        return finish(GOAL_PLAN, plan=plan)
                best = _best_candidate(leaf)
                path.append((leaf, best))
                leaf = children[best]
            success, _, macros = rollout(
                model, prior, leaf.sim_state, task, cfg,
                streams.rng(ROLLOUT, dp, rollouts), meter,
            )
            rollouts += 1
            if success:
                _trace(trace, record, meter, rollout_result="goal")
                return finish(GOAL_PLAN, plan=_path_macros(path, lib) + macros)
        backpropagate(path)
        _trace(trace, record, meter, rollout_result="fail")

    # budget exhausted: most-visited root macro
    if root.candidates is None:
        # deadline hit before the first expansion (timeout-starved budget)
        raise ConfigurationError(
            "search budget exhausted before the root could be expanded; "
            "increase t_max or lower per-call costs"
        )
    counts = root.visit_counts
    best = max(range(len(counts)),
               key=lambda i: (counts[i], float(root.psi[i]), -i))
    return finish(BEST_ROOT_MACRO,
                  best_macro=lib.prototypes[root.candidates.indices[best]].copy())


def _trace(trace, record: dict, meter: CostMeter, rollout_result: str) -> None:
    if trace is None:
        return
    record["rollout_result"] = rollout_result
    record["elapsed"] = meter.elapsed()
    trace.write(json.dumps(record) + "\n")


def _check_tree(root: TreeNode, outcome: SearchOutcome, cfg: SearchConfig) -> None:
    # branching bound and, for completed searches, visit-count conservation
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if len(node.children) > cfg.k:
            raise ContractViolationError(
                f"_check_tree: node {node.node_id} at depth {node.depth} has "
                f"{len(node.children)} children, more than k={cfg.k}"
            )
        stack.extend(node.children.values())
    if count > 1 + cfg.n_mc * cfg.k:
        raise ContractViolationError(
            f"_check_tree: tree has {count} nodes, more than "
            f"1 + n_mc*k = {1 + cfg.n_mc * cfg.k}"
        )
    if outcome.kind == BEST_ROOT_MACRO and root.visit_counts is not None:
        visits = int(root.visit_counts.sum())
        if visits != outcome.iterations_used:
            raise ContractViolationError(
                f"_check_tree: root visit counts sum to {visits}, "
                f"but {outcome.iterations_used} iterations were used"
            )


def replay_plan(
    model: WorldModel,
    start: StateVec,
    plan: list,
    task: TaskSpec,
) -> tuple[StateVec, bool, int]:
    """Execute a macro plan from a state with per-primitive goal early stop."""
    state = model.clone_state(start)
    total = 0
    for macro in plan:
        state, success, used = step_macro(model, state, macro, task)
        total += used
        if success:
            return state, True, total
    return state, task.goal_predicate(state), total


def run_episode(
    env: WorldModel,
    model: WorldModel,
    task: TaskSpec,
    prior: PriorPolicy,
    lib: Optional[MacroLibrary],
    cfg: SearchConfig,
    streams: Optional[RngFactory] = None,
    reset_seed: int = 0,
    trace=None,
) -> EpisodeResult:
    """Receding-horizon episode: search, execute, observe, repeat.

    With ``n_mc == 0`` the runner degenerates to executing a single prior
    rollout directly in the true environment (the prior-only baseline).
    """
    if streams is None:
        streams = RngFactory(cfg.seed)
    meter = CostMeter(cfg)
    state = env.reset(reset_seed, task.task_id)

    if cfg.n_mc == 0:
        success, steps, _ = rollout(
            env, prior, state, task, cfg, streams.rng(ROLLOUT, 0, 0), meter
        )
        return EpisodeResult(success, steps, 0, meter.elapsed(), meter.queries)

    if lib is None:
        raise ConfigurationError("run_episode requires a macro library when n_mc > 0")

    primitive_steps = 0
    decision_points = 0
    search_iterations = 0
    success = task.goal_predicate(state)
    while not success:
        if decision_points >= cfg.d_max or meter.elapsed() >= cfg.t_max:
            break
        outcome = search_once(
            state, task, prior, lib, model, cfg,
            streams=streams, dp=decision_points, meter=meter,
            deadline=cfg.t_max, trace=trace,
        )
        decision_points += 1
        search_iterations += outcome.iterations_used
        if outcome.kind == GOAL_PLAN:
            state, success, used = replay_plan(env, state, outcome.plan, task)
            primitive_steps += used
            meter.add_steps(used)
            break
        state, success, used = step_macro(env, state, outcome.best_macro, task)
        primitive_steps += used
        meter.add_steps(used)
    return EpisodeResult(
        success, primitive_steps, decision_points, meter.elapsed(),
        meter.queries, search_iterations,
    )
