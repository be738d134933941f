"""Macro-action tree search at one decision point, plus the episode runner.

The search is PUCT-style with no value estimates: visits are allocated by a
prior over each node's sampled candidate macro-actions, counts are the only
backpropagated quantity, and the search terminates as soon as any simulated
state satisfies the goal.  Each tree node holds the edge that reached it: the
library index of its macro, that macro's selection prior ψ and its visit
count, all plain Python numbers; a node's children are a list in draw order.
``search_once`` has one iteration path: select a leaf, expand it with
candidates sampled around the prior's macro, roll the prior out from the
best-prior child, backpropagate.  The episode runner replans in a
receding-horizon loop, executing either the returned goal plan or the
most-visited root macro as a plan of one macro.  A goal plan that misses the
goal on the true environment (the model diverged) is followed by a new search
from the reached state while decision points and budget remain.

Time accounting is a deterministic cost model (a fixed charge per prior query
and per simulated primitive step) so that identical configurations produce
byte-identical results; see ``CostMeter``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError, PriorQueryError, check_fields
from .macrolib import MacroLibrary
from .prior import PriorPolicy, beta_distribution, psi_prior, sample_candidates
from .rngutil import CANDIDATES, PRIOR_QUERY, ROLLOUT, RngFactory
from .world import CheckedMacro, StateVec, TaskSpec, WorldModel, check_macro, step_macro

GOAL_PLAN = "goal_plan"
BEST_ROOT_MACRO = "best_root_macro"

# the JSON keys that differ from the attribute names
_JSON_KEYS = {"n_mc": "N_mc", "horizon": "H", "t_max": "T_max"}


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
        check_fields(self)
        for f in fields(self):
            if f.type == "float" and getattr(self, f.name) < 0:
                raise ConfigurationError(f"SearchConfig: {f.name} must not be negative, "
                                         f"got {getattr(self, f.name)!r}")
        if self.n_mc < 0 or self.k < 1 or self.d_sim_max < 1 or self.horizon < 1:
            raise ConfigurationError("n_mc, k, d_sim_max, horizon must be positive")
        if self.d_max < 1 or self.t_max <= 0:
            raise ConfigurationError("d_max, t_max must be positive")
        if self.epsilon_beta > 1.0 or self.epsilon_psi > 1.0:
            raise ConfigurationError("epsilon values must lie in [0,1]")
        if not 0 <= self.seed < 2**32:  # RngFactory keeps 32 bits of it
            raise ConfigurationError(f"SearchConfig: seed must lie in [0, 2**32), "
                                     f"got {self.seed!r}")

    def to_json(self) -> dict:
        return {_JSON_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "SearchConfig":
        attrs = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
        unknown = set(data) - set(attrs)
        if unknown:
            raise ConfigurationError(f"unknown search config keys: {sorted(unknown)}")
        return cls(**{attrs[key]: value for key, value in data.items()})


class CostMeter:
    """Deterministic wall-clock proxy: counts prior queries and simulated steps."""

    def __init__(self, cfg: SearchConfig):
        self.query_cost = cfg.prior_query_cost_s
        self.step_cost = cfg.sim_step_cost_s
        self.queries = 0
        self.sim_steps = 0

    def elapsed(self) -> float:
        return self.queries * self.query_cost + self.sim_steps * self.step_cost


@dataclass(slots=True)
class TreeNode:
    """A simulated state and the edge that reached it from its parent: the
    library index of the macro taken (-1 at the root), that macro's selection
    prior and its visit count.  ``children`` are in draw order; a node is
    expanded once it has any."""

    sim_state: StateVec
    depth: int
    node_id: int
    is_goal: bool = False
    proto: int = -1
    psi: float = 0.0
    visits: int = 0
    children: list = field(default_factory=list)


@dataclass
class SearchOutcome:
    """The rows the search stepped, uncopied: tree edges and a best root macro are the
    library's ``CheckedMacro``s, a rollout's part of a plan ``check_macro``'s rows."""
    kind: str  # GOAL_PLAN or BEST_ROOT_MACRO
    plan: Optional[list] = None        # macro rows root -> goal
    best_macro: Optional[CheckedMacro] = None
    iterations_used: int = 0
    nodes_created: int = 1


@dataclass
class EpisodeResult:
    """One episode's outcome and whole cost: executed steps, searches (decision points),
    cost-model seconds, prior queries and search iterations.  A prior-only episode also
    keeps its one rollout's ``(success, steps, macros)`` for its paired search arm."""
    success: bool
    primitive_steps: int
    decision_points: int
    total_wall_time: float
    total_prior_queries: int
    total_search_iterations: int = 0
    root_rollout: Optional[tuple] = None


def _best_candidate(node: TreeNode) -> int:
    """Index of the child with the highest selection score (no value estimates).

    ``psi_i * sqrt(sum_j N_j) / (1 + N_i)``: the parent-total visit count in
    the numerator is what makes visit allocation track the prior.  With no Q
    term an exploration constant would scale every score alike, so there is
    none.  Ties go to the higher psi, then the lower index (deterministic
    replay).
    """
    children = node.children
    root = math.sqrt(sum(child.visits for child in children))
    best, best_score, best_psi = 0, -math.inf, -math.inf
    for i, child in enumerate(children):
        score = child.psi * root / (1 + child.visits)
        if score > best_score or (score == best_score and child.psi > best_psi):
            best, best_score, best_psi = i, score, child.psi
    return best


def select_path(root: TreeNode, cfg: SearchConfig) -> tuple[TreeNode, list]:
    """Descend through expanded nodes by argmax score.

    Returns the reached leaf and the list of (node, candidate-index) choices
    made on the way down.  Stops at an unexpanded node, a goal node, or at
    maximum depth.
    """
    node, path = root, []
    while node.children and not node.is_goal and node.depth < cfg.d_max:
        idx = _best_candidate(node)
        path.append((node, idx))
        node = node.children[idx]
    return node, path


def backpropagate(path: list) -> None:
    """Increment the visit count of each chosen child along the path."""
    for node, idx in path:
        node.children[idx].visits += 1


def _query_prior(
    prior: PriorPolicy,
    model: WorldModel,
    state: StateVec,
    task: TaskSpec,
    rng: np.random.Generator,
    where: str,
) -> list | tuple:
    """The prior's macro at ``state`` as ``check_macro`` returns it; a prior that
    raises, or a macro that fails the check, is a ``PriorQueryError`` naming ``where``."""
    obs = model.observe(state)
    try:
        return check_macro(prior.sample_macro(obs, task, rng), model.action_dim, "macro")
    except Exception as exc:  # noqa: BLE001 - surface with search context
        raise PriorQueryError(f"prior query failed {where}: {exc}") from exc


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
    """Create the node's k children, one per candidate macro.

    Queries the prior exactly once for the anchor macro, which must have the
    library's H rows, and measures the library's distances to it once.
    Samples k distinct library indices by the prior rule over all of them,
    takes the selection prior over the candidates' own, and steps the world
    model through each candidate macro, charging its steps to ``meter``.
    The node must be unexpanded, shallower than ``d_max`` and not a goal.
    """
    if node.children:
        raise ContractViolationError("node is already expanded")
    if node.depth >= cfg.d_max:
        raise ContractViolationError("cannot expand a node at maximum depth")
    if node.is_goal:
        raise ContractViolationError("cannot expand a goal node")
    meter.queries += 1
    where = f"in expand at depth {node.depth}"
    anchor = _query_prior(prior, model, node.sim_state, task, rng_query, where)
    if len(anchor) != lib.horizon:
        raise PriorQueryError(f"prior returned a macro of {len(anchor)} rows {where}; "
                              f"the library's macros have H = {lib.horizon}")
    dists = lib.distances_to(anchor)
    dist = beta_distribution(dists, cfg.alpha_beta, cfg.epsilon_beta)
    indices = sample_candidates(dist, cfg.k, rng_sample)
    psi = psi_prior(dists[indices], cfg.alpha_psi, cfg.epsilon_psi).tolist()
    # the anchor checks above prove the prototypes' shape, and a node that is
    # not a goal node fails the goal, so step_macro's two tests are skipped
    for slot, (proto, weight) in enumerate(zip(indices, psi)):
        state, success, used = model.run_macro(node.sim_state, lib.rows[proto], task)
        meter.sim_steps += used
        node.children.append(TreeNode(state, node.depth + 1, next_id + slot,
                                      success, proto, weight))
    return node.children


def rollout(
    model: WorldModel,
    prior: PriorPolicy,
    start: StateVec,
    task: TaskSpec,
    cfg: SearchConfig,
    rng: np.random.Generator | None,
    meter: CostMeter,
    known: tuple | None = None,
) -> tuple[bool, int, list]:
    """Simulate the prior policy from a state until goal or the step cap.

    Returns (success, primitive steps used, ``check_macro``'s rows of each macro
    queried, uncopied); the last may have been cut short by the cap or by the
    goal.  One ``advance`` call steps a copy of ``start`` in place through rows
    that a generator yields, querying the prior on the state just written each
    time it runs out, so ``meter`` reads at each query as a macro-by-macro
    loop's would.  ``known``, the triple this rollout returned before (the same
    prior, stream, cap and start, on a model that steps alike), is returned
    with its queries and steps charged, and ``rng`` is not used.  Raises
    ``PriorQueryError`` if the prior fails or returns a malformed macro.
    """
    if known is not None:
        meter.queries += len(known[2])
        meter.sim_steps += known[1]
        return known
    if task.goal_predicate(start):
        return True, 0, []
    state, macros, charged, cap = start.copy(), [], 0, cfg.d_sim_max

    def rows():
        # the goal was tested on each state the prior is queried on, by the check
        # above or after the previous macro's last step, so no macro repeats it; and
        # resumed after a macro's last row only once the model has written it and
        # found no goal there, so those rows are charged before the next query
        nonlocal charged
        while charged < cap:
            meter.queries += 1
            macro = _query_prior(prior, model, state, task, rng, "in rollout")
            macros.append(macro)
            left = cap - charged
            if len(macro) > left:
                macro = macro[:left]
            yield from macro
            meter.sim_steps += len(macro)
            charged += len(macro)

    _, success, steps = model.advance(state, rows(), task)
    meter.sim_steps += steps - charged  # the last macro's rows, if the goal cut it
    return success, steps, macros


def _path_macros(path: list, lib: MacroLibrary) -> list:
    return [lib.rows[node.children[idx].proto] for node, idx in path]


def search_once(
    root_state: StateVec,
    task: TaskSpec,
    prior: PriorPolicy,
    lib: MacroLibrary,
    model: WorldModel,
    cfg: SearchConfig,
    streams: RngFactory,
    meter: CostMeter,
    dp: int = 0,
    root_rollout: tuple | None = None,
) -> SearchOutcome:
    """Run one decision point's search.

    Each iteration selects a leaf, expands it if it is shallower than
    ``d_max``, rolls the prior out from the best-prior new child (or from the
    leaf itself at ``d_max``), and backpropagates visit counts.  Iteration 1 first
    rolls the prior out from the root, so a prior that already solves the
    task returns its solution at once.  Given ``root_rollout``, that rollout's
    result from an earlier run (see ``run_episode``), ``rollout`` returns it and
    charges ``meter`` its cost, with no prior query, no step and no generator.
    Returns a goal plan as soon as any simulated state satisfies the goal,
    otherwise the most-visited root macro once the iteration budget is spent or
    ``meter`` reads ``cfg.t_max``.  Its cost is the outcome's iterations and
    nodes and what ``meter`` was charged.
    """
    if cfg.n_mc < 1:
        raise ConfigurationError("search_once requires n_mc >= 1")
    nodes_created = 1
    iterations = 0

    def finish(kind: str, plan=None, best_macro=None) -> SearchOutcome:
        outcome = SearchOutcome(kind, plan=plan, best_macro=best_macro,
                                iterations_used=iterations, nodes_created=nodes_created)
        _check_tree(root, outcome, cfg)
        return outcome

    root = TreeNode(root_state, 0, 0, is_goal=task.goal_predicate(root_state))
    if root.is_goal:
        return finish(GOAL_PLAN, plan=[])

    for it in range(1, cfg.n_mc + 1):
        if meter.elapsed() >= cfg.t_max:
            break
        iterations = it
        leaf, path = select_path(root, cfg) if it > 1 else (root, [])
        if it == 1:
            # first roll the prior out from the root, with no deadline check
            # before the root is expanded
            rng = streams.rng(ROLLOUT, dp, 0) if root_rollout is None else None
            success, _, macros = rollout(model, prior, root_state, task, cfg, rng, meter,
                                         root_rollout)
            if success:
                return finish(GOAL_PLAN, plan=macros)
        if leaf.depth < cfg.d_max:
            children = expand(
                leaf, prior, lib, model, task, cfg,
                streams.rng(PRIOR_QUERY, dp, leaf.node_id),
                streams.rng(CANDIDATES, dp, leaf.node_id),
                meter, nodes_created,
            )
            nodes_created += len(children)
            for idx, child in enumerate(children):
                if child.is_goal:
                    plan = _path_macros(path + [(leaf, idx)], lib)
                    return finish(GOAL_PLAN, plan=plan)
            best = _best_candidate(leaf)
            path.append((leaf, best))
            leaf = children[best]
        success, _, macros = rollout(model, prior, leaf.sim_state, task, cfg,
                                     streams.rng(ROLLOUT, dp, it), meter)
        if success:
            plan = _path_macros(path, lib) + macros
            return finish(GOAL_PLAN, plan=plan)
        backpropagate(path)

    # budget exhausted: most-visited root macro
    if not root.children:
        # deadline hit before the first expansion (timeout-starved budget)
        raise ConfigurationError(
            "search budget exhausted before the root could be expanded; "
            "increase t_max or lower per-call costs"
        )
    # ties: higher psi, then the first drawn
    best = max(root.children, key=lambda child: (child.visits, child.psi))
    return finish(BEST_ROOT_MACRO, best_macro=lib.rows[best.proto])


def _check_tree(root: TreeNode, outcome: SearchOutcome, cfg: SearchConfig) -> None:
    # branching bound, distinct library indices among siblings and, for
    # completed searches, visit-count conservation
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        protos = [child.proto for child in node.children]
        if len(protos) > cfg.k or len(set(protos)) < len(protos):
            raise ContractViolationError(
                f"_check_tree: node {node.node_id} at depth {node.depth} has "
                f"{len(protos)} children with library indices {protos}; "
                f"they must be distinct and at most k={cfg.k}"
            )
        stack.extend(node.children)
    if count > 1 + cfg.n_mc * cfg.k:
        raise ContractViolationError(
            f"_check_tree: tree has {count} nodes, more than "
            f"1 + n_mc*k = {1 + cfg.n_mc * cfg.k}"
        )
    if outcome.kind == BEST_ROOT_MACRO:
        visits = sum(child.visits for child in root.children)
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
    state, total = start, 0
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
    lib: MacroLibrary,
    cfg: SearchConfig,
    streams: RngFactory,
    reset_seed: int = 0,
    root_rollout: tuple | None = None,
) -> EpisodeResult:
    """Receding-horizon episode: search, execute, observe, repeat.

    A goal plan is executed whole, and a best root macro as a plan of one
    macro; if the true environment then misses the goal (after a goal plan,
    the model diverged from it), the runner searches again from the reached
    state.  With ``n_mc == 0`` the runner executes a single prior rollout
    directly in the true environment (the prior-only baseline) and keeps it in
    the result.  The first search takes such a ``root_rollout`` as its root
    rollout, bit for bit, if it came from the same prior, ``streams``,
    ``reset_seed`` and ``d_sim_max`` and ``model`` steps exactly as ``env``.
    The result holds the episode's whole cost.
    """
    meter = CostMeter(cfg)
    state = env.reset(reset_seed, task.task_id)

    if cfg.n_mc == 0:
        done = rollout(env, prior, state, task, cfg, streams.rng(ROLLOUT, 0, 0), meter)
        return EpisodeResult(*done[:2], 0, meter.elapsed(), meter.queries, root_rollout=done)

    primitive_steps = 0
    decision_points = 0
    search_iterations = 0
    success = task.goal_predicate(state)
    while not success:
        if decision_points >= cfg.d_max or meter.elapsed() >= cfg.t_max:
            break
        outcome = search_once(
            state, task, prior, lib, model, cfg,
            streams=streams, meter=meter, dp=decision_points, root_rollout=root_rollout,
        )
        root_rollout = None  # it started at the episode's first state only
        decision_points += 1
        search_iterations += outcome.iterations_used
        plan = outcome.plan if outcome.kind == GOAL_PLAN else [outcome.best_macro]
        state, success, used = replay_plan(env, state, plan, task)
        primitive_steps += used
        meter.sim_steps += used
    return EpisodeResult(
        success, primitive_steps, decision_points, meter.elapsed(),
        meter.queries, search_iterations,
    )
