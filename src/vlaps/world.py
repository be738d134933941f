"""Deterministic world models, tasks, and the scripted expert prior.

The desk-scale environment is a continuous 2D point robot with a gripper bit
("BlockNav"): pick up object ``i`` and carry it into region ``j``.  Dynamics
are fully deterministic; all stochasticity (initial-condition jitter, expert
noise) flows through explicitly passed generators.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolationError, check_fields
from .rngutil import RngFactory, stable_hash


@dataclass
class StateVec:
    """Environment state: a fixed-dimension list of floats plus a step counter."""

    values: list
    step_count: int = 0

    def copy(self) -> "StateVec":
        return StateVec(self.values.copy(), self.step_count)


@dataclass(frozen=True)
class TaskSpec:
    """A task: natural-language label plus a decidable goal predicate."""

    task_id: str
    instruction: str
    goal_predicate: Callable[[StateVec], bool]
    metadata: dict = field(default_factory=dict)


class WorldModel(ABC):
    """Deterministic simulator interface used both as environment and planner model."""

    @property
    @abstractmethod
    def action_dim(self) -> int: ...

    @abstractmethod
    def reset(self, seed: int, task_id: str) -> StateVec: ...

    @abstractmethod
    def step(self, state: StateVec, action: np.ndarray) -> StateVec: ...

    @abstractmethod
    def observe(self, state: StateVec): ...

    def run_macro(
        self, state: StateVec, macro: np.ndarray, task: TaskSpec
    ) -> tuple[StateVec, bool, int]:
        """Step the rows of a macro that passed ``check_macro`` until the goal holds.

        Returns the resulting state, whether the goal predicate held, and the
        number of primitives applied.  The goal is checked after each step;
        checking it on ``state`` itself is the caller's job.  Models may
        override this with a faster loop that gives the same results.
        """
        steps = 0
        for row in macro:
            state = self.step(state, row)
            steps += 1
            if task.goal_predicate(state):
                return state, True, steps
        return state, False, steps


# BlockNav state layout: [rx, ry, grip, carried, ox0, oy0, ox1, oy1, ...]
_RX, _RY, _GRIP, _CARRIED = 0, 1, 2, 3

# fixed base placements (fractions of the extent); index 0 is deliberately far
# from region 2 so the hardest task needs a deep plan
_OBJECT_FRACTIONS = [
    (0.90, 0.10),
    (0.30, 0.60),
    (0.70, 0.35),
    (0.20, 0.30),
    (0.60, 0.75),
    (0.40, 0.15),
]
_REGION_FRACTIONS = [(0.15, 0.15), (0.85, 0.85), (0.15, 0.85)]
# a scalar goal distance decides the predicate when it lies farther than this
# (times the radius, if above 1) from the region radius; a closer one, which
# may differ from numpy's fused norm in the last bit, defers to _fused_norm
_GOAL_TIE_MARGIN = 1e-9


@dataclass(eq=False)
class BlockNavEnv(WorldModel):
    """Continuous 2D pick-and-place with a gripper bit.

    Primitive action: ``(dx, dy, g)`` with ``dx, dy`` clamped per component to
    ``max_step`` and ``g > 0`` closing the gripper, ``g <= 0`` opening it.
    Picking happens when the gripper closes within ``pick_radius`` of an
    object; a carried object tracks the robot until dropped.  Every parameter
    is positive, except the jitter, which may be 0.
    """

    extent: float = 10.0
    object_count: int = 2
    max_step: float = 0.5
    pick_radius: float = 0.35
    region_radius: float = 0.6
    jitter: float = 0.3

    def __post_init__(self):
        check_fields(self)
        for f in fields(self):
            # float fields hold floats, so the dynamics' state stays a list of floats
            value = (int if f.type == "int" else float)(getattr(self, f.name))
            setattr(self, f.name, value)
            if value < 0 or (value == 0 and f.name != "jitter"):
                raise ConfigurationError(f"BlockNavEnv: {f.name} must be positive "
                                         f"(the jitter may also be 0), got {value!r}")
        self.regions = np.array(_REGION_FRACTIONS) * self.extent
        base = [_OBJECT_FRACTIONS[i % len(_OBJECT_FRACTIONS)] for i in range(self.object_count)]
        self.base_object_positions = np.array(base) * self.extent
        self.state_dim = 4 + 2 * self.object_count

    # -- interface ---------------------------------------------------------

    @property
    def action_dim(self) -> int:
        return 3

    def reset(self, seed: int, task_id: str) -> StateVec:
        rng = RngFactory(seed, stable_hash(task_id)).rng(0)
        values = np.zeros(self.state_dim)
        values[_RX] = values[_RY] = self.extent / 2.0
        values[_GRIP] = -1.0
        values[_CARRIED] = -1.0
        offsets = rng.uniform(-self.jitter, self.jitter, size=(self.object_count, 2))
        positions = np.clip(self.base_object_positions + offsets, 0.0, self.extent)
        values[4:] = positions.ravel()
        return StateVec(values.tolist(), step_count=0)

    def step(self, state: StateVec, action: np.ndarray) -> StateVec:
        rows = check_macro([action], self.action_dim, "BlockNavEnv.step: action").tolist()
        out = StateVec(state.values.copy(), state.step_count)
        self._step_rows(out, rows, None)
        return out

    def run_macro(
        self, state: StateVec, macro: np.ndarray, task: TaskSpec
    ) -> tuple[StateVec, bool, int]:
        out = StateVec(state.values.copy(), state.step_count)
        done = self._step_rows(out, macro.tolist(), task.goal_predicate)
        return out, done, out.step_count - state.step_count

    def _step_rows(self, state: StateVec, rows: Sequence, goal: Callable | None) -> bool:
        """Apply the primitives ``(ax, ay, g)`` of ``rows`` to ``state`` in
        place, adding 1 to its ``step_count`` for each; with a ``goal``, stop
        after the first row at which it holds.  Returns whether one did.

        Scalar arithmetic on Python floats, the same IEEE operations as the
        numpy form.  Each clip is min(max(x, lo), hi) written as conditionals,
        much faster than the builtins: x is kept on ties and NaN passes.
        """
        v, low, max_step, extent = state.values, -self.max_step, self.max_step, self.extent
        for ax, ay, g in rows:
            dx = low if ax < low else max_step if ax > max_step else ax
            dy = low if ay < low else max_step if ay > max_step else ay
            rx, ry = v[_RX] + dx, v[_RY] + dy
            v[_RX] = rx = 0.0 if rx < 0.0 else extent if rx > extent else rx
            v[_RY] = ry = 0.0 if ry < 0.0 else extent if ry > extent else ry
            # g == 0 holds the current gripper setting
            v[_GRIP] = grip = 1.0 if g > 0 else -1.0 if g < 0 else v[_GRIP]
            carried = int(v[_CARRIED])
            if grip > 0 and carried < 0:
                carried = self._nearest_object(v)
                if carried >= 0:
                    v[_CARRIED] = float(carried)
            elif grip < 0 and carried >= 0:
                v[_CARRIED] = -1.0
                carried = -1
            if carried >= 0:
                v[4 + 2 * carried] = rx
                v[5 + 2 * carried] = ry
            state.step_count += 1
            if goal is not None and goal(state):
                return True
        return False

    def observe(self, state: StateVec) -> tuple:
        return tuple(state.values)

    def _nearest_object(self, values: list) -> int:
        """Index of the object nearest the robot if within ``pick_radius``, else -1.

        Bit-exact with ``np.argmin`` over ``np.linalg.norm(objects - pos,
        axis=1)``: the lowest index wins a tie and a NaN distance yields -1.
        An object beyond the radius on either axis is beyond it in norm unless
        its square underflows, so above that radius it is skipped unsquared."""
        rx, ry, radius = values[_RX], values[_RY], self.pick_radius
        reach = radius if radius > 1e-150 else math.inf
        best, best_d = -1, math.inf
        for i in range(self.object_count):
            dx = values[4 + 2 * i] - rx
            dy = values[5 + 2 * i] - ry
            if -reach <= dx <= reach and -reach <= dy <= reach:
                d = math.sqrt(dx * dx + dy * dy)
                if d < best_d:
                    best, best_d = i, d
            elif dx != dx or dy != dy:
                return -1
        return best if best_d <= radius else -1

    # -- tasks --------------------------------------------------------------

    def tasks(self) -> list[TaskSpec]:
        out = []
        for i in range(self.object_count):
            for j in range(len(self.regions)):
                out.append(self._make_task(i, j))
        return out

    def task_by_id(self, task_id: str) -> TaskSpec:
        for task in self.tasks():
            if task.task_id == task_id:
                return task
        raise ConfigurationError(f"unknown task_id {task_id!r}")

    def _make_task(self, obj: int, region: int) -> TaskSpec:
        radius = self.region_radius
        cx, cy = self.regions[region].tolist()
        ix = 4 + 2 * obj
        margin = _GOAL_TIE_MARGIN * max(1.0, radius)

        def goal(state: StateVec) -> bool:
            v = state.values
            if int(v[_CARRIED]) == obj:
                return False
            dx = v[ix] - cx
            dy = v[ix + 1] - cy
            d = math.sqrt(dx * dx + dy * dy)
            if abs(d - radius) > margin:
                return d <= radius
            # near the boundary only the fused norm's rounding is bit-exact
            return _fused_norm(dx, dy) <= radius

        return TaskSpec(
            task_id=f"move_obj{obj}_to_region{region}",
            instruction=f"move object {obj} to region {region}",
            goal_predicate=goal,
            metadata={
                "object_index": obj,
                "region_index": region,
                "region_center": [cx, cy],
                "region_radius": radius,
            },
        )

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "BlockNavEnv":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def check_macro(macro, action_dim: int, what: str) -> np.ndarray:
    """``macro`` as a float array if it is numeric, of shape ``(H, action_dim)``
    with ``H >= 1``, and finite; otherwise raises ``ContractViolationError`` naming
    ``what`` and the failed test.  The one rule for a macro, and for an action."""
    try:
        array = np.asarray(macro, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"{what} {macro!r} is not numeric") from exc
    if array.ndim != 2 or array.shape[0] < 1 or array.shape[1] != action_dim:
        raise ContractViolationError(f"{what} shape {array.shape} is not "
                                     f"(H, {action_dim}) with H >= 1")
    # one Python pass over the floats is about twice as fast as np.isfinite on
    # an H x 3 macro, and a rollout queries the prior every H steps
    if not all(map(math.isfinite, array.ravel().tolist())):
        row = int(np.isfinite(array).all(axis=1).argmin())
        raise ContractViolationError(f"{what} row {row} {array[row].tolist()} is not finite")
    return array


def step_macro(
    model: WorldModel,
    state: StateVec,
    macro: np.ndarray,
    task: TaskSpec,
) -> tuple[StateVec, bool, int]:
    """Apply the rows of a macro-action in order, stopping early on goal.

    Returns the resulting state, whether the goal predicate held, and the
    number of primitives actually applied.  It charges no cost model; the
    search charges the steps it reports.
    """
    macro = check_macro(macro, model.action_dim, "step_macro: macro")
    if task.goal_predicate(state):
        return state, True, 0
    return model.run_macro(state, macro, task)


# -- scripted expert ---------------------------------------------------------

_DROP_FRACTION = 0.5  # drop once within this fraction of the region radius
_DEMO_STEPS = 100  # steps of an expert demonstration before it counts as failed


def _fused_norm(dx: float, dy: float) -> float:
    """``np.linalg.norm([dx, dy])`` as ``sqrt(fma(dy, dy, dx*dx))``, bit for bit.

    numpy's 1-D norm is ``sqrt(x.dot(x))``, and the BLAS dot fuses its second
    multiply-add, so ``math.sqrt(dx*dx + dy*dy)`` and ``math.hypot`` differ
    from it in the last bit for about 8% of inputs.  Dekker's split gives
    ``hi + lo == dy*dy`` exactly, and ``math.fsum`` adds them to ``dx*dx``
    with the fma's one correct rounding.  Non-finite inputs, and magnitudes
    at which the split could overflow or ``lo`` underflow, defer to numpy.
    """
    p = dx * dx
    if p <= 1e300 and (1e-140 < abs(dy) < 1e150 or dy == 0.0):
        t = 134217729.0 * dy  # 2**27 + 1: Dekker's split into two 26-bit halves
        yh = t - (t - dy)
        yl, hi = dy - yh, dy * dy
        lo = ((yh * yh - hi) + 2.0 * yh * yl) + yl * yl
        return math.sqrt(math.fsum((p, hi, lo)))
    return float(np.linalg.norm(np.array([dx, dy])))


def _expert_values(env: BlockNavEnv, task: TaskSpec) -> Callable[[StateVec], tuple]:
    """The greedy BlockNav controller for ``task``: a function from a state to its
    ``(dx, dy, g)``, which releases at the goal and steers by ``_steer_values``."""
    goal, steer = task.goal_predicate, _steer_values(env, task)
    return lambda state: (0.0, 0.0, -1.0) if goal(state) else steer(state.values)


def _steer_values(env: BlockNavEnv, task: TaskSpec) -> Callable[[list], tuple]:
    """The controller's steering rule for ``task``: a function from the values
    of a state its caller knows is not a goal to the action there.  The task's
    and the environment's constants are read once, when the rule is built."""
    obj = task.metadata["object_index"]
    cx, cy = task.metadata["region_center"]
    drop_reach, pick_reach = env.region_radius * _DROP_FRACTION, env.pick_radius * 0.8
    max_step = env.max_step

    def steer(v: list) -> tuple[float, float, float]:
        carried = int(v[_CARRIED])
        if carried == obj:
            dx, dy = cx - v[_RX], cy - v[_RY]
            reach, grip = drop_reach, 1.0
        elif carried >= 0:
            # holding the wrong object: release it
            return 0.0, 0.0, -1.0
        else:
            dx, dy = v[4 + 2 * obj] - v[_RX], v[5 + 2 * obj] - v[_RY]
            reach, grip = pick_reach, -1.0
        norm = _fused_norm(dx, dy)
        if norm <= reach:
            # at the region: drop; at the object: close the gripper
            return 0.0, 0.0, -grip
        if norm > max_step:
            scale = max_step / norm
            return dx * scale, dy * scale, grip
        return dx, dy, grip

    return steer


class ScriptedExpertPrior:
    """Greedy BlockNav controller exposed through the prior-policy interface.

    ``noise_level`` independently replaces each primitive with a uniformly
    random action: each row draws ``rng.random()`` and, when that falls below
    the noise, three uniforms; at 0 it draws nothing and this is the
    deterministic expert.  The prior simulates its own copy of the
    environment for the length of one macro-action.
    """

    def __init__(self, env: BlockNavEnv, horizon: int, noise_level: float = 0.0):
        if not 0.0 <= noise_level <= 1.0:
            raise ConfigurationError(f"noise_level must be in [0,1], got {noise_level}")
        self.env = env
        self.horizon = int(horizon)
        self.noise_level = float(noise_level)

    def sample_macro(
        self, obs: tuple, task: TaskSpec, rng: np.random.Generator
    ) -> np.ndarray:
        env, noise_level, high = self.env, self.noise_level, self.env.max_step
        act, state = _expert_values(env, task), StateVec(list(obs))
        rows = []
        for _ in range(self.horizon):
            if noise_level > 0.0 and rng.random() < noise_level:
                # rng.uniform(-high, high) twice, then rng.uniform(-1, 1): numpy's
                # arithmetic, low + (high - low) * u, on the same three draws
                ux, uy, ug = rng.random(3).tolist()
                action = -high + (high + high) * ux, -high + (high + high) * uy, -1.0 + 2.0 * ug
            else:
                action = act(state)
            env._step_rows(state, (action,), None)
            rows.append(action)
        return np.array(rows)


def run_expert_episode(
    env: BlockNavEnv, task: TaskSpec, seed: int
) -> tuple[list[list], np.ndarray, bool]:
    """Roll the zero-noise expert in the true environment for a demonstration
    of at most ``_DEMO_STEPS`` steps.

    Returns (visited states' values, action matrix, success flag); states
    exclude the terminal state so that states[i] pairs with actions[i].
    """
    state, steer = env.reset(seed, task.task_id), _steer_values(env, task)
    states, actions = [], []
    success = task.goal_predicate(state)
    for _ in range(_DEMO_STEPS):
        if success:
            break
        action = steer(state.values)
        states.append(state.values)
        actions.append(action)
        state = env.step(state, action)
        success = task.goal_predicate(state)
    return states, np.array(actions).reshape(len(actions), env.action_dim), success
