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
from typing import Callable

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
        """Step the rows of a validated 2-D macro until the goal holds.

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
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise ContractViolationError(f"BlockNavEnv.step: action shape {action.shape} "
                                         f"!= ({self.action_dim},)")
        row = action.tolist()
        if not all(map(math.isfinite, row)):
            raise ContractViolationError(f"BlockNavEnv.step: action {row} is not finite")
        v = state.values.copy()
        self._advance(v, *row)
        return StateVec(v, state.step_count + 1)

    def run_macro(
        self, state: StateVec, macro: np.ndarray, task: TaskSpec
    ) -> tuple[StateVec, bool, int]:
        # steps the result's own list in place, testing the goal after each row
        out = StateVec(state.values.copy(), state.step_count)
        v, advance, goal = out.values, self._advance, task.goal_predicate
        for ax, ay, g in macro.tolist():
            advance(v, ax, ay, g)
            out.step_count += 1
            if goal(out):
                return out, True, out.step_count - state.step_count
        return out, False, len(macro)

    def _advance(self, v: list, ax: float, ay: float, g: float) -> None:
        """Apply one primitive ``(ax, ay, g)`` to the state values ``v`` in place.

        Scalar arithmetic on Python floats: the same IEEE operations as the
        numpy form without per-element array overhead.  Each clip is
        min(max(x, lo), hi) written as two conditionals (much faster than the
        builtins): x is kept on ties and NaN passes, as in np.clip.
        """
        max_step, extent = self.max_step, self.extent
        dx = -max_step if ax < -max_step else ax
        dx = max_step if dx > max_step else dx
        dy = -max_step if ay < -max_step else ay
        dy = max_step if dy > max_step else dy
        rx = v[_RX] + dx
        rx = 0.0 if rx < 0.0 else rx
        v[_RX] = extent if rx > extent else rx
        ry = v[_RY] + dy
        ry = 0.0 if ry < 0.0 else ry
        v[_RY] = extent if ry > extent else ry

        if g > 0:
            v[_GRIP] = 1.0
        elif g < 0:
            v[_GRIP] = -1.0
        # g == 0 holds the current gripper setting

        carried = int(v[_CARRIED])
        if v[_GRIP] > 0 and carried < 0:
            idx = self._nearest_object(v)
            if idx >= 0:
                carried = idx
                v[_CARRIED] = float(idx)
        elif v[_GRIP] < 0 and carried >= 0:
            v[_CARRIED] = -1.0
            carried = -1
        if carried >= 0:
            v[4 + 2 * carried] = v[_RX]
            v[5 + 2 * carried] = v[_RY]

    def observe(self, state: StateVec) -> tuple:
        return tuple(state.values)

    def _nearest_object(self, values: list) -> int:
        """Index of the object nearest the robot if within ``pick_radius``, else -1.

        Bit-exact with ``np.argmin`` over ``np.linalg.norm(objects - pos,
        axis=1)``: the lowest index wins a tie and a NaN distance yields -1.
        """
        rx, ry = values[_RX], values[_RY]
        best, best_d = -1, math.inf
        for i in range(self.object_count):
            dx = values[4 + 2 * i] - rx
            dy = values[5 + 2 * i] - ry
            d = math.sqrt(dx * dx + dy * dy)
            if d < best_d:
                best, best_d = i, d
            elif d != d:
                return -1
        return best if best_d <= self.pick_radius else -1

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
    macro = np.asarray(macro, dtype=float)
    if macro.ndim != 2 or macro.shape[1] != model.action_dim:
        raise ContractViolationError(f"step_macro: macro shape {macro.shape} "
                                     f"incompatible with action_dim {model.action_dim}")
    if not np.isfinite(macro).all():
        row = int(np.isfinite(macro).all(axis=1).argmin())
        raise ContractViolationError(f"step_macro: macro row {row} is not finite")
    if task.goal_predicate(state):
        return state, True, 0
    return model.run_macro(state, macro, task)


# -- scripted expert ---------------------------------------------------------

_DROP_FRACTION = 0.5  # drop once within this fraction of the region radius
_DEMO_STEPS = 100  # steps of an expert demonstration before it counts as failed
_TWO_53 = 9007199254740992.0  # 2**53 turns a frexp mantissa into a 53-bit integer


def _fused_norm(dx: float, dy: float) -> float:
    """``np.linalg.norm([dx, dy])`` as ``sqrt(fma(dy, dy, dx*dx))``, bit for bit.

    numpy's 1-D norm is ``sqrt(x.dot(x))``, and the BLAS dot fuses its second
    multiply-add, so ``math.sqrt(dx*dx + dy*dy)`` and ``math.hypot`` differ
    from it in the last bit for about 8% of inputs.  Here ``dx*dx`` and the
    exact ``dy*dy`` are summed as one integer over their mantissas, rounded
    once by ``float(int)`` and scaled exactly by ``ldexp``; non-finite inputs,
    and exponents at which the sum could leave the normal range, defer to
    numpy.
    """
    p = dx * dx
    mp, ep = math.frexp(p)
    my, ey = math.frexp(dy)
    if -400 < ep < 400 and -200 < ey < 200 and math.isfinite(p) and math.isfinite(dy):
        # p == ip * 2**(ep - 53) and dy*dy == iy*iy * 2**(2*ey - 106) exactly
        ip, iy = int(mp * _TWO_53), int(my * _TWO_53)
        shift = ep - 2 * ey + 53
        if shift >= 0:
            return math.sqrt(math.ldexp(float(iy * iy + (ip << shift)), 2 * ey - 106))
        return math.sqrt(math.ldexp(float((iy * iy << -shift) + ip), ep - 53))
    return float(np.linalg.norm(np.array([dx, dy])))


def _expert_values(env: BlockNavEnv, state: StateVec,
                   task: TaskSpec) -> tuple[float, float, float]:
    """The greedy BlockNav controller's ``(dx, dy, g)`` at ``state``: it
    releases at the goal and steers by ``_steer_values`` elsewhere."""
    if task.goal_predicate(state):
        return 0.0, 0.0, -1.0
    return _steer_values(env, state, task)


def _steer_values(env: BlockNavEnv, state: StateVec,
                  task: TaskSpec) -> tuple[float, float, float]:
    """The controller's action at a state its caller knows is not a goal."""
    v = state.values
    obj = task.metadata["object_index"]
    carried = int(v[_CARRIED])
    if carried == obj:
        cx, cy = task.metadata["region_center"]
        dx, dy = cx - v[_RX], cy - v[_RY]
        reach, grip = env.region_radius * _DROP_FRACTION, 1.0
    elif carried >= 0:
        # holding the wrong object: release it
        return 0.0, 0.0, -1.0
    else:
        dx, dy = v[4 + 2 * obj] - v[_RX], v[5 + 2 * obj] - v[_RY]
        reach, grip = env.pick_radius * 0.8, -1.0
    norm = _fused_norm(dx, dy)
    if norm <= reach:
        # at the region: drop; at the object: close the gripper
        return 0.0, 0.0, -grip
    if norm > env.max_step:
        scale = env.max_step / norm
        return dx * scale, dy * scale, grip
    return dx, dy, grip


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    # the arithmetic of rng.uniform(lo, hi) on the same draw, at a quarter of
    # its call cost
    return lo + (hi - lo) * rng.random()


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
        env, noise_level, m = self.env, self.noise_level, self.env.max_step
        state = StateVec(list(obs))
        rows = []
        for _ in range(self.horizon):
            if noise_level > 0.0 and rng.random() < noise_level:
                action = _uniform(rng, -m, m), _uniform(rng, -m, m), _uniform(rng, -1.0, 1.0)
            else:
                action = _expert_values(env, state, task)
            env._advance(state.values, *action)
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
    state = env.reset(seed, task.task_id)
    states, actions = [], []
    success = task.goal_predicate(state)
    for _ in range(_DEMO_STEPS):
        if success:
            break
        action = _steer_values(env, state, task)
        states.append(state.values)
        actions.append(action)
        state = env.step(state, action)
        success = task.goal_predicate(state)
    return states, np.array(actions).reshape(len(actions), env.action_dim), success
