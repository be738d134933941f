"""Deterministic world models, tasks, and the scripted expert prior.

The desk-scale environment is a continuous 2D point robot with a gripper bit
("BlockNav"): pick up object ``i`` and carry it into region ``j``.  Dynamics
are fully deterministic; all stochasticity (initial-condition jitter, expert
noise) flows through explicitly passed generators.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .rngutil import RngFactory, stable_hash


@dataclass
class StateVec:
    """Environment state: a fixed-dimension value vector plus a step counter."""

    values: np.ndarray
    step_count: int = 0

    def copy(self) -> "StateVec":
        return StateVec(self.values.copy(), self.step_count)


@dataclass(frozen=True)
class Observation:
    """Feature vector derived deterministically from a StateVec."""

    features: np.ndarray


@dataclass(frozen=True)
class TaskSpec:
    """A task: natural-language label plus a decidable goal predicate.

    ``goal_on_values`` is an optional form of the same predicate that takes
    the state's values as a list of floats; a world model that steps on such
    lists may use it in place of ``goal_predicate``, so the two must agree.
    """

    task_id: str
    instruction: str
    goal_predicate: Callable[[StateVec], bool]
    metadata: dict = field(default_factory=dict)
    goal_on_values: Optional[Callable[[list], bool]] = None

    def reward(self, state: StateVec) -> float:
        """Sparse reward: 1 exactly on goal states, 0 elsewhere."""
        return 1.0 if self.goal_predicate(state) else 0.0

    def to_json(self) -> dict:
        return {
            "task_id": self.task_id,
            "instruction": self.instruction,
            "goal": dict(self.metadata),
        }


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
    def observe(self, state: StateVec) -> Observation: ...

    def clone_state(self, state: StateVec) -> StateVec:
        return state.copy()

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
# (times the radius, if above 1) from the region radius; a closer one defers
# to np.linalg.norm, whose rounding may differ in the last bit
_GOAL_TIE_MARGIN = 1e-9


class BlockNavEnv(WorldModel):
    """Continuous 2D pick-and-place with a gripper bit.

    Primitive action: ``(dx, dy, g)`` with ``dx, dy`` clamped per component to
    ``max_step`` and ``g > 0`` closing the gripper, ``g <= 0`` opening it.
    Picking happens when the gripper closes within ``pick_radius`` of an
    object; a carried object tracks the robot until dropped.
    """

    def __init__(
        self,
        extent: float = 10.0,
        object_count: int = 2,
        max_step: float = 0.5,
        pick_radius: float = 0.35,
        region_radius: float = 0.6,
        jitter: float = 0.3,
    ):
        if extent <= 0:
            raise ConfigurationError(f"extent must be positive, got {extent}")
        if object_count < 1:
            raise ConfigurationError(f"object_count must be >= 1, got {object_count}")
        self.extent = float(extent)
        self.object_count = int(object_count)
        self.max_step = float(max_step)
        self.pick_radius = float(pick_radius)
        self.region_radius = float(region_radius)
        self.jitter = float(jitter)
        self.regions = np.array(_REGION_FRACTIONS) * self.extent
        base = [_OBJECT_FRACTIONS[i % len(_OBJECT_FRACTIONS)] for i in range(object_count)]
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
        return StateVec(values, step_count=0)

    def step(self, state: StateVec, action: np.ndarray) -> StateVec:
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise ContractViolationError(
                f"action shape {action.shape} != ({self.action_dim},)"
            )
        v = state.values.tolist()
        self._advance(v, *action.tolist())
        return StateVec(np.array(v, dtype=float), state.step_count + 1)

    def run_macro(
        self, state: StateVec, macro: np.ndarray, task: TaskSpec
    ) -> tuple[StateVec, bool, int]:
        # steps the whole macro on one list of floats when the task has a
        # list form of its goal; a task without one keeps its own predicate
        on_values = task.goal_on_values
        if on_values is None:
            return super().run_macro(state, macro, task)
        v = state.values.tolist()
        advance = self._advance
        steps, success = 0, False
        for ax, ay, g in macro.tolist():
            advance(v, ax, ay, g)
            steps += 1
            if on_values(v):
                success = True
                break
        return StateVec(np.array(v, dtype=float), state.step_count + steps), success, steps

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

    def observe(self, state: StateVec) -> Observation:
        return Observation(state.values.copy())

    # -- accessors ---------------------------------------------------------

    def robot_position(self, state: StateVec) -> np.ndarray:
        return state.values[_RX:_RY + 1].copy()

    def object_position(self, state: StateVec, index: int) -> np.ndarray:
        return state.values[4 + 2 * index: 6 + 2 * index].copy()

    def carried_index(self, state: StateVec) -> int:
        return int(state.values[_CARRIED])

    def state_from_observation(self, obs: Observation) -> StateVec:
        # the desk-scale observation is the full state vector
        return StateVec(np.asarray(obs.features, dtype=float).copy(), step_count=0)

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
        center = self.regions[region]
        radius = self.region_radius
        cx, cy = float(center[0]), float(center[1])
        ix = 4 + 2 * obj
        margin = _GOAL_TIE_MARGIN * max(1.0, radius)

        def on_values(v: list) -> bool:
            if int(v[_CARRIED]) == obj:
                return False
            dx = v[ix] - cx
            dy = v[ix + 1] - cy
            d = math.sqrt(dx * dx + dy * dy)
            if abs(d - radius) > margin:
                return d <= radius
            # np.linalg.norm takes a BLAS dot that may fuse the multiply-add,
            # so near the boundary only its own rounding is bit-exact
            return bool(np.linalg.norm(np.array(v[ix:ix + 2]) - center) <= radius)

        def goal(state: StateVec) -> bool:
            return on_values(state.values.tolist())

        return TaskSpec(
            task_id=f"move_obj{obj}_to_region{region}",
            instruction=f"move object {obj} to region {region}",
            goal_predicate=goal,
            goal_on_values=on_values,
            metadata={
                "object_index": obj,
                "region_index": region,
                "region_center": [float(center[0]), float(center[1])],
                "region_radius": radius,
            },
        )

    def to_json(self) -> dict:
        return {
            "name": "blocknav",
            "extent": self.extent,
            "object_count": self.object_count,
            "max_step": self.max_step,
            "pick_radius": self.pick_radius,
            "region_radius": self.region_radius,
            "jitter": self.jitter,
            "regions": self.regions.tolist(),
            "base_object_positions": self.base_object_positions.tolist(),
            "tasks": [t.to_json() for t in self.tasks()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BlockNavEnv":
        return cls(
            extent=data["extent"],
            object_count=data["object_count"],
            max_step=data["max_step"],
            pick_radius=data["pick_radius"],
            region_radius=data["region_radius"],
            jitter=data["jitter"],
        )


def make_blocknav_env(
    grid_extent: float = 10.0, object_count: int = 2
) -> tuple[BlockNavEnv, list[TaskSpec]]:
    """Build the desk-scale pick-and-place environment and its task list."""
    env = BlockNavEnv(extent=grid_extent, object_count=object_count)
    return env, env.tasks()


def step_macro(
    model: WorldModel,
    state: StateVec,
    macro: np.ndarray,
    task: TaskSpec,
    meter=None,
    limit: float = math.inf,
) -> tuple[StateVec, bool, int]:
    """Apply the rows of a macro-action in order, stopping early on goal.

    Applies at most ``limit`` rows (an int, or ``math.inf`` for all of them).
    Returns the resulting state, whether the goal predicate held, and the
    number of primitives actually applied, which is also charged to ``meter``.
    """
    macro = np.asarray(macro, dtype=float)
    if macro.ndim != 2 or macro.shape[1] != model.action_dim:
        raise ContractViolationError(
            f"macro shape {macro.shape} incompatible with action_dim {model.action_dim}"
        )
    if task.goal_predicate(state):
        return state, True, 0
    if limit < len(macro):
        macro = macro[:max(0, limit)]
    state, success, steps = model.run_macro(state, macro, task)
    if meter is not None:
        meter.add_steps(steps)
    return state, success, steps


# -- scripted expert ---------------------------------------------------------

_DROP_FRACTION = 0.5  # drop once within this fraction of the region radius
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


def _expert_values(env: BlockNavEnv, v: list, task: TaskSpec) -> tuple[float, float, float]:
    """The greedy BlockNav controller's ``(dx, dy, g)`` at state values ``v``;
    a task without ``goal_on_values`` has its ``goal_predicate`` tested."""
    goal = task.goal_on_values or (lambda w: task.goal_predicate(StateVec(np.array(w))))
    if goal(v):
        return 0.0, 0.0, -1.0
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


def greedy_expert_action(env: BlockNavEnv, state: StateVec, task: TaskSpec) -> np.ndarray:
    """One step of the deterministic greedy controller for a BlockNav task."""
    return np.array(_expert_values(env, state.values.tolist(), task))


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    # the arithmetic of rng.uniform(lo, hi) on the same draw, at a quarter of
    # its call cost
    return lo + (hi - lo) * rng.random()


def _noisy_expert_action(env: BlockNavEnv, v: list, task: TaskSpec, noise_level: float,
                         rng: np.random.Generator) -> tuple[float, float, float]:
    """The greedy action at state values ``v``, replaced with probability
    ``noise_level`` by a uniformly random one.  Draws ``rng.random()`` and
    then three uniforms, and nothing at noise 0."""
    if noise_level > 0.0 and rng.random() < noise_level:
        m = env.max_step
        return _uniform(rng, -m, m), _uniform(rng, -m, m), _uniform(rng, -1.0, 1.0)
    return _expert_values(env, v, task)


class ScriptedExpertPrior:
    """Greedy BlockNav controller exposed through the prior-policy interface.

    ``noise_level`` independently replaces each primitive with a uniformly
    random action; at 0 this is the deterministic expert.  The prior simulates
    its own copy of the environment for the length of one macro-action.
    """

    def __init__(self, env: BlockNavEnv, horizon: int, noise_level: float = 0.0):
        if not 0.0 <= noise_level <= 1.0:
            raise ConfigurationError(f"noise_level must be in [0,1], got {noise_level}")
        self.env = env
        self.horizon = int(horizon)
        self.noise_level = float(noise_level)

    def sample_macro(
        self, obs: Observation, task: TaskSpec, rng: np.random.Generator
    ) -> np.ndarray:
        env, noise_level = self.env, self.noise_level
        v = np.asarray(obs.features, dtype=float).tolist()
        rows = []
        for _ in range(self.horizon):
            action = _noisy_expert_action(env, v, task, noise_level, rng)
            env._advance(v, *action)
            rows.append(action)
        return np.array(rows)


def run_expert_episode(
    env: BlockNavEnv,
    task: TaskSpec,
    seed: int,
    noise_level: float = 0.0,
    max_steps: int = 100,
    rng: Optional[np.random.Generator] = None,
) -> tuple[list[np.ndarray], np.ndarray, bool]:
    """Roll the (possibly noisy) expert in the true environment.

    Returns (visited states' value vectors, action matrix, success flag);
    states exclude the terminal state so that states[i] pairs with actions[i].
    """
    if rng is None:
        rng = RngFactory(seed, stable_hash(task.task_id)).rng(9)
    state = env.reset(seed, task.task_id)
    states, actions = [], []
    success = task.goal_predicate(state)
    for _ in range(max_steps):
        if success:
            break
        action = _noisy_expert_action(env, state.values.tolist(), task, noise_level, rng)
        states.append(state.values.copy())
        actions.append(action)
        state = env.step(state, action)
        success = task.goal_predicate(state)
    return states, np.array(actions).reshape(len(actions), env.action_dim), success
