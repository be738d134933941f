"""Deterministic world models, tasks, and the scripted expert prior.

The desk-scale environment is a continuous 2D point robot with a gripper bit
("BlockNav"): pick up object ``i`` and carry it into region ``j``.  Dynamics
are fully deterministic; all stochasticity (initial-condition jitter, expert
noise) flows through explicitly passed generators.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolationError, check_fields
from .rngutil import RESET, RngFactory, stable_hash


@dataclass(slots=True)
class StateVec:
    """Environment state: a fixed-dimension list of floats plus a step counter."""

    values: list
    step_count: int = 0

    def copy(self) -> "StateVec":
        return StateVec(self.values.copy(), self.step_count)


@dataclass(frozen=True)
class TaskSpec:
    """A task: natural-language label plus a decidable goal predicate, and for a built-in
    task its ``target``, which the scripted expert steers for even if the predicate is replaced."""

    task_id: str
    instruction: str
    goal_predicate: Callable[[StateVec], bool]
    target: RegionGoal | None = None


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
        self, state: StateVec, macro: Sequence, task: TaskSpec
    ) -> tuple[StateVec, bool, int]:
        """``advance`` on a copy of ``state``, which is left as it was.  Models may
        override this with a faster loop that gives the same results."""
        return self.advance(state.copy(), macro, task)

    def advance(self, state: StateVec, rows: Iterable,
                task: TaskSpec) -> tuple[StateVec, bool, int]:
        """Step ``state`` in place, which the caller must own, through any iterable of
        checked rows until the goal holds; return it, whether the goal held and the rows
        applied, the goal tested after each row but not on ``state`` itself.  A row is taken
        only after the last is written, so a generator may read ``state``, as a rollout's
        does.  This default writes each state ``step`` returns into it."""
        steps = 0
        for row in rows:
            new = self.step(state, row)
            state.values, state.step_count = new.values, new.step_count
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


@dataclass(frozen=True, slots=True)
class RegionGoal:
    """BlockNav's goal: object ``obj`` is not carried and lies within ``radius`` of the
    centre ``(cx, cy)`` of region ``region`` by the kernel pick's plain distance (a NaN
    position never does).  It refuses a carried slot outside its environment's
    ``carried_slots``, as the kernel does.  ``reached`` is a built-in task's predicate; the
    kernel and the expert know it by its ``__self__`` and test it only where it can change."""

    obj: int
    region: int
    cx: float
    cy: float
    radius: float
    carried_slots: frozenset

    def reached(self, state: StateVec) -> bool:
        v, obj = state.values, self.obj
        carried = v[_CARRIED]
        if carried != -1.0:
            if carried not in self.carried_slots:
                raise ContractViolationError(
                    f"goal of move_obj{obj}_to_region{self.region}: the state's carried slot "
                    f"(index {_CARRIED}) holds {carried!r}, not an object index")
            if carried == obj:
                return False
        dx = v[4 + 2 * obj] - self.cx
        dy = v[5 + 2 * obj] - self.cy
        return math.sqrt(dx * dx + dy * dy) <= self.radius


@dataclass(eq=False)
class BlockNavEnv(WorldModel):
    """Continuous 2D pick-and-place with a gripper bit.

    Primitive action: ``(dx, dy, g)`` with ``dx, dy`` clamped per component to
    ``max_step`` and ``g > 0`` closing the gripper, ``g <= 0`` opening it.
    Picking happens when the gripper closes within ``pick_radius`` of an
    object; a carried object tracks the robot until dropped.  Every parameter
    is positive, except the jitter, which may be 0, and the extent and ``max_step``
    are at most 1e150.
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
        # 2 * extent**2 bounds a squared distance, and a noise row spans 2 * max_step
        for name, value in (("extent", self.extent), ("max_step", self.max_step)):
            if value > 1e150:
                raise ConfigurationError(f"BlockNavEnv: {name} must be at most 1e+150, so squares "
                                         f"and the expert's noise span are finite, got {value!r}")
        self.regions = np.array(_REGION_FRACTIONS) * self.extent
        base = [_OBJECT_FRACTIONS[i % len(_OBJECT_FRACTIONS)] for i in range(self.object_count)]
        self.base_object_positions = np.array(base) * self.extent
        self.state_dim = 4 + 2 * self.object_count
        # the carried slot's valid values, -1 (none) and each object index; NaN is in none
        self.carried_slots = frozenset(map(float, range(-1, self.object_count)))
        # for the kernel's pick search: each object's index and x slot, and its reach
        self.objects = tuple((i, 4 + 2 * i) for i in range(self.object_count))
        self.reach = self.pick_radius if self.pick_radius > 1e-150 else math.inf

    # -- interface ---------------------------------------------------------

    @property
    def action_dim(self) -> int:
        return 3

    def reset(self, seed: int, task_id: str) -> StateVec:
        rng = RngFactory(seed, stable_hash(task_id)).rng(RESET)
        values = np.zeros(self.state_dim)
        values[_RX] = values[_RY] = self.extent / 2.0
        values[_GRIP] = -1.0
        values[_CARRIED] = -1.0
        offsets = rng.uniform(-self.jitter, self.jitter, size=(self.object_count, 2))
        positions = np.clip(self.base_object_positions + offsets, 0.0, self.extent)
        values[4:] = positions.ravel()
        return StateVec(values.tolist(), step_count=0)

    def step(self, state: StateVec, action: np.ndarray) -> StateVec:
        rows = check_macro([action], self.action_dim, "BlockNavEnv.step: action")
        out = state.copy()
        self._step_rows(out, rows, None, "BlockNavEnv.step")
        return out

    def run_macro(self, state: StateVec, macro: Sequence,
                  task: TaskSpec) -> tuple[StateVec, bool, int]:
        """``WorldModel.run_macro``, with ``macro`` taken through ``check_macro``."""
        rows = check_macro(macro, self.action_dim, "BlockNavEnv.run_macro: macro")
        out = state.copy()
        done = self._step_rows(out, rows, task.goal_predicate, "BlockNavEnv.run_macro")
        return out, done, out.step_count - state.step_count

    def advance(self, state: StateVec, rows: Iterable,
                task: TaskSpec) -> tuple[StateVec, bool, int]:
        """``WorldModel.advance`` in one kernel pass: steps ``state`` in place through
        any iterable of rows as ``check_macro`` returns them, a generator's included."""
        start = state.step_count
        done = self._step_rows(state, rows, task.goal_predicate, "BlockNavEnv.advance")
        return state, done, state.step_count - start

    def _step_rows(self, state: StateVec, rows: Iterable, goal: Callable | None,
                   what: str) -> bool:
        """Apply the primitives ``(ax, ay, g)`` of ``rows`` to ``state`` in
        place, adding 1 to its ``step_count`` for each; ``rows`` may be any iterable,
        each row taken after the last is written, so a generator may compute a row
        from the state's values, as the expert does.  With a ``goal``, stop
        after the first row at which it holds.  Returns whether one did.  A
        custom goal is tested after every row; a built-in one only after the
        first row and each pick or drop, since it reads only the carried index
        and its object, which moves only while carried, when the goal is false.
        Before any row, a state of the wrong length, or whose carried slot is
        neither -1 nor an object index, raises ``ContractViolationError``
        naming ``what``; a goal's own error passes through unchanged.

        Scalar arithmetic on Python floats, the same IEEE operations as the
        numpy form.  Each clip is min(max(x, lo), hi) written as conditionals,
        much faster than the builtins: x is kept on ties and NaN passes.  The
        robot, gripper and carried index stay in locals, but each row writes
        what it changes, so ``goal`` sees the whole state wherever it is tested.
        """
        v, low, max_step, extent = state.values, -self.max_step, self.max_step, self.extent
        if len(v) != self.state_dim:
            raise ContractViolationError(
                f"{what}: the state has {len(v)} values, not {self.state_dim}")
        if v[_CARRIED] not in self.carried_slots:
            raise ContractViolationError(
                f"{what}: the state's carried slot (index {_CARRIED}) holds {v[_CARRIED]!r}, "
                f"neither -1 (none) nor an object index below {self.object_count}")
        test = check = goal is not None
        every = type(getattr(goal, "__self__", None)) is not RegionGoal
        rx, ry, grip, carried = v[_RX], v[_RY], v[_GRIP], int(v[_CARRIED])
        for ax, ay, g in rows:
            rx += low if ax < low else max_step if ax > max_step else ax
            ry += low if ay < low else max_step if ay > max_step else ay
            v[_RX] = rx = 0.0 if rx < 0.0 else extent if rx > extent else rx
            v[_RY] = ry = 0.0 if ry < 0.0 else extent if ry > extent else ry
            # g == 0 holds the current gripper setting
            if g > 0:
                v[_GRIP] = grip = 1.0
            elif g < 0:
                v[_GRIP] = grip = -1.0
            if carried >= 0:
                if grip < 0:
                    v[_CARRIED], carried, test = -1.0, -1, check
                else:
                    v[4 + 2 * carried], v[5 + 2 * carried] = rx, ry
            elif grip > 0:
                # pick the nearest object within pick_radius as np.argmin of the norms
                # does: the lowest index wins a tie and a NaN picks none.  One beyond
                # reach on an axis is beyond the radius (reach is inf where squares underflow)
                reach, near, near_d = self.reach, -1, math.inf
                for i, x in self.objects:
                    dx, dy = v[x] - rx, v[x + 1] - ry
                    if -reach <= dx <= reach and -reach <= dy <= reach:
                        d = math.sqrt(dx * dx + dy * dy)
                        if d < near_d:
                            near, near_d = i, d
                    elif dx != dx or dy != dy:
                        near_d = math.nan
                        break
                if near_d <= self.pick_radius:
                    v[_CARRIED], carried, test = float(near), near, check
                    v[4 + 2 * near], v[5 + 2 * near] = rx, ry
            state.step_count += 1
            if test:
                if goal(state):
                    return True
                test = every
        return False

    def observe(self, state: StateVec) -> tuple:
        return tuple(state.values)

    # -- tasks --------------------------------------------------------------

    def tasks(self) -> list[TaskSpec]:
        goals = [RegionGoal(obj, region, cx, cy, self.region_radius, self.carried_slots)
                 for obj in range(self.object_count)
                 for region, (cx, cy) in enumerate(self.regions.tolist())]
        return [TaskSpec(f"move_obj{g.obj}_to_region{g.region}",
                         f"move object {g.obj} to region {g.region}", g.reached, target=g)
                for g in goals]

    def task_by_id(self, task_id: str) -> TaskSpec:
        for task in self.tasks():
            if task.task_id == task_id:
                return task
        raise ConfigurationError(f"unknown task_id {task_id!r}")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "BlockNavEnv":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _float_rows(macro, action_dim: int) -> bool:
    """Whether ``macro`` is H >= 1 lists or tuples of ``action_dim`` finite Python floats,
    in one Python pass: numpy takes twice as long, and rollouts query every H steps."""
    if type(macro) not in (list, tuple) or not macro:
        return False
    for row in macro:
        if type(row) not in (list, tuple) or len(row) != action_dim:
            return False
        for x in row:
            if type(x) is not float or x - x != 0.0:  # NaN for an infinity or a NaN
                return False
    return True


def check_macro(macro, action_dim: int, what: str) -> list | tuple:
    """``macro`` as rows of Python floats (unchanged if it is such rows) if it is numeric,
    of shape ``(H, action_dim)`` with ``H >= 1``, and finite; otherwise raises
    ``ContractViolationError`` naming ``what`` and the failed test.  The rule for any macro;
    a ``CheckedMacro`` of rows ``action_dim`` wide passed it when it was built."""
    if (type(macro) is CheckedMacro and len(macro[0]) == action_dim) or _float_rows(
            macro, action_dim):
        return macro
    try:
        array = np.asarray(macro, dtype=float)
        if not (isinstance(macro, np.ndarray) and macro.dtype.kind in "iuf") and any(
                isinstance(x, (str, bytes, bool, np.bool_)) for x in np.array(macro, object).flat):
            raise TypeError("a string or a bool is not a number")
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"{what} {macro!r} is not numeric") from exc
    if array.ndim != 2 or array.shape[0] < 1 or array.shape[1] != action_dim:
        raise ContractViolationError(f"{what} shape {array.shape} is not "
                                     f"(H, {action_dim}) with H >= 1")
    if not all(map(math.isfinite, array.ravel().tolist())):
        row = int(np.isfinite(array).all(axis=1).argmin())
        raise ContractViolationError(f"{what} row {row} {array[row].tolist()} is not finite")
    return array.tolist()


class CheckedMacro(tuple):
    """A macro that passed ``check_macro``, as an immutable tuple of row tuples
    of Python floats; ``check_macro`` returns it unchecked at its width."""

    __slots__ = ()

    def __new__(cls, macro, action_dim: int, what: str) -> "CheckedMacro":
        return super().__new__(cls, map(tuple, check_macro(macro, action_dim, what)))

    def __getnewargs__(self) -> tuple:  # pickle and copy build it through the check
        return tuple(self), len(self[0]), "CheckedMacro"


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
_NOISE_BLOCK = 64  # uniforms the noisy expert draws at once from a generator


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


def _steer_values(env: BlockNavEnv, task: TaskSpec) -> Callable[[list], tuple]:
    """The controller's steering rule for ``task``: a function from the values
    of a state its caller knows is not a goal to the action there.  The task's
    and the environment's constants are read once, when the rule is built."""
    if task.target is None:
        raise ContractViolationError(
            f"ScriptedExpertPrior: task {task.task_id!r} has no target to steer for")
    obj, cx, cy = task.target.obj, task.target.cx, task.target.cy
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
    random action: each row takes one uniform and, when that falls below the
    noise, three more; at 0 it draws nothing and this is the deterministic
    expert.  The uniforms are the values of as many ``rng.random()`` calls,
    taken from ``rng.random(_NOISE_BLOCK)`` by ``PriorPolicy``'s generator
    contract.  The prior steps its own copy of the state through one
    macro-action in one kernel pass, computing each row from the last.
    """

    def __init__(self, env: BlockNavEnv, horizon: int, noise_level: float = 0.0):
        if not 0.0 <= noise_level <= 1.0:
            raise ConfigurationError(f"noise_level must be in [0,1], got {noise_level}")
        self.env = env
        self.horizon = int(horizon)
        self.noise_level = float(noise_level)
        self._rng, self._ahead = None, []  # uniforms drawn from _rng, not used, last first

    def sample_macro(self, obs: tuple, task: TaskSpec, rng: np.random.Generator) -> list[tuple]:
        env, noise_level, high = self.env, self.noise_level, self.env.max_step
        goal, steer, state = task.goal_predicate, _steer_values(env, task), StateVec(list(obs))
        every, v, rows = type(getattr(goal, "__self__", None)) is not RegionGoal, state.values, []
        if rng is not self._rng:
            self._rng, self._ahead = rng, []
        ahead, span = self._ahead, high + high

        def actions():
            done = None
            for _ in range(self.horizon):
                if noise_level > 0.0 and len(ahead) < 4:  # a row takes at most 4 uniforms
                    ahead[:0] = rng.random(_NOISE_BLOCK).tolist()[::-1]  # after those left
                if noise_level > 0.0 and ahead.pop() < noise_level:
                    # rng.uniform(-high, high) twice, then rng.uniform(-1, 1): numpy's
                    # arithmetic, low + (high - low) * u, on the next three uniforms
                    ux, uy, ug = ahead.pop(), ahead.pop(), ahead.pop()
                    action = -high + span * ux, -high + span * uy, -1.0 + 2.0 * ug
                else:
                    if done is None:
                        done = goal(state)
                    action = (0.0, 0.0, -1.0) if done else steer(v)
                carried = v[_CARRIED]
                rows.append(action)
                yield action
                if every or v[_CARRIED] != carried:  # the goal may have changed
                    done = None

        env._step_rows(state, actions(), None, "ScriptedExpertPrior.sample_macro")
        return rows


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
