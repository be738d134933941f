import dataclasses
import functools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from vlaps.errors import ConfigurationError, ContractViolationError
from vlaps.world import (
    BlockNavEnv,
    RegionGoal,
    ScriptedExpertPrior,
    StateVec,
    TaskSpec,
    _fused_norm,
    _steer_values,
    run_expert_episode,
    step_macro,
)


def expert_values(env, task):
    """The per-row greedy BlockNav controller for ``task``: a function from a
    state to its ``(dx, dy, g)``, which tests the goal at every state, releases
    there, and otherwise steers by ``_steer_values``."""
    goal, steer = task.goal_predicate, _steer_values(env, task)
    return lambda state: (0.0, 0.0, -1.0) if goal(state) else steer(state.values)


def greedy_expert_action(env, state, task):
    """The list-state expert's action at ``state`` as a numpy array."""
    return np.array(expert_values(env, task)(state))


def test_env_task_count(env, tasks):
    # 2 objects x 3 regions
    assert len(tasks) == 2 * len(env.regions)
    assert len({t.task_id for t in tasks}) == len(tasks)


@pytest.mark.parametrize("extent,count", [(0.0, 2), (-1.0, 2), (10.0, 0)])
def test_env_invalid_params(extent, count):
    with pytest.raises(ConfigurationError):
        BlockNavEnv(extent=extent, object_count=count)


@pytest.mark.parametrize("field,value", [
    ("extent", math.nan), ("extent", "nan"), ("extent", math.inf), ("extent", True),
    ("max_step", 0.0), ("max_step", -0.5), ("pick_radius", math.nan),
    ("region_radius", math.inf), ("region_radius", None), ("jitter", -0.1),
    ("jitter", math.nan), ("jitter", math.inf), ("object_count", 2.7),
    ("object_count", True), ("object_count", 0), ("object_count", "2"),
])
def test_env_rejects_bad_values_naming_the_field(field, value):
    # a NaN extent would reach the dynamics, and a string or a fractional
    # count would fail with TypeError, far from the config that held it
    with pytest.raises(ConfigurationError, match=field):
        BlockNavEnv(**{field: value})


def test_env_refuses_an_extent_at_which_a_squared_distance_can_overflow():
    # positions lie in [0, extent], so dx * dx + dy * dy stays finite up to 1e150
    # and the expert's fused norm on its exact path; numpy's fallback would warn
    assert BlockNavEnv(extent=1e150).extent == 1e150
    for extent in (math.nextafter(1e150, math.inf), 1e200, 1e308):
        with pytest.raises(ConfigurationError, match=(
                r"^BlockNavEnv: extent must be at most 1e\+150, .* got " + re.escape(repr(extent)))):
            BlockNavEnv(extent=extent)


def test_env_refuses_a_max_step_at_which_the_expert_noise_span_overflows():
    # a noise row is -max_step + (2 * max_step) * u, as rng.uniform computes it;
    # above 1e150 the env refuses the field, at 1e150 noise rows stay finite
    for max_step in (math.nextafter(1e150, math.inf), 1e308):
        with pytest.raises(ConfigurationError, match=(
                r"^BlockNavEnv: max_step must be at most 1e\+150, .* got "
                + re.escape(repr(max_step)))):
            BlockNavEnv(max_step=max_step)
    world = BlockNavEnv(max_step=1e150)
    task = world.tasks()[0]
    obs = world.observe(world.reset(0, task.task_id))
    macro = ScriptedExpertPrior(world, 50, 1.0).sample_macro(obs, task, np.random.default_rng(0))
    assert all(map(math.isfinite, np.ravel(macro))) and np.abs(macro).max() > 1e149


def test_env_accepts_zero_jitter_and_numpy_numbers():
    world = BlockNavEnv(extent=np.float64(8.0), object_count=np.int64(3), jitter=0)
    assert (world.extent, world.object_count, world.jitter) == (8.0, 3, 0.0)
    assert world.to_json()["object_count"] == 3


def test_env_json_holds_exactly_its_fields_as_python_numbers():
    world = BlockNavEnv(extent=np.float64(8.0), object_count=np.int64(3), max_step=1,
                        pick_radius=np.float32(0.25), region_radius=2, jitter=0)
    data = json.loads(json.dumps(world.to_json()))
    assert list(data) == [f.name for f in dataclasses.fields(BlockNavEnv)]
    clone = BlockNavEnv.from_json(data)
    for f in dataclasses.fields(BlockNavEnv):
        value = getattr(clone, f.name)
        assert value == getattr(world, f.name) and type(value).__name__ == f.type
    assert clone.to_json() == world.to_json()
    assert np.array_equal(clone.regions, world.regions) and clone.state_dim == 10


def test_expert_solves_every_task(env, tasks):
    # expert-completeness oracle: zero-noise expert succeeds within 100 steps
    for task in tasks:
        for seed in range(5):
            _, actions, success = run_expert_episode(env, task, seed)
            assert success, f"{task.task_id} seed {seed}"
            assert len(actions) <= 100


def test_zero_action_is_identity(env, tasks):
    state = env.reset(0, tasks[0].task_id)
    nxt = env.step(state, np.zeros(3))
    assert np.array_equal(nxt.values, state.values)
    assert nxt.step_count == state.step_count + 1


def test_states_hold_lists_of_floats(env, tasks):
    # reset, step and run_macro return lists of Python floats and leave the
    # state they start from as it was; observe hands the prior a tuple of them
    state = env.reset(0, tasks[0].task_id)
    before = list(state.values)
    stepped = env.step(state, np.array([0.2, 0.1, 1.0]))
    array = np.tile([0.5, 0.0, 1.0], (3, 1))
    # run_macro takes rows of Python floats, but an array, its rows or rows of
    # numpy scalars still leave Python floats in the state
    for macro in (array, list(array), [list(map(np.float64, row)) for row in array.tolist()]):
        ran, _, used = env.run_macro(state, macro, tasks[0])
        for got in (state, stepped, ran):
            assert type(got.values) is list and {type(x) for x in got.values} == {float}
        assert ran.values == env.run_macro(state, array.tolist(), tasks[0])[0].values
        assert (stepped.step_count, ran.step_count, used) == (1, 3, 3)
    assert state.values == before
    assert env.observe(state) == tuple(before)


def test_step_determinism(env, tasks):
    state = env.reset(3, tasks[0].task_id)
    action = np.array([0.2, -0.1, 1.0])
    a = env.step(state, action)
    b = env.step(state, action)
    assert np.array_equal(a.values, b.values)
    assert a.step_count == b.step_count


def test_clone_independence(env, tasks):
    task = tasks[0]
    state = env.reset(0, task.task_id)
    clone = state.copy()
    env.step(clone, np.array([0.5, 0.5, 1.0]))
    # stepping from the original after mutating-the-clone attempts must agree
    ref = env.reset(0, task.task_id)
    a = env.step(state, np.array([0.1, 0.0, -1.0]))
    b = env.step(ref, np.array([0.1, 0.0, -1.0]))
    assert np.array_equal(a.values, b.values)


def test_replay_determinism(env, tasks):
    task = tasks[2]
    rng = np.random.default_rng(5)
    actions = rng.uniform(-0.5, 0.5, size=(40, 3))
    finals = []
    for _ in range(2):
        state = env.reset(11, task.task_id)
        for action in actions:
            state = env.step(state, action)
        finals.append(state.values)
    assert np.array_equal(finals[0], finals[1])


# -- the scripted expert against its numpy form -------------------------------
#
# The reference functions below are the numpy forms of greedy_expert_action,
# _clip_step, ScriptedExpertPrior.sample_macro and run_expert_episode that the
# list-state expert replaced; they read a state's list through numpy.  The
# list-state expert must reproduce them bit for bit, draws from the shared
# generator included.  The four accessors are the BlockNavEnv methods that the
# numpy forms read the state through.

def carried_index(state):
    return int(state.values[3])


def robot_position(state):
    return np.array(state.values[0:2])


def object_position(state, index):
    return np.array(state.values[4 + 2 * index: 6 + 2 * index])


def state_from_observation(obs):
    return StateVec(np.asarray(obs, dtype=float).tolist(), step_count=0)


def reference_clip_step(delta, max_step):
    norm = float(np.linalg.norm(delta))
    if norm > max_step:
        return delta * (max_step / norm)
    return delta


def reference_greedy_expert_action(env, state, task):
    if task.goal_predicate(state):
        return np.array([0.0, 0.0, -1.0])
    obj = task.target.obj
    center = np.array([task.target.cx, task.target.cy])
    carried = carried_index(state)
    robot = robot_position(state)
    if carried == obj:
        delta = center - robot
        if np.linalg.norm(delta) <= env.region_radius * 0.5:
            return np.array([0.0, 0.0, -1.0])
        return np.array([*reference_clip_step(delta, env.max_step), 1.0])
    if carried >= 0:
        return np.array([0.0, 0.0, -1.0])
    target = object_position(state, obj)
    delta = target - robot
    if np.linalg.norm(delta) <= env.pick_radius * 0.8:
        return np.array([0.0, 0.0, 1.0])
    return np.array([*reference_clip_step(delta, env.max_step), -1.0])


def _reference_noisy_action(env, state, task, noise, rng):
    # the noisy-expert rule as ScriptedExpertPrior wrote it out
    action = reference_greedy_expert_action(env, state, task)
    if noise > 0.0 and rng.random() < noise:
        action = np.array([
            rng.uniform(-env.max_step, env.max_step),
            rng.uniform(-env.max_step, env.max_step),
            rng.uniform(-1.0, 1.0),
        ])
    return action


def reference_sample_macro(env, horizon, noise, obs, task, rng):
    state = state_from_observation(obs)
    rows = []
    for _ in range(horizon):
        action = _reference_noisy_action(env, state, task, noise, rng)
        state = env.step(state, action)
        rows.append(action)
    return np.array(rows)


def reference_run_expert_episode(env, task, seed):
    state = env.reset(seed, task.task_id)
    states, actions = [], []
    success = task.goal_predicate(state)
    for _ in range(100):
        if success:
            break
        action = reference_greedy_expert_action(env, state, task)
        states.append(np.array(state.values))
        actions.append(action)
        state = env.step(state, action)
        success = task.goal_predicate(state)
    return states, np.array(actions).reshape(len(actions), env.action_dim), success


@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
def test_noisy_expert_keeps_draw_order(env, tasks, noise):
    # consecutive macros from a reset state on one stream, as an episode
    # queries the prior, draw what the numpy rule drew, row after row; the
    # noisy expert draws ahead, so only at noise 0 is the stream left untouched
    for seed, task in enumerate(tasks * 3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        state = env.reset(seed, task.task_id)
        prior = ScriptedExpertPrior(env, 20, noise)
        for _ in range(3):
            macro = prior.sample_macro(env.observe(state), task, rng)
            ref_rows = []
            for _ in range(20):
                ref_rows.append(_reference_noisy_action(env, state, task, noise, ref_rng))
                state = env.step(state, ref_rows[-1])
            assert np.array(ref_rows).tobytes() == np.asarray(macro, dtype=float).tobytes()
        if noise == 0.0:
            assert rng.random() == ref_rng.random()


def test_nearest_object_skips_out_of_reach_objects_exactly(env):
    # the kernel's pick search skips objects more than pick_radius away on one
    # axis before the square root; the picks, misses and NaN rule stay those of
    # the reference
    r = env.pick_radius
    three = BlockNavEnv(object_count=3)
    cases = [
        # exactly pick_radius away on one axis (0.6 - r and the difference
        # back are exact), the other offset 0: picks
        (env, [0.6, 5.0, -1.0, -1.0, 0.6 - r, 5.0, 9.0, 9.0], 0),
        (env, [0.6 - r, 5.0, -1.0, -1.0, 0.6, 5.0, 9.0, 9.0], 0),
        (env, [5.0, 0.6, -1.0, -1.0, 9.0, 9.0, 5.0, 0.6 - r], 1),
        (env, [5.0, 0.6 - r, -1.0, -1.0, 9.0, 9.0, 5.0, 0.6], 1),
        # both axes within pick_radius, the distance beyond it: no pick
        (env, [5.0, 5.0, -1.0, -1.0, 5.0 + 0.3, 5.0 - 0.3, 9.0, 9.0], -1),
        # a skipped object, then one in reach
        (env, [5.0, 5.0, -1.0, -1.0, 5.0 + 2 * r, 5.0, 5.1, 5.0], 1),
        # a skipped object before a NaN one: a NaN distance blocks the pick
        (three, [5.0, 5.0, -1.0, -1.0, 9.0, 9.0, math.nan, 5.0, 5.1, 5.0], -1),
        # NaN on one axis while the other is out of reach is still NaN
        (three, [5.0, 5.0, -1.0, -1.0, 5.1, 5.0, 9.0, math.nan, 5.2, 5.0], -1),
        (three, [5.0, 5.0, -1.0, -1.0, math.nan, 9.0, 5.1, 5.0, 5.2, 5.0], -1),
        # an infinite offset is out of reach, not NaN
        (three, [5.0, 5.0, -1.0, -1.0, math.inf, 5.0, 5.0, -math.inf, 5.0, 5.2], 2),
        # a radius so small that a square beyond it underflows to 0: picks
        (BlockNavEnv(pick_radius=1e-170), [0.0, 0.0, -1.0, -1.0, 2e-170, 0.0, 9.0, 9.0], 0),
    ]
    offsets = [values[4 + 2 * expected] - values[0] for _, values, expected in cases[:2]]
    offsets += [values[5 + 2 * expected] - values[1] for _, values, expected in cases[2:4]]
    assert offsets == [-r, r, -r, r]
    for world, values, expected in cases:
        assert reference_nearest_object(world, np.array(values)) == expected, values
        assert kernel_pick(world, values) == expected, values
        assert_same_step(world, values, (0.0, 0.0, 1.0))


def test_pick_and_carry(env, tasks):
    task = tasks[0]
    state = env.reset(0, task.task_id)
    obj = task.target.obj
    # walk the expert until it has picked up the target object
    for _ in range(100):
        if carried_index(state) == obj:
            break
        state = env.step(state, greedy_expert_action(env, state, task))
    assert carried_index(state) == obj
    moved = env.step(state, np.array([0.4, 0.0, 1.0]))
    assert np.allclose(object_position(moved, obj), robot_position(moved))


def test_step_macro_zero_macro(env, tasks):
    state = env.reset(0, tasks[0].task_id)
    out, success, used = step_macro(env, state, np.zeros((4, 3)), tasks[0])
    assert not success and used == 4
    assert np.array_equal(out.values, state.values)
    assert out.step_count == state.step_count + 4


def test_step_macro_early_stop(env, tasks):
    # macro whose 2nd primitive reaches the goal, built from an expert run
    task = tasks[0]
    _, actions, success = run_expert_episode(env, task, 0)
    assert success
    state = env.reset(0, task.task_id)
    for action in actions[:-2]:
        state = env.step(state, action)
    macro = np.vstack([actions[-2:], np.zeros((2, 3))])
    out, ok, used = step_macro(env, state, macro, task)
    assert ok and used == 2
    assert task.goal_predicate(out)


def test_step_macro_deterministic_replay(env, tasks):
    state = env.reset(1, tasks[1].task_id)
    macro = np.random.default_rng(2).uniform(-0.5, 0.5, size=(4, 3))
    r1 = step_macro(env, state.copy(), macro, tasks[1])
    r2 = step_macro(env, state.copy(), macro, tasks[1])
    assert np.array_equal(r1[0].values, r2[0].values)
    assert r1[1:] == r2[1:]


def test_step_macro_shape_mismatch(env, tasks):
    state = env.reset(0, tasks[0].task_id)
    with pytest.raises(ContractViolationError):
        step_macro(env, state, np.zeros((4, 2)), tasks[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_rejects_a_non_finite_action(env, tasks, bad):
    # a NaN or infinite action would otherwise give a NaN state without a word
    state = env.reset(0, tasks[0].task_id)
    before = list(state.values)
    with pytest.raises(ContractViolationError,
                       match=r"BlockNavEnv.step: action row 0 \[.* is not finite") as info:
        env.step(state, np.array([0.1, bad, 1.0]))
    assert repr(bad) in str(info.value) and state.values == before


def test_step_and_step_macro_reject_non_numeric_entries_naming_the_function(env, tasks):
    # numpy's own ValueError ("could not convert string to float") would not
    # say which call was handed the bad action
    state = env.reset(0, tasks[0].task_id)
    for action in (["a", 0, 0], [[0.0, 0.0], [0.0]], [object(), 0.0, 0.0]):
        with pytest.raises(ContractViolationError, match="BlockNavEnv.step: action .* not numeric"):
            env.step(state, action)
    for macro in ([["a", 0, 0]], [[0.0, 0.0, 0.0], [0.0, "b", 0.0]], [[0.0, 0.0, 0.0], [0.0]]):
        with pytest.raises(ContractViolationError, match="step_macro: macro .* not numeric"):
            step_macro(env, state, macro, tasks[0])


def test_step_macro_rejects_an_empty_macro(env, tasks):
    # a macro of no rows would return (False, 0), and a caller looping on it
    # would make no progress
    state = env.reset(0, tasks[0].task_id)
    for macro in (np.zeros((0, 3)), [], [[]]):
        with pytest.raises(ContractViolationError, match="step_macro: macro shape"):
            step_macro(env, state, macro, tasks[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_macro_rejects_a_non_finite_row_naming_it(env, tasks, bad):
    # checked before the goal test and before any row is applied
    state = env.reset(0, tasks[0].task_id)
    macro = np.zeros((4, 3))
    macro[2, 1] = macro[3, 0] = bad
    with pytest.raises(ContractViolationError, match=r"step_macro: macro row 2 \[.* is not finite"):
        step_macro(env, state, macro, tasks[0])
    goal = dataclasses.replace(tasks[0], goal_predicate=lambda s: True)
    with pytest.raises(ContractViolationError, match="row 0"):
        step_macro(env, state, np.full((4, 3), bad), goal)


@pytest.mark.parametrize("method", ["step", "run_macro", "advance"])
@pytest.mark.parametrize("case", ["nan", "inf", "-inf", "-2.0", "object_count",
                                  "dropped_slot", "no_carried_slot", "one_value_short",
                                  "one_value_long"])
def test_bad_state_is_a_contract_violation_naming_the_method(env, tasks, method, case):
    # the kernel checks the state before its first row: a closed gripper beside
    # object 0 would pick it or move a carried one, and an open gripper would
    # drop the carried slot 5 without reading it
    values, action = [5.0, 5.0, 1.0, -1.0, 5.1, 5.0, 9.0, 9.0], (0.1, 0.0, 1.0)
    if case == "no_carried_slot":
        values, fault = values[:3], "the state has 3 values, not 8"
    elif case == "one_value_short":
        values, fault = values[:-1], "the state has 7 values, not 8"
    elif case == "one_value_long":
        values, fault = values + [0.0], "the state has 9 values, not 8"
    else:
        if case == "dropped_slot":
            values, action = [5, 5, 1, 5.0, 1, 1, 2, 2], (0, 0, -1)
        else:
            values[3] = float(env.object_count) if case == "object_count" else float(case)
        fault = rf"the state's carried slot \(index 3\) holds {values[3]!r}, neither"
    state, before = StateVec(values, 4), repr(values)
    with pytest.raises(ContractViolationError, match=rf"^BlockNavEnv\.{method}: {fault}"):
        if method == "step":
            env.step(state, action)
        else:
            getattr(env, method)(state, [action] * 3, tasks[0])
    assert repr(state.values) == before and state.step_count == 4


def test_noisy_expert_refuses_a_state_one_value_too_long(env, tasks):
    # at noise 1 the expert asks neither the goal nor the steering rule, so
    # its own kernel step is the first to see the observation
    obs = env.observe(env.reset(0, tasks[0].task_id)) + (0.0,)
    with pytest.raises(ContractViolationError, match=(
            r"^ScriptedExpertPrior\.sample_macro: the state has 9 values, not 8")):
        ScriptedExpertPrior(env, 4, 1.0).sample_macro(obs, tasks[0], np.random.default_rng(0))


@pytest.mark.parametrize("error", [ValueError, IndexError])
def test_a_custom_goal_error_passes_run_macro_unchanged(env, tasks, error):
    # on a good state, an error is the predicate's own and is not relabelled
    def broken(state):
        raise error("the predicate's own")

    task = dataclasses.replace(tasks[0], goal_predicate=broken)
    with pytest.raises(error, match="^the predicate's own$"):
        env.run_macro(env.reset(0, task.task_id), [(0.1, 0.0, 1.0)] * 3, task)


def test_expert_prior_leaves_the_observed_state_unchanged(env, tasks):
    # observe hands the prior a tuple of the state's floats, which JSON can
    # encode; the prior simulates its own list, not the state's
    for noise in (0.0, 1.0):
        state = env.reset(0, tasks[0].task_id)
        before = list(state.values)
        obs = env.observe(state)
        assert type(obs) is tuple and obs == tuple(state.values)
        assert json.loads(json.dumps(obs)) == before
        prior = ScriptedExpertPrior(env, 8, noise)
        macro = prior.sample_macro(obs, tasks[0], np.random.default_rng(3))
        assert np.abs(np.asarray(macro)[:, :2]).max() > 0.1
        assert state.values == before and state.step_count == 0
        assert obs == tuple(before)


def test_expert_prior_shapes_and_noise(env, tasks):
    clean = ScriptedExpertPrior(env, horizon=4, noise_level=0.0)
    obs = env.observe(env.reset(0, tasks[0].task_id))
    rng = np.random.default_rng(0)
    macro = clean.sample_macro(obs, tasks[0], rng)
    assert np.shape(macro) == (4, 3)
    # zero noise is deterministic regardless of rng state
    macro2 = clean.sample_macro(obs, tasks[0], np.random.default_rng(99))
    assert np.array_equal(macro, macro2)
    noisy = ScriptedExpertPrior(env, horizon=4, noise_level=1.0)
    n1 = noisy.sample_macro(obs, tasks[0], np.random.default_rng(1))
    n2 = noisy.sample_macro(obs, tasks[0], np.random.default_rng(1))
    assert np.array_equal(n1, n2)  # reproducible given the stream
    assert not np.array_equal(n1, macro)


def test_expert_prior_bad_noise(env):
    with pytest.raises(ConfigurationError):
        ScriptedExpertPrior(env, horizon=4, noise_level=1.5)


def test_env_json_round_trip(env, tasks):
    blob = json.dumps(env.to_json())
    clone = BlockNavEnv.from_json(json.loads(blob))
    s1 = env.reset(4, tasks[0].task_id)
    s2 = clone.reset(4, tasks[0].task_id)
    assert np.array_equal(s1.values, s2.values)
    assert clone.to_json() == env.to_json()
    assert [t.task_id for t in clone.tasks()] == [t.task_id for t in tasks]


# -- scalar hot path against the numpy reference -----------------------------
#
# The reference functions below are the numpy forms of BlockNavEnv.step, its
# pick search and the goal predicate that the scalar code replaced.  The
# scalar code must reproduce them bit for bit.

def reference_nearest_object(env, values):
    pos = values[0:2]
    objects = values[4:].reshape(env.object_count, 2)
    dists = np.linalg.norm(objects - pos, axis=1)
    idx = int(np.argmin(dists))
    return idx if dists[idx] <= env.pick_radius else -1


def kernel_pick(world, values):
    """The object the kernel picks where ``values`` puts the robot and the objects:
    the carried slot after stepping (0, 0, 1) from their open, empty-handed state.
    The robot must lie inside the arena, where the zero move leaves it."""
    values = [float(x) for x in values]
    values[2:4] = -1.0, -1.0
    got = world.step(StateVec(values), (0.0, 0.0, 1.0))
    assert got.values[0:2] == values[0:2]
    return int(got.values[3])


def reference_step(env, state, action):
    action = np.asarray(action, dtype=float)
    v = np.array(state.values)
    dx = float(np.clip(action[0], -env.max_step, env.max_step))
    dy = float(np.clip(action[1], -env.max_step, env.max_step))
    v[0] = np.clip(v[0] + dx, 0.0, env.extent)
    v[1] = np.clip(v[1] + dy, 0.0, env.extent)
    g = action[2]
    if g > 0:
        v[2] = 1.0
    elif g < 0:
        v[2] = -1.0
    carried = int(v[3])
    if v[2] > 0 and carried < 0:
        idx = reference_nearest_object(env, v)
        if idx >= 0:
            carried = idx
            v[3] = float(idx)
    elif v[2] < 0 and carried >= 0:
        v[3] = -1.0
        carried = -1
    if carried >= 0:
        v[4 + 2 * carried] = v[0]
        v[5 + 2 * carried] = v[1]
    return StateVec(v, state.step_count + 1)


def reference_norm(dx, dy):
    return float(np.linalg.norm(np.array([dx, dy])))


def reference_goal(env, task, state):
    values = np.asarray(state.values)
    obj = task.target.obj
    center = env.regions[task.target.region]
    if int(values[3]) == obj:
        return False
    pos = values[4 + 2 * obj: 6 + 2 * obj]
    return bool(np.linalg.norm(pos - center) <= env.region_radius)


def assert_same_step(env, values, action, step_count=0):
    values = np.asarray(values, dtype=float).tolist()
    ref = reference_step(env, StateVec(values, step_count), action)
    if all(map(math.isfinite, action)):
        got = env.step(StateVec(values, step_count), action)
    else:
        # step and run_macro reject a non-finite action; advance applies rows
        # unchecked (its caller checks them) and must still match the reference
        never = TaskSpec("never", "never done", lambda state: False)
        with pytest.raises(ContractViolationError, match="BlockNavEnv.step: action"):
            env.step(StateVec(values, step_count), action)
        with pytest.raises(ContractViolationError, match="BlockNavEnv.run_macro: macro"):
            env.run_macro(StateVec(values, step_count), np.array([action]), never)
        got, _, _ = env.advance(StateVec(list(values), step_count),
                                [tuple(map(float, action))], never)
    assert {type(x) for x in got.values} == {float}
    assert np.array(got.values).tobytes() == ref.values.tobytes(), (values, action)
    assert got.step_count == ref.step_count
    return got


def random_state_values(env, rng):
    """A state anywhere in (and a little beyond) the arena, often near an object."""
    values = rng.uniform(-1.0, env.extent + 1.0, size=env.state_dim)
    values[2] = rng.choice([-1.0, 1.0])
    values[3] = rng.choice([-1.0] + [float(i) for i in range(env.object_count)])
    if rng.random() < 0.5:
        obj = int(rng.integers(env.object_count))
        values[4 + 2 * obj: 6 + 2 * obj] = values[0:2] + rng.normal(0.0, 0.3, size=2)
    return values


def test_step_matches_numpy_reference_random(env, tasks):
    rng = np.random.default_rng(20240)
    three = BlockNavEnv(object_count=3)
    for world in (env, three):
        for _ in range(10_000):
            values = random_state_values(world, rng)
            action = rng.uniform(-1.0, 1.0, size=3)
            if rng.random() < 0.2:
                action[2] = 0.0
            got = assert_same_step(world, values, action, step_count=int(rng.integers(50)))
            if world is env:
                for task in tasks:
                    assert task.goal_predicate(got) == reference_goal(env, task, got)


def test_nearest_object_matches_numpy_reference():
    rng = np.random.default_rng(7)
    world = BlockNavEnv(object_count=4)
    picked = set()
    for _ in range(5_000):
        values = random_state_values(world, rng)
        values[0:2] = np.clip(values[0:2], 0.0, world.extent)
        expected = reference_nearest_object(world, values)
        assert kernel_pick(world, values) == expected
        picked.add(expected)
    assert picked == {-1, 0, 1, 2, 3}


def test_step_clamps_at_arena_edges(env):
    for start, action, expected in [
        ((0.1, 9.9), (-0.5, 0.5, 0.0), (0.0, 10.0)),
        ((0.0, 10.0), (-0.3, 0.3, 0.0), (0.0, 10.0)),
        ((0.5, 9.5), (-0.5, 0.5, 0.0), (0.0, 10.0)),
        ((-2.0, 12.0), (0.1, -0.1, 0.0), (0.0, 10.0)),
        # signed zeros: np.clip keeps x on a tie, so -0.0 stays -0.0
        ((-0.0, 10.0), (-0.0, 0.0, 0.0), (0.0, 10.0)),
        ((0.0, 10.0), (-0.0, -0.0, 0.0), (0.0, 10.0)),
    ]:
        values = [start[0], start[1], -1.0, -1.0, 5.0, 5.0, 6.0, 6.0]
        got = assert_same_step(env, values, action)
        assert tuple(got.values[0:2]) == expected


def test_step_clamps_large_moves(env):
    values = [5.0, 5.0, -1.0, -1.0, 1.0, 1.0, 9.0, 9.0]
    got = assert_same_step(env, values, (3.0, -7.0, 0.0))
    assert tuple(got.values[0:2]) == (5.5, 4.5)
    got = assert_same_step(env, values, (-np.inf, np.inf, 0.0))
    assert tuple(got.values[0:2]) == (4.5, 5.5)


def test_step_nan_action_matches_reference(env):
    values = [5.0, 5.0, -1.0, -1.0, 5.0, 5.0, 6.0, 6.0]
    for action in [(np.nan, 0.0, 1.0), (0.0, np.nan, -1.0), (0.0, 0.0, np.nan)]:
        assert_same_step(env, values, action)


def test_nan_object_blocks_pick_like_argmin():
    # np.argmin returns the first NaN distance, which then fails the radius test
    world = BlockNavEnv(object_count=3)
    for nan_obj in range(3):
        values = [5.0, 5.0, -1.0, -1.0, 5.1, 5.0, 5.0, 5.1, 4.9, 5.0]
        values[4 + 2 * nan_obj] = np.nan
        assert reference_nearest_object(world, np.array(values)) == -1
        assert kernel_pick(world, values) == -1
        assert_same_step(world, values, (0.0, 0.0, 1.0))


def test_pick_matches_reference_near_radius(env):
    # diagonal offsets within a few ulps of pick_radius, where the rounding of
    # the distance decides the pick
    rng = np.random.default_rng(12)
    r = env.pick_radius
    outcomes = set()
    for theta in rng.uniform(0.0, 2.0 * np.pi, size=3000):
        ox, oy = 5.0 + r * np.cos(theta), 5.0 + r * np.sin(theta)
        for _ in range(int(rng.integers(0, 3))):
            ox = np.nextafter(ox, rng.choice([-np.inf, np.inf]))
        values = [5.0, 5.0, -1.0, -1.0, ox, oy, 9.0, 9.0]
        expected = reference_nearest_object(env, np.array(values))
        assert kernel_pick(env, values) == expected
        outcomes.add(expected)
    assert outcomes == {0, -1}


def test_step_zero_grip_holds_gripper(env):
    # open and empty-handed: g == 0 keeps the gripper open next to an object
    open_values = [5.0, 5.0, -1.0, -1.0, 5.1, 5.0, 8.0, 8.0]
    got = assert_same_step(env, open_values, (0.1, 0.0, 0.0))
    assert got.values[2] == -1.0 and got.values[3] == -1.0
    # closed and carrying: g == 0 keeps carrying
    closed_values = [5.0, 5.0, 1.0, 0.0, 5.0, 5.0, 8.0, 8.0]
    got = assert_same_step(env, closed_values, (0.2, -0.3, 0.0))
    assert got.values[2] == 1.0 and got.values[3] == 0.0
    assert tuple(got.values[4:6]) == tuple(got.values[0:2])


def test_step_equidistant_objects_pick_lowest_index():
    world = BlockNavEnv(object_count=3)
    # objects 1 and 2 are exactly 0.25 from the robot, object 0 is farther
    values = [5.0, 5.0, -1.0, -1.0, 5.3, 5.0, 5.25, 5.0, 4.75, 5.0]
    assert kernel_pick(world, values) == 1
    got = assert_same_step(world, values, (0.0, 0.0, 1.0))
    assert got.values[3] == 1.0
    # all three at the same distance: object 0 wins
    values = [5.0, 5.0, -1.0, -1.0, 5.0, 5.25, 5.25, 5.0, 4.75, 5.0]
    got = assert_same_step(world, values, (0.0, 0.0, 1.0))
    assert got.values[3] == 0.0


def test_pick_radius_one_ulp_either_side(env):
    # robot at x = 0.6 and the object t to its left: 0.6 - t and the
    # difference back are exact, so the distance is exactly t
    r = env.pick_radius
    for t, picks in [(np.nextafter(r, 0.0), True), (r, True), (np.nextafter(r, 1.0), False)]:
        values = [0.6, 5.0, -1.0, -1.0, 0.6 - t, 5.0, 9.0, 9.0]
        assert reference_nearest_object(env, np.array(values)) == (0 if picks else -1)
        got = assert_same_step(env, values, (0.0, 0.0, 1.0))
        assert got.values[3] == (0.0 if picks else -1.0)


def exact_offset_state(world, task, t):
    """A state with the task's object exactly t from the region centre, or None.

    Tries both axes and both signs; an offset is exact only where the object
    coordinate falls in a binade at least as fine as t's.
    """
    obj = task.target.obj
    center = world.regions[task.target.region]
    for axis in (0, 1):
        for sign in (-1.0, 1.0):
            pos = center.copy()
            pos[axis] += sign * t
            if float(np.linalg.norm(pos - center)) == t:
                values = np.full(world.state_dim, 9.0)
                values[0:4] = (5.0, 5.0, -1.0, -1.0)
                values[4 + 2 * obj: 6 + 2 * obj] = pos
                return StateVec(values.tolist())
    return None


def test_goal_radius_one_ulp_either_side(env):
    # one ulp inside, on and outside the radius; never while the object is carried
    covered = set()
    for world in (env, BlockNavEnv(extent=1.5)):
        r = world.region_radius
        for task in world.tasks():
            cases = [(np.nextafter(r, 0.0), True), (r, True), (np.nextafter(r, 1.0), False)]
            states = [(exact_offset_state(world, task, t), inside) for t, inside in cases]
            if any(state is None for state, _ in states):
                continue
            for state, inside in states:
                assert reference_goal(world, task, state) is inside
                assert task.goal_predicate(state) is inside
                state.values[3] = float(task.target.obj)
                assert task.goal_predicate(state) is reference_goal(world, task, state) is False
            covered.add(task.target.region)
    assert covered == {0, 1, 2}


def test_goal_on_values_matches_goal_predicate_one_ulp_either_side(env):
    # the goal BlockNavEnv.run_macro tests on the list it steps in place agrees
    # with goal_predicate on a fresh state and with the reference, one ulp
    # inside, on and outside the radius, carried or not
    checked = 0
    for world in (env, BlockNavEnv(extent=1.5)):
        r = world.region_radius
        for task in world.tasks():
            obj = task.target.obj
            for t in (np.nextafter(r, 0.0), r, np.nextafter(r, 1.0)):
                state = exact_offset_state(world, task, t)
                if state is None:
                    continue
                # the robot holds still on the object, when it lies inside the
                # extent, so a zero row leaves even a carried object in place
                pos = state.values[4 + 2 * obj: 6 + 2 * obj]
                cases = [(-1.0, -1.0)]
                if all(0.0 <= x <= world.extent for x in pos):
                    state.values[0:2] = pos
                    cases.append((1.0, float(obj)))
                for grip, carried in cases:
                    state.values[2:4] = (grip, carried)
                    expected = task.goal_predicate(StateVec(list(state.values)))
                    assert expected is reference_goal(world, task, state)
                    out, ok, used = world.run_macro(state, np.zeros((1, 3)), task)
                    assert (ok, used) == (expected, 1)
                    assert out.values[4:] == state.values[4:]
                    checked += 1
    assert checked >= 24


def test_goal_near_boundary_calls_no_numpy_norm(env, tasks, monkeypatch):
    # near the boundary the goal is the kernel pick's plain distance, so no
    # goal outcome depends on numpy or on which BLAS it uses
    rng = np.random.default_rng(8)
    r = env.region_radius
    cases = []
    for task in tasks:
        obj = task.target.obj
        cx, cy = task.target.cx, task.target.cy
        for theta in rng.uniform(0.0, 2.0 * np.pi, size=200):
            x, y = cx + r * math.cos(theta), cy + r * math.sin(theta)
            for _ in range(int(rng.integers(0, 3))):
                x = math.nextafter(x, rng.choice([-math.inf, math.inf]))
            values = [5.0, 5.0, -1.0, -1.0, 9.0, 9.0, 9.0, 9.0]
            values[4 + 2 * obj: 6 + 2 * obj] = (x, y)
            dx, dy = x - cx, y - cy
            cases.append((task, values, math.sqrt(dx * dx + dy * dy) <= r))

    def no_norm(*args, **kwargs):
        raise AssertionError("the goal called np.linalg.norm")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    assert [task.goal_predicate(StateVec(values)) for task, values, _ in cases] == [
        expected for _, _, expected in cases]
    assert {expected for _, _, expected in cases} == {True, False}


def test_goal_matches_numpy_norm_at_every_radius_scale():
    # away from the boundary, where the plain distance and numpy's fused norm
    # cannot round to different sides of the radius, the goal agrees with
    # numpy's norm at any radius; NaN and infinite positions are never a goal
    angles = [0.0, math.pi / 2, math.pi, 0.3, 1.1, 2.9, 4.0, 5.5]
    factors = [0.5, 1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-6, 2.0]
    cases = 0
    for radius in (1e-300, 1e-12, 5e-10, 1e-9, 2e-9, 1e-6, 0.6, 3.0, 1e6):
        # points around the radius, and around tiny offsets from the centre
        scales = (radius, 1e-9 * max(1.0, radius), 2e-9 * max(1.0, radius))
        outcomes = set()
        # region centres at the default extent and at the radius's own scale
        for world in (BlockNavEnv(region_radius=radius),
                      BlockNavEnv(extent=10 * radius, region_radius=radius)):
            for task in world.tasks():
                obj = task.target.obj
                cx, cy = task.target.cx, task.target.cy
                points = [(cx + r * f * math.cos(theta), cy + r * f * math.sin(theta))
                          for r in scales for f in factors for theta in angles]
                points += [(math.nan, cy), (cx, math.nan), (math.inf, cy), (cx, -math.inf)]
                for x, y in points:
                    values = [5.0, 5.0, -1.0, -1.0, 9.0, 9.0, 9.0, 9.0]
                    values[4 + 2 * obj: 6 + 2 * obj] = (x, y)
                    state = StateVec(values)
                    if abs(reference_norm(x - cx, y - cy) - radius) <= 1e-12 * radius:
                        continue
                    expected = reference_goal(world, task, state)
                    assert task.goal_predicate(state) is expected, (radius, x, y)
                    assert math.isfinite(x + y) or expected is False
                    outcomes.add(expected)
                    cases += 1
        assert outcomes == {True, False}, radius
    # the boundary band skips about 4% of the points: those put on the radius,
    # or rounded onto it where the centre's ulp dwarfs the offset
    assert cases >= 9 * 2 * 6 * (3 * len(factors) * len(angles) + 4) * 0.9, cases


def test_goal_false_while_carried_and_on_nan(env, tasks):
    task = tasks[0]
    obj = task.target.obj
    cx, cy = task.target.cx, task.target.cy
    values = [cx, cy, 1.0, float(obj), 9.0, 9.0, 9.0, 9.0]
    values[4 + 2 * obj: 6 + 2 * obj] = (cx, cy)
    assert task.goal_predicate(StateVec(values)) is False
    values[3] = -1.0
    assert task.goal_predicate(StateVec(values)) is True
    values[4 + 2 * obj] = math.nan
    assert task.goal_predicate(StateVec(values)) is reference_goal(env, task, StateVec(values))


# -- macro kernel against the row-by-row loop ---------------------------------
#
# ``reference_step_macro`` is the row-by-row loop that step_macro and the
# rollout's inner loop ran before BlockNavEnv stepped whole macros on a list:
# one ndarray step and one goal test per row.  Run with the numpy reference
# step and goal above, it is independent of the kernel.  The rollout cuts a
# macro at its step cap itself; test_rollout_matches_reference_loop covers it.

def reference_step_macro(step, goal, state, macro):
    if goal(state):
        return state, True, 0, []
    steps, carried = 0, []
    for row in macro:
        state = step(state, row)
        steps += 1
        carried.append(int(state.values[3]))
        if goal(state):
            return state, True, steps, carried
    return state, False, steps, carried


def random_macro_case(world, task, rng):
    """A state and a macro; often near the task's goal region or an object."""
    values = random_state_values(world, rng)
    obj = task.target.obj
    where = rng.random()
    if where < 0.4:
        # the robot near the region centre, carrying the task's object or not
        center = world.regions[task.target.region]
        values[0:2] = center + rng.normal(0.0, 0.5, size=2)
        values[4 + 2 * obj: 6 + 2 * obj] = values[0:2]
        values[2:4] = (1.0, float(obj)) if rng.random() < 0.7 else (-1.0, -1.0)
    elif where < 0.55:
        # a state the kernel carries across rows as it finds it: a gripper at
        # 0, an object held by an open gripper, or a NaN object coordinate
        # beside a closed gripper
        odd = int(rng.integers(3))
        if odd == 0:
            values[2] = 0.0
        elif odd == 1:
            values[2:4] = (-1.0, float(rng.integers(world.object_count)))
        else:
            values[2] = 1.0
            values[4 + int(rng.integers(2 * world.object_count))] = math.nan
    horizon = int(rng.integers(1, 7))
    macro = rng.uniform(-0.6, 0.6, size=(horizon, 3))
    macro[:, 2] = rng.choice([-1.0, 0.0, 1.0, 0.5, -0.5], size=horizon)
    return StateVec(values.tolist(), int(rng.integers(50))), macro


def test_step_macro_matches_row_by_row_reference_random():
    rng = np.random.default_rng(31)
    seen = {"goal_mid_macro": 0, "pick_and_drop": 0, "goal": 0,
            "grip_zero": 0, "held_open": 0, "nan_gripping": 0}
    for world in (BlockNavEnv(), BlockNavEnv(object_count=3)):
        world_tasks = world.tasks()
        for _ in range(3_000):
            task = world_tasks[int(rng.integers(len(world_tasks)))]
            state, macro = random_macro_case(world, task, rng)
            ref, ref_ok, ref_used, carried = reference_step_macro(
                lambda s, a: reference_step(world, s, a),
                lambda s: reference_goal(world, task, s),
                state, macro)
            got, ok, used = step_macro(world, state, macro, task)
            assert {type(x) for x in got.values} == {float}
            assert np.array(got.values).tobytes() == np.array(ref.values).tobytes()
            assert (got.step_count, ok, used) == (ref.step_count, ref_ok, ref_used)
            seen["goal"] += ok
            seen["goal_mid_macro"] += ok and 0 < used < len(macro)
            held = [c >= 0 for c in [int(state.values[3])] + carried]
            pick = next((i for i in range(1, len(held)) if held[i] and not held[i - 1]), None)
            seen["pick_and_drop"] += pick is not None and not all(held[pick:])
            grip, held_index = state.values[2:4]
            seen["grip_zero"] += grip == 0.0
            seen["held_open"] += grip < 0 <= held_index
            seen["nan_gripping"] += grip > 0 and any(map(math.isnan, state.values))
    assert min(seen.values()) >= 20, seen


def test_run_macro_equals_step_folded_row_by_row():
    # BlockNavEnv.run_macro and BlockNavEnv.step share one stepping kernel;
    # run_macro must give the state, flag and count of step applied row by
    # row with the goal tested after each, and leave its argument unchanged
    rng = np.random.default_rng(41)
    seen = {"goal": 0, "goal_mid_macro": 0, "pick": 0}
    for count in (2, 3, 4):
        world = BlockNavEnv(object_count=count)
        world_tasks = world.tasks()
        for _ in range(1_500):
            task = world_tasks[int(rng.integers(len(world_tasks)))]
            state, macro = random_macro_case(world, task, rng)
            before = list(state.values)
            ref, ref_ok, ref_used = state, False, 0
            for row in macro:
                ref = world.step(ref, row)
                ref_used += 1
                if task.goal_predicate(ref):
                    ref_ok = True
                    break
            got, ok, used = world.run_macro(state, macro, task)
            assert np.array(got.values).tobytes() == np.array(ref.values).tobytes()
            assert (got.step_count, ok, used) == (ref.step_count, ref_ok, ref_used)
            assert state.values == before and got.values is not state.values
            seen["goal"] += ok
            seen["goal_mid_macro"] += ok and used < len(macro)
            seen["pick"] += got.values[3] >= 0 > before[3]
    assert min(seen.values()) >= 20, seen


def test_replaced_goal_predicate_decides_where_run_macro_stops(env, tasks):
    # a BlockNav task whose goal is "robot x >= 6", new or made from a region
    # task with dataclasses.replace: BlockNavEnv.run_macro tests it, not the
    # region test, after every step
    calls = []

    def robot_right(state):
        calls.append(state.step_count)
        return bool(state.values[0] >= 6.0)

    state = env.reset(0, tasks[0].task_id)
    macro = np.tile([0.5, 0.0, -1.0], (6, 1))
    ref, ref_ok, ref_used, _ = reference_step_macro(
        lambda s, a: reference_step(env, s, a), robot_right, state, macro)
    for task in (TaskSpec("custom", "move right", robot_right),
                 dataclasses.replace(tasks[0], goal_predicate=robot_right)):
        calls.clear()
        got, ok, used = step_macro(env, state, macro, task)
        assert (ok, used) == (ref_ok, ref_used) == (True, 2)
        assert np.array(got.values).tobytes() == ref.values.tobytes()
        assert calls == [0, 1, 2]  # the start state, then after each step


# -- list-state expert: the fused norm, the greedy rule, the prior, episodes ---

def fma_model_norm(dx, dy):
    """sqrt(fma(dy, dy, dx*dx)) from exact rational arithmetic.

    The sum of the rounded dx*dx and the exact dy*dy is rounded once (float of
    a Fraction is correctly rounded, subnormals included; past the largest
    double it is inf, as fma gives); a NaN input gives NaN and otherwise an
    infinite one gives inf.
    """
    if math.isnan(dx) or math.isnan(dy):
        return math.nan
    if math.isinf(dx) or math.isinf(dy):
        return math.inf
    p = dx * dx
    if math.isinf(p):
        return math.inf
    exact = Fraction(p) + Fraction(dy) ** 2
    try:
        return math.sqrt(float(exact))
    except OverflowError:
        return math.inf


def test_fused_norm_matches_exact_fma_model():
    tiny, huge = 5e-324, 1.7976931348623157e308
    specials = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1e-310, 3e-160,
                1e-150, 1.2e-150, 7.3e-154, 1e150, 1.3e150, 1.34e154, 1.5e154, huge,
                0.5, 0.35, 0.3, 1.0, 3.0, math.nan, math.inf, -math.inf]
    pairs = [(a, b) for a in specials for b in specials]
    pairs += [(a, -b) for a in specials for b in specials]
    rng = np.random.default_rng(58)
    for scale in (1.0, 1e-5, 1e5, 1e-150, 1e150, 1e-160, 1e-300, 1e300):
        pairs += (rng.normal(0.0, 1.0, size=(2_000, 2)) * scale).tolist()
    pairs += (rng.uniform(-12.0, 12.0, size=(20_000, 2))).tolist()
    differs = 0
    for dx, dy in pairs:
        expected = fma_model_norm(dx, dy)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _fused_norm(dx, dy)
            numpy_norm = float(np.linalg.norm(np.array([dx, dy])))
        if math.isnan(expected):
            assert math.isnan(got) and math.isnan(numpy_norm), (dx, dy)
            continue
        assert got == expected and math.copysign(1.0, got) == 1.0, (dx, dy, got, expected)
        assert numpy_norm == expected, (dx, dy, numpy_norm, expected)
        differs += math.sqrt(dx * dx + dy * dy) != expected
    # the plain scalar norm is wrong in the last bit often enough to matter
    assert differs > 1_000


def random_expert_values(world, task, rng):
    """State values around the expert's decision boundaries for ``task``.

    The task's object is carried, another object is carried, or none is, and
    the robot is often near the region centre or the task's object.
    """
    values = random_state_values(world, rng)
    obj = task.target.obj
    others = [i for i in range(world.object_count) if i != obj]
    carried = rng.choice([-1, obj, others[int(rng.integers(len(others)))]])
    values[2:4] = (1.0 if carried >= 0 else float(rng.choice([-1.0, 1.0])), float(carried))
    if rng.random() < 0.6:
        target = (np.array([task.target.cx, task.target.cy]) if carried == obj
                  else values[4 + 2 * obj: 6 + 2 * obj])
        values[0:2] = target + rng.normal(0.0, 0.4, size=2)
    if carried >= 0:
        values[4 + 2 * carried: 6 + 2 * carried] = values[0:2]
    return values


def test_expert_action_matches_numpy_reference_random():
    rng = np.random.default_rng(2025)
    seen = dict.fromkeys(["target_carried", "wrong_carried", "none_carried", "goal",
                          "drop", "pick", "release", "clipped", "unclipped"], 0)
    for world in (BlockNavEnv(), BlockNavEnv(object_count=3)):
        world_tasks = world.tasks()
        for _ in range(6_000):
            task = world_tasks[int(rng.integers(len(world_tasks)))]
            state = StateVec(random_expert_values(world, task, rng).tolist())
            ref = reference_greedy_expert_action(world, state, task)
            got = greedy_expert_action(world, state, task)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), state.values
            obj, carried = task.target.obj, int(state.values[3])
            seen["target_carried" if carried == obj else
                 "wrong_carried" if carried >= 0 else "none_carried"] += 1
            if task.goal_predicate(state):
                seen["goal"] += 1
            elif got[0] == got[1] == 0.0:
                seen["drop" if carried == obj else "pick" if carried < 0 else "release"] += 1
            else:
                moved = float(np.linalg.norm(got[:2]))
                seen["clipped" if abs(moved - world.max_step) < 1e-12 else "unclipped"] += 1
    assert min(seen.values()) >= 50, seen


def axis_offset_values(world, task, carried, t):
    """State values with the expert's target point exactly ``t`` from the
    robot along one axis, so that every norm is exact, or None.

    The target is the region centre when the task's object is carried, else
    the object, which is put at x = 0 so that the offset is always exact.
    """
    obj = task.target.obj
    values = np.array([5.0, 5.0, -1.0, -1.0] + [9.0, 1.0] * world.object_count)
    values[4 + 2 * obj: 6 + 2 * obj] = (0.0, 5.0)
    for axis in (0, 1):
        for sign in (-1.0, 1.0):
            target = (np.array([task.target.cx, task.target.cy]) if carried == obj
                      else values[4 + 2 * obj: 6 + 2 * obj].copy())
            robot = target.copy()
            robot[axis] -= sign * t
            if target[axis] - robot[axis] != sign * t:
                continue
            values[0:4] = (*robot, 1.0 if carried >= 0 else -1.0, float(carried))
            if carried >= 0:
                values[4 + 2 * carried: 6 + 2 * carried] = robot
            return values
    return None


def test_expert_action_one_ulp_either_side_of_drop_pick_and_step(env):
    # the drop radius (carrying the task's object), the pick radius (carrying
    # nothing) and the step clip at max_step, each at one ulp below, at, and
    # one ulp above; small worlds put the region centres in fine binades
    covered = set()
    for world in (env, BlockNavEnv(extent=1.5), BlockNavEnv(extent=0.5)):
        for task in world.tasks():
            obj = task.target.obj
            for carried, reach in [(obj, world.region_radius * 0.5),
                                   (-1, world.pick_radius * 0.8),
                                   (obj, world.max_step), (-1, world.max_step)]:
                ts = (np.nextafter(reach, 0.0), reach, np.nextafter(reach, 1.0))
                cases = [axis_offset_values(world, task, carried, t) for t in ts]
                if any(values is None for values in cases):
                    continue
                for t, values in zip(ts, cases):
                    state = StateVec(values.tolist())
                    ref = reference_greedy_expert_action(world, state, task)
                    got = greedy_expert_action(world, state, task)
                    assert got.tobytes() == ref.tobytes()
                    if reach == world.max_step:
                        # kept at or below max_step, scaled down to it above
                        assert abs(got[0]) + abs(got[1]) == min(t, world.max_step)
                    else:
                        # drop or close the gripper exactly when within reach
                        at_reach = (0.0, 0.0, -1.0 if carried == obj else 1.0)
                        assert (tuple(got) == at_reach) == (t <= reach)
                covered.add((carried >= 0, reach == world.max_step))
    assert len(covered) == 4, covered


def test_expert_action_matches_reference_near_thresholds(env, tasks):
    # random directions within a few ulps of the drop, pick and step radii,
    # where the plain scalar norm and numpy's fused one disagree
    rng = np.random.default_rng(11)
    outcomes = set()
    for task in tasks:
        obj = task.target.obj
        for carried, reach in [(obj, env.region_radius * 0.5), (-1, env.pick_radius * 0.8),
                               (obj, env.max_step), (-1, env.max_step)]:
            for theta in rng.uniform(0.0, 2.0 * np.pi, size=400):
                values = axis_offset_values(env, task, carried, 0.0)
                target = (np.array([task.target.cx, task.target.cy]) if carried == obj
                          else values[4 + 2 * obj: 6 + 2 * obj].copy())
                rx = target[0] - reach * np.cos(theta)
                for _ in range(int(rng.integers(0, 3))):
                    rx = np.nextafter(rx, rng.choice([-np.inf, np.inf]))
                values[0:2] = (rx, target[1] - reach * np.sin(theta))
                if carried >= 0:
                    values[4 + 2 * carried: 6 + 2 * carried] = values[0:2]
                state = StateVec(values.tolist())
                ref = reference_greedy_expert_action(env, state, task)
                got = greedy_expert_action(env, state, task)
                assert got.tobytes() == ref.tobytes(), values
                delta = target - values[0:2]
                outcomes.add((reach, bool(np.linalg.norm(delta) <= reach)))
    assert len(outcomes) == 6  # both sides of each of the three radii


@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
def test_sample_macro_matches_numpy_reference(noise):
    rng = np.random.default_rng(int(noise * 10) + 40)
    for world in (BlockNavEnv(), BlockNavEnv(object_count=3)):
        world_tasks = world.tasks()
        for horizon in (1, 4, 7):
            prior = ScriptedExpertPrior(world, horizon, noise)
            for case in range(150):
                task = world_tasks[case % len(world_tasks)]
                obs = world.observe(StateVec(random_expert_values(world, task, rng).tolist()))
                draws, ref_draws = (np.random.default_rng(case) for _ in range(2))
                got = prior.sample_macro(obs, task, draws)
                ref = reference_sample_macro(world, horizon, noise, obs, task, ref_draws)
                assert np.shape(got) == ref.shape == (horizon, 3)
                assert np.asarray(got, dtype=float).tobytes() == ref.tobytes()
                if noise == 0.0:  # the noisy expert draws ahead of its rows
                    assert draws.random() == ref_draws.random()


def test_run_expert_episode_matches_numpy_reference():
    for world in (BlockNavEnv(), BlockNavEnv(object_count=3)):
        for seed, task in enumerate(world.tasks() * 4):
            states, actions, success = run_expert_episode(world, task, seed)
            ref_states, ref_actions, ref_success = reference_run_expert_episode(
                world, task, seed)
            assert success == ref_success
            assert actions.shape == ref_actions.shape
            assert actions.tobytes() == ref_actions.tobytes()
            assert np.array(states).tobytes() == np.array(ref_states).tobytes()


def test_expert_on_custom_tasks_matches_reference(env, tasks):
    # the expert tests the task's own predicate, also one that differs from
    # the region test
    def near_centre(state):
        return bool(np.linalg.norm(robot_position(state) - 5.0) <= 1.5)

    custom = []
    for task in tasks:
        custom += [task, dataclasses.replace(task, goal_predicate=near_centre)]
    rng = np.random.default_rng(5)
    goals = 0
    for i in range(2_400):
        task = custom[i % len(custom)]
        state = StateVec(random_expert_values(env, task, rng).tolist())
        ref = reference_greedy_expert_action(env, state, task)
        assert greedy_expert_action(env, state, task).tobytes() == ref.tobytes()
        goals += task.goal_predicate(state)
        noise = (0.0, 0.3, 1.0)[i % 3]
        draws, ref_draws = np.random.default_rng(i), np.random.default_rng(i)
        obs = env.observe(state)
        got = ScriptedExpertPrior(env, 4, noise).sample_macro(obs, task, draws)
        assert np.asarray(got, dtype=float).tobytes() == reference_sample_macro(
            env, 4, noise, obs, task, ref_draws).tobytes()
        if noise == 0.0:  # the noisy expert draws ahead of its rows
            assert draws.random() == ref_draws.random()
    assert goals >= 50


def test_expert_refuses_a_task_with_no_target(env, tasks):
    # the expert steers for task.target, so a task without one is a broken
    # contract named at both entry points, not a KeyError or AttributeError
    task = TaskSpec("untargeted", "go nowhere", lambda state: False)
    obs = env.observe(env.reset(0, tasks[0].task_id))
    with pytest.raises(ContractViolationError,
                       match="ScriptedExpertPrior: task 'untargeted' has no target"):
        ScriptedExpertPrior(env, 4).sample_macro(obs, task, np.random.default_rng(0))
    with pytest.raises(ContractViolationError,
                       match="ScriptedExpertPrior: task 'untargeted' has no target"):
        run_expert_episode(env, task, 0)


# -- where a goal is tested ----------------------------------------------------
#
# A built-in goal reads only the carried index and its object's position, and
# that object moves only while carried, when the goal is false.  So the kernel
# tests one only after the first row and after each pick or drop, and the expert
# keeps its last answer until a row changes the carried slot.  A custom goal,
# including one wrapped or installed with dataclasses.replace, is tested at
# every row.  The per-row references below test the goal at every row.

def region_goal_calls(run):
    """``run()``'s result and the step counts of the states on which a
    built-in goal was called while it ran."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is RegionGoal.reached.__code__:
            calls.append(frame.f_locals["state"].step_count)

    sys.setprofile(profile)
    try:
        return run(), calls
    finally:
        sys.setprofile(None)


def wandering_macro(world, task, state, rng, length):
    """``length`` rows that head for objects and regions in turn, closing the
    gripper at an object and opening it at a region, with some random rows:
    picks, drops and re-picks of the same or another object in mid-macro."""
    obj, region = task.target.obj, task.target.region
    rows, target = [], None
    for _ in range(length):
        v = state.values
        if target is None or rng.random() < 0.03:
            if rng.random() < 0.5:
                kind = "object"
                index = obj if rng.random() < 0.5 else int(rng.integers(world.object_count))
            else:
                kind = "region"
                index = region if rng.random() < 0.5 else int(rng.integers(len(world.regions)))
        if rng.random() < 0.15:
            dx, dy = rng.uniform(-0.6, 0.6, size=2).tolist()
            row = (dx, dy, float(rng.choice([-1.0, 0.0, 1.0, 0.5, -0.5])))
        else:
            tx, ty = (v[4 + 2 * index: 6 + 2 * index] if kind == "object"
                      else world.regions[index].tolist())
            dx, dy = tx - v[0], ty - v[1]
            near = math.hypot(dx, dy) <= 0.3
            grip = (1.0 if near else -1.0) if kind == "object" else (-1.0 if near else 0.0)
            row = (float(np.clip(dx, -0.5, 0.5)), float(np.clip(dy, -0.5, 0.5)), grip)
            target = None if near and rng.random() < 0.7 else target
        rows.append(row)
        state = world.step(state, row)
    return rows


def start_for(world, task, rng):
    """A random state, in a third of cases with the task's object in its region."""
    values = random_state_values(world, rng)
    if rng.random() < 0.35:
        obj = task.target.obj
        centre = np.array([task.target.cx, task.target.cy])
        values[4 + 2 * obj: 6 + 2 * obj] = centre + rng.uniform(-0.4, 0.4, size=2)
        values[3] = float(rng.choice([-1.0] + [i for i in range(world.object_count) if i != obj]))
    return StateVec(values.tolist(), int(rng.integers(50)))


def steering_elsewhere(world, task):
    """The task of the next object and region after ``task``'s, with its predicate
    replaced by the ``reached`` of a new RegionGoal equal to ``task``'s target: a
    built-in goal of another object and region than the task steers for."""
    t = task.target
    other = world.task_by_id(f"move_obj{(t.obj + 1) % world.object_count}"
                             f"_to_region{(t.region + 1) % len(world.regions)}")
    return dataclasses.replace(other, goal_predicate=dataclasses.replace(t).reached)


def check_run_macro_goal_tests(other):
    """For every built-in task with 2 to 4 objects, from goal and non-goal
    starts, on macros of 1 to 300 rows: run_macro gives the state, flag and
    count of step folded row by row with the goal tested after each, and
    calls the goal only after the first row and after each pick or drop.
    ``advance`` on a copy of the start gives the same, bit for bit, in the
    copy.  With ``other``, the task run is ``steering_elsewhere``'s."""
    rng = np.random.default_rng(47)
    seen = dict.fromkeys(["goal_start", "non_goal_start", "goal_after_row_1", "goal_at_drop",
                          "one_row", "300_rows", "pick", "drop", "re_pick", "other_pick"], 0)
    for count in (2, 3, 4):
        world = BlockNavEnv(object_count=count)
        for task in world.tasks() * 25:
            run = steering_elsewhere(world, task) if other else task
            state = start_for(world, task, rng)
            length = int(rng.choice([1, 2, 4, 7, 20, 60, 150, 300]))
            macro = wandering_macro(world, task, state, rng, length)
            before = list(state.values)
            ref, ref_ok, carried = state, False, [int(state.values[3])]
            for row in macro:
                ref = world.step(ref, row)
                carried.append(int(ref.values[3]))
                if task.goal_predicate(ref):
                    ref_ok = True
                    break
            used = len(carried) - 1
            (got, ok, got_used), calls = region_goal_calls(
                lambda: world.run_macro(state, macro, run))
            assert np.array(got.values).tobytes() == np.array(ref.values).tobytes()
            assert (got.step_count, ok, got_used) == (ref.step_count, ref_ok, used)
            assert state.values == before
            changed = [i for i in range(1, used + 1) if i == 1 or carried[i] != carried[i - 1]]
            assert calls == [state.step_count + i for i in changed]
            own = state.copy()
            (moved, moved_ok, moved_used), moved_calls = region_goal_calls(
                lambda: world.advance(own, macro, run))
            assert moved is own
            assert np.array(moved.values).tobytes() == np.array(got.values).tobytes()
            assert (moved.step_count, moved_ok, moved_used) == (got.step_count, ok, got_used)
            assert moved_calls == calls
            seen["goal_start" if task.goal_predicate(state) else "non_goal_start"] += 1
            seen["goal_after_row_1"] += ok and used > 1
            seen["goal_at_drop"] += ok and carried[-2] >= 0 > carried[-1]
            seen["one_row"] += length == 1
            seen["300_rows"] += length == 300
            held = [c for c in carried if c >= 0]
            picks = [i for i in range(1, used + 1) if carried[i] >= 0 > carried[i - 1]]
            seen["pick"] += bool(picks)
            seen["drop"] += any(carried[i] < 0 <= carried[i - 1] for i in range(1, used + 1))
            seen["re_pick"] += len(picks) > 1
            seen["other_pick"] += len(set(held)) > 1
    assert min(seen.values()) >= 20, seen


def test_run_macro_tests_a_built_in_goal_only_where_it_can_change():
    check_run_macro_goal_tests(other=False)


def test_run_macro_tests_any_region_goal_only_where_it_can_change():
    # a built-in goal is any RegionGoal's reached, not only its task's target's
    check_run_macro_goal_tests(other=True)


def per_row_sample_macro(env, horizon, noise, obs, task, rng):
    """The expert's macro with the goal tested before every non-noise row, and
    for each row whether it was noise and the carried index after it."""
    act, state, rows, noisy, carried = expert_values(env, task), StateVec(list(obs)), [], [], []
    high = env.max_step
    for _ in range(horizon):
        noisy.append(noise > 0.0 and rng.random() < noise)
        if noisy[-1]:
            ux, uy, ug = rng.random(3).tolist()
            action = -high + (high + high) * ux, -high + (high + high) * uy, -1.0 + 2.0 * ug
        else:
            action = act(state)
        state = env.step(state, action)
        rows.append(action)
        carried.append(state.values[3])
    return rows, noisy, carried


def check_sample_macro_goal_tests(noise, other):
    """The expert gives the rows of the per-row controller bit for bit, and at
    noise 0 leaves the generator untouched as it does, but calls a built-in goal only
    before its first non-noise row and the first after each pick or drop.
    With ``other``, the task is ``steering_elsewhere``'s."""
    rng = np.random.default_rng(int(noise * 10) + 60)
    seen = dict.fromkeys(["release", "pick", "drop", "retested"], 0)
    for count in (2, 3, 4):
        world = BlockNavEnv(object_count=count)
        world_tasks = world.tasks()
        for case in range(240):
            task = world_tasks[case % len(world_tasks)]
            if other:
                task = steering_elsewhere(world, task)
            horizon = (1, 4, 12, 40)[case % 4]
            obs = world.observe(StateVec(random_expert_values(world, task, rng).tolist()))
            draws, ref_draws = (np.random.default_rng(case) for _ in range(2))
            prior = ScriptedExpertPrior(world, horizon, noise)
            got, calls = region_goal_calls(lambda: prior.sample_macro(obs, task, draws))
            ref, noisy, carried = per_row_sample_macro(world, horizon, noise, obs, task, ref_draws)
            assert np.array(got).tobytes() == np.array(ref).tobytes()
            if noise == 0.0:  # the noisy expert draws ahead of its rows
                assert draws.bit_generator.state == ref_draws.bit_generator.state
            expected, stale, before = [], True, [obs[3]] + carried
            for i in range(horizon):
                if stale and not noisy[i]:
                    expected.append(i)
                    stale = False
                stale = stale or before[i + 1] != before[i]
            assert calls == expected
            seen["release"] += (0.0, 0.0, -1.0) in got
            seen["pick"] += any(c < 0 <= d for c, d in zip(before, before[1:]))
            seen["drop"] += any(d < 0 <= c for c, d in zip(before, before[1:]))
            seen["retested"] += len(calls) > 1
    if noise == 1.0:  # every row is noise, so the goal is never called
        seen.pop("release"), seen.pop("retested")
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
def test_sample_macro_tests_a_built_in_goal_only_where_it_can_change(noise):
    check_sample_macro_goal_tests(noise, other=False)


@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
def test_sample_macro_tests_any_region_goal_only_where_it_can_change(noise):
    # the expert steers for task.target and tests whichever RegionGoal the
    # predicate is bound to, each only where its answer can change
    check_sample_macro_goal_tests(noise, other=True)


def test_a_wrapped_or_replaced_goal_is_tested_at_every_row(env, tasks):
    # a built-in goal is known by its __self__, which no wrapper has: a goal
    # installed with dataclasses.replace, a plain wrapper of the built-in
    # goal and a functools.wraps wrapper that changes its meaning are each
    # tested after every row of run_macro and before every non-noise row of
    # sample_macro
    task = tasks[0]
    built_in, calls = task.goal_predicate, []

    def robot_right(state):
        calls.append(state.step_count)
        return bool(state.values[0] >= 6.0)

    def plain(state):
        calls.append(state.step_count)
        return built_in(state)

    @functools.wraps(built_in)
    def built_in_or_right(state):
        calls.append(state.step_count)
        return bool(state.values[0] >= 6.0) or built_in(state)

    assert built_in_or_right.__wrapped__ is built_in
    assert built_in_or_right.__qualname__ == built_in.__qualname__
    start = env.reset(0, task.task_id)
    macro = [(0.5, 0.0, -1.0)] * 6
    for goal, stop in ((robot_right, 2), (plain, None), (built_in_or_right, 2)):
        replaced = dataclasses.replace(task, goal_predicate=goal)
        ref, ref_ok, ref_used, _ = reference_step_macro(
            lambda s, a: reference_step(env, s, a), goal, start, macro)
        assert (ref_ok, ref_used) == ((True, stop) if stop else (False, 6))
        calls.clear()
        got, ok, used = env.run_macro(start, macro, replaced)
        assert (ok, used) == (ref_ok, ref_used)
        assert np.array(got.values).tobytes() == np.array(ref.values).tobytes()
        assert calls == list(range(1, used + 1))
        for noise, seed in ((0.0, 0), (0.5, 1), (0.5, 2)):
            twin, non_noise = np.random.default_rng(seed), []
            for row in range(8):
                if twin.random() < noise:
                    twin.random(3)
                else:
                    non_noise.append(row)
            calls.clear()
            got = ScriptedExpertPrior(env, 8, noise).sample_macro(
                env.observe(start), replaced, np.random.default_rng(seed))
            assert calls == non_noise
            assert len(non_noise) == 8 if noise == 0.0 else 0 < len(non_noise) < 8
            ref, _, _ = per_row_sample_macro(env, 8, noise, env.observe(start), replaced,
                                             np.random.default_rng(seed))
            assert np.array(got).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("lo,hi", [(-0.5, 0.5), (-0.37, 0.37), (-1.0, 1.0), (-0.35, 0.35)])
def test_uniform_matches_rng_uniform_stream(lo, hi):
    # at noise 1 every row of the expert's macro is rng.random() (the noise
    # draw), then rng.uniform(lo, hi) twice and rng.uniform(-1, 1), which it
    # computes from the next three uniforms; the values must match rng.uniform's,
    # and the generator stands at the end of the last block of 64 the expert drew
    world = BlockNavEnv(max_step=hi)
    prior, task = ScriptedExpertPrior(world, 50, 1.0), world.tasks()[0]
    draws, ref_draws = np.random.default_rng(77), np.random.default_rng(77)
    obs = world.observe(world.reset(0, task.task_id))
    got = np.concatenate([prior.sample_macro(obs, task, draws) for _ in range(500)])
    ref = []
    for _ in range(len(got)):
        assert ref_draws.random() < 1.0
        ref.append([ref_draws.uniform(lo, hi), ref_draws.uniform(lo, hi),
                    ref_draws.uniform(-1.0, 1.0)])
    assert got.tobytes() == np.array(ref).tobytes()
    ref_draws.random(-4 * len(got) % 64)
    assert draws.random() == ref_draws.random()


@pytest.mark.parametrize("noise,horizon", [(0.3, 4), (1.0, 20)])
def test_noisy_expert_replies_as_scalar_draws_per_row(noise, horizon):
    # it draws its uniforms a block at a time; each reply is still that of one
    # rng.random() per row, and rng.uniform three times for a noise row, on a twin
    # generator, across queries on one generator, switches to a new one and, at
    # H = 20 and noise 1 (80 uniforms a query), a refill inside one query
    world = BlockNavEnv(object_count=3)
    prior, world_tasks = ScriptedExpertPrior(world, horizon, noise), world.tasks()
    states = np.random.default_rng(12)
    for seed, queries in enumerate([1, 150, 1, 3]):
        draws, ref_draws = np.random.default_rng(seed), np.random.default_rng(seed)
        for query in range(queries):
            task = world_tasks[query % len(world_tasks)]
            obs = world.observe(StateVec(random_expert_values(world, task, states).tolist()))
            got = prior.sample_macro(obs, task, draws)
            assert np.asarray(got, dtype=float).tobytes() == reference_sample_macro(
                world, horizon, noise, obs, task, ref_draws).tobytes()


def test_expert_steps_a_query_in_one_kernel_pass(env, tasks, monkeypatch):
    # one entry into the kernel per query, so its entry checks run once
    kernel, calls = BlockNavEnv._step_rows, []

    def counted(self, state, rows, goal, what):
        calls.append(what)
        return kernel(self, state, rows, goal, what)

    monkeypatch.setattr(BlockNavEnv, "_step_rows", counted)
    for noise in (0.0, 0.5, 1.0):
        prior = ScriptedExpertPrior(env, 20, noise)
        for seed, task in enumerate(tasks):
            calls.clear()
            obs = env.observe(env.reset(seed, task.task_id))
            macro = prior.sample_macro(obs, task, np.random.default_rng(seed))
            assert len(macro) == 20 and calls == ["ScriptedExpertPrior.sample_macro"]
