import dataclasses
import itertools
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from vlaps.errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateLibraryError,
)
from vlaps.macrolib import (
    _MAX_SWAP_PASSES,
    MacroLibrary,
    Trajectory,
    _pairwise_distances,
    _swap,
    build_library,
    load_trajectories,
    pam_objective,
    save_trajectories,
    segment_trajectories,
)
from vlaps.world import CheckedMacro


def _traj(n_steps, success=True, task_id="t"):
    rng = np.random.default_rng(n_steps)
    actions = rng.normal(size=(n_steps, 3))
    states = [rng.normal(size=4) for _ in range(n_steps)]
    return Trajectory(states, actions, success, task_id)


def rho(u1, u2, per_dim_mean=None, per_dim_std=None):
    """The macro distance rho(u1, u2) as the library measures it: from the one
    prototype u1 to u2, with identity statistics unless others are given."""
    dim = np.shape(u1)[-1]
    lib = MacroLibrary(np.asarray([u1], dtype=float),
                       np.zeros(dim) if per_dim_mean is None else per_dim_mean,
                       np.ones(dim) if per_dim_std is None else per_dim_std)
    return float(lib.distances_to(u2)[0])


def test_rho_identity_and_example():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert rho(u, u) == 0.0
    u1 = np.zeros((2, 2))
    u2 = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert rho(u1, u2) == pytest.approx(5.0)


def test_rho_symmetry_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=(2, 3, 2))
        assert rho(a, b) == pytest.approx(rho(b, a))


def test_rho_shape_mismatch():
    with pytest.raises(ContractViolationError):
        rho(np.zeros((2, 2)), np.zeros((3, 2)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=12, max_size=12))
def test_rho_is_a_metric(flat):
    a, b, c = (np.array(flat[i * 4:(i + 1) * 4]).reshape(2, 2) for i in range(3))
    dab, dbc, dac = rho(a, b), rho(b, c), rho(a, c)
    assert dab >= 0.0
    assert dac <= dab + dbc + 1e-9
    if np.array_equal(a, b):
        assert dab == 0.0


def test_rho_normalized_coordinates():
    mean = np.array([0.0, 0.0])
    std = np.array([2.0, 1.0])
    u1 = np.zeros((1, 2))
    u2 = np.array([[4.0, 3.0]])
    assert rho(u1, u2, mean, std) == pytest.approx(np.hypot(2.0, 3.0))


def test_segment_counts():
    assert len(segment_trajectories([_traj(9)], 4)) == 2
    assert segment_trajectories([_traj(9, success=False)], 4) == []
    trajs = [_traj(100) for _ in range(50)]
    assert len(segment_trajectories(trajs, 4)) == 50 * 25
    assert segment_trajectories([], 4) == []


def test_segment_bad_horizon():
    with pytest.raises(ConfigurationError):
        segment_trajectories([_traj(9)], 0)


def test_segment_preserves_order():
    traj = _traj(8)
    macros = segment_trajectories([traj], 4)
    assert np.array_equal(macros[0], traj.actions[:4])
    assert np.array_equal(macros[1], traj.actions[4:8])


def _random_macros(count, horizon=2, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(horizon, dim)) for _ in range(count)]


def test_build_saturation():
    macros = _random_macros(6)
    lib = build_library(macros, 6, seed=0)
    assert lib.m == 6
    got = sorted(map(tuple, lib.prototypes.reshape(6, -1)))
    want = sorted(map(tuple, np.asarray(macros).reshape(6, -1)))
    assert np.allclose(got, want)


def test_build_medoids_are_input_members():
    macros = _random_macros(40, seed=3)
    lib = build_library(macros, 5, seed=0)
    flat_inputs = {tuple(m.ravel()) for m in macros}
    for proto in lib.prototypes:
        assert tuple(proto.ravel()) in flat_inputs


def test_build_three_clusters_matches_brute_force():
    # 3 well-separated 1-D clusters; PAM must find the exhaustive optimum
    rng = np.random.default_rng(1)
    points = np.concatenate([
        rng.normal(0.0, 0.1, 5), rng.normal(10.0, 0.1, 5), rng.normal(20.0, 0.1, 5),
    ])
    macros = [np.array([[p]]) for p in points]
    lib = build_library(macros, 3, seed=0)
    centers = sorted(lib.prototypes.ravel())
    assert centers[0] < 1 and 9 < centers[1] < 11 and centers[2] > 19

    flat = ((points - lib.per_dim_mean[0]) / lib.per_dim_std[0]).reshape(-1, 1)
    dist = cdist(flat, flat)
    medoid_idx = [int(np.argmin(np.abs(points - p))) for p in lib.prototypes.ravel()]
    pam_cost = dist[:, medoid_idx].min(axis=1).sum()
    best = min(
        dist[:, list(combo)].min(axis=1).sum()
        for combo in itertools.combinations(range(len(points)), 3)
    )
    assert pam_cost == pytest.approx(best)


def reference_swap(dist, medoids, history):
    """PAM's SWAP as one cost vector per medoid slot: the rule ``_swap`` must
    reproduce bit for bit (the same medoids and the same history)."""
    n_points = dist.shape[0]
    cost = pam_objective(dist, medoids)
    if history is not None:
        history.append(cost)
    for _ in range(_MAX_SWAP_PASSES):
        med_dist = dist[:, medoids]
        order = np.argsort(med_dist, axis=1)
        nearest_pos = order[:, 0]
        nearest_d = med_dist[np.arange(n_points), nearest_pos]
        second_d = med_dist[np.arange(n_points), order[:, 1]]
        non_medoids = np.setdiff1d(np.arange(n_points), medoids)

        best_cost, best_swap = cost, None
        for pos in range(len(medoids)):
            without_j = np.where(nearest_pos == pos, second_d, nearest_d)
            cand_costs = np.minimum(dist[:, non_medoids], without_j[:, None]).sum(axis=0)
            h = int(np.argmin(cand_costs))
            if cand_costs[h] < best_cost - 1e-12:
                best_cost, best_swap = float(cand_costs[h]), (pos, int(non_medoids[h]))
        if best_swap is None:
            break
        medoids = medoids.copy()
        medoids[best_swap[0]] = best_swap[1]
        medoids = np.sort(medoids)
        cost = best_cost
        if history is not None:
            history.append(cost)
    return medoids, cost


def swap_cases(count=300, seed=0):
    """Seeded (distance matrix, initial medoids) pairs; every third one holds
    points on a small integer grid, where equal swap costs are common."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n_points = int(rng.integers(6, 40))
        dim = int(rng.integers(1, 4))
        if case % 3 == 0:
            points = rng.integers(0, 4, size=(n_points, dim)).astype(float)
        else:
            points = rng.normal(size=(n_points, dim))
        m = int(rng.integers(2, min(9, n_points)))
        yield cdist(points, points), np.sort(rng.choice(n_points, size=m, replace=False))


def tie_cases(count=100, seed=1):
    """Seeded pairs on 1-D or 2-D coordinates rounded to quarters, which are
    exact in binary: many points lie at one distance from two medoids."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_points = int(rng.integers(6, 40))
        points = np.round(rng.normal(size=(n_points, int(rng.integers(1, 3)))) * 4) / 4
        m = int(rng.integers(2, min(9, n_points)))
        yield cdist(points, points), np.sort(rng.choice(n_points, size=m, replace=False))


@pytest.mark.parametrize("scale", [1.0, 1e9, 1e6, 1e-6, 1e-11])
def test_swap_matches_slot_by_slot_reference(scale):
    # the contender margin scales with the cost, so it covers rounding at
    # large scales (a fixed 1e-8 margin fails at 1e9), and it never falls
    # below the fixed 1e-12 acceptance step (a purely relative one fails at 1e-11);
    # a point whose two nearest medoids tie may have either as its nearest
    tied = 0
    for dist, init in itertools.chain(swap_cases(), tie_cases()):
        dist = dist * scale
        nearest = np.partition(dist[:, init], 1, axis=1)
        tied += bool(((nearest[:, 0] == nearest[:, 1]) & (nearest[:, 0] > 0)).any())
        want_history = []
        want, want_cost = reference_swap(dist, init, want_history)
        got, got_costs = _swap(dist, init)
        assert np.array_equal(got, want)
        assert got_costs == want_history and got_costs[-1] == want_cost
        # every accepted swap lowers the objective
        assert all(b < a for a, b in zip(got_costs, got_costs[1:]))
    assert tied >= 50


@pytest.mark.parametrize("n_rows, n_cols, scale", [
    (1, 5, 1.0), (40, 1, 1.0), (30, 7, 1e-3), (30, 7, 1e3),
    (50, 12, 1e-150), (50, 12, 1e150), (1000, 12, 1.0),
])
def test_pairwise_distances_match_cdist_bytes(n_rows, n_cols, scale):
    # PAM's medoids hang on exact ties and sums, so the library's distance
    # matrix must be cdist's to the last bit; the second half of the rows
    # repeats the first
    rng = np.random.default_rng(n_rows * 31 + n_cols)
    points = rng.normal(size=(n_rows, n_cols)) * scale
    points[n_rows // 2:] = points[:n_rows - n_rows // 2]
    for flat in (points, np.round(points / scale, 1) * scale):
        assert _pairwise_distances(flat).tobytes() == cdist(flat, flat).tobytes()


def test_build_errors():
    macros = _random_macros(5)
    with pytest.raises(ConfigurationError):
        build_library(macros, 6, seed=0)  # m > candidate count
    with pytest.raises(ConfigurationError):
        build_library(macros, 1, seed=0)  # m < 2
    same = [np.ones((2, 2)) for _ in range(10)]
    with pytest.raises(DegenerateLibraryError):
        build_library(same, 3, seed=0)


def test_build_deterministic_under_subsampling(monkeypatch):
    monkeypatch.setattr("vlaps.macrolib._MAX_PAM_CANDIDATES", 20)
    macros = _random_macros(50, seed=9)
    a = build_library(macros, 4, seed=5)
    b = build_library(macros, 4, seed=5)
    assert np.array_equal(a.prototypes, b.prototypes)


def test_std_clamp_on_constant_dimension():
    rng = np.random.default_rng(2)
    macros = [np.column_stack([rng.normal(size=2), np.ones(2)]) for _ in range(10)]
    lib = build_library(macros, 3, seed=0)
    assert lib.per_dim_std[1] == 1.0


def test_library_json_round_trip(library, tmp_path):
    path = tmp_path / "lib.json"
    library.save(path)
    loaded = MacroLibrary.load(path)
    assert np.array_equal(loaded.prototypes, library.prototypes)
    assert np.array_equal(loaded.per_dim_mean, library.per_dim_mean)
    assert np.array_equal(loaded.per_dim_std, library.per_dim_std)


def test_library_rows_are_immutable_tuples_of_python_floats(library, tmp_path):
    # the search steps lib.rows and the uniform prior replies with them, so
    # they are the prototypes' floats, checked once, and nobody can change them
    path = tmp_path / "lib.json"
    library.save(path)
    for lib in (library, MacroLibrary.load(path), pickle.loads(pickle.dumps(library))):
        assert lib.rows == tuple(tuple(map(tuple, p)) for p in lib.prototypes.tolist())
        assert len(lib.rows) == lib.m and all(type(p) is CheckedMacro for p in lib.rows)
        assert all(type(row) is tuple and len(row) == lib.action_dim
                   for p in lib.rows for row in p)
        assert {type(x) for p in lib.rows for row in p for x in row} == {float}
        with pytest.raises(TypeError):
            lib.rows[0][0][0] = 1.0
        with pytest.raises(TypeError):
            lib.rows[0][0] = (0.0, 0.0, 0.0)
        with pytest.raises(TypeError):
            lib.rows[0] = lib.rows[1]


def test_library_version_check(library, tmp_path):
    data = library.to_json()
    data["format_version"] = 99
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError):
        MacroLibrary.load(path)


def test_trajectory_jsonl_round_trip(tmp_path):
    trajs = [_traj(7, task_id="a"), _traj(5, success=False, task_id="b")]
    path = tmp_path / "trajs.jsonl"
    save_trajectories(trajs, path)
    record = json.loads(path.read_text().splitlines()[0])
    assert set(record) >= {"state", "action", "reward"}
    loaded = load_trajectories(path)
    assert len(loaded) == 2
    for orig, back in zip(trajs, loaded):
        assert np.allclose(orig.actions, back.actions)
        assert orig.success == back.success
        assert orig.task_id == back.task_id


@pytest.mark.parametrize("action", [["0.5", 0.0, 1.0], [0.5, True, 1.0], [0.5, 0.0, False]])
def test_trajectory_action_of_strings_or_bools_is_config_error(action, tmp_path):
    # check_macro's rule: numpy would read "0.5" and true as numbers
    path = tmp_path / "trajs.jsonl"
    save_trajectories([_traj(3)], path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["action"] = action
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=r"trajs\.jsonl:2: .*not numeric"):
        load_trajectories(path)


def test_trajectory_state_of_strings_or_bools_is_config_error(tmp_path):
    # a state is read by the same rule, as a row as wide as the file's first state
    path = tmp_path / "trajs.jsonl"
    path.write_text(json.dumps({"traj_id": 0, "success": True, "state": ["1", True, 2],
                                "action": [0.0, 0.0, 1.0]}) + "\n")
    with pytest.raises(ConfigurationError, match=r"trajs\.jsonl:1: .*state .*not numeric"):
        load_trajectories(path)


@pytest.mark.parametrize("name", ["prototypes", "per_dim_mean", "per_dim_std"])
@pytest.mark.parametrize("bad", ["0", False, True, "1"])
def test_library_numbers_of_strings_or_bools_are_config_error(library, tmp_path, name, bad):
    data = library.to_json()
    if name == "prototypes":
        data[name][2][1][0] = bad
    else:
        data[name][1] = bad
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match=rf"lib\.json: .*{name}.* is not numeric"):
        MacroLibrary.load(path)


def test_library_arrays_are_frozen_copies(library):
    with pytest.raises(ValueError):
        library.prototypes[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        library.per_dim_std[0] = 2.0
    with pytest.raises(ValueError):
        library.per_dim_mean[0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        library.prototypes = np.zeros_like(library.prototypes)
    # the library does not alias the caller's arrays
    protos = np.arange(12.0).reshape(3, 2, 2)
    std = np.ones(2)
    lib = MacroLibrary(protos, np.zeros(2), std)
    before = lib.distances_to(np.zeros((2, 2)))
    protos[0] = 100.0
    std[:] = 3.0
    assert np.array_equal(lib.distances_to(np.zeros((2, 2))), before)
    assert lib.per_dim_std[0] == 1.0


def test_distances_to_matches_fresh_normalization(library):
    rng = np.random.default_rng(4)
    m = library.m
    fresh = library.normalize(library.prototypes).reshape(m, -1)
    for _ in range(50):
        macro = rng.normal(size=(library.horizon, library.action_dim))
        target = library.normalize(macro).ravel()
        expected = np.linalg.norm(fresh - target, axis=1)
        assert library.distances_to(macro).tobytes() == expected.tobytes()
