"""Macro-action representation, distance metric, and prototype library.

A macro-action is an ``(H, n)`` array of primitive actions.  The library is a
finite prototype set extracted from demonstration trajectories by PAM-style
K-Medoids (greedy BUILD initialization followed by best-improvement SWAP
passes), run on per-dimension-normalized flattened macros.  Their distances
are summed column by column, in order, as SciPy's ``cdist`` sums them, bit for bit.

A SWAP pass prices every (medoid slot, candidate) swap at once with FastPAM1
(Schubert & Rousseeuw, "Faster k-Medoids Clustering: Improving the PAM, CLARA,
and CLARANS Algorithms", SISAP 2019).  Those costs only pick the contending
cells, the (slot, candidate) swaps within a relative margin of the lowest; each
contending cell is recomputed exactly, summed as the whole cost matrix sums its
column, and the slot-by-slot acceptance rule runs over them, so the medoids and
the objective after every swap are bit-identical to plain PAM's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateLibraryError,
    VlapsError,
)
from .world import CheckedMacro, check_macro

LIBRARY_FORMAT_VERSION = 1
_STD_CLAMP = 1e-12  # dimensions with smaller spread are treated as constant
_MAX_PAM_CANDIDATES = 1000
# SWAP's guard against a hang, not a setting: it allows max(100, 4 * m) swaps, where
# the default library's searches take 7 to 37 and 1,000 random macros at m = 256
# took 181 to 205
_MAX_SWAP_PASSES = 100
_SWAP_PASSES_PER_MEDOID = 4
# most of a default build, but without them acceptance criterion 4 finds 15 of
# 20 brute-force optima, worst ratio 1.0428, where it asks >= 18 and <= 1.05
_PAM_RESTARTS = 8
# a swap cell (medoid slot, candidate) whose FastPAM1 cost is within this fraction
# of the lowest one (at least this much in absolute terms) is recomputed exactly
_FASTPAM_MARGIN = 1e-8


@dataclass
class Trajectory:
    """A logged episode: per-step states and actions plus the outcome flag."""

    states: list
    actions: np.ndarray  # (T, n)
    success: bool
    task_id: str = ""

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=float)
        if len(self.states) != len(self.actions):
            raise ContractViolationError(
                f"{len(self.states)} states vs {len(self.actions)} actions"
            )
        if len(self.actions) == 0:
            raise ContractViolationError("trajectory must be non-empty")


def save_trajectories(trajs: Iterable[Trajectory], path) -> None:
    """Write JSON-lines: one record per primitive step {state, action, reward}."""
    with open(path, "w") as fh:
        for ti, traj in enumerate(trajs):
            last = len(traj.actions) - 1
            for si, (state, action) in enumerate(zip(traj.states, traj.actions)):
                record = {
                    "traj_id": ti,
                    "task_id": traj.task_id,
                    "success": bool(traj.success),
                    "state": np.asarray(state, dtype=float).tolist(),
                    "action": action.tolist(),
                    # sparse reward is only attainable on the terminal step
                    "reward": 1.0 if (traj.success and si == last) else 0.0,
                }
                fh.write(json.dumps(record) + "\n")


def load_trajectories(path) -> list[Trajectory]:
    """Read the JSON lines ``save_trajectories`` writes; each state and each action
    must pass ``check_macro`` as a macro of one row, as wide as the file's first."""
    groups: dict[int, dict] = {}
    widths = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if type(rec["traj_id"]) not in (int, str):
                    raise TypeError(f"traj_id must be an integer or a string, "
                                    f"got {rec['traj_id']!r}")
                g = groups.setdefault(rec["traj_id"], {
                    "states": [], "actions": [], "success": rec["success"],
                    "task_id": rec.get("task_id", "")})
                if type(rec["success"]) is not bool or rec["success"] != g["success"]:
                    raise TypeError(f"success must be true or false, and the same on every "
                                    f"record of a trajectory; got {rec['success']!r}")
                if widths is None:
                    widths = len(rec["state"]), len(rec["action"])
                what = f"traj_id={rec['traj_id']!r}:"
                g["states"].append(check_macro([rec["state"]], widths[0], f"{what} state")[0])
                g["actions"].append(check_macro([rec["action"]], widths[1], f"{what} action")[0])
            except (KeyError, TypeError, ValueError, ContractViolationError) as exc:
                raise ConfigurationError(f"{path}:{lineno}: bad trajectory ({exc!r})") from exc
    try:
        ordered = sorted(groups.items())
    except TypeError as exc:
        raise ConfigurationError(f"{path}: traj_id values cannot be ordered ({exc})") from exc
    return [Trajectory(g["states"], np.array(g["actions"]), g["success"], g["task_id"])
            for _, g in ordered]


def segment_trajectories(trajs: Iterable[Trajectory], horizon: int) -> list[np.ndarray]:
    """Chop successful trajectories into non-overlapping macros of length H.

    A trailing remainder shorter than H is dropped; failed trajectories
    contribute nothing.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    macros = []
    for traj in trajs:
        if not traj.success:
            continue
        count = len(traj.actions) // horizon
        for c in range(count):
            macros.append(traj.actions[c * horizon:(c + 1) * horizon].copy())
    return macros


@dataclass(frozen=True)
class MacroLibrary:
    """Finite prototype set with its normalization statistics.

    It owns read-only copies of its arrays, so neither the normalized, flattened
    prototypes cached for ``distances_to`` nor ``rows`` (each a ``CheckedMacro``) go stale.
    """

    prototypes: np.ndarray  # (m, H, n), raw action units
    per_dim_mean: np.ndarray  # (n,)
    per_dim_std: np.ndarray  # (n,), strictly positive

    def __post_init__(self):
        for name in ("prototypes", "per_dim_mean", "per_dim_std"):
            array = np.array(getattr(self, name), dtype=float)
            if not np.isfinite(array).all():
                raise ContractViolationError(f"{name} must be finite")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        if self.prototypes.ndim != 3:
            raise ContractViolationError("prototypes must have shape (m, H, n)")
        if np.any(self.per_dim_std <= 0):
            raise ContractViolationError("per_dim_std must be strictly positive")
        flat = self.normalize(self.prototypes).reshape(self.m, -1)
        flat.setflags(write=False)
        object.__setattr__(self, "_normalized_flat", flat)
        rows = tuple(CheckedMacro(proto, self.action_dim, "MacroLibrary: prototype")
                     for proto in self.prototypes.tolist())
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return self.prototypes.shape[0]

    @property
    def horizon(self) -> int:
        return self.prototypes.shape[1]

    @property
    def action_dim(self) -> int:
        return self.prototypes.shape[2]

    def normalize(self, macros: np.ndarray) -> np.ndarray:
        return (np.asarray(macros, dtype=float) - self.per_dim_mean) / self.per_dim_std

    def distances_to(self, macro: np.ndarray) -> np.ndarray:
        """Distance from every prototype to ``macro``: the Euclidean norm of
        the flattened difference, each action dimension standardized first.  A macro
        too large to square is at distance inf from each, with no numpy warning."""
        macro = np.asarray(macro, dtype=float)
        if macro.shape != self.prototypes.shape[1:]:
            raise ContractViolationError(
                f"macro shape {macro.shape} != {self.prototypes.shape[1:]}"
            )
        with np.errstate(over="ignore"):
            # the bits np.linalg.norm(diff, axis=1) computes, without its conj copy
            diff = self._normalized_flat - self.normalize(macro).ravel()
            return np.sqrt(np.add.reduce(diff * diff, axis=1))

    def to_json(self) -> dict:
        return {
            "format_version": LIBRARY_FORMAT_VERSION,
            "H": self.horizon,
            "n": self.action_dim,
            "m": self.m,
            "per_dim_mean": self.per_dim_mean.tolist(),
            "per_dim_std": self.per_dim_std.tolist(),
            "prototypes": self.prototypes.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MacroLibrary":
        if data.get("format_version") != LIBRARY_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported library format_version {data.get('format_version')}"
            )
        # check_macro's rule for every number read: prototypes, and the statistics as one row
        n = data["n"]
        lib = cls(
            prototypes=np.array([check_macro(proto, n, f"prototypes[{i}]")
                                 for i, proto in enumerate(data["prototypes"])]),
            per_dim_mean=np.array(check_macro([data["per_dim_mean"]], n, "per_dim_mean")[0]),
            per_dim_std=np.array(check_macro([data["per_dim_std"]], n, "per_dim_std")[0]),
        )
        if lib.m != data["m"] or lib.horizon != data["H"] or lib.action_dim != n:
            raise ConfigurationError("library header does not match prototype array")
        return lib

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json()))

    @classmethod
    def load(cls, path) -> "MacroLibrary":
        try:
            return cls.from_json(json.loads(Path(path).read_text()))
        except (AttributeError, KeyError, TypeError, ValueError, VlapsError) as exc:
            raise ConfigurationError(f"{path}: bad macro library ({exc!r})") from exc


def build_library(macros: list[np.ndarray], m: int, seed: int) -> MacroLibrary:
    """Cluster a macro corpus into m medoid prototypes (PAM, deterministic).

    Normalization statistics are computed over all primitive actions of the
    input corpus; clustering runs in those normalized coordinates.  ``seed``,
    a non-negative integer, draws PAM's random restarts and the subsample of
    a corpus larger than ``_MAX_PAM_CANDIDATES``.
    """
    if seed < 0:
        raise ConfigurationError(f"library seed {seed} must be a non-negative integer")
    if m < 2:
        raise ConfigurationError(f"library size must be >= 2, got {m}")
    if len(macros) < m:
        raise ConfigurationError(
            f"need at least m={m} candidate macros, got {len(macros)}"
        )
    stack = np.asarray(macros, dtype=float)
    if stack.ndim != 3:
        raise ContractViolationError("macros must all share shape (H, n)")

    per_dim_mean = stack.reshape(-1, stack.shape[2]).mean(axis=0)
    per_dim_std = stack.reshape(-1, stack.shape[2]).std(axis=0)
    per_dim_std = np.where(per_dim_std < _STD_CLAMP, 1.0, per_dim_std)

    flat = ((stack - per_dim_mean) / per_dim_std).reshape(stack.shape[0], -1)
    _, unique_idx = np.unique(flat, axis=0, return_index=True)
    unique_idx = np.sort(unique_idx)
    if len(unique_idx) == 1:
        raise DegenerateLibraryError("all candidate macros are identical")
    if len(unique_idx) < m:
        raise ConfigurationError(
            f"only {len(unique_idx)} distinct macros available for m={m}"
        )
    stack, flat = stack[unique_idx], flat[unique_idx]

    if len(stack) > _MAX_PAM_CANDIDATES:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(stack), size=_MAX_PAM_CANDIDATES, replace=False))
        stack, flat = stack[keep], flat[keep]

    medoids = _pam(_pairwise_distances(flat), m, seed)
    return MacroLibrary(stack[medoids], per_dim_mean, per_dim_std)


def _pairwise_distances(flat: np.ndarray) -> np.ndarray:
    """Row-to-row Euclidean distances, summed in column order (``cdist``'s, bit for bit)."""
    total = np.zeros((len(flat), len(flat)))
    diff = np.empty_like(total)
    for column in flat.T:
        np.subtract(column[:, None], column, out=diff)
        total += np.multiply(diff, diff, out=diff)
    return np.sqrt(total, out=total)


def pam_objective(dist: np.ndarray, medoids: np.ndarray) -> float:
    """Total distance from every point to its nearest medoid."""
    return float(dist[:, medoids].min(axis=1).sum())


def _pam(dist: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Multi-start PAM: BUILD init plus seeded random restarts, best kept."""
    n_points = dist.shape[0]
    if m == n_points:
        return np.arange(n_points)

    # BUILD: greedily add the medoid giving the largest cost reduction
    medoids = [int(np.argmin(dist.sum(axis=1)))]
    nearest = dist[:, medoids[0]].copy()
    while len(medoids) < m:
        costs = np.minimum(dist, nearest[:, None]).sum(axis=0)
        costs[medoids] = np.inf
        best = int(np.argmin(costs))
        medoids.append(best)
        nearest = np.minimum(nearest, dist[:, best])

    best_medoids, costs = _swap(dist, np.array(sorted(medoids)))
    best_cost = costs[-1]

    rng = np.random.default_rng(seed)
    for _ in range(_PAM_RESTARTS):
        init = np.sort(rng.choice(n_points, size=m, replace=False))
        med, costs = _swap(dist, init)
        if costs[-1] < best_cost - 1e-12:
            best_medoids, best_cost = med, costs[-1]
    return best_medoids


def _swap(dist: np.ndarray, medoids: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Best-improvement SWAP passes until no swap lowers the objective; returns
    the sorted medoids and the objective at the start and after each swap.  A search
    still improving after ``max(_MAX_SWAP_PASSES, _SWAP_PASSES_PER_MEDOID * m)``
    swaps raises ``ContractViolationError`` rather than return unconverged medoids.
    Only the (slot, candidate) cells that FastPAM1 prices within the margin of the
    lowest are recomputed exactly, not each contending slot's whole row."""
    n_points = dist.shape[0]
    rows = np.arange(n_points)
    cost = pam_objective(dist, medoids)
    costs = [cost]

    for _ in range(max(_MAX_SWAP_PASSES, _SWAP_PASSES_PER_MEDOID * len(medoids))):
        # a point with two nearest medoids has nearest_d == second_d, so either
        # slot may be its nearest_pos: its loss is 0 and without_j the same
        med_dist = dist[:, medoids]
        nearest_pos = med_dist.argmin(axis=1)
        nearest_d = med_dist[rows, nearest_pos]
        med_dist[rows, nearest_pos] = np.inf
        second_d = med_dist.min(axis=1)
        is_medoid = np.zeros(n_points, dtype=bool)
        is_medoid[medoids] = True
        non_medoids = np.flatnonzero(~is_medoid)  # ascending: ties go low
        # a column gather is Fortran-ordered, and so is np.minimum over it or over a
        # gather of its columns: .sum(axis=0) sums each contiguous column on its own,
        # so the sums of a subset of cand's columns are the whole matrix's, bit for bit
        cand = dist[:, non_medoids]

        # FastPAM1: every (slot, candidate) cost at once, one shared column sum plus
        # each slot's loss over its nearest points, summed per cell in index order
        # by one bincount (no BLAS pool); loss is Fortran-ordered: loss.T.ravel() is a view
        keep = np.minimum(cand, nearest_d[:, None])
        loss = np.minimum(cand, second_d[:, None]) - keep
        width = len(non_medoids)
        cells = (np.arange(width)[:, None] + nearest_pos * width).ravel()
        approx = np.bincount(cells, loss.T.ravel(), len(medoids) * width).reshape(-1, width)
        approx += keep.sum(axis=0)
        slot_low = approx.min(axis=1)
        low = float(slot_low.min())
        bound = low + _FASTPAM_MARGIN * max(abs(low), 1.0)
        contenders = np.flatnonzero(slot_low <= bound)

        # FastPAM1 sums in another order, so its costs only pick the contending
        # cells: one outside the margin exceeds every cell within it by more than
        # rounding plus the 1e-12 step, so it can neither be taken nor change which
        # cell is.  Contending cells are recomputed as plain PAM sums them, under its rule.
        best_cost, best_swap = cost, None
        for pos in contenders.tolist():
            cols = np.flatnonzero(approx[pos] <= bound)
            without_j = np.where(nearest_pos == pos, second_d, nearest_d)
            cell_costs = np.minimum(cand[:, cols], without_j[:, None]).sum(axis=0)
            h = int(np.argmin(cell_costs))
            if cell_costs[h] < best_cost - 1e-12:
                best_cost, best_swap = float(cell_costs[h]), (pos, int(non_medoids[cols[h]]))
        if best_swap is None:
            return medoids, costs
        medoids = medoids.copy()
        medoids[best_swap[0]] = best_swap[1]
        medoids = np.sort(medoids)
        if best_cost > cost + 1e-12:
            raise ContractViolationError(
                f"_swap: a PAM swap raised the objective from {cost} to {best_cost}"
            )
        cost = best_cost
        costs.append(cost)
    raise ContractViolationError(
        f"_swap: PAM's SWAP still lowered the objective after {len(costs) - 1} swaps"
    )
