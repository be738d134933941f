"""The prior-policy surface: candidate sampling and selection priors.

``beta_distribution`` is the epsilon-smoothed softmax over negative scaled
distances to the prior's suggested macro; it governs which library prototypes
become a node's candidates.  ``psi_prior`` is the pure softmax restricted to a
node's candidate set; it governs visit allocation during selection.
"""

from __future__ import annotations

import json
import math
import subprocess
from bisect import bisect_right
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import ConfigurationError, ContractViolationError, PriorQueryError
from .macrolib import MacroLibrary
from .world import Observation, TaskSpec

_SUM_TOL = 1e-9
_FLOOR_TOL = 1e-12
_MAX_SAMPLE_ATTEMPTS = 1000
_DIST_SUM_TOL = 1e-8  # sample_candidates input; rng.choice allowed about 1.5e-8


@runtime_checkable
class PriorPolicy(Protocol):
    """Anything that maps (observation, task) to a sampled macro-action.

    The search rejects, with ``PriorQueryError``, a macro that is not a
    finite 2-D array with at least one row and ``action_dim`` columns.
    """

    def sample_macro(
        self, obs: Observation, task: TaskSpec, rng: np.random.Generator
    ) -> np.ndarray: ...


@dataclass
class VectorChecks:
    """Running tally of probability-vector validations (used by the test suite)."""

    produced: int = 0
    violations: int = 0

    def reset(self) -> None:
        self.produced = 0
        self.violations = 0


VECTOR_CHECKS = VectorChecks()


def _validated(probs: np.ndarray, epsilon: float, support: int) -> np.ndarray:
    VECTOR_CHECKS.produced += 1
    ok = (
        np.all(probs >= 0.0)
        and abs(float(probs.sum()) - 1.0) <= _SUM_TOL
        and (epsilon <= 0.0 or float(probs.min()) >= epsilon / support - _FLOOR_TOL)
    )
    if not ok:
        VECTOR_CHECKS.violations += 1
        raise ContractViolationError(
            f"invalid probability vector: sum={probs.sum()}, min={probs.min()}"
        )
    return probs


def _shifted_softmax(neg_scaled: np.ndarray) -> np.ndarray:
    shifted = neg_scaled - neg_scaled.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def beta_distribution(
    lib: MacroLibrary, anchor: np.ndarray, alpha: float, epsilon: float
) -> np.ndarray:
    """Candidate-sampling distribution over the whole library.

    ``probs[i] = (1-eps) * softmax_i(-alpha * rho(u_i, anchor)) + eps/m``,
    with the softmax computed under a max-shift for stability.
    """
    if alpha < 0:
        raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigurationError(f"epsilon must be in [0,1], got {epsilon}")
    dists = lib.distances_to(anchor)
    probs = (1.0 - epsilon) * _shifted_softmax(-alpha * dists) + epsilon / lib.m
    return _validated(probs, epsilon, lib.m)


@dataclass(frozen=True)
class CandidateSet:
    """A node's fixed macro-action candidates: library indices plus the anchor."""

    indices: tuple[int, ...]
    anchor: np.ndarray

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ContractViolationError("candidate indices must be distinct")
        anchor = np.asarray(self.anchor, dtype=float)
        anchor.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)

    def __len__(self) -> int:
        return len(self.indices)


def sample_candidates(
    dist: np.ndarray, k: int, rng: np.random.Generator, anchor: np.ndarray
) -> CandidateSet:
    """Draw k distinct library indices from ``dist`` by rejection sampling.

    Each draw is one categorical sample, and a repeat is rejected and drawn
    again.  After ``_MAX_SAMPLE_ATTEMPTS`` draws in total, the set is completed
    with the most probable indices not yet chosen (ties go to the lower
    index).  Slot order is draw order.

    A draw is the inverse-CDF step of ``rng.choice(m, p=dist)``: one
    ``rng.random()`` looked up with ``bisect_right`` in the normalised
    cumulative sum.  It yields the same indices and consumes ``rng`` exactly
    as ``rng.choice`` does.  Raises ``ContractViolationError`` unless ``dist``
    is a 1-D, finite, non-negative vector summing to 1 within
    ``_DIST_SUM_TOL``, and ``ConfigurationError`` if ``k`` exceeds its length.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 1 or dist.size == 0:
        raise ContractViolationError(
            f"sample_candidates: dist must be a non-empty 1-D vector, "
            f"got shape {dist.shape}"
        )
    m = len(dist)
    if k > m:
        raise ConfigurationError(f"k={k} exceeds library size {m}")
    probs = dist.tolist()
    # a -inf fails the first test; NaN or +inf make the sum fail the second
    if not (min(probs) >= 0.0 and abs(math.fsum(probs) - 1.0) <= _DIST_SUM_TOL):
        raise ContractViolationError(
            "sample_candidates: dist must be finite, non-negative and sum to 1; "
            f"got min={dist.min()}, sum={dist.sum()}"
        )
    cdf = dist.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    chosen: list[int] = []
    seen = set()
    attempts = 0
    while len(chosen) < k and attempts < _MAX_SAMPLE_ATTEMPTS:
        idx = bisect_right(cdf, rng.random())
        attempts += 1
        if idx not in seen:
            seen.add(idx)
            chosen.append(idx)
    if len(chosen) < k:
        # fall back on probability order (then index) for the remainder
        for idx in sorted(range(m), key=lambda i: (-probs[i], i)):
            if idx not in seen:
                seen.add(idx)
                chosen.append(idx)
            if len(chosen) == k:
                break
    return CandidateSet(tuple(chosen), anchor)


def psi_prior(
    candidates: CandidateSet,
    lib: MacroLibrary,
    anchor: np.ndarray,
    alpha_psi: float,
    epsilon_psi: float = 0.0,
) -> np.ndarray:
    """Selection prior over a candidate set: softmax of scaled anchor distances.

    By default there is no epsilon-uniform term (exploration among candidates
    is handled by the visit-count term of the selection score); a nonzero
    ``epsilon_psi`` restores one.
    """
    if len(candidates) == 0:
        raise ContractViolationError("candidate set is empty")
    dists = lib.distances_to(np.asarray(anchor, dtype=float))[list(candidates.indices)]
    probs = _shifted_softmax(-alpha_psi * dists)
    if epsilon_psi > 0.0:
        probs = (1.0 - epsilon_psi) * probs + epsilon_psi / len(candidates)
    return _validated(probs, epsilon_psi, len(candidates))


class UniformLibraryPrior:
    """Uninformed baseline prior: a uniformly random library prototype."""

    def __init__(self, lib: MacroLibrary):
        self.lib = lib

    def sample_macro(
        self, obs: Observation, task: TaskSpec, rng: np.random.Generator
    ) -> np.ndarray:
        return self.lib.prototypes[int(rng.integers(self.lib.m))].copy()


class LineProtocolPrior:
    """Process-external prior speaking line-delimited JSON.

    Request:  ``{"observation": [...], "instruction": "..."}``
    Response: ``{"macro": [[...], ...]}`` (an H x n array)
    """

    def __init__(self, writer, reader, action_dim: int | None = None):
        self._writer = writer
        self._reader = reader
        self.action_dim = action_dim

    def sample_macro(
        self, obs: Observation, task: TaskSpec, rng: np.random.Generator
    ) -> np.ndarray:
        request = {
            "observation": np.asarray(obs.features, dtype=float).tolist(),
            "instruction": task.instruction,
        }
        self._writer.write(json.dumps(request) + "\n")
        self._writer.flush()
        line = self._reader.readline()
        if not line:
            raise PriorQueryError("external prior closed the stream")
        try:
            macro = np.asarray(json.loads(line)["macro"], dtype=float)
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise PriorQueryError(f"malformed prior response: {line!r}") from exc
        if macro.ndim != 2 or (
            self.action_dim is not None and macro.shape[1] != self.action_dim
        ):
            raise PriorQueryError(f"prior returned macro of shape {macro.shape}")
        return macro


def subprocess_prior(cmd: list[str], action_dim: int | None = None):
    """Spawn an external prior process; returns (prior, process)."""
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
    )
    return LineProtocolPrior(proc.stdin, proc.stdout, action_dim=action_dim), proc
