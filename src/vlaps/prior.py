"""The prior-policy surface: candidate sampling and selection priors.

Both priors are one rule, ``beta_distribution``: an epsilon-smoothed softmax
over negative scaled distances to the prior's suggested macro.  Over the whole
library (``alpha_beta``, ``epsilon_beta``) it decides which prototypes become a
node's candidates; as ``psi_prior``, over the candidates' distances
(``alpha_psi``, ``epsilon_psi``, by default 0), it allocates visits among them.
At ``alpha = 0`` or ``epsilon = 1`` the rule is uniform and reads no distance
(``reads_distances``), so ``search.expand`` measures the library's distances to
the prior's macro only when one of the two rules reads them.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .macrolib import MacroLibrary
from .world import TaskSpec

_SUM_TOL = 1e-9
_FLOOR_TOL = 1e-12
_MAX_SAMPLE_ATTEMPTS = 1000
_DRAW_BLOCK = 3  # candidate draws per block, per candidate asked for
_DIST_SUM_TOL = 1e-8  # sample_candidates input; rng.choice allowed about 1.5e-8
_INDEX_BLOCK = 64  # library indices the uniform prior draws at once from a generator


class PriorPolicy(Protocol):
    """Anything that maps (observation, task) to a sampled macro-action.

    The observation is what ``WorldModel.observe`` returns.  The macro may be
    any ``(H, action_dim)`` array-like; the search rejects, with
    ``PriorQueryError``, one that fails ``world.check_macro``.  Rows of Python
    floats, which the built-in priors reply with, reach the dynamics as they
    are; anything else is converted to them once.  The uniform prior replies
    with the library's rows, ``CheckedMacro``s checked once when the library
    was built, which the check passes without reading them again.  The search
    keeps a reply as it is, in a goal plan too, so a prior must not change a
    macro after returning it.  Only a prior's queries draw from the generator
    the search hands them, and once the search hands over another generator it
    never hands the last one back; so a prior may draw ahead, as both built-in priors do.
    """

    def sample_macro(self, obs, task: TaskSpec, rng: np.random.Generator): ...


def _validated(probs: np.ndarray, epsilon: float) -> np.ndarray:
    # a NaN minimum fails both tests on it
    low = float(probs.min())
    if not (
        low >= 0.0
        and abs(float(probs.sum()) - 1.0) <= _SUM_TOL
        and (epsilon <= 0.0 or low >= epsilon / len(probs) - _FLOOR_TOL)
    ):
        raise ContractViolationError(
            f"invalid probability vector: sum={probs.sum()}, min={low}"
        )
    return probs


def _nearest(dists: np.ndarray) -> float:
    # argmin finds a NaN before any number, so a NaN distance is the nearest
    near = dists.item(dists.argmin())
    if not near > -math.inf:
        raise ContractViolationError(f"invalid distances: min={near}; at alpha > 0 "
                                     f"no distance may be NaN or -inf")
    return near


def _shifted_softmax(dists: np.ndarray, alpha: float) -> np.ndarray:
    # -alpha * d falls as d grows, so the nearest macro's scaled distance is
    # the max-shift, and the farthest's is the first to overflow; a Python
    # float overflows to inf with no warning
    near = _nearest(dists)
    top = -alpha * near
    if top == -math.inf or alpha == math.inf:
        # every scaled distance overflowed, or alpha is infinite (where
        # -inf * 0.0 would be NaN): the softmax's limit as alpha grows,
        # uniform over the nearest macros
        weights = (dists == near).astype(float)
    elif math.isinf(alpha * dists.item(dists.argmax())):
        with np.errstate(over="ignore"):
            weights = np.exp(-alpha * dists - top)
    else:
        weights = np.exp(-alpha * dists - top)
    return weights / weights.sum()


def reads_distances(alpha: float, epsilon: float) -> bool:
    """Whether ``beta_distribution`` at ``alpha`` and ``epsilon`` reads the distances'
    values; at ``alpha = 0`` or ``epsilon = 1`` it is uniform whatever they are."""
    return alpha > 0.0 and epsilon < 1.0


def beta_distribution(dists: np.ndarray, alpha: float, epsilon: float) -> np.ndarray:
    """The prior rule over a vector of macro distances.

    ``probs[i] = (1-eps) * softmax_i(-alpha * dists[i]) + eps/len(dists)``,
    with the softmax computed under a max-shift for stability.  At
    ``eps = 0`` this is the softmax itself, bit for bit.  At ``alpha = 0`` the
    softmax is uniform, whatever the distances.  At ``eps = 1`` the rule is its
    limit, exactly ``1/len(dists)`` each, with no softmax computed.  If ``alpha``
    is infinite, or so large that every ``-alpha * dists[i]`` is -inf, the
    softmax is its limit, uniform over the indices of the smallest distance.  A
    scaled distance that overflows gets a weight of 0, and numpy warns of none.
    At ``alpha > 0`` a NaN or -inf distance raises ``ContractViolationError``.
    """
    if not alpha >= 0:  # NaN too
        raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigurationError(f"epsilon must be in [0,1], got {epsilon}")
    m = len(dists)
    if m == 0:
        raise ContractViolationError("cannot build a prior over no macros")
    if not reads_distances(alpha, epsilon):
        if alpha > 0.0:
            _nearest(dists)  # refuses a NaN or -inf distance, as the softmax does
        # the softmax is uniform, or weighs 0; at epsilon = 1 this is exactly 1/m.
        # At alpha = 0 the max-shift's -0.0 * inf would be NaN
        return np.full(m, (1.0 - epsilon) * (1.0 / m) + epsilon / m)
    probs = (1.0 - epsilon) * _shifted_softmax(dists, float(alpha)) + epsilon / m
    return _validated(probs, epsilon)


# the selection prior: the same rule over a node's candidates' distances
psi_prior = beta_distribution


def sample_candidates(dist: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Draw k distinct library indices from ``dist`` by rejection sampling.

    Each draw is one categorical sample, and a repeat is rejected and drawn
    again.  After ``_MAX_SAMPLE_ATTEMPTS`` draws in total, the set is completed
    with the most probable indices not yet chosen (ties go to the lower
    index).  Returns the indices in draw order.

    A draw is the inverse-CDF step of ``rng.choice(m, p=dist)``: one
    ``rng.random()`` looked up, side right, in the normalised cumulative sum.
    Draws come a block at a time through one ``np.searchsorted``; the rest of
    the last block is dropped, as the caller draws no more from ``rng``.  Raises
    ``ContractViolationError`` unless ``dist`` is a 1-D, finite, non-negative
    vector summing to 1 within ``_DIST_SUM_TOL``, and ``ConfigurationError``
    if ``k`` exceeds its length.
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
    chosen: list[int] = []
    seen = set()
    drawn = 0
    while len(chosen) < k and drawn < _MAX_SAMPLE_ATTEMPTS:
        block = min(_DRAW_BLOCK * k, _MAX_SAMPLE_ATTEMPTS - drawn)
        drawn += block
        for idx in np.searchsorted(cdf, rng.random(block), side="right").tolist():
            if idx not in seen:
                seen.add(idx)
                chosen.append(idx)
                if len(chosen) == k:
                    break
    if len(chosen) < k:
        # fall back on probability order (then index) for the remainder
        for idx in sorted(range(m), key=lambda i: (-probs[i], i)):
            if idx not in seen:
                seen.add(idx)
                chosen.append(idx)
            if len(chosen) == k:
                break
    return chosen


class UniformLibraryPrior:
    """Uninformed baseline prior: a uniformly random library prototype, one
    ``rng.integers(m)`` per query.  The indices come from
    ``rng.integers(m, size=_INDEX_BLOCK)``, the values of as many scalar draws,
    by ``PriorPolicy``'s generator contract."""

    def __init__(self, lib: MacroLibrary):
        self.lib = lib
        self._rng, self._ahead = None, []  # indices drawn from _rng, not used, last first

    def sample_macro(self, obs, task: TaskSpec, rng: np.random.Generator) -> tuple:
        rows = self.lib.rows
        if rng is not self._rng or not self._ahead:
            self._rng, self._ahead = rng, rng.integers(len(rows), size=_INDEX_BLOCK).tolist()[::-1]
        return rows[self._ahead.pop()]
