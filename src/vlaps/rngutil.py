"""Deterministic random-stream derivation.

Every stochastic consumer (env reset, prior queries, candidate sampling,
rollouts) pulls its generator from an :class:`RngFactory` keyed by a stable
integer path, so identical configurations replay identical streams regardless
of execution order.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ContractViolationError

# stream purpose codes (first key element)
RESET = 0
ROLLOUT = 1
PRIOR_QUERY = 2
CANDIDATES = 3


def stable_hash(text: str) -> int:
    """Process-independent 32-bit hash of a string (unlike builtin hash)."""
    return zlib.crc32(text.encode("utf-8"))


class RngFactory:
    """Derives independent, reproducible generators from an entropy tuple."""

    def __init__(self, *entropy: int):
        self.entropy = tuple(int(e) & 0xFFFFFFFF for e in entropy)

    def rng(self, *key: int) -> np.random.Generator:
        """``SeedSequence``'s generator over the entropy, then the key words in [0, 2**32)."""
        try:
            words = np.array(self.entropy + tuple(map(int, key)), dtype=np.uint32)
        except OverflowError:
            raise ContractViolationError(
                f"stream key {key} has an element outside [0, 2**32)") from None
        return np.random.default_rng(np.random.SeedSequence(words))
