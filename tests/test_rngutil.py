import numpy as np
import pytest

from vlaps.errors import ContractViolationError
from vlaps.rngutil import RngFactory

WORD_MAX = 2**32 - 1


def reference_rng(entropy, key):
    """The generator as it was: SeedSequence over a Python list of the words."""
    return np.random.default_rng(np.random.SeedSequence(list(entropy) + list(key)))


def random_words(gen, n):
    """n words in [0, 2**32), about a third of them 0, 1, 2**32 - 2 or 2**32 - 1."""
    return [int(gen.choice([0, 1, WORD_MAX - 1, WORD_MAX])) if gen.random() < 1 / 3
            else int(gen.integers(2**32)) for _ in range(n)]


def test_rng_matches_seed_sequence_over_a_word_list():
    # numpy turns a uint32 array and a list of the same words into the same
    # entropy; empty entropy, zero words and the largest word included
    gen = np.random.default_rng(41)
    cases = [([], []), ([], [0]), ([0], [WORD_MAX]), ([7, WORD_MAX], [WORD_MAX, 0, 0])]
    for _ in range(10_000):
        cases.append((random_words(gen, int(gen.integers(0, 5))),
                      random_words(gen, int(gen.integers(0, 5)))))
    for entropy, key in cases:
        got, want = RngFactory(*entropy).rng(*key), reference_rng(entropy, key)
        assert got.bit_generator.state == want.bit_generator.state, (entropy, key)
        assert got.random() == want.random()


@pytest.mark.parametrize("bad", [-1, 2**32, np.int64(-1), np.int64(2**32)])
def test_rng_rejects_key_words_outside_uint32(bad):
    # a negative element used to raise a bare ValueError, and one of 2**32 or
    # more was silently split into several words
    with pytest.raises(ContractViolationError, match=r"stream key \(3, .*\) .*\[0, 2\*\*32\)"):
        RngFactory(5).rng(3, bad)
