import math
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlaps.errors import ConfigurationError, ContractViolationError
from vlaps.macrolib import MacroLibrary
from vlaps.prior import (
    CandidateSet,
    LineProtocolPrior,
    UniformLibraryPrior,
    beta_distribution,
    psi_prior,
    sample_candidates,
    subprocess_prior,
)
from vlaps.world import Observation


def identity_library(values):
    """1-D macro library (H=1, n=1) with identity normalization."""
    protos = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    return MacroLibrary(protos, np.zeros(1), np.ones(1))


def naive_beta(values, anchor, alpha, epsilon):
    """Direct scalar transcription of the sampling distribution."""
    dists = [abs(v - anchor) for v in values]
    weights = [math.exp(-alpha * d) for d in dists]
    total = sum(weights)
    return [(1 - epsilon) * w / total + epsilon / len(values) for w in weights]


def test_epsilon_one_is_uniform():
    lib = identity_library([0.0, 1.0, 2.0, 5.0])
    probs = beta_distribution(lib, np.array([[0.0]]), alpha=10.0, epsilon=1.0)
    assert np.allclose(probs, 0.25)


def test_alpha_zero_is_uniform():
    lib = identity_library([0.0, 1.0, 2.0])
    probs = beta_distribution(lib, np.array([[0.7]]), alpha=0.0, epsilon=0.0)
    assert np.allclose(probs, 1.0 / 3.0)


def test_beta_matches_scalar_oracle_example():
    lib = identity_library([0.0, 1.0, 2.0])
    probs = beta_distribution(lib, np.array([[0.0]]), alpha=1.0, epsilon=0.0)
    oracle = naive_beta([0.0, 1.0, 2.0], 0.0, 1.0, 0.0)
    assert np.allclose(probs, oracle, atol=1e-12)
    assert np.allclose(probs, [0.6652, 0.2447, 0.0900], atol=5e-4)


def test_beta_oracle_equivalence_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        values = rng.normal(size=rng.integers(2, 20))
        anchor = float(rng.normal())
        alpha = float(rng.uniform(0, 20))
        epsilon = float(rng.uniform(0, 1))
        lib = identity_library(values)
        probs = beta_distribution(lib, np.array([[anchor]]), alpha, epsilon)
        assert np.max(np.abs(probs - naive_beta(values, anchor, alpha, epsilon))) < 1e-12


def test_beta_invalid_params():
    lib = identity_library([0.0, 1.0])
    with pytest.raises(ConfigurationError):
        beta_distribution(lib, np.array([[0.0]]), alpha=-1.0, epsilon=0.0)
    with pytest.raises(ConfigurationError):
        beta_distribution(lib, np.array([[0.0]]), alpha=1.0, epsilon=1.5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=12),
    st.floats(0, 30),
    st.floats(0.01, 1.0),
)
def test_epsilon_floor_and_normalization(values, alpha, epsilon):
    lib = identity_library(values)
    probs = beta_distribution(lib, np.array([[values[0]]]), alpha, epsilon)
    assert abs(probs.sum() - 1.0) <= 1e-9
    assert probs.min() >= epsilon / lib.m - 1e-12


def test_temperature_monotonicity():
    rng = np.random.default_rng(1)
    values = rng.normal(size=10)
    anchor = float(rng.normal())
    lib = identity_library(values)
    nearest = int(np.argmin(np.abs(values - anchor)))
    last = -1.0
    for alpha in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0]:
        probs = beta_distribution(lib, np.array([[anchor]]), alpha, epsilon=0.1)
        assert probs[nearest] >= last - 1e-12
        last = probs[nearest]


def test_sample_candidates_exhaustion():
    lib = identity_library([0.0, 1.0, 2.0, 3.0])
    probs = beta_distribution(lib, np.array([[0.0]]), alpha=5.0, epsilon=0.1)
    cands = sample_candidates(probs, 4, np.random.default_rng(0), np.array([[0.0]]))
    assert sorted(cands.indices) == [0, 1, 2, 3]


def test_sample_candidates_too_many():
    probs = np.full(3, 1 / 3)
    with pytest.raises(ConfigurationError):
        sample_candidates(probs, 4, np.random.default_rng(0), np.zeros((1, 1)))


def test_sample_candidates_deterministic():
    probs = np.array([0.5, 0.3, 0.1, 0.1])
    anchor = np.zeros((1, 1))
    a = sample_candidates(probs, 2, np.random.default_rng(7), anchor)
    b = sample_candidates(probs, 2, np.random.default_rng(7), anchor)
    assert a.indices == b.indices


def test_sample_candidates_point_mass_fallback():
    # a near-degenerate distribution still yields k distinct indices
    probs = np.array([1.0 - 3e-12, 1e-12, 1e-12, 1e-12])
    cands = sample_candidates(probs, 3, np.random.default_rng(0), np.zeros((1, 1)))
    assert len(set(cands.indices)) == 3
    assert 0 in cands.indices


def test_nearest_prototype_frequency_grows_with_alpha():
    # sharp anchor-centered distribution: nearest prototype is nearly always drawn
    rng = np.random.default_rng(3)
    values = np.linspace(0.0, 9.0, 10)
    lib = identity_library(values)
    anchor = np.array([[2.1]])
    nearest = 2
    probs = beta_distribution(lib, anchor, alpha=50.0, epsilon=0.1)
    hits = 0
    trials = 10_000
    sampler = np.random.default_rng(0)
    for _ in range(trials):
        cands = sample_candidates(probs, 3, sampler, anchor)
        hits += nearest in cands.indices
    assert hits / trials >= 0.99


def test_candidate_set_immutable():
    anchor = np.array([[1.0]])
    cands = CandidateSet((0, 2), anchor)
    with pytest.raises(ValueError):
        cands.anchor[0, 0] = 5.0
    with pytest.raises(AttributeError):
        cands.indices = (1,)
    with pytest.raises(ContractViolationError):
        CandidateSet((0, 0), anchor)


def test_psi_singleton_and_symmetry():
    lib = identity_library([0.0, 2.0, -2.0])
    anchor = np.array([[0.0]])
    single = psi_prior(CandidateSet((1,), anchor), lib, anchor, alpha_psi=5.0)
    assert single == pytest.approx([1.0])
    pair = psi_prior(CandidateSet((1, 2), anchor), lib, anchor, alpha_psi=5.0)
    assert np.allclose(pair, [0.5, 0.5])


def test_psi_epsilon_flag():
    lib = identity_library([0.0, 1.0, 5.0])
    anchor = np.array([[0.0]])
    cands = CandidateSet((0, 1, 2), anchor)
    pure = psi_prior(cands, lib, anchor, alpha_psi=10.0)
    mixed = psi_prior(cands, lib, anchor, alpha_psi=10.0, epsilon_psi=0.3)
    assert pure[2] < 0.1 / 3
    assert mixed.min() >= 0.3 / 3 - 1e-12
    assert abs(mixed.sum() - 1.0) <= 1e-9


def test_psi_empty_candidates():
    lib = identity_library([0.0, 1.0])
    with pytest.raises(ContractViolationError):
        psi_prior(CandidateSet((), np.zeros((1, 1))), lib, np.zeros((1, 1)), 5.0)


def test_uniform_library_prior(library, env, tasks):
    prior = UniformLibraryPrior(library)
    obs = env.observe(env.reset(0, tasks[0].task_id))
    macro = prior.sample_macro(obs, tasks[0], np.random.default_rng(0))
    assert macro.shape == (library.horizon, library.action_dim)
    flat_protos = {tuple(p.ravel()) for p in library.prototypes}
    assert tuple(macro.ravel()) in flat_protos


ECHO_PRIOR = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        dx = 0.1 if "object" in req["instruction"] else -0.1
        macro = [[dx, 0.0, -1.0] for _ in range(4)]
        print(json.dumps({"macro": macro}), flush=True)
""")


def test_line_protocol_prior_subprocess(env, tasks):
    prior, proc = subprocess_prior([sys.executable, "-c", ECHO_PRIOR], action_dim=3)
    try:
        obs = env.observe(env.reset(0, tasks[0].task_id))
        macro = prior.sample_macro(obs, tasks[0], np.random.default_rng(0))
        assert macro.shape == (4, 3)
        assert macro[0, 0] == pytest.approx(0.1)
    finally:
        proc.stdin.close()
        proc.wait(timeout=10)


class _ListIO:
    def __init__(self, lines):
        self.lines = list(lines)
        self.written = []

    def write(self, text):
        self.written.append(text)

    def flush(self):
        pass

    def readline(self):
        return self.lines.pop(0) if self.lines else ""


def test_line_protocol_prior_errors(env, tasks):
    import vlaps.errors as errors

    obs = env.observe(env.reset(0, tasks[0].task_id))
    closed = LineProtocolPrior(_ListIO([]), _ListIO([]))
    with pytest.raises(errors.PriorQueryError):
        closed.sample_macro(obs, tasks[0], np.random.default_rng(0))
    garbled = LineProtocolPrior(_ListIO([]), _ListIO(['{"nope": 1}\n']))
    with pytest.raises(errors.PriorQueryError):
        garbled.sample_macro(obs, tasks[0], np.random.default_rng(0))


def reference_sample_candidates(dist, k, rng):
    """The rng.choice rejection loop that sample_candidates reproduces."""
    m = len(dist)
    chosen, seen, attempts = [], set(), 0
    while len(chosen) < k and attempts < 1000:
        idx = int(rng.choice(m, p=dist))
        attempts += 1
        if idx not in seen:
            seen.add(idx)
            chosen.append(idx)
    if len(chosen) < k:
        for idx in sorted(range(m), key=lambda i: (-dist[i], i)):
            if idx not in seen:
                seen.add(idx)
                chosen.append(idx)
            if len(chosen) == k:
                break
    return tuple(chosen)


def test_sample_candidates_matches_rng_choice_stream():
    # same indices, and the shared generator is left in the same state
    gen = np.random.default_rng(11)
    anchor = np.zeros((1, 1))
    for trial in range(1500):
        m = int(gen.integers(1, 80))
        k = int(gen.integers(1, min(m, 12) + 1))
        logits = gen.normal(scale=gen.uniform(0.0, 3.0), size=m)
        dist = np.exp(logits - logits.max())
        dist /= dist.sum()
        ref_rng = np.random.default_rng(trial)
        new_rng = np.random.default_rng(trial)
        expected = reference_sample_candidates(dist, k, ref_rng)
        got = sample_candidates(dist, k, new_rng, anchor)
        assert got.indices == expected
        assert new_rng.random() == ref_rng.random()


def test_sample_candidates_fallback_matches_rng_choice_stream():
    # three reachable indices and k = 5: all 1000 attempts are spent, then the
    # zero-probability leftovers fill in by index
    dist = np.zeros(8)
    dist[[6, 2, 4]] = [0.5, 0.3, 0.2]
    ref_rng, new_rng = np.random.default_rng(5), np.random.default_rng(5)
    expected = reference_sample_candidates(dist, 5, ref_rng)
    got = sample_candidates(dist, 5, new_rng, np.zeros((1, 1)))
    assert got.indices == expected
    assert sorted(got.indices[:3]) == [2, 4, 6] and got.indices[3:] == (0, 1)
    assert new_rng.random() == ref_rng.random()


def test_sample_candidates_renormalises_like_rng_choice():
    # a dist summing to 1 + 5e-9 is accepted; rng.choice divides the cumulative
    # sum by its last entry, which moves the first bin edge from just above the
    # first uniform draw u to just below it, so the draw lands in bin 1
    u = np.random.default_rng(21).random()
    total = 1.0 + 5e-9
    dist = np.array([u * total * (1.0 - 1e-10), 0.0, 0.0])
    dist[1] = total - dist[0]
    ref = reference_sample_candidates(dist, 1, np.random.default_rng(21))
    got = sample_candidates(dist, 1, np.random.default_rng(21), np.zeros((1, 1)))
    assert got.indices == ref == (1,)


@pytest.mark.parametrize(
    "dist",
    [
        [0.5, np.nan, 0.5],
        [0.6, -0.1, 0.5],
        [0.5, 0.5, 0.5],
        [0.5, np.inf, 0.5],
        [0.5, -np.inf, 0.5],
        [[0.5, 0.5]],
        [],
    ],
    ids=["nan", "negative", "unnormalised", "inf", "neg-inf", "2-d", "empty"],
)
def test_sample_candidates_rejects_bad_dist(dist):
    with pytest.raises(ContractViolationError, match="sample_candidates"):
        sample_candidates(np.array(dist), 1, np.random.default_rng(0), np.zeros((1, 1)))
