import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlaps.errors import ConfigurationError, ContractViolationError
from vlaps.macrolib import MacroLibrary
from vlaps.prior import (
    UniformLibraryPrior,
    beta_distribution,
    psi_prior,
    reads_distances,
    sample_candidates,
)
from vlaps.world import CheckedMacro, ScriptedExpertPrior, check_macro


def identity_library(values):
    """1-D macro library (H=1, n=1) with identity normalization."""
    protos = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    return MacroLibrary(protos, np.zeros(1), np.ones(1))


def beta(lib, anchor, alpha, epsilon):
    """The sampling prior over ``lib`` around ``anchor``, as expand takes it."""
    return beta_distribution(lib.distances_to(anchor), alpha, epsilon)


def naive_beta(values, anchor, alpha, epsilon):
    """Direct scalar transcription of the sampling distribution."""
    dists = [abs(v - anchor) for v in values]
    weights = [math.exp(-alpha * d) for d in dists]
    total = sum(weights)
    return [(1 - epsilon) * w / total + epsilon / len(values) for w in weights]


def test_epsilon_one_is_uniform():
    lib = identity_library([0.0, 1.0, 2.0, 5.0])
    probs = beta(lib, np.array([[0.0]]), alpha=10.0, epsilon=1.0)
    assert np.allclose(probs, 0.25)


def test_alpha_zero_is_uniform():
    lib = identity_library([0.0, 1.0, 2.0])
    probs = beta(lib, np.array([[0.7]]), alpha=0.0, epsilon=0.0)
    assert np.allclose(probs, 1.0 / 3.0)


def test_alpha_zero_is_uniform_at_any_distance():
    # the bits of the max-shifted softmax, whose weights are all exp(0) at finite
    # distances, and the same rule at an infinite distance, where -0.0 * inf is NaN
    for dists in ([0.3, 1.0, 2.5, 7.0], [0.0] * 5, [1e300] * 64):
        for epsilon in (0.0, 0.1):
            weights = np.exp(-0.0 * np.array(dists))
            shifted = (1.0 - epsilon) * (weights / weights.sum()) + epsilon / len(dists)
            assert beta_distribution(np.array(dists), 0.0, epsilon).tobytes() == shifted.tobytes()
            with_inf = beta_distribution(np.array(dists + [math.inf]), 0.0, epsilon)
            assert np.allclose(with_inf, 1.0 / (len(dists) + 1), rtol=0.0, atol=1e-15)


def test_beta_matches_scalar_oracle_example():
    lib = identity_library([0.0, 1.0, 2.0])
    probs = beta(lib, np.array([[0.0]]), alpha=1.0, epsilon=0.0)
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
        probs = beta(lib, np.array([[anchor]]), alpha, epsilon)
        assert np.max(np.abs(probs - naive_beta(values, anchor, alpha, epsilon))) < 1e-12


def test_beta_invalid_params():
    lib = identity_library([0.0, 1.0])
    with pytest.raises(ConfigurationError):
        beta(lib, np.array([[0.0]]), alpha=-1.0, epsilon=0.0)
    with pytest.raises(ConfigurationError):
        beta(lib, np.array([[0.0]]), alpha=1.0, epsilon=1.5)
    with pytest.raises(ContractViolationError):
        beta_distribution(np.zeros(0), alpha=1.0, epsilon=0.0)


def test_beta_at_an_alpha_that_overflows_is_the_softmax_limit():
    # every -alpha * dists[i] is -inf, so the max-shift alone gives NaN; the
    # limit as alpha grows is uniform over the nearest macros, then mixed with
    # epsilon as at any alpha; an alpha short of the overflow gives the same
    dists = np.array([2.0, 3.0, 2.0, 5.0])
    probs = beta_distribution(dists, 1e308, 0.1)
    assert np.allclose(probs, 0.9 * np.array([0.5, 0.0, 0.5, 0.0]) + 0.1 / 4,
                       rtol=0.0, atol=1e-15)
    assert np.array_equal(psi_prior(dists, 1e308, 0.0), [0.5, 0.0, 0.5, 0.0])
    assert np.array_equal(beta_distribution(dists, 300.0, 0.1),
                          0.9 * np.array([0.5, 0.0, 0.5, 0.0]) + 0.1 / 4)
    # only the farther distances overflow: they get no weight
    assert np.array_equal(psi_prior(np.array([0.5, 2.0, 0.5]), 1e308, 0.0), [0.5, 0.0, 0.5])


@pytest.mark.parametrize("rule", [beta_distribution, psi_prior])
def test_an_infinite_alpha_is_the_softmax_limit_at_any_distance(rule):
    # -inf * 0.0 is NaN, so a zero distance broke the max-shift, with a numpy
    # warning and then an invalid probability vector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for epsilon in (0.0, 0.1):
            for dists, nearest in (([0.0, 1.0], [1.0, 0.0]), ([2.0, 0.0, 0.0, math.inf],
                                                            [0.0, 0.5, 0.5, 0.0]),
                                   ([3.0, 1.5, 7.0], [0.0, 1.0, 0.0]), ([math.inf] * 2, [0.5] * 2)):
                want = (1.0 - epsilon) * np.array(nearest) + epsilon / len(dists)
                assert rule(np.array(dists), math.inf, epsilon).tobytes() == want.tobytes()


@pytest.mark.parametrize("rule", [beta_distribution, psi_prior])
def test_a_nan_alpha_is_a_configuration_error_naming_alpha(rule):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dists in ([0.0, 1.0], [2.0, 3.0, math.inf]):
            for epsilon in (0.0, 0.5, 1.0):
                with pytest.raises(ConfigurationError, match="^alpha must be >= 0, got nan"):
                    rule(np.array(dists), math.nan, epsilon)


def test_the_rule_reads_the_distances_exactly_where_reads_distances_says():
    # search.expand hands zeros, not the library's distances, to a rule that
    # reads none; one that reads them gives other bits at distinct distances
    gen = np.random.default_rng(5)
    for alpha in (0.0, 0.5, 20.0, 1e308, math.inf):
        for epsilon in (0.0, 0.3, 1.0):
            dists = np.abs(gen.normal(size=8)) + np.arange(8.0)
            same = (beta_distribution(dists, alpha, epsilon).tobytes()
                    == beta_distribution(np.zeros(8), alpha, epsilon).tobytes())
            assert same != reads_distances(alpha, epsilon), (alpha, epsilon)


def test_epsilon_one_is_exactly_uniform_and_a_bad_distance_still_raises():
    # the rule's limit is exactly 1/m, the bits (1 - 1) * s + 1/m has at any
    # finite softmax s; at alpha > 0 a NaN or -inf distance still raises, at alpha 0 not
    gen = np.random.default_rng(3)
    for m in (1, 3, 10, 64):
        dists = np.abs(gen.normal(size=m)) * 10.0 ** gen.integers(-3, 300, size=m)
        dists[gen.integers(m)] = math.inf
        for alpha in (0.0, 0.5, 1e308, math.inf):
            got = beta_distribution(dists, alpha, 1.0)
            assert got.tobytes() == np.full(m, 1.0 / m).tobytes()
    for bad in (math.nan, -math.inf):
        dists = np.array([1.0, bad, 2.0])
        for epsilon in (0.0, 0.5, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractViolationError, match="invalid distances"):
                    beta_distribution(dists, 2.0, epsilon)
                assert (beta_distribution(dists, 0.0, epsilon) == 1.0 / 3.0).all()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=12),
    st.floats(0, 30),
    st.floats(0.01, 1.0),
)
def test_epsilon_floor_and_normalization(values, alpha, epsilon):
    lib = identity_library(values)
    probs = beta(lib, np.array([[values[0]]]), alpha, epsilon)
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
        probs = beta(lib, np.array([[anchor]]), alpha, epsilon=0.1)
        assert probs[nearest] >= last - 1e-12
        last = probs[nearest]


def test_sample_candidates_exhaustion():
    lib = identity_library([0.0, 1.0, 2.0, 3.0])
    probs = beta(lib, np.array([[0.0]]), alpha=5.0, epsilon=0.1)
    cands = sample_candidates(probs, 4, np.random.default_rng(0))
    assert sorted(cands) == [0, 1, 2, 3]


def test_sample_candidates_too_many():
    probs = np.full(3, 1 / 3)
    with pytest.raises(ConfigurationError):
        sample_candidates(probs, 4, np.random.default_rng(0))


def test_sample_candidates_deterministic():
    probs = np.array([0.5, 0.3, 0.1, 0.1])
    a = sample_candidates(probs, 2, np.random.default_rng(7))
    b = sample_candidates(probs, 2, np.random.default_rng(7))
    assert a == b


def test_sample_candidates_point_mass_fallback():
    # a near-degenerate distribution still yields k distinct indices
    probs = np.array([1.0 - 3e-12, 1e-12, 1e-12, 1e-12])
    cands = sample_candidates(probs, 3, np.random.default_rng(0))
    assert len(set(cands)) == 3
    assert 0 in cands


def test_nearest_prototype_frequency_grows_with_alpha():
    # sharp anchor-centered distribution: nearest prototype is nearly always drawn
    rng = np.random.default_rng(3)
    values = np.linspace(0.0, 9.0, 10)
    lib = identity_library(values)
    anchor = np.array([[2.1]])
    nearest = 2
    probs = beta(lib, anchor, alpha=50.0, epsilon=0.1)
    hits = 0
    trials = 10_000
    sampler = np.random.default_rng(0)
    for _ in range(trials):
        cands = sample_candidates(probs, 3, sampler)
        hits += nearest in cands
    assert hits / trials >= 0.99


def psi(cands, lib, anchor, alpha_psi, epsilon_psi=0.0):
    """The selection prior over the library indices ``cands``, as expand takes it."""
    dists = lib.distances_to(anchor)[cands]
    return psi_prior(dists, alpha_psi, epsilon_psi)


def test_psi_singleton_and_symmetry():
    lib = identity_library([0.0, 2.0, -2.0])
    anchor = np.array([[0.0]])
    single = psi([1], lib, anchor, alpha_psi=5.0)
    assert single == pytest.approx([1.0])
    pair = psi([1, 2], lib, anchor, alpha_psi=5.0)
    assert np.allclose(pair, [0.5, 0.5])


def test_psi_epsilon_flag():
    lib = identity_library([0.0, 1.0, 5.0])
    anchor = np.array([[0.0]])
    cands = [0, 1, 2]
    pure = psi(cands, lib, anchor, alpha_psi=10.0)
    mixed = psi(cands, lib, anchor, alpha_psi=10.0, epsilon_psi=0.3)
    assert pure[2] < 0.1 / 3
    assert mixed.min() >= 0.3 / 3 - 1e-12
    assert abs(mixed.sum() - 1.0) <= 1e-9


def test_psi_empty_candidates():
    lib = identity_library([0.0, 1.0])
    with pytest.raises(ContractViolationError):
        psi([], lib, np.zeros((1, 1)), 5.0)


def test_uniform_library_prior(library, env, tasks):
    prior = UniformLibraryPrior(library)
    obs = env.observe(env.reset(0, tasks[0].task_id))
    macro = prior.sample_macro(obs, tasks[0], np.random.default_rng(0))
    assert np.shape(macro) == (library.horizon, library.action_dim)
    flat_protos = {tuple(p.ravel()) for p in library.prototypes}
    assert tuple(np.ravel(macro)) in flat_protos


@pytest.mark.parametrize("m", [64, 50, 7])
def test_uniform_library_prior_replies_as_one_scalar_draw_per_query(m):
    # it draws a block of indices at a time; each reply is still that of one
    # rng.integers(m) per query on a twin generator, across queries on one
    # generator, switches and runs past a block
    lib = identity_library(np.arange(m, dtype=float))
    prior = UniformLibraryPrior(lib)
    for seed, queries in enumerate([1, 150, 1, 3]):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(queries):
            assert prior.sample_macro((), None, rng) is lib.rows[int(ref.integers(m))]


def test_built_in_replies_pass_check_macro_as_they_are(library, env, tasks):
    # the built-in priors reply with rows of Python floats, which the check
    # returns unconverted: no numpy type reaches the dynamics; the uniform
    # prior's are the library's CheckedMacros
    priors = [UniformLibraryPrior(library)] + [
        ScriptedExpertPrior(env, 4, noise) for noise in (0.0, 0.6)]
    for prior in priors:
        for seed in range(30):
            task = tasks[seed % len(tasks)]
            obs = env.observe(env.reset(seed, task.task_id))
            reply = prior.sample_macro(obs, task, np.random.default_rng(seed))
            assert check_macro(reply, 3, "m") is reply
            assert type(reply) in (list, tuple, CheckedMacro) and len(reply) == 4
            assert all(type(row) in (list, tuple) for row in reply)
            assert {type(x) for row in reply for x in row} == {float}


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
    return chosen


def test_sample_candidates_matches_rng_choice_stream():
    # the same indices as one rng.choice per draw
    gen = np.random.default_rng(11)
    for trial in range(1500):
        m = int(gen.integers(1, 80))
        k = int(gen.integers(1, min(m, 12) + 1))
        logits = gen.normal(scale=gen.uniform(0.0, 3.0), size=m)
        dist = np.exp(logits - logits.max())
        dist /= dist.sum()
        ref_rng = np.random.default_rng(trial)
        new_rng = np.random.default_rng(trial)
        expected = reference_sample_candidates(dist, k, ref_rng)
        got = sample_candidates(dist, k, new_rng)
        assert got == expected


def test_sample_candidates_fallback_matches_rng_choice_stream():
    # three reachable indices and k = 5: all 1000 attempts are spent, then the
    # zero-probability leftovers fill in by index
    dist = np.zeros(8)
    dist[[6, 2, 4]] = [0.5, 0.3, 0.2]
    ref_rng, new_rng = np.random.default_rng(5), np.random.default_rng(5)
    expected = reference_sample_candidates(dist, 5, ref_rng)
    got = sample_candidates(dist, 5, new_rng)
    assert got == expected
    assert sorted(got[:3]) == [2, 4, 6] and got[3:] == [0, 1]
    assert new_rng.random() == ref_rng.random()


@pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"])
def test_sample_candidates_block_draws_match_every_bit_generator(bit_generator):
    # the block draws give the indices of the rng.choice loop under each of
    # numpy's bit generators, a buffered 32-bit half included, for k < m,
    # k = m and the 1000-attempt fallback
    make = getattr(np.random, bit_generator)
    gen = np.random.default_rng(13)
    fallback = np.zeros(8)
    fallback[[6, 2, 4]] = [0.5, 0.3, 0.2]
    cases = [(fallback, 5), (fallback, 3), (np.full(4, 0.25), 4)]
    for _ in range(200):
        m = int(gen.integers(1, 70))
        k = m if gen.random() < 0.3 else int(gen.integers(1, min(m, 12) + 1))
        logits = gen.normal(scale=gen.uniform(0.0, 3.0), size=m)
        dist = np.exp(logits - logits.max())
        cases.append((dist / dist.sum(), k))
    for trial, (dist, k) in enumerate(cases):
        ref_rng = np.random.Generator(make(trial))
        new_rng = np.random.Generator(make(trial))
        if trial % 2:
            # leaves half of a 64-bit draw buffered in the bit generator
            assert ref_rng.random(dtype=np.float32) == new_rng.random(dtype=np.float32)
        assert sample_candidates(dist, k, new_rng) == reference_sample_candidates(dist, k, ref_rng)


def test_sample_candidates_renormalises_like_rng_choice():
    # a dist summing to 1 + 5e-9 is accepted; rng.choice divides the cumulative
    # sum by its last entry, which moves the first bin edge from just above the
    # first uniform draw u to just below it, so the draw lands in bin 1
    u = np.random.default_rng(21).random()
    total = 1.0 + 5e-9
    dist = np.array([u * total * (1.0 - 1e-10), 0.0, 0.0])
    dist[1] = total - dist[0]
    ref = reference_sample_candidates(dist, 1, np.random.default_rng(21))
    got = sample_candidates(dist, 1, np.random.default_rng(21))
    assert got == ref == [1]


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
        sample_candidates(np.array(dist), 1, np.random.default_rng(0))


# -- the one prior rule against the two functions it replaced --------------------
#
# ``reference_beta_distribution`` and ``reference_psi_prior`` are the sampling
# and selection priors as they were before both became one rule over one
# distance vector per expansion.  Each measured the library's distances to the
# anchor itself; psi mixed in its uniform term only when epsilon_psi > 0.

def _reference_shifted_softmax(neg_scaled):
    shifted = neg_scaled - neg_scaled.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def reference_beta_distribution(lib, anchor, alpha, epsilon):
    dists = lib.distances_to(anchor)
    return (1.0 - epsilon) * _reference_shifted_softmax(-alpha * dists) + epsilon / lib.m


def reference_psi_prior(candidates, lib, anchor, alpha_psi, epsilon_psi=0.0):
    dists = lib.distances_to(np.asarray(anchor, dtype=float))[candidates]
    probs = _reference_shifted_softmax(-alpha_psi * dists)
    if epsilon_psi > 0.0:
        probs = (1.0 - epsilon_psi) * probs + epsilon_psi / len(candidates)
    return probs


def test_one_rule_matches_both_reference_priors_bitwise():
    gen = np.random.default_rng(13)
    seen = {"eps_psi_zero": 0, "eps_psi_positive": 0, "alpha_zero": 0, "one_candidate": 0}
    for trial in range(2000):
        m, horizon, dim = (int(gen.integers(1, hi)) for hi in (40, 5, 4))
        lib = MacroLibrary(gen.normal(scale=gen.uniform(0.1, 3.0), size=(m, horizon, dim)),
                           gen.normal(size=dim), gen.uniform(0.3, 2.0, size=dim))
        anchor = gen.normal(size=(horizon, dim))
        alpha_zero = trial % 7 == 0
        alpha_beta = 0.0 if alpha_zero else float(gen.uniform(0.0, 20.0))
        alpha_psi = 0.0 if alpha_zero else float(gen.uniform(0.0, 20.0))
        epsilon_beta = float(gen.choice([0.0, 1.0, gen.uniform()]))
        epsilon_psi = 0.0 if trial % 2 else float(gen.choice([1.0, gen.uniform()]))
        k = 1 if trial % 5 == 0 else int(gen.integers(1, m + 1))

        dists = lib.distances_to(anchor)
        probs = beta_distribution(dists, alpha_beta, epsilon_beta)
        expected = reference_beta_distribution(lib, anchor, alpha_beta, epsilon_beta)
        assert probs.tobytes() == expected.tobytes()
        cands = sample_candidates(probs, k, np.random.default_rng(trial))
        got = psi_prior(dists[cands], alpha_psi, epsilon_psi)
        want = reference_psi_prior(cands, lib, anchor, alpha_psi, epsilon_psi)
        assert got.tobytes() == want.tobytes()
        seen["eps_psi_zero"] += epsilon_psi == 0.0
        seen["eps_psi_positive"] += epsilon_psi > 0.0
        seen["alpha_zero"] += alpha_zero
        seen["one_candidate"] += k == 1
    assert min(seen.values()) >= 200, seen


def test_expand_takes_both_reference_priors(model, tasks, library):
    # the library indices and psi that expand gives the children are those of
    # the two reference priors, each of which measured the anchor's distances
    # itself
    from types import SimpleNamespace

    from vlaps.search import CostMeter, SearchConfig, TreeNode, expand

    gen = np.random.default_rng(5)
    for trial in range(40):
        cfg = SearchConfig(k=int(gen.integers(1, 12)), alpha_beta=float(gen.uniform(0, 20)),
                           epsilon_beta=float(gen.uniform()),
                           alpha_psi=float(gen.uniform(0, 20)),
                           epsilon_psi=0.0 if trial % 2 else float(gen.uniform()))
        anchor = library.prototypes[int(gen.integers(library.m))] + gen.normal(
            scale=0.2, size=(library.horizon, library.action_dim))
        prior = SimpleNamespace(sample_macro=lambda obs, task, rng: anchor)
        task = tasks[trial % len(tasks)]
        node = TreeNode(model.reset(trial, task.task_id), 0, 0)
        expand(node, prior, library, model, task, cfg, np.random.default_rng(0),
               np.random.default_rng(trial), CostMeter(cfg), 1)
        dist = reference_beta_distribution(library, anchor, cfg.alpha_beta, cfg.epsilon_beta)
        expected = sample_candidates(dist, cfg.k, np.random.default_rng(trial))
        assert [child.proto for child in node.children] == expected
        psi = reference_psi_prior(expected, library, anchor, cfg.alpha_psi, cfg.epsilon_psi)
        assert np.array([child.psi for child in node.children]).tobytes() == psi.tobytes()


class _JsonLinePrior:
    """A prior that answers each query with the next line's JSON ``"macro"``,
    as parsed and unchecked."""

    def __init__(self, lines):
        self.lines = list(lines)

    def sample_macro(self, obs, task, rng):
        return json.loads(self.lines.pop(0))["macro"]


def test_search_reports_bad_line_prior_macros(model, tasks, library):
    # a prior that passes on any JSON reply it parses: the search checks
    # what it returns, at whichever of its two query sites asked
    from vlaps.errors import PriorQueryError
    from vlaps.rngutil import RngFactory
    from vlaps.search import CostMeter, SearchConfig, search_once

    good = json.dumps({"macro": [[0.0, 0.0, -1.0]] * 4}) + "\n"
    bad = {
        "one_dimensional": ([0.1, 0.0, -1.0], r"macro shape \(3,\)"),
        "two_columns": ([[0.1, 0.0]] * 4, r"macro shape \(4, 2\)"),
        "nan": ([[0.1, 0.0, -1.0], [math.nan, 0.0, -1.0]], r"macro row 1 \[nan, .* not finite"),
        # JSON strings and booleans are not numbers, though numpy reads them so
        "strings": ([["0.1", 0, 0]] * 4, r"macro \[\['0.1', 0, 0\], .* is not numeric"),
        "booleans": ([[True, False, True]] * 4, r"macro \[\[True, False, True\], .* is not numeric"),
    }
    cfg = SearchConfig(n_mc=5, k=4, d_sim_max=4, t_max=1e9)
    task = tasks[0]
    start = model.reset(0, task.task_id)
    for macro, error in bad.values():
        reply = json.dumps({"macro": macro}) + "\n"
        # the first query is the root rollout's; a good 4-step reply uses up
        # its 4-step cap, so the next query is the root expansion's
        for lines, where in (([reply], "in rollout"), ([good, reply], "in expand at depth 0")):
            prior = _JsonLinePrior(lines)
            with pytest.raises(PriorQueryError, match=f"{where}: {error}"):
                search_once(start, task, prior, library, model, cfg,
                            streams=RngFactory(0), meter=CostMeter(cfg))
