"""The constructive sampler against its old builder (`sampler_oracle`).

The rewrite must make the same `rng` calls in the same order, so every
seed yields the same networks: equal, with the same node order, and with
the generator left in the same state. Every draw must also be valid by
construction, because `sample_valid_states` yields each one unchecked.
"""

import functools
import random

import pytest

from chordcheck import checker
from chordcheck.ident import RingParams
from chordcheck.invariants import conjuncts_reference, is_valid

import sampler_oracle as oracle

GRID = ((3, 2, 8), (3, 6, 8), (3, 7, 8), (3, 4, 5), (6, 2, 9), (6, 3, 9), (6, 3, 64), (8, 3, 40))
# `_structured_network` always draws a stable base; the oracle's keywords for the same draws.
BRANCHES = {"base": {"with_base": True}}
SEEDS = range(40)
DRAWS = 5


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("m,r,max_nodes", GRID)
def test_networks_and_rng_state_match_the_oracle(m, r, max_nodes, branch):
    params, oracle_kwargs = RingParams(m, r), BRANCHES[branch]
    for seed in SEEDS:
        fast, old = random.Random(seed), random.Random(seed)
        for draw in range(DRAWS):
            net = checker._structured_network(fast, params, max_nodes)
            expected = oracle._structured_network(old, params, max_nodes, **oracle_kwargs)
            where = (seed, draw)
            assert net == expected, where
            assert list(net.nodes) == list(expected.nodes), where
            assert fast.getstate() == old.getstate(), where


@pytest.mark.parametrize("m,r,max_nodes", GRID)
def test_every_draw_is_valid(m, r, max_nodes):
    params = RingParams(m, r)
    for seed in SEEDS:
        rng = random.Random(seed)
        for draw in range(DRAWS):
            net = checker._structured_network(rng, params, max_nodes)
            where = (seed, draw)
            assert is_valid(net), where
            # The from-scratch oracle too, where it is cheap.
            assert max_nodes > 9 or conjuncts_reference(net).valid, where


def _streams(monkeypatch, sample):
    """The networks `sample()` yields with the sampler, then with the oracle's builder."""
    fast = list(sample())
    old_network = functools.partial(oracle._structured_network, with_base=True)
    monkeypatch.setattr(checker, "_structured_network", old_network)
    return fast, list(sample())


@pytest.mark.parametrize("r,seed", [(2, 1), (3, 2), (3, 3)])
def test_valid_stream_matches_the_oracle(monkeypatch, r, seed):
    fast, old = _streams(
        monkeypatch, lambda: checker.sample_valid_states(RingParams(6, r), 9, 200, seed)
    )
    assert len(fast) == 200
    assert fast == old
