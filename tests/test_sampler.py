"""The constructive sampler against its old builder (`sampler_oracle`).

The rewrite must make the same `rng` calls in the same order, so every
seed yields the same networks: equal, with the same node order, and with
the generator left in the same state.
"""

import random

import pytest

from chordcheck import checker
from chordcheck.ident import RingParams

import sampler_oracle as oracle

GRID = ((3, 2, 8), (3, 6, 8), (3, 7, 8), (3, 4, 5), (6, 2, 9), (6, 3, 9), (6, 3, 64), (8, 3, 40))
# The builder's keywords, then the oracle's. The builder has no `min_ring`:
# RingParams forces r >= 2, so its ring floor r + 1 is at least 3 already,
# and the oracle's `min_ring=3` branch must draw the same networks.
BRANCHES = {
    "base": ({"with_base": True}, {"with_base": True}),
    "no-base": ({"with_base": False}, {"with_base": False}),
    "no-base-ring3": ({"with_base": False}, {"with_base": False, "min_ring": 3}),
}
SEEDS = range(40)
DRAWS = 5


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("m,r,max_nodes", GRID)
def test_networks_and_rng_state_match_the_oracle(m, r, max_nodes, branch):
    params, (kwargs, oracle_kwargs) = RingParams(m, r), BRANCHES[branch]
    for seed in SEEDS:
        fast, old = random.Random(seed), random.Random(seed)
        for draw in range(DRAWS):
            net = checker._structured_network(fast, params, max_nodes, **kwargs)
            expected = oracle._structured_network(old, params, max_nodes, **oracle_kwargs)
            where = (seed, draw)
            assert net == expected, where
            assert list(net.nodes) == list(expected.nodes), where
            assert fast.getstate() == old.getstate(), where


def _streams(monkeypatch, sample):
    """The networks `sample()` yields with the sampler, then with the oracle's builder."""
    fast = list(sample())
    monkeypatch.setattr(checker, "_structured_network", oracle._structured_network)
    return fast, list(sample())


@pytest.mark.parametrize("r,seed", [(2, 1), (3, 2), (3, 3)])
def test_valid_stream_matches_the_oracle(monkeypatch, r, seed):
    fast, old = _streams(
        monkeypatch, lambda: checker.sample_valid_states(RingParams(6, r), 9, 200, seed)
    )
    assert len(fast) == 200
    assert fast == old


@pytest.mark.parametrize("trial", ["six-conjunct", "eight-conjunct"])
def test_trial_stream_matches_the_oracle(monkeypatch, trial):
    fast, old = _streams(
        monkeypatch, lambda: checker.sample_trial_states(RingParams(6, 2), 8, 100, 4, trial)
    )
    assert len(fast) == 100
    assert fast == old
