"""Structural queries: best successors, ring detection, ideality, lookup."""

from dataclasses import replace

import pytest

from chordcheck.ident import RingParams, between, clockwise_rank
from chordcheck.netstate import NodeState, init_network
from chordcheck.topology import (
    HEAD_MOVED,
    LIST_CHANGED,
    LIVENESS_CHANGED,
    best_successor,
    change_code,
    is_ideal,
    lookup_succ,
    ring_cycle,
    ring_members,
    _walk,
)
from chordcheck.invariants import is_valid
from chordcheck.measure import total_error
from chordcheck.checker import sample_valid_states

from conftest import apply_fail, make_net, oracle_states, valid_with_appendage_chain, wrap_trap_state
from topology_oracle import globally_correct_pred, globally_correct_succ

PARAMS = RingParams(m=6, r=2)


class TestBestSuccessor:
    def test_skips_dead_head(self):
        net = apply_fail(wrap_trap_state(), 3)
        assert best_successor(net, 52) == 45

    def test_all_live_returns_head(self):
        net = wrap_trap_state()
        assert best_successor(net, 52) == 3

    def test_all_dead_returns_none(self):
        net = make_net(
            6, 2, base=[],
            nodes={37: (None, (48, 48)), 62: (None, (48, 48))},
            dead={48: (None, (48, 48))},
        )
        assert best_successor(net, 62) is None

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            best_successor(wrap_trap_state(), 11)


class TestRingMembers:
    def test_appendages_excluded(self):
        net = valid_with_appendage_chain()
        assert ring_members(net) == frozenset({14, 23, 37, 48})
        assert net.live - _walk(net).ring == frozenset({9, 50, 53, 63})

    def test_ideal_network_is_all_ring(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert ring_members(net) == frozenset({7, 19, 33})

    def test_wrap_stage0_ring(self):
        net = wrap_trap_state()
        assert ring_members(net) == frozenset({3, 20, 31, 52})
        assert net.live - _walk(net).ring == frozenset({45})

    def test_cycle_order(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert ring_cycle(net) == (7, 19, 33)


class TestGloballyCorrectSucc:
    def test_nearest_clockwise(self):
        net = valid_with_appendage_chain()
        assert globally_correct_succ(net, 48, 1) == 50

    def test_second_nearest(self):
        net = init_network(RingParams(6, 2), [7, 10, 19])
        assert globally_correct_succ(net, 7, 2) == 19

    def test_matches_rank_inverse(self):
        # Independent oracle: the i-th nearest member is the unique one whose
        # clockwise rank from n equals i - 1.
        for net in sample_valid_states(RingParams(6, 3), 9, 50, seed=5):
            live = set(net.live)
            for n in net.live_idents():
                for i in range(1, len(live)):
                    target = globally_correct_succ(net, n, i)
                    assert clockwise_rank(n, target, live) == i - 1

    def test_globally_correct_pred(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert globally_correct_pred(net, 7) == 33

    def test_rejects_too_few_members(self):
        net = init_network(PARAMS, [7, 19, 33])
        with pytest.raises(ValueError):
            globally_correct_succ(net, 7, 3)


class TestIsIdeal:
    def test_fresh_ring_ideal(self):
        assert is_ideal(init_network(PARAMS, [1, 21, 42]))

    def test_appendages_not_ideal(self):
        assert not is_ideal(valid_with_appendage_chain())

    def test_stale_pred_not_ideal(self):
        net = init_network(PARAMS, [7, 19, 33])
        from dataclasses import replace

        broken = net.with_node(replace(net.node(7), pred=None))
        assert not is_ideal(broken)

    def test_fewer_than_r_plus_one_members_not_ideal(self):
        net = make_net(6, 2, base=[], nodes={10: (20, (20, 10)), 20: (10, (10, 20))})
        assert not is_ideal(net)

    def test_ideal_iff_zero_error(self):
        for net in sample_valid_states(RingParams(6, 2), 8, 200, seed=9):
            assert is_ideal(net) == (total_error(net) == 0)

    def test_ideal_implies_valid(self):
        for net in sample_valid_states(RingParams(6, 2), 8, 200, seed=13):
            if is_ideal(net):
                assert is_valid(net)


    def test_matches_the_globally_correct_oracle(self):
        def ideal_by_oracle(net):
            r = net.params.r
            return net.size >= r + 1 and all(
                net.node(n).succ_list
                == tuple(globally_correct_succ(net, n, i) for i in range(1, r + 1))
                and net.node(n).pred == globally_correct_pred(net, n)
                for n in net.live
            )

        verdicts = set()
        for net in oracle_states():
            verdict = is_ideal(net)
            assert verdict == ideal_by_oracle(net), net
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestLookupSucc:
    def test_join_target(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert lookup_succ(net, 10) == 19

    def test_one_member_cycle_succeeds_every_joiner(self):
        # 7 lists only itself, so its arc from 7 round to 7 holds every
        # other identifier.
        net = make_net(6, 2, [7], {7: (7, [7, 7])})
        assert _walk(net).cycle == (7,)
        assert all(lookup_succ(net, j) == 7 for j in range(64) if j != 7)

    def test_rejects_live_identifier(self):
        net = init_network(PARAMS, [7, 19, 33])
        with pytest.raises(ValueError):
            lookup_succ(net, 19)

    def test_matches_the_ring_cycle_oracle(self):
        for net in sample_valid_states(RingParams(6, 3), 9, 200, seed=22):
            walk = _walk(net)
            cycle = ring_cycle(net)
            assert walk.ring == ring_members(net)
            assert walk.cycle == cycle
            k = len(cycle)
            for j in range(64):
                if net.is_live(j):
                    continue
                expected = next(
                    cycle[(i + 1) % k] for i in range(k) if between(cycle[i], j, cycle[(i + 1) % k])
                )
                assert lookup_succ(net, j) == expected

    def test_between_consistency(self):
        # For the returned y and its ring predecessor x, between(x, j, y).
        for net in sample_valid_states(RingParams(6, 2), 9, 100, seed=21):
            cycle = ring_cycle(net)
            free = [i for i in range(64) if not net.is_live(i)]
            if not free:
                continue
            j = free[0]
            y = lookup_succ(net, j)
            assert y in ring_members(net)
            k = len(cycle)
            x = cycle[(cycle.index(y) - 1) % k]
            assert x == y or between(x, j, y)


def _changed_start():
    """A four-ring in which 7 still lists the dead 25 first, and 10 is joining."""
    net = make_net(
        6, 2, base=[7, 33, 50],
        nodes={7: (50, (25, 19)), 19: (7, (33, 50)), 33: (19, (50, 7)), 50: (33, (7, 19))},
        dead={25: (19, (33, 50))},
    )
    return net.with_node(NodeState(10, (), None, None))


class TestChangeCode:
    """`change_code` on hand-built (parent, post) pairs, one per outcome."""

    @pytest.mark.parametrize(
        "edit, executor, changed",
        [
            (lambda net: net.with_node(net.node(19), live=False), 19, LIVENESS_CHANGED | HEAD_MOVED),
            (
                lambda net: net.with_node(NodeState(10, (19, 33), None), live=True),
                10,
                LIVENESS_CHANGED | HEAD_MOVED | LIST_CHANGED,
            ),
            (lambda net: net.with_node(NodeState(10, (), None, 19)), 10, 0),
            (lambda net: net.with_node(replace(net.node(19), pred=10)), 19, 0),
            (lambda net: net.with_node(replace(net.node(7), pending_candidate=10)), 7, 0),
            (lambda net: net.with_node(replace(net.node(7), succ_list=(19, 33))), 7, LIST_CHANGED),
            (lambda net: net.with_node(replace(net.node(19), succ_list=(33, 7))), 19, LIST_CHANGED),
            (
                lambda net: net.with_node(replace(net.node(7), succ_list=(33, 50))),
                7,
                LIST_CHANGED | HEAD_MOVED,
            ),
        ],
        ids=[
            "fail", "join", "joiner-step", "pred-only", "pending-only",
            "dead-head-dropped", "tail-changed", "head-moved",
        ],
    )
    def test_each_outcome(self, edit, executor, changed):
        parent = _changed_start()
        code = change_code(parent, edit(parent), executor)
        assert code == executor << 3 | changed
