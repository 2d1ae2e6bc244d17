"""Event semantics: enabling, application, atomicity, and the join handshake."""

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from chordcheck.ident import RingParams, between
from chordcheck.netstate import NodeState, init_network
from chordcheck.events import (
    AssumptionBreach,
    Event,
    EventKind,
    EventNotEnabled,
    FaultFlags,
    _join_guard,
    apply_event,
    apply_rectify,
    apply_stabilize_from_new_successor,
    apply_stabilize_from_old_successor,
    enabled_events,
    event_from_dict,
    event_to_dict,
    failable,
    guard,
    is_enabled,
    join_precondition_holds,
)
from chordcheck.measure import effective_enabled
from chordcheck.checker import sample_valid_states
from chordcheck.topology import best_successor

import events_oracle as oracle
from conftest import (
    apply_fail,
    apply_join,
    apply_join_lookup,
    make_net,
    oracle_states,
    undersized_init_state,
    wrap_trap_state,
)

PARAMS = RingParams(m=6, r=2)


def fresh_ring():
    return init_network(PARAMS, [7, 19, 33])


class TestJoinLookup:
    def test_records_proper_successor(self):
        net = apply_join_lookup(fresh_ring(), 10, known=7)
        assert net.node(10).pending_new_succ == 19
        assert not net.is_live(10)

    def test_live_node_cannot_lookup(self):
        with pytest.raises(EventNotEnabled):
            apply_join_lookup(fresh_ring(), 19)

    def test_dead_contact_times_out(self):
        net = fresh_ring()
        assert apply_join_lookup(net, 10, known=42) == net

    def test_no_overlapping_join(self):
        net = apply_join_lookup(fresh_ring(), 10, known=7)
        with pytest.raises(EventNotEnabled):
            apply_join_lookup(net, 10, known=7)


class TestJoin:
    def test_copies_successor_list(self):
        net = apply_join(apply_join_lookup(fresh_ring(), 10, known=7), 10)
        assert net.is_live(10)
        assert net.node(10).succ_list == (19, 33)
        assert net.node(10).pred is None
        assert net.node(10).pending_new_succ is None

    def test_dead_target_clears_intermediate(self):
        net = apply_join_lookup(fresh_ring(), 10, known=7)
        # 19 fails before the join completes; 19 is in the base here, so
        # rebuild the same shape with a fail-able target instead.
        net = make_net(
            6, 2, base=[7, 33, 50],
            nodes={7: (50, (19, 33)), 19: (7, (33, 50)), 33: (19, (50, 7)), 50: (33, (7, 19))},
        )
        net = apply_join_lookup(net, 10, known=7)
        assert net.node(10).pending_new_succ == 19
        net = apply_fail(net, 19)
        net2 = apply_join(net, 10)
        assert not net2.is_live(10)
        assert net2.node(10).pending_new_succ is None

    def test_base_member_between_blocks_join(self):
        # A lookup result separated from the joiner by a base member can
        # never be adopted.
        net = fresh_ring()
        state = apply_join_lookup(net, 10, known=7).node(10)
        blocked = net.with_node(replace(state, pending_new_succ=33))
        assert not join_precondition_holds(blocked, 10, 33)
        with pytest.raises(EventNotEnabled):
            apply_join(blocked, 10)

    def test_a_blocked_join_is_enabled_once_its_successor_fails(self):
        # 10's lookup answered 25, but the base member 19 lies between them,
        # so its Join may not complete; once 25 fails it clears the lookup.
        start = make_net(
            6, 2, base=[7, 19, 33],
            nodes={7: (33, (19, 25)), 19: (7, (25, 33)), 25: (19, (33, 7)), 33: (25, (7, 19))},
        )
        start = start.with_node(NodeState(10, (), None, 25))
        join = Event(EventKind.JOIN, 10)
        assert _join_guard(start, join) == "a base member lies between 10 and 25"
        failed = apply_fail(start, 25)
        assert _join_guard(failed, join) is None
        cleared = apply_join(failed, 10)
        assert not cleared.is_live(10) and cleared.node(10).pending_new_succ is None

    def test_precondition_has_no_mutable_term(self):
        # Once the lookup establishes the precondition, any interleaving of
        # other nodes' events preserves it.
        rng = random.Random(4)
        net = apply_join_lookup(fresh_ring(), 10, known=7)
        target = net.node(10).pending_new_succ
        assert join_precondition_holds(net, 10, target)
        for _ in range(30):
            options = [
                ev
                for ev in enabled_events(net)
                if ev.node != 10 and ev.kind is not EventKind.FAIL
            ]
            if not options:
                break
            net = apply_event(net, options[rng.randrange(len(options))])
            assert net.node(10).pending_new_succ == target
            assert join_precondition_holds(net, 10, target)


class TestStabilizeFromOldSuccessor:
    def test_acquires_candidate_without_list_change(self):
        net = apply_join(apply_join_lookup(fresh_ring(), 10, known=7), 10)
        net = apply_rectify(net, 19, 10)
        before = net.node(7).succ_list
        net = apply_stabilize_from_old_successor(net, 7)
        assert net.node(7).succ_list == before
        assert net.node(7).pending_candidate == 10

    def test_skips_dead_prefix(self):
        net = apply_fail(wrap_trap_state(), 3)
        net = apply_stabilize_from_old_successor(net, 52)
        assert net.node(52).succ_list == (45, 20)

    def test_all_dead_list_is_a_breach(self):
        net = apply_fail(undersized_init_state(), 48, force=True)
        with pytest.raises(AssumptionBreach):
            apply_stabilize_from_old_successor(net, 62)


class TestStabilizeFromNewSuccessor:
    def test_adopts_closer_successor(self):
        net = apply_join(apply_join_lookup(fresh_ring(), 10, known=7), 10)
        net = apply_rectify(net, 19, 10)
        net = apply_stabilize_from_old_successor(net, 7)
        net = apply_stabilize_from_new_successor(net, 7)
        assert net.node(7).succ_list == (10, 19)
        assert net.node(7).pending_candidate is None

    def test_farther_candidate_not_adopted(self):
        net = apply_join(apply_join_lookup(fresh_ring(), 10, known=7), 10)
        net = apply_stabilize_from_old_successor(net, 10)  # candidate is 7
        assert net.node(10).pending_candidate == 7
        assert not between(10, 7, 19)
        ev = Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, 10)
        assert not is_enabled(net, ev)
        post = apply_stabilize_from_new_successor(net, 10)
        assert post.node(10).succ_list == (19, 33)
        assert post.node(10).pending_candidate is None

    def test_no_candidate_not_enabled(self):
        net = fresh_ring()
        ev = Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, 7)
        assert not is_enabled(net, ev)

    def test_dead_candidate_times_out(self):
        net = make_net(
            6, 2, base=[7, 33, 50],
            nodes={7: (50, (19, 33)), 19: (7, (33, 50)), 33: (19, (50, 7)), 50: (33, (7, 19))},
        )
        net = net.with_node(replace(net.node(33), pending_candidate=19))
        net = apply_fail(net, 19)
        post = apply_stabilize_from_new_successor(net, 33)
        assert post.node(33).succ_list == net.node(33).succ_list
        assert post.node(33).pending_candidate is None


class TestRectify:
    def test_adopts_closer_notifier(self):
        net = apply_join(apply_join_lookup(fresh_ring(), 10, known=7), 10)
        net = apply_rectify(net, 19, 10)
        assert net.node(19).pred == 10

    def test_null_pred_adopts_unconditionally(self):
        net = apply_join(apply_join_lookup(fresh_ring(), 10, known=7), 10)
        # 10 has pred Null; 7 notifies after adopting 10.
        net = apply_rectify(net, 19, 10)
        net = apply_stabilize_from_old_successor(net, 7)
        net = apply_stabilize_from_new_successor(net, 7)
        net = apply_rectify(net, 10, 7)
        assert net.node(10).pred == 7

    def test_dead_pred_replaced(self):
        net = make_net(
            6, 2, base=[7, 33, 50],
            nodes={7: (19, (19, 33)), 19: (7, (33, 50)), 33: (19, (50, 7)), 50: (33, (7, 19))},
        )
        net = apply_fail(net, 19)
        net = apply_stabilize_from_old_successor(net, 7)  # 7 now heads to 33
        net = apply_rectify(net, 33, 7)
        assert net.node(33).pred == 7

    def test_farther_notifier_ignored(self):
        net = fresh_ring()
        post = apply_rectify(net, 19, 7)
        assert post.node(19).pred == 7  # unchanged; 7 was already the pred

    def test_requires_notifier_head(self):
        net = fresh_ring()
        with pytest.raises(EventNotEnabled):
            apply_rectify(net, 33, 7)  # 7's head is 19, it would not notify 33


class TestFail:
    def test_non_base_member_can_fail(self):
        net = wrap_trap_state()
        assert is_enabled(net, Event(EventKind.FAIL, 3))
        assert not apply_fail(net, 3).is_live(3)

    def test_base_member_cannot_fail(self):
        net = wrap_trap_state()
        assert not is_enabled(net, Event(EventKind.FAIL, 20))
        with pytest.raises(EventNotEnabled):
            apply_fail(net, 20)

    def test_stranding_fail_not_enabled(self):
        net = make_net(
            6, 2, base=[7, 33, 50],
            nodes={
                7: (50, (19, 19)),
                19: (7, (33, 50)),
                33: (19, (50, 7)),
                50: (33, (7, 19)),
            },
        )
        # 7's list holds only 19; removing 19 would strand it.
        with pytest.raises(EventNotEnabled):
            apply_fail(net, 19)
        assert apply_fail(net, 19, force=True).is_live(19) is False


    def test_failable_matches_the_guard_oracle(self):
        states = blocked = stranded = 0
        for net in oracle_states():
            expected = {n for n in net.live if oracle.fail_guard_holds(net, n)}
            assert failable(net) == expected, net
            guarded = {n for n in net.live if guard(net, Event(EventKind.FAIL, n)) is None}
            assert guarded == expected - net.base, net
            states += 1
            blocked += len(expected) < net.size
            stranded += any(
                not any(e in net.live for e in net.node(m).succ_list) for m in net.live
            )
        assert states > 14_000 and blocked > 0 and stranded > 0


class TestEnabledEvents:
    def test_ideal_network_offers_repairs_but_none_effective(self):
        net = fresh_ring()
        kinds = {ev.kind for ev in enabled_events(net)}
        assert EventKind.STABILIZE_FROM_OLD_SUCCESSOR in kinds
        assert EventKind.RECTIFY in kinds
        assert EventKind.STABILIZE_FROM_NEW_SUCCESSOR not in kinds
        assert effective_enabled(net) == []

    def test_join_notification_enabled_after_join(self):
        net = apply_join(apply_join_lookup(fresh_ring(), 10, known=7), 10)
        assert is_enabled(net, Event(EventKind.RECTIFY, 19, new_pred=10))

    def test_no_pending_no_sfns(self):
        net = fresh_ring()
        assert not any(
            ev.kind is EventKind.STABILIZE_FROM_NEW_SUCCESSOR
            for ev in enabled_events(net)
        )

    def test_deterministic_order(self):
        net = apply_join(apply_join_lookup(fresh_ring(), 10, known=7), 10)
        assert enabled_events(net) == enabled_events(net)


class TestSingleWriterAtomicity:
    def test_events_touch_only_their_executor(self):
        for net in sample_valid_states(RingParams(6, 3), 8, 60, seed=23):
            for ev in enabled_events(net):
                post = apply_event(net, ev)
                for ident in net.nodes:
                    if ident == ev.node:
                        continue
                    assert post.nodes[ident] == net.nodes[ident]
                changed_liveness = net.live ^ post.live
                assert changed_liveness <= {ev.node}

    def test_lists_keep_length_and_known_entries(self):
        for net in sample_valid_states(RingParams(6, 2), 8, 60, seed=29):
            ever = set(net.nodes)
            for ev in enabled_events(net):
                post = apply_event(net, ev)
                for n in post.live:
                    assert len(post.node(n).succ_list) == post.params.r
                    assert set(post.node(n).succ_list) <= set(post.nodes)
                assert ever <= set(post.nodes)


class TestEventSerialization:
    def test_round_trip(self):
        for ev in (
            Event(EventKind.JOIN_LOOKUP, 10, known=7),
            Event(EventKind.JOIN, 10),
            Event(EventKind.RECTIFY, 19, new_pred=10),
            Event(EventKind.FAIL, 3),
        ):
            assert event_from_dict(event_to_dict(ev)) == ev

    @pytest.mark.parametrize(
        "rec, message",
        [
            ([{"kind": "Fail", "node": 3}], "event [{'kind': 'Fail', 'node': 3}] is not an object"),
            ({"node": 3}, "kind None is not an event kind"),
            ({"kind": "Leave", "node": 3}, "kind 'Leave' is not an event kind"),
            ({"kind": ["Fail"], "node": 3}, "kind ['Fail'] is not an event kind"),
            ({"kind": "Fail"}, "node None is not an integer"),
            ({"kind": "Fail", "node": "3"}, "node '3' is not an integer"),
            ({"kind": "Fail", "node": True}, "node True is not an integer"),
            ({"kind": "Rectify", "node": 3, "newPred": "1"}, "newPred '1' is not an integer"),
            ({"kind": "JoinLookup", "node": 3, "known": 1.5}, "known 1.5 is not an integer"),
        ],
    )
    def test_malformed_record_raises_value_error_naming_the_field(self, rec, message):
        with pytest.raises(ValueError) as err:
            event_from_dict(rec)
        assert str(err.value) == message


def _candidate_events(net):
    """Every kind at every tracked identifier, plus the edge cases of each guard.

    Joiners include an out-of-space and an untracked identifier, and the
    first departed node also asks through a live and a dead contact. Rectify
    is sent from each live member to the head of its list, from each node to
    itself, without a notifier and from a dead notifier.
    """
    space = net.params.space
    tracked = sorted(net.nodes)
    live = net.live_idents()
    dead = [i for i in tracked if not net.is_live(i)]
    untracked = next(i for i in range(space + 1) if i not in net.nodes)
    for j in tracked + [untracked, space]:
        yield Event(EventKind.JOIN_LOOKUP, j)
        yield Event(EventKind.JOIN, j)
    for j in dead[:1]:
        for known in (live[0], j):
            yield Event(EventKind.JOIN_LOOKUP, j, known=known)
    for n in tracked + [untracked]:
        yield Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, n)
        yield Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n)
        yield Event(EventKind.FAIL, n)
        yield Event(EventKind.RECTIFY, n, new_pred=n)
    for p in live:
        yield Event(EventKind.RECTIFY, net.node(p).succ_list[0], new_pred=p)
    for p in [None, *dead[:1]]:
        yield Event(EventKind.RECTIFY, live[0], new_pred=p)


def _timeout_states():
    """A join whose looked-up successor died, and a stored candidate that died."""
    net = make_net(
        6, 2, base=[7, 33, 50],
        nodes={7: (50, (19, 33)), 19: (7, (33, 50)), 33: (19, (50, 7)), 50: (33, (7, 19))},
    )
    net = apply_join_lookup(net, 10, known=7)
    net = net.with_node(replace(net.node(33), pending_candidate=19))
    yield apply_fail(net, 19)


def _join_target_dead(net, j):
    state = net.nodes.get(j)
    return (
        not net.is_live(j)
        and state is not None
        and state.pending_new_succ is not None
        and not net.is_live(state.pending_new_succ)
    )


def _outcome(apply, net, ev, **kw):
    try:
        return apply(net, ev, **kw)
    except Exception as err:  # noqa: BLE001 - the exception type is the outcome
        return type(err)


class TestGuardTableMatchesTheOracle:
    """The guard table against the guards as written before it (`events_oracle`).

    The old code left two inputs unguarded, and only there do the outcomes
    differ: a JoinLookup outside the identifier space was enabled but raised
    ValueError, and a Rectify without a notifier raised AssertionError. Both
    are now guard failures: not enabled, and EventNotEnabled. One difference
    is intended: a Join whose looked-up successor has died was not enabled
    in the oracle, and is now an enabled step with the same outcome (the
    lookup is cleared).
    """

    def test_enabling_and_outcomes_agree_on_every_candidate(self):
        faulty = FaultFlags(unchecked_adoption=True, short_join=True)
        seen = Counter()
        for net in itertools.chain(oracle_states(), _timeout_states()):
            for ev in _candidate_events(net):
                old, new = _outcome(oracle.apply_event, net, ev), _outcome(apply_event, net, ev)
                enabled = is_enabled(net, ev)
                if ev.kind is EventKind.JOIN_LOOKUP and not 0 <= ev.node < net.params.space:
                    assert (old, new, enabled) == (ValueError, EventNotEnabled, False)
                elif ev.kind is EventKind.RECTIFY and ev.new_pred is None:
                    assert (old, new, enabled) == (AssertionError, EventNotEnabled, False)
                elif ev.kind is EventKind.JOIN and _join_target_dead(net, ev.node):
                    assert new == old and new.nodes[ev.node].pending_new_succ is None
                    assert (enabled, oracle.is_enabled(net, ev)) == (True, False)
                    seen[ev.kind, "target dead"] += 1
                else:
                    assert new == old, (net, ev)
                    assert enabled == oracle.is_enabled(net, ev), (net, ev)
                if ev.kind is EventKind.FAIL:
                    forced = _outcome(apply_event, net, ev, force=True)
                    assert forced == _outcome(oracle.apply_event, net, ev, force=True)
                if ev.kind in (EventKind.JOIN, EventKind.STABILIZE_FROM_NEW_SUCCESSOR):
                    faulted = _outcome(apply_event, net, ev, faults=faulty)
                    assert faulted == _outcome(oracle.apply_event, net, ev, faults=faulty)
                outcome = new if isinstance(new, type) else "timeout" if not enabled else "applied"
                seen[ev.kind, outcome if new != net else "unchanged"] += 1
        # Every kind is seen enabled and refused; every timeout kind times out.
        for kind in EventKind:
            assert seen[kind, "applied"] and seen[kind, EventNotEnabled], kind
        assert seen[EventKind.STABILIZE_FROM_OLD_SUCCESSOR, AssumptionBreach]
        assert seen[EventKind.JOIN, "target dead"]
        for kind in (EventKind.JOIN_LOOKUP, EventKind.STABILIZE_FROM_NEW_SUCCESSOR):
            assert seen[kind, "timeout"] or seen[kind, "unchanged"], kind

    def test_listing_matches_the_old_listing_loops(self):
        for net in oracle_states():
            listing = enabled_events(net)
            # Order included: the simulator draws by index, and the explorer
            # reports violations in slot order.
            assert listing == oracle.listing_loop(net), net
            assert sorted(listing, key=oracle.sort_key) == oracle.enabled_events(net)
            if all(best_successor(net, n) is not None for n in net.live):
                # The simulator's repair pool, in the order it draws from.
                pool = [ev for ev in enabled_events(net, ()) if ev.kind is not EventKind.FAIL]
                assert pool == oracle._repair_pool(net, net.live_idents())
