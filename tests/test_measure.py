"""Pointer-error scoring, total error, and the effective-repair predicates."""

import itertools
from collections import Counter
from dataclasses import replace

import pytest

from chordcheck.ident import RingParams
from chordcheck.netstate import init_network
from chordcheck.events import (
    Event,
    EventKind,
    apply_event,
    apply_rectify,
    apply_stabilize_from_new_successor,
    apply_stabilize_from_old_successor,
    effect_delta,
)
from chordcheck.measure import (
    effective_enabled,
    error_vector,
    error_vector_after,
    member_error,
    total_error,
    visible_state,
)
from chordcheck.topology import is_ideal
from chordcheck.checker import enumerate_valid_states, sample_raw_states, sample_valid_states

import events_oracle as oracle
from measure_oracle import ROLE_PRED, error_report, pointer_error, succ_role
from conftest import (
    apply_join,
    apply_join_lookup,
    convergence_configs,
    cross_term_state,
    make_net,
    oracle_states,
    sim_networks,
    two_bystander_state,
    wrap_trap_state,
)

PARAMS = RingParams(m=6, r=2)


class TestPointerError:
    def test_ideal_scores_zero_everywhere(self):
        net = init_network(PARAMS, [7, 19, 33])
        for n in net.live:
            for role in (ROLE_PRED, succ_role(1), succ_role(2)):
                assert pointer_error(net, n, role) == 0

    def test_null_pred_scores_member_count(self):
        net = make_net(
            6, 2, base=[1, 2, 3],
            nodes={1: (None, (2, 3)), 2: (1, (3, 1)), 3: (2, (1, 2))},
        )
        assert pointer_error(net, 1, ROLE_PRED) == 3
        assert total_error(net) == 3

    def test_dead_first_successor_scores_s_plus_one(self):
        # The ideal five-net {0, 5, 10, 20, 30} right after 5 fails: nobody
        # has stabilized yet, so 0 heads at the dead node and 30's copied
        # tail still names it (which keeps 30's copy relationally matching).
        net = make_net(
            6, 2, base=[10, 20, 30],
            nodes={
                0: (30, (5, 10)),
                10: (5, (20, 30)),
                20: (10, (30, 0)),
                30: (20, (0, 5)),
            },
            dead={5: (0, (10, 20))},
        )
        assert pointer_error(net, 0, succ_role(1)) == 5  # s + 1 with s = 4
        assert pointer_error(net, 0, succ_role(2)) == 1  # unevaluatable against dead head
        assert pointer_error(net, 30, succ_role(2)) == 0  # matches 0's stored head
        assert pointer_error(net, 10, ROLE_PRED) == 5  # dead predecessor: s + 1
        assert total_error(net) == 11

    def test_stale_but_matching_second_successor_scores_zero(self):
        net = init_network(PARAMS, [7, 19, 33])
        net = apply_join(apply_join_lookup(net, 10, known=7), 10)
        # 33's copy (7, 19) still matches 7's stale head 19.
        assert pointer_error(net, 33, succ_role(2)) == 0

    def test_rejects_non_member(self):
        net = init_network(PARAMS, [7, 19, 33])
        with pytest.raises(ValueError):
            pointer_error(net, 10, ROLE_PRED)


class TestTotalErrorAlongJoin:
    def test_five_stage_sequence(self):
        # Derived by evaluating the measure after each event of the join
        # incorporation walkthrough; frozen here.
        net = init_network(PARAMS, [7, 19, 33])
        errors = [total_error(net)]
        net = apply_join_lookup(net, 10, known=7)
        errors.append(total_error(net))
        net = apply_join(net, 10)
        errors.append(total_error(net))
        net = apply_stabilize_from_old_successor(net, 10)
        errors.append(total_error(net))
        net = apply_rectify(net, 19, 10)
        errors.append(total_error(net))
        net = apply_stabilize_from_old_successor(net, 7)
        errors.append(total_error(net))
        net = apply_stabilize_from_new_successor(net, 7)
        errors.append(total_error(net))
        net = apply_rectify(net, 10, 7)
        errors.append(total_error(net))
        assert errors == [0, 0, 6, 6, 5, 5, 5, 1]
        # One more copy-down makes the network ideal.
        net = apply_stabilize_from_old_successor(net, 33)
        assert total_error(net) == 0
        assert is_ideal(net)

    def test_report_totals_match(self):
        net = wrap_trap_state()
        rep = error_report(net)
        assert rep.total == total_error(net)
        assert rep.total == sum(rep.per_pointer.values())


class TestEffectiveEnabled:
    def test_ideal_network_not_improvable(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert effective_enabled(net) == []
        assert not bool(effective_enabled(net))

    def test_dead_successor_makes_stabilize_effective(self):
        net = apply_event(wrap_trap_state(), Event(EventKind.FAIL, 3))
        kinds = {(e.kind, e.node) for e in effective_enabled(net)}
        assert (EventKind.STABILIZE_FROM_OLD_SUCCESSOR, 52) in kinds

    def test_effective_events_change_executor_state(self):
        for net in sample_valid_states(RingParams(6, 3), 9, 150, seed=7):
            for ev in effective_enabled(net):
                if ev.kind is EventKind.STABILIZE_FROM_NEW_SUCCESSOR:
                    post = apply_stabilize_from_new_successor(net, ev.node)
                else:
                    post = apply_event(net, ev)
                assert visible_state(post, ev.node) != visible_state(net, ev.node)

    def test_valid_non_ideal_states_improvable(self):
        for net in sample_valid_states(RingParams(6, 2), 9, 300, seed=19):
            if not is_ideal(net):
                assert bool(effective_enabled(net))

    def test_matches_the_oracle(self):
        # Exhaustive m=3 states, raw m=6 states and the pinned simulations,
        # sampled valid states at r=2 and r=3, and every network of
        # criterion 7's simulations.
        states = itertools.chain(
            oracle_states(),
            sample_valid_states(RingParams(6, 2), 9, 2000, seed=5),
            sample_valid_states(RingParams(6, 3), 9, 2000, seed=6),
            *(sim_networks(cfg) for cfg in convergence_configs()),
        )
        for net in states:
            assert effective_enabled(net) == oracle.effective_enabled(net)

    def test_only_repair_kinds_count(self):
        repair = {
            EventKind.STABILIZE_FROM_OLD_SUCCESSOR,
            EventKind.STABILIZE_FROM_NEW_SUCCESSOR,
            EventKind.RECTIFY,
        }
        for net in sample_valid_states(RingParams(6, 2), 9, 100, seed=31):
            assert {ev.kind for ev in effective_enabled(net)} <= repair


class TestErrorVector:
    """The per-level error vector falls lexicographically where the total
    error stays flat or rises."""

    def test_flat_total_is_a_lexicographic_decrease(self):
        net = cross_term_state()
        post = apply_stabilize_from_new_successor(net, 10)
        assert error_vector(net) == (1, 0)
        assert error_vector(post) == (0, 1)

    def test_rising_total_is_a_lexicographic_decrease(self):
        net = two_bystander_state()
        post = apply_stabilize_from_new_successor(net, 10)
        assert error_vector(net) == (2, 0)
        assert error_vector(post) == (1, 2)

    @pytest.mark.parametrize("r", [2, 3])
    def test_sums_to_total_error(self, r):
        for net in sample_valid_states(RingParams(6, r), 9, 200, seed=61 + r):
            vec = error_vector(net)
            per = error_report(net).per_pointer
            levels = [{ROLE_PRED, succ_role(1)}] + [{succ_role(k)} for k in range(2, r + 1)]
            assert vec == tuple(
                sum(e for (_, role), e in per.items() if role in roles) for roles in levels
            )
            assert sum(vec) == total_error(net)
            assert (not any(vec)) == is_ideal(net)

    def test_matches_per_role_pointer_error_sums(self):
        # Per level for `error_vector`, and per member for `member_error`,
        # the executor-local monotonicity check's score.
        nonzero = 0
        for net in oracle_states():
            r = net.params.r
            level_roles = [(ROLE_PRED, succ_role(1))] + [(succ_role(k),) for k in range(2, r + 1)]
            per_member = {
                n: [sum(pointer_error(net, n, role) for role in roles) for roles in level_roles]
                for n in net.live
            }
            expected = tuple(sum(levels[k] for levels in per_member.values()) for k in range(r))
            assert error_vector(net) == expected, net
            for n, levels in per_member.items():
                assert member_error(net, n) == sum(levels), (net, n)
            nonzero += any(expected)
        assert nonzero > 0


class TestErrorVectorAfter:
    """`error_vector_after` against `error_vector` of the rewritten network."""

    @staticmethod
    def _effective_cases(states):
        """Judge every effective case; count them by kind, and the list changes
        that some other member's head reads."""
        kinds, read_by_others = Counter(), 0
        for net in states:
            before = error_vector(net)
            for ev in effective_enabled(net):
                delta = effect_delta(net, ev)
                assert net.with_node(*delta) == apply_event(net, ev)
                state, live = delta
                assert live is None
                assert error_vector_after(net, before, state) == error_vector(net.with_node(state))
                kinds[ev.kind.value] += 1
                n = ev.node
                read_by_others += state.succ_list != net.node(n).succ_list and any(
                    net.node(m).succ_list[0] == n for m in net.live if m != n
                )
        return kinds, read_by_others

    def test_every_exhaustive_case(self):
        kinds, read_by_others = self._effective_cases(enumerate_valid_states(RingParams(3, 2), 4))
        assert kinds == {
            "Rectify": 35144,
            "StabilizeFromOldSuccessor": 7000,
            "StabilizeFromNewSuccessor": 1000,
        }
        # Every list change has a member headed at its executor: a delta that
        # skips those members' scores is caught here.
        assert read_by_others == 8000

    @pytest.mark.parametrize("r", [2, 3])
    def test_every_effective_case_of_sampled_states(self, r):
        states = sample_valid_states(RingParams(6, r), 8, 2000, seed=70 + r)
        kinds, read_by_others = self._effective_cases(states)
        assert len(kinds) == 3 and read_by_others > 0

    @pytest.mark.parametrize("r, count", [(2, 40), (3, 12)])
    def test_every_one_node_rewrite_of_raw_states(self, r, count):
        # Raw states hold unset, dead and live predecessors, dead heads and
        # self-entries. Every tracked node, members and departed nodes alike,
        # is given every predecessor and every list over the tracked nodes.
        seen = Counter()
        for net in sample_raw_states(RingParams(6, r), r + 2, count, seed=80 + r):
            before = error_vector(net)
            ids = sorted(net.nodes)
            for n in ids:
                old = net.node(n)
                for pred in (None, *ids):
                    for succ_list in itertools.product(ids, repeat=r):
                        state = replace(old, pred=pred, succ_list=succ_list)
                        expected = error_vector(net.with_node(state))
                        assert error_vector_after(net, before, state) == expected
                        if n not in net.live:
                            seen["departed node"] += 1
                            continue
                        if pred != old.pred:
                            was = "unset" if old.pred is None else (
                                "live" if net.is_live(old.pred) else "dead"
                            )
                            seen[f"pred {was} -> other"] += 1
                        if succ_list != old.succ_list:
                            seen["old head dead"] += not net.is_live(old.succ_list[0])
                            seen["self-headed"] += n in (old.succ_list[0], succ_list[0])
                            seen["headed at the executor"] += any(
                                net.node(m).succ_list[0] == n for m in net.live if m != n
                            )
        assert len(seen) == 7 and all(seen.values()), seen


class TestMeasureCrossTerm:
    """A real adoption can leave the total error flat: improving one node's
    first successor desynchronizes copies other nodes hold of its old list.
    The executor's own pointer errors still strictly decrease."""

    def test_flat_total_error_counterexample(self):
        net = cross_term_state()
        assert total_error(net) == 1
        events = effective_enabled(net)
        assert [(e.kind, e.node) for e in events] == [
            (EventKind.STABILIZE_FROM_NEW_SUCCESSOR, 10)
        ]
        post = apply_stabilize_from_new_successor(net, 10)
        assert post.node(10).succ_list == (15, 20)
        assert total_error(post) == 1  # 30's copied entry went stale: no net progress

    def test_executor_local_error_still_decreases(self):
        net = cross_term_state()
        post = apply_stabilize_from_new_successor(net, 10)
        roles = (ROLE_PRED, succ_role(1), succ_role(2))
        before = sum(pointer_error(net, 10, role) for role in roles)
        after = sum(pointer_error(post, 10, role) for role in roles)
        assert after < before

    def test_convergence_still_happens(self):
        net = cross_term_state()
        net = apply_stabilize_from_new_successor(net, 10)
        net = apply_stabilize_from_old_successor(net, 30)
        assert total_error(net) == 0
        assert is_ideal(net)

    def test_two_bystanders_make_the_total_rise(self):
        # With two nodes holding copies of the adopter's old list the total
        # error strictly increases, the strongest form of the cross-term.
        net = make_net(
            6, 2, base=[10, 20, 30],
            nodes={
                10: (40, (20, 30)),
                15: (10, (20, 30)),
                20: (15, (30, 10)),
                30: (20, (10, 20)),
                40: (30, (10, 20)),
            },
        )
        from chordcheck.invariants import is_valid

        assert is_valid(net)
        assert total_error(net) == 2
        post = apply_stabilize_from_new_successor(net, 10)
        assert total_error(post) == 3
