"""Validity conjuncts, per-list properties, and the trial predicates."""

from itertools import combinations

from dataclasses import replace

from hypothesis import given, strategies as st

from chordcheck.ident import RingParams
from chordcheck.netstate import init_network
from chordcheck.events import apply_event, apply_fail, apply_stabilize_from_old_successor
from chordcheck.invariants import (
    conjuncts,
    conjuncts_reference,
    eight_conjunct_trial,
    is_valid,
    list_properties,
    must_pre_date,
    six_conjunct_trial,
    skips,
    trial_predicates,
)
from chordcheck.checker import (
    enumerate_raw_list_states,
    enumerate_valid_states,
    preservation_cases,
    sample_raw_states,
    sample_valid_states,
)

from conftest import (
    undersized_init_state,
    wrap_trap_state,
    make_net,
    valid_with_date_conflict,
    valid_with_eject,
)

PARAMS = RingParams(m=6, r=2)


class TestSkips:
    def test_wrap_list_skips_members(self):
        net = wrap_trap_state()
        assert skips(net, 52, 20)
        assert skips(net, 52, 31)

    def test_mentioned_members_not_skipped(self):
        net = wrap_trap_state()
        assert not skips(net, 52, 3)
        assert not skips(net, 52, 45)

    def test_ideal_network_skips_nobody(self):
        net = init_network(PARAMS, [7, 19, 33])
        for n in net.live:
            for n2 in net.live:
                assert not skips(net, n, n2)


class TestConjuncts:
    def test_init_failure_disconnects_appendages(self):
        net = apply_fail(undersized_init_state(), 48, force=True)
        report = conjuncts(net)
        assert not report.connected_appendages
        assert not report.at_least_one_ring
        assert not report.valid

    def test_wrap_stage0_base_always_skipped(self):
        net = wrap_trap_state()
        for base in combinations(sorted(net.live), 3):
            report = conjuncts(replace(net, base=frozenset(base)))
            assert not report.base_not_skipped

    def test_wrap_disorders_ring(self):
        net = apply_stabilize_from_old_successor(apply_fail(wrap_trap_state(), 3), 52)
        report = conjuncts(net)
        assert not report.ordered_ring
        assert net.node(52).succ_list == (45, 20)

    def test_small_ring_ordered_vacuously(self):
        net = make_net(
            6, 2, base=[],
            nodes={1: (None, (9, 20)), 9: (None, (1, 20)), 20: (None, (1, 9))},
        )
        # ring is {1, 9}: too small for an order violation
        assert conjuncts(net).ordered_ring

    def test_pure_function(self):
        net = wrap_trap_state()
        assert conjuncts(net) == conjuncts(net)


class TestListProperties:
    def test_duplicated_entries(self):
        net = undersized_init_state()
        props = list_properties(net, 62)
        assert not props.no_duplicates

    def test_wrap_list_is_clean(self):
        net = wrap_trap_state()
        props = list_properties(net, 52)
        assert props.no_duplicates
        assert props.ordered_successor_lists

    def test_disordered_triple(self):
        net = make_net(
            6, 2, base=[],
            nodes={0: (None, (20, 10)), 10: (None, (20, 0)), 20: (None, (0, 10))},
        )
        assert not list_properties(net, 0).ordered_successor_lists


class TestTrialPredicates:
    def test_wrap_final_stage_date_conflict(self):
        net = apply_stabilize_from_old_successor(apply_fail(wrap_trap_state(), 3), 52)
        assert not trial_predicates(net).no_conflicting_dates
        assert must_pre_date(net, 45, 52)
        assert must_pre_date(net, 52, 45)

    def test_wrap_stage0_has_eject(self):
        assert not trial_predicates(wrap_trap_state()).no_ejects

    def test_ideal_network_clean(self):
        net = init_network(PARAMS, [7, 19, 33])
        t = trial_predicates(net)
        assert t.no_conflicting_dates
        assert t.no_ejects


class TestValidDoesNotImplyTrialConjuncts:
    def test_valid_state_with_eject(self):
        net = valid_with_eject()
        assert is_valid(net)
        assert not trial_predicates(net).no_ejects

    def test_valid_state_with_date_conflict(self):
        net = valid_with_date_conflict()
        assert is_valid(net)
        assert not trial_predicates(net).no_conflicting_dates
        assert must_pre_date(net, 30, 20)
        assert must_pre_date(net, 20, 30)


class TestTrialInvariantEvaluators:
    def test_wrap_stage0_passes_six_fails_eight(self):
        net = wrap_trap_state()
        assert six_conjunct_trial(net)
        assert not eight_conjunct_trial(net)  # the eject

    def test_fresh_ring_passes_both(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert six_conjunct_trial(net)
        assert eight_conjunct_trial(net)


class TestImplications:
    def test_base_not_skipped_forces_clean_lists(self):
        # Raw random assignments: whenever BaseNotSkipped holds, every live
        # extended list must be duplicate-free and ordered. Random raw lists
        # rarely satisfy it, so valid samples (which always do) are mixed in.
        sources = [
            sample_raw_states(RingParams(6, 2), 5, 3000, seed=3),
            sample_valid_states(RingParams(6, 2), 7, 300, seed=3),
        ]
        checked = 0
        for source in sources:
            for net in source:
                if not conjuncts(net).base_not_skipped:
                    continue
                checked += 1
                for n in net.live:
                    props = list_properties(net, n)
                    assert props.no_duplicates
                    assert props.ordered_successor_lists
        assert checked >= 300

    def test_valid_samples_satisfy_implied_properties(self):
        for net in sample_valid_states(PARAMS, 8, 200, seed=17):
            for n in net.live:
                props = list_properties(net, n)
                assert props.no_duplicates and props.ordered_successor_lists


class TestConjunctsMatchReference:
    """The one-pass conjuncts against the from-scratch oracle."""

    def test_every_raw_list_state_up_to_four_nodes(self):
        for net in enumerate_raw_list_states(RingParams(3, 2), 4):
            assert conjuncts(net) == conjuncts_reference(net), net

    def test_every_post_event_state_of_the_three_node_sweep(self):
        checked = 0
        for net in enumerate_valid_states(RingParams(3, 2), 3):
            for prepared, ev in preservation_cases(net):
                post = apply_event(prepared, ev)
                assert conjuncts(post) == conjuncts_reference(post), (prepared, ev)
                checked += 1
        assert checked > 0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sampled_raw_states(self, seed):
        for net in sample_raw_states(RingParams(6, 3), 9, 20, seed):
            assert conjuncts(net) == conjuncts_reference(net), net
