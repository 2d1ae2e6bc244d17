"""Validity conjuncts, per-list properties, and the trial predicates."""

from itertools import combinations

from dataclasses import replace

from hypothesis import given, strategies as st
import pytest

from chordcheck.ident import RingParams
from chordcheck.netstate import Network, extended_succ_list, init_network
from chordcheck.events import (
    Event,
    EventKind,
    apply_event,
    apply_stabilize_from_old_successor,
    guard,
)
from chordcheck.invariants import (
    conjuncts,
    conjuncts_reference,
    eight_conjunct_trial,
    is_valid,
    list_properties,
    six_conjunct_trial,
    skips,
    trial_predicates,
    _skips_live_base,
)
from chordcheck.topology import _walk, lookup_succ, ring_members
from chordcheck.checker import (
    _list_states,
    _raw_lists,
    enumerate_valid_states,
    preservation_cases,
    sample_raw_states,
    sample_valid_states,
)

from conftest import (
    apply_fail,
    undersized_init_state,
    wrap_trap_state,
    make_net,
    valid_with_date_conflict,
    valid_with_eject,
)

PARAMS = RingParams(m=6, r=2)


def must_pre_date(net: Network, n1: int, n2: int) -> bool:
    """Both ring members, and some ring member (possibly n1) mentions n1 and skips n2.

    The from-scratch form of one pair of the date relation that
    `trial_predicates` builds for every ring member at once.
    """
    ring = ring_members(net)
    if n1 not in ring or n2 not in ring:
        return False
    for n3 in ring:
        if n1 in extended_succ_list(net, n3) and skips(net, n3, n2):
            return True
    return False


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
        # One sweep of the raw list states of `enumerate_raw_list_states`
        # judges the conjuncts, the walk's ring verdict, the validity
        # verdict, the base-skip scan (`TestBaseSkipScan`) and the JoinLookup
        # guard, each against its oracle. The states come from `_list_states`
        # in groups that differ only in the base, so what reads no base is
        # judged once per group: the oracle's four ring conjuncts, the walk's
        # verdict, and the guard, which asks only whether the walk has a
        # cycle while the lookup must then answer the smallest non-member.
        params = RingParams(3, 2)
        seen: dict[tuple, bool] = {}
        states = wraps = no_ring = 0
        for _, live, nodes, bases in _list_states(params, 4, _raw_lists):
            references = None
            for base in bases:
                net = Network(params, base, nodes, live)
                if references is None:
                    # The group's two possible reports, by BaseNotSkipped.
                    ring = replace(conjuncts_reference(net), base_not_skipped=True)
                    references = {True: ring, False: replace(ring, base_not_skipped=False)}
                    assert _walk(net).valid == ring.valid, net
                    j = next(i for i in range(params.space) if i not in live)
                    answered = guard(net, Event(EventKind.JOIN_LOOKUP, j)) is None
                    assert answered == (lookup_succ(net, j) is not None), net
                    no_ring += not answered
                skipped, new_wraps = TestBaseSkipScan.check(net, seen)
                reference = references[not skipped]
                assert conjuncts(net) == reference, net
                assert is_valid(net) == reference.valid, net
                states += 1
                wraps += new_wraps
        assert states == 279_257 and wraps > 0 and no_ring > 0

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
            reference = conjuncts_reference(net)
            assert conjuncts(net) == reference, net
            assert is_valid(net) == reference.valid, net
            assert _walk(net).valid == replace(reference, base_not_skipped=True).valid, net


class TestBaseSkipScan:
    """`_skips_live_base`, the loop-form scan behind `conjuncts` and
    `valid_after`, against the `skips`-based scan of `conjuncts_reference`,
    over every live member at once and each one alone. The raw list states
    up to four nodes are judged in `TestConjunctsMatchReference`'s sweep."""

    @staticmethod
    def check(net, seen: dict[tuple, bool]) -> tuple[bool, int]:
        """Check one network; return the oracle's verdict (some live member
        skips a live base member) and how many adjacent pairs of the members
        not yet in `seen` wrap to their own id.

        A member's verdict, by either scan, reads only its list and the live
        base, which many enumerated networks share, so it is judged once per
        such key and `seen` keeps the oracle's across networks.
        """
        wraps = 0
        live_base = tuple(sorted(b for b in net.base if net.is_live(b)))
        per_member = []
        for n in net.live:
            key = (n, net.node(n).succ_list, live_base)
            if key not in seen:
                seen[key] = any(skips(net, n, b) for b in live_base)
                assert _skips_live_base(net, (n,)) == seen[key], (net, n)
                ext = (n,) + key[1]
                wraps += sum(a == c for a, c in zip(ext, ext[1:]))
            per_member.append(seen[key])
        skipped = any(per_member)
        assert _skips_live_base(net, net.live) == skipped, net
        return skipped, wraps

    @pytest.mark.parametrize("r", [2, 3])
    def test_sampled_raw_states(self, r):
        seen: dict[tuple, bool] = {}
        nets = sample_raw_states(RingParams(6, r), 9, 3000, seed=90 + r)
        assert sum(self.check(net, seen)[1] for net in nets) > 0

    def test_a_pair_wrapping_to_its_own_id(self):
        # between(x, y, x) holds for every y but x: the pair (7, 7) skips
        # every other live base member, and nothing when 7 is the only one.
        base, lists = (7, 19, 33), {7: (None, (7, 19)), 19: (None, (33, 7)), 33: (None, (7, 19))}
        net = make_net(6, 2, base, lists)
        assert _skips_live_base(net, (7,)) and skips(net, 7, 19)
        alone = make_net(6, 2, base, {7: (None, (7, 7))}, dead={19: (None, (33, 7)), 33: (None, (7, 19))})
        assert not _skips_live_base(alone, (7,)) and not skips(alone, 7, 7)
