"""State generation, lemma checks, exploration, and counterexample search."""

import itertools

import pytest

from chordcheck.ident import RingParams
from chordcheck.netstate import Network, NodeState, init_network
from chordcheck.events import (
    Event,
    EventKind,
    FaultFlags,
    apply_event,
    apply_join,
    apply_join_lookup,
    apply_rectify,
    apply_stabilize_from_new_successor,
    apply_stabilize_from_old_successor,
)
from chordcheck.invariants import (
    conjuncts,
    conjuncts_reference,
    eight_conjunct_trial,
    is_valid,
    six_conjunct_trial,
    trial_predicates,
)
from chordcheck.measure import effective_enabled, total_error
from chordcheck.topology import is_ideal
from chordcheck import checker

SMALL = RingParams(m=3, r=2)
WIDE = RingParams(m=6, r=2)


class TestEnumerateValidStates:
    def test_three_node_states_are_the_ideal_ring_shapes(self):
        states = list(checker.enumerate_valid_states(SMALL, 3))
        # One list shape (the ideal 3-ring), free choice of predecessors.
        assert len(states) == 4**3
        for net in states:
            assert net.node(0).succ_list == (1, 2)
            assert net.node(1).succ_list == (2, 0)
            assert net.node(2).succ_list == (0, 1)
            assert is_valid(net)

    def test_count_matches_bruteforce_oracle(self):
        enumerated = sum(1 for _ in checker.enumerate_valid_states(SMALL, 4))
        assert enumerated == checker.count_valid_states_bruteforce(SMALL, 4)

    def test_deterministic_order(self):
        first = [n.canonical_key() for n in checker.enumerate_valid_states(SMALL, 4)]
        second = [n.canonical_key() for n in checker.enumerate_valid_states(SMALL, 4)]
        assert first[:200] == second[:200]

    def test_same_states_as_the_full_product(self):
        factored = {n.canonical_key() for n in checker.enumerate_valid_states(SMALL, 4)}
        assert factored == {n.canonical_key() for n in _full_product_valid_states(SMALL, 4)}

    def test_every_state_passes_the_reference_conjuncts(self):
        for net in checker.enumerate_valid_states(SMALL, 4):
            assert conjuncts_reference(net).valid

    def test_rejects_bounds_beyond_ceiling(self):
        with pytest.raises(ValueError):
            next(checker.enumerate_valid_states(SMALL, 5))
        with pytest.raises(ValueError):
            next(checker.enumerate_valid_states(RingParams(m=3, r=3), 4))


def _full_product_valid_states(params, max_nodes):
    """Generate-and-filter over every (list, predecessor) choice per live node.

    The enumeration before predecessors were factored out, kept as the
    oracle for the shape-major one.
    """
    r = params.r
    for n_total in range(r + 1, max_nodes + 1):
        ids = tuple(range(n_total))
        for live_size in range(r + 1, n_total + 1):
            for live in itertools.combinations(ids, live_size):
                live_set = frozenset(live)
                dead = tuple(i for i in ids if i not in live_set)
                for base in itertools.combinations(live, r + 1):
                    per_node = [
                        [
                            NodeState(ident=x, succ_list=pair, pred=p)
                            for pair in checker._ordered_pairs(x, [i for i in ids if i != x])
                            for p in [None, *ids]
                        ]
                        for x in live
                    ]
                    placeholders = {d: checker._dead_placeholder(d, ids, r) for d in dead}
                    for combo in itertools.product(*per_node):
                        nodes = {s.ident: s for s in combo}
                        nodes.update(placeholders)
                        net = Network(params=params, base=frozenset(base), nodes=nodes, live=live_set)
                        if is_valid(net):
                            yield net


class TestCheckReport:
    def test_embedded_violation_cap_is_reported(self):
        net = init_network(WIDE, [7, 19, 33])
        report = checker.CheckReport(lemma="L")
        report.add_violation(net, None, "violation 0")
        assert report.to_dict()["violationsTruncated"] is False
        for i in range(1, 30):
            report.add_violation(net, None, f"violation {i}")
        data = report.to_dict()
        assert data["violationCount"] == 30
        assert len(data["violations"]) == checker.CheckReport.MAX_EMBEDDED
        assert data["violationsTruncated"] is True


class TestSampleValidStates:
    def test_every_sample_is_valid(self):
        for net in checker.sample_valid_states(RingParams(6, 3), 9, 500, seed=1):
            assert is_valid(net)

    def test_non_ideal_majority(self):
        states = list(checker.sample_valid_states(WIDE, 9, 10_000, seed=2))
        non_ideal = sum(1 for n in states if not is_ideal(n))
        assert non_ideal / len(states) >= 0.5

    def test_seed_reproducibility(self):
        a = list(checker.sample_valid_states(WIDE, 9, 100, seed=77))
        b = list(checker.sample_valid_states(WIDE, 9, 100, seed=77))
        assert a == b

    def test_includes_obsolete_references(self):
        states = list(checker.sample_valid_states(WIDE, 9, 500, seed=4))
        with_dead = [n for n in states if len(n.nodes) > len(n.live)]
        assert with_dead
        referenced = 0
        for net in with_dead:
            dead = set(net.nodes) - set(net.live)
            if any(set(net.node(m).succ_list) & dead for m in net.live):
                referenced += 1
        assert referenced > 0


class TestPreservation:
    def test_exhaustive_small_slice(self):
        states = list(checker.enumerate_valid_states(SMALL, 3))
        report = checker.check_preservation(iter(states))
        assert report.passed
        assert report.states_checked == len(states)

    def test_sampled_slice(self):
        states = checker.sample_valid_states(RingParams(6, 3), 9, 300, seed=6)
        report = checker.check_preservation(states)
        assert report.passed

    def test_unchecked_adoption_canary_caught(self):
        states = checker.sample_valid_states(WIDE, 8, 4000, seed=8)
        report = checker.check_preservation(
            states, faults=FaultFlags(unchecked_adoption=True), stop_at=1
        )
        assert not report.passed
        v = report.violations[0]
        assert v.event.kind is EventKind.STABILIZE_FROM_NEW_SUCCESSOR

    def test_short_join_canary_caught(self):
        states = checker.sample_valid_states(WIDE, 8, 4000, seed=10)
        report = checker.check_preservation(
            states, faults=FaultFlags(short_join=True), stop_at=1
        )
        assert not report.passed
        v = report.violations[0]
        assert v.event.kind in (EventKind.JOIN, EventKind.FAIL)


class TestProgress:
    def test_exhaustive_small(self):
        states = checker.enumerate_valid_states(SMALL, 4)
        assert checker.check_progress(states).passed

    def test_sampled(self):
        states = checker.sample_valid_states(RingParams(6, 3), 9, 500, seed=12)
        assert checker.check_progress(states).passed


class TestMonotonicity:
    def test_zero_error_characterizes_ideal(self):
        for net in checker.sample_valid_states(WIDE, 9, 300, seed=14):
            assert (total_error(net) == 0) == is_ideal(net)

    def test_strict_decrease_has_known_counterexamples(self):
        # The adoption cross-term (see test_measure) makes the strict decrease
        # of the scalar total error fail even at the exhaustive bound; the
        # executor-local version of the argument survives.
        states = list(checker.enumerate_valid_states(SMALL, 4))
        assert any(after >= before for before, after in _scalar_error_steps(states))
        local = checker.check_executor_local_monotonicity(iter(states))
        assert local.passed

    def test_violations_are_only_flat_never_increasing_at_n4(self):
        # At four nodes the desynchronization can at worst cancel the gain in
        # the scalar total: exactly 500 of the 43144 effective-event cases are
        # flat, none rise.
        steps = list(_scalar_error_steps(checker.enumerate_valid_states(SMALL, 4)))
        assert len(steps) == 43144
        assert sum(after == before for before, after in steps) == 500
        assert not any(after > before for before, after in steps)

    def test_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(checker, "MONOTONICITY_VIOLATION_CAP", 0)
        monkeypatch.setattr(checker, "error_vector", lambda net: (1, 0))
        report = checker.check_monotonicity(checker.sample_valid_states(WIDE, 6, 50, seed=3))
        assert report.info["capped"] is True
        assert report.states_checked < 50


def _scalar_error_steps(states):
    """(total error before, total error after) for every effective repair event."""
    for net in states:
        before = total_error(net)
        for ev in effective_enabled(net):
            if ev.kind is EventKind.STABILIZE_FROM_NEW_SUCCESSOR:
                post = apply_stabilize_from_new_successor(net, ev.node)
            else:
                post = apply_event(net, ev)
            yield before, total_error(post)


class TestExploreReachable:
    def test_join_exploration_stays_valid_and_covers_the_walkthrough(self):
        init = init_network(WIDE, [7, 19, 33])
        report = checker.explore_reachable(
            init, max_joins=1, max_fails=0, max_depth=8, joiners=(10,)
        )
        assert report.passed
        assert not report.info["truncated"]

        # The staged join walkthrough must appear among the reachable states.
        seen_keys = set()
        states = [init]
        net = init
        for step in (
            lambda n: apply_join_lookup(n, 10, known=7),
            lambda n: apply_join(n, 10),
            lambda n: apply_stabilize_from_old_successor(n, 10),
            lambda n: apply_rectify(n, 19, 10),
            lambda n: apply_stabilize_from_old_successor(n, 7),
            lambda n: apply_stabilize_from_new_successor(n, 7),
            lambda n: apply_rectify(n, 10, 7),
        ):
            net = step(net)
            states.append(net)
        report2 = checker.explore_reachable(
            init, max_joins=1, max_fails=0, max_depth=8, joiners=(10,)
        )
        assert report2.passed
        # Re-run exploration collecting keys to compare against the walkthrough.
        reached = _collect_reachable_keys(init, joiners=(10,), depth=8)
        for s in states:
            assert (s.canonical_key(), None) [0] in reached

    def test_zero_budget_reaches_ideal(self):
        net = apply_join(apply_join_lookup(init_network(WIDE, [7, 19, 33]), 10, known=7), 10)
        report = checker.explore_reachable(net, 0, 0, max_depth=12)
        assert report.passed
        reached = _collect_reachable_nets(net, joiners=(), depth=12)
        assert any(is_ideal(s) for s in reached)

    def test_truncation_flag(self):
        init = init_network(WIDE, [7, 19, 33])
        report = checker.explore_reachable(
            init, max_joins=1, max_fails=0, max_depth=8, joiners=(10,), max_states=5
        )
        assert report.info["truncated"]


def _collect_reachable_keys(init, joiners, depth):
    from collections import deque
    from chordcheck.events import enabled_events

    seen = {init.canonical_key()}
    queue = deque([(init, 0, 0)])
    while queue:
        net, joins, d = queue.popleft()
        if d >= depth:
            continue
        allowed = joiners if joins < 1 else ()
        for ev in enabled_events(net, joiners=allowed):
            if ev.kind is EventKind.FAIL:
                continue
            if ev.kind is EventKind.JOIN and joins >= 1:
                continue
            post = apply_event(net, ev)
            key = post.canonical_key()
            if key not in seen:
                seen.add(key)
                queue.append((post, joins + (1 if ev.kind is EventKind.JOIN else 0), d + 1))
    return seen


def _collect_reachable_nets(init, joiners, depth):
    from collections import deque
    from chordcheck.events import enabled_events

    seen = {init.canonical_key(): init}
    queue = deque([(init, 0)])
    while queue:
        net, d = queue.popleft()
        if d >= depth:
            continue
        for ev in enabled_events(net, joiners=joiners):
            if ev.kind is EventKind.FAIL:
                continue
            post = apply_event(net, ev)
            key = post.canonical_key()
            if key not in seen:
                seen[key] = post
                queue.append((post, d + 1))
    return list(seen.values())


class TestTrialSearch:
    def test_six_conjunct_wrap_found(self):
        found = checker.search_trial_counterexample(
            "six-conjunct", WIDE, 7, seed=0, max_states=5000, require_break="orderedRing"
        )
        assert found is not None
        net, ev = found
        assert six_conjunct_trial(net)
        post = apply_event(net, ev)
        assert not six_conjunct_trial(post)
        assert not conjuncts(post).ordered_ring

    def test_eight_conjunct_date_conflict_found(self):
        found = checker.search_trial_counterexample(
            "eight-conjunct",
            WIDE,
            7,
            seed=0,
            max_states=20_000,
            require_break="noConflictingDates",
        )
        assert found is not None
        net, ev = found
        assert eight_conjunct_trial(net)
        post = apply_event(net, ev)
        assert not trial_predicates(post).no_conflicting_dates
        assert ev.kind in (
            EventKind.FAIL,
            EventKind.STABILIZE_FROM_OLD_SUCCESSOR,
            EventKind.STABILIZE_FROM_NEW_SUCCESSOR,
        )

    def test_final_invariant_yields_no_counterexample(self):
        found = checker.search_trial_counterexample(
            "valid", WIDE, 7, seed=0, max_states=1500
        )
        assert found is None
