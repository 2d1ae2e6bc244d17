"""State generation, lemma checks, exploration, and counterexample search."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path

import pytest

from chordcheck.ident import RingParams
from chordcheck.netstate import Network, NodeState, init_network, node_key
from chordcheck.events import (
    Event,
    EventKind,
    FaultFlags,
    apply_event,
    apply_rectify,
    apply_stabilize_from_new_successor,
    apply_stabilize_from_old_successor,
    effect_delta,
    enabled_events,
    step,
)
from chordcheck.invariants import (
    conjuncts,
    conjuncts_reference,
    eight_conjunct_trial,
    is_valid,
    six_conjunct_trial,
    trial_predicates,
    valid_after,
)
from chordcheck.measure import effective_enabled, total_error
from chordcheck.topology import LIST_CHANGED, LIVENESS_CHANGED, _walk_graph, change_code, is_ideal
from chordcheck import checker, events, invariants

import events_oracle as oracle
from conftest import apply_fail, apply_join, apply_join_lookup, make_net, oracle_states
from measure_oracle import check_executor_local_monotonicity

ROOT = Path(__file__).resolve().parent.parent
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
        assert first == second

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

    @pytest.mark.parametrize("max_nodes", [2, 0, -1])
    def test_rejects_bounds_below_r_plus_one(self, max_nodes):
        with pytest.raises(ValueError):
            next(checker.enumerate_valid_states(SMALL, max_nodes))
        with pytest.raises(ValueError):
            next(checker.enumerate_raw_list_states(SMALL, max_nodes))
        with pytest.raises(ValueError):
            checker.count_valid_states_bruteforce(SMALL, max_nodes)


class TestEnumerateRawListStates:
    def test_every_assignment_and_base_exactly_once(self):
        # n identifiers, k of them live, a base of r+1 live members, and one
        # of n^r raw lists per live member.
        r = SMALL.r
        expected = sum(
            math.comb(n, k) * math.comb(k, r + 1) * (n**r) ** k
            for n in range(r + 1, 5)
            for k in range(r + 1, n + 1)
        )
        assert expected == 279_257
        keys = [net.canonical_key() for net in checker.enumerate_raw_list_states(SMALL, 4)]
        assert len(keys) == expected
        assert len(set(keys)) == expected


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

    def test_only_swept_cases_run_their_guard_again(self, monkeypatch):
        # A listed case's guard ran when `enabled_events` listed it; a swept
        # join or adoption is not listed, so its guard runs once, on applying.
        runs = Counter()
        for kind, (guard, *rest) in list(events._KINDS.items()):

            def counted(net, ev, guard=guard):
                runs[ev.kind] += 1
                return guard(net, ev)

            monkeypatch.setitem(events._KINDS, kind, (counted, *rest))
        cases = Counter()
        for net in checker.sample_valid_states(WIDE, 8, 300, seed=9):
            runs.clear()
            listed = [ev.kind for _, ev in checker.preservation_cases(net)]
            expected = runs + Counter(k for k in listed if k in checker._ACQUIRED)
            runs.clear()
            checker.check_preservation([net])
            assert runs == expected
            cases.update(listed)
        assert set(cases) == set(EventKind)


@pytest.fixture(scope="module")
def n4_states():
    return list(checker.enumerate_valid_states(SMALL, 4))


@pytest.fixture(scope="module")
def bench_r2_reached():
    """The joiners of the benchmark's unrotated r=2 exploration, and every
    state it reaches, by the plain breadth-first search."""
    make_init, joins, fails, depth, joiners = TestExploreReachable.ORACLE_CONFIGS["bench-r2"]
    init = make_init()
    steps = _bfs_steps(init, joins, fails, depth, joiners)
    return joiners, [init] + [post for _, _, post, key in steps if key]


class TestShapeReuse:
    """The reused sweep against one `check_preservation([s])` per state, which reuses nothing."""

    @pytest.mark.parametrize(
        "faults, violations",
        [
            (None, 0),
            (FaultFlags(unchecked_adoption=True), 500),
            (FaultFlags(short_join=True), 2000),
        ],
    )
    def test_reused_sweep_matches_per_state_checks(self, n4_states, faults, violations):
        reused = checker.check_preservation(iter(n4_states), faults=faults)
        singles = [checker.check_preservation([net], faults=faults) for net in n4_states]
        assert reused.states_checked == sum(r.states_checked for r in singles) == 12064
        assert reused.info["cases"] == sum(r.info["cases"] for r in singles) == 111384
        assert reused.violation_count == sum(r.violation_count for r in singles) == violations
        first = next((r.violations[0] for r in singles if r.violations), None)
        assert (reused.violations[0] if reused.violations else None) == first

    def test_stop_at_sees_the_same_first_violation(self, n4_states):
        faults = FaultFlags(short_join=True)
        stopped = checker.check_preservation(iter(n4_states), faults=faults, stop_at=1)
        full = checker.check_preservation(iter(n4_states), faults=faults)
        assert stopped.violation_count == 1
        assert stopped.violations[0] == full.violations[0]

    def test_each_pred_free_key_is_one_contiguous_run(self, n4_states):
        # The one-entry memo only pays off, and is only exercised, when a
        # shape's predecessor assignments follow each other.
        runs = [key for key, _ in itertools.groupby(net.pred_free_key() for net in n4_states)]
        assert len(runs) == len(set(runs)) == 33

    def test_key_separates_everything_but_predecessors(self):
        net = init_network(WIDE, [7, 19, 33])
        state = net.node(7)
        joiner = NodeState(ident=10, succ_list=())
        net = net.with_node(joiner)
        same = net.with_node(replace(state, pred=None))
        assert same.pred_free_key() == net.pred_free_key()
        variants = [
            replace(net, base=frozenset({7, 19, 10})),
            net.without_member(7),
            net.with_node(replace(state, succ_list=(33, 19))),
            net.with_node(replace(state, pending_candidate=10)),
            net.with_node(replace(joiner, pending_new_succ=19)),
        ]
        for other in variants:
            assert other.pred_free_key() != net.pred_free_key()

    def test_a_differing_pending_value_is_checked_again(self):
        # A stored lookup answer disables the joiner's JoinLookup, so the
        # two states have different cases.
        net = init_network(WIDE, [7, 19, 33]).with_node(NodeState(ident=10, succ_list=()))
        pending = net.with_node(NodeState(ident=10, succ_list=(), pending_new_succ=19))
        reused = checker.check_preservation([net, pending])
        singles = [checker.check_preservation([s]) for s in (net, pending)]
        assert singles[0].info["cases"] != singles[1].info["cases"]
        assert reused.info["cases"] == sum(r.info["cases"] for r in singles)
        assert reused.info["shapes"] == 2


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
        local = check_executor_local_monotonicity(iter(states))
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
        # Every effective repair leaves the vector where it was.
        monkeypatch.setattr(checker, "error_vector_after", lambda net, before, state: before)
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


def _rejoined_start():
    """The ideal ring 7, 19, 33 after 10 joined and failed: 10 is tracked, not live."""
    net = apply_join(apply_join_lookup(init_network(WIDE, [7, 19, 33]), 10, known=7), 10)
    net = apply_fail(net, 10)
    assert 10 in net.nodes and not net.is_live(10)
    return net


def _relabeled(net, params, f):
    """`net` in the identifier space of `params`, with every identifier x renamed f(x)."""

    def g(x):
        return None if x is None else f(x)

    nodes = {
        f(x): NodeState(
            f(x), tuple(map(f, s.succ_list)), g(s.pred), g(s.pending_new_succ), g(s.pending_candidate)
        )
        for x, s in net.nodes.items()
    }
    return Network(params, frozenset(map(f, net.base)), nodes, frozenset(map(f, net.live)))


# Renamings that keep the circular order: an order-preserving one into a
# wider space, and a rotation of the same space.
RELABELINGS = {
    "widened": (RingParams(8, 2), lambda x: 4 * x + 1),
    "rotated": (WIDE, lambda x: (x + 37) % WIDE.space),
}


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

    def test_join_whose_target_died_reaches_the_timed_out_state(self, monkeypatch):
        # 10 looked up 19 as its successor, then 19 failed: the Join clears
        # the lookup, and exploration takes that branch.
        net = make_net(
            6, 2, base=[7, 33, 50],
            nodes={7: (50, (19, 33)), 19: (7, (33, 50)), 33: (19, (50, 7)), 50: (33, (7, 19))},
        )
        net = apply_join_lookup(net, 10, known=7)
        assert net.node(10).pending_new_succ == 19
        net = apply_event(net, Event(EventKind.FAIL, 19))
        timed_out = net.with_node(replace(net.node(10), pending_new_succ=None))
        reached = []
        _record_judged(monkeypatch, reached.append)
        report = checker.explore_reachable(net, max_joins=1, max_fails=0, max_depth=1, joiners=(10,))
        assert report.passed
        assert timed_out in reached

    def test_a_join_that_clears_a_dead_lookup_is_not_charged(self, monkeypatch):
        # 19 joins and enters the ring, 10 looks up 19, 19 fails and 10's
        # Join clears the lookup: 10 retries and joins within a budget of 2.
        # The networks the explorer builds follow only the first path to
        # each key, and a shorter path that never clears reaches every
        # retried key first; so every transition it takes, cached or
        # computed, is read from its transition function.
        applied = []

        def record(net, ev, result):
            post = net if result is None else net.with_node(*result[1:])
            applied.append((net.canonical_key(), ev, post))

        _record_transitions(monkeypatch, record)
        init = init_network(WIDE, [7, 33, 50])
        report = checker.explore_reachable(
            init, max_joins=2, max_fails=1, max_depth=9, joiners=(19, 10)
        )
        assert report.passed
        assert not report.info["truncated"]

        def posts(kind, pres, is_member):
            return {
                post.canonical_key()
                for pre, ev, post in applied
                if ev.kind is kind and ev.node == 10 and pre in pres
                and post.is_live(10) is is_member and 19 in post.nodes and not post.is_live(19)
            }

        everything = {pre for pre, _, _ in applied}
        cleared = posts(EventKind.JOIN, everything, False)
        retried = posts(EventKind.JOIN_LOOKUP, cleared, False)
        assert cleared and retried
        assert posts(EventKind.JOIN, retried, True)

    # (init, joins, fails, depth, joiners): the configurations above, the
    # benchmark's unrotated r=2 exploration, and a start that already tracks
    # the joiner 10, which joined and failed.
    ORACLE_CONFIGS = {
        "walkthrough": (lambda: init_network(WIDE, [7, 19, 33]), 1, 0, 8, (10,)),
        "zero-budget": (
            lambda: apply_join(apply_join_lookup(init_network(WIDE, [7, 19, 33]), 10, known=7), 10),
            0, 0, 12, (),
        ),
        "dead-lookup": (lambda: init_network(WIDE, [7, 33, 50]), 2, 1, 9, (19, 10)),
        "bench-r2": (lambda: init_network(WIDE, [7, 19, 33]), 3, 1, 10, (10, 40, 55)),
        "rejoin": (_rejoined_start, 1, 0, 8, (10, 40)),
    }
    # The plain search's states and transitions, where they are pinned.
    ORACLE_COUNTS = {"bench-r2": (13_851, 83_078), "rejoin": (358, 2_348)}

    @pytest.mark.parametrize("name", ORACLE_CONFIGS)
    def test_spliced_keys_match_a_plain_bfs(self, monkeypatch, name):
        make_init, joins, fails, depth, joiners = self.ORACLE_CONFIGS[name]
        init = make_init()
        checked = []
        _record_judged(monkeypatch, lambda net: checked.append(net.canonical_key()))
        report = checker.explore_reachable(init, joins, fails, depth, joiners=joiners)
        order, transitions = _plain_bfs(init, joins, fails, depth, joiners)
        assert checked == [key for key, _, _ in order]
        assert report.info["states"] == len(order)
        assert report.info["transitions"] == transitions
        assert report.passed and not report.info["truncated"]
        if name in self.ORACLE_COUNTS:
            assert (len(order), transitions) == self.ORACLE_COUNTS[name]

    @pytest.mark.parametrize("name", ["walkthrough", "dead-lookup", "rejoin", "bench-r2"])
    def test_relabeling_keeps_the_counts(self, name):
        # The relation reads identifiers only through the circular order, so
        # a verdict holds for every placement with the same cyclic pattern.
        make_init, joins, fails, depth, joiners = self.ORACLE_CONFIGS[name]
        init = make_init()

        def counts(net, joiners):
            info = checker.explore_reachable(net, joins, fails, depth, joiners=joiners).info
            return [info[k] for k in ("states", "transitions", "transitionsByKind", "selfLoops")]

        expected = counts(init, joiners)
        for params, f in RELABELINGS.values():
            assert counts(_relabeled(init, params, f), tuple(map(f, joiners))) == expected

    def test_a_network_is_built_only_for_each_new_state(self, monkeypatch):
        built = []
        with_node = Network.with_node

        def counting(net, *delta, **kwargs):
            built.append(delta)
            return with_node(net, *delta, **kwargs)

        monkeypatch.setattr(Network, "with_node", counting)
        init = init_network(WIDE, [7, 33, 50])
        report = checker.explore_reachable(init, 2, 1, 9, joiners=(19, 10))
        assert len(built) == report.info["states"] - 1
        assert report.info["transitions"] > 2 * report.info["states"]

    def test_repeated_joiners_are_refused(self):
        init = init_network(WIDE, [7, 19, 33])
        with pytest.raises(ValueError, match="joiner 10 is named twice"):
            checker.explore_reachable(init, 1, 0, 6, joiners=(10, 10))

    @pytest.mark.parametrize(
        "joiners, named",
        [
            ((10, 64), "joiner 64 outside the identifier space [0, 64)"),
            ((-1,), "joiner -1 outside the identifier space"),
            ((10, 19), "joiner 19 is a stable-base member"),
        ],
    )
    def test_joiners_that_can_never_join_are_refused(self, joiners, named):
        init = init_network(WIDE, [7, 19, 33])
        with pytest.raises(ValueError, match=re.escape(named)):
            checker.explore_reachable(init, 1, 0, 6, joiners=joiners)

    def test_report_splits_listings_and_transitions(self):
        make_init, joins, fails, depth, joiners = self.ORACLE_CONFIGS["dead-lookup"]
        init = make_init()
        report = checker.explore_reachable(init, joins, fails, depth, joiners=joiners)
        info = report.info
        expanded = sum(1 for _ in _expanded_states(init, joins, fails, depth, joiners))
        assert info["listings"]["rebuilt"] + info["listings"]["carried"] == expanded
        assert info["listings"]["rebuilt"] and info["listings"]["carried"]
        by_kind = info["transitionsByKind"]
        assert sum(by_kind.values()) == info["transitions"]
        assert set(by_kind) == {k.value for k in EventKind}

    def test_truncation_flag(self, monkeypatch):
        # The invalid start below closes at 94 states with 52 violations.
        # Cut at 40, the search keeps the first 40 keys of the plain search
        # and reports the invalid ones among them.
        net = init_network(WIDE, [7, 19, 33])
        net = net.with_node(replace(net.node(7), succ_list=(33, 7)))
        judged = []
        _record_judged(monkeypatch, judged.append)
        report = checker.explore_reachable(net, 1, 0, 6, joiners=(10,), max_states=40)
        assert report.info["truncated"]
        assert report.info["states"] == len(judged) == 40
        order, _ = _plain_bfs(net, 1, 0, 6, (10,))
        assert [s.canonical_key() for s in judged] == [key for key, _, _ in order[:40]]
        invalid = [s for s in judged if not is_valid(s)]
        assert report.violation_count == len(invalid) == 24
        assert [v.network for v in report.violations] == invalid[: checker.CheckReport.MAX_EMBEDDED]

    def test_entry_ids_past_one_byte_keep_the_counts(self, monkeypatch):
        # A sampled 64-member ring at m=8 interns 360 distinct entries, so
        # key ids pass one byte. The counts are those of the tuple keys the
        # packed ones replaced. A value past a field's width raises, never wraps.
        net = next(checker.sample_valid_states(RingParams(8, 2), 64, 1, seed=2))
        entries = set()
        monkeypatch.setattr(checker, "node_key", lambda *a: entries.add(k := node_key(*a)) or k)
        report = checker.explore_reachable(net, 0, 1, 3)
        assert len(entries) == 360
        assert (report.info["states"], report.info["transitions"]) == (15_344, 62_335)
        assert report.passed and not report.info["truncated"]
        with pytest.raises(OverflowError):
            checker._packed(2 ** (8 * checker.KEY_WIDTH))


class _RecordingNodes(Mapping):
    """A `nodes` mapping that logs each identifier looked up or iterated."""

    def __init__(self, nodes, log):
        self._nodes, self._log = nodes, log

    def __getitem__(self, ident):
        self._log.add(ident)
        return self._nodes[ident]

    def __iter__(self):
        self._log.update(self._nodes)
        return iter(self._nodes)

    def __len__(self):
        return len(self._nodes)


class _RecordingLive(frozenset):
    """A live set that logs each identifier tested or iterated."""

    def __new__(cls, live, log):
        recording = super().__new__(cls, live)
        recording.log = log
        return recording

    def __contains__(self, ident):
        self.log.add(ident)
        return frozenset.__contains__(self, ident)

    def __iter__(self):
        self.log.update(frozenset.__iter__(self))
        return frozenset.__iter__(self)


def _effect_reads(net, ev):
    """The identifiers whose state or liveness `effect_delta` reads for `ev`."""
    log = set()
    recording = Network(net.params, net.base, _RecordingNodes(net.nodes, log), _RecordingLive(net.live, log))
    assert effect_delta(recording, ev) == effect_delta(net, ev)
    return log


class TestTransitionCache:
    """The explorer's transitions, cached on each kind's read set
    (`events.read_set`), against the effects they stand for."""

    CONFIGS = {
        **TestExploreReachable.ORACLE_CONFIGS,
        # A closed search over identifiers 0..3, whose joiner joins, fails
        # and joins again, with stored candidates throughout.
        "closed-m3": (lambda: init_network(SMALL, [0, 1, 2]), 2, 1, 1000, (3,)),
    }
    CACHED = {EventKind.STABILIZE_FROM_OLD_SUCCESSOR, EventKind.RECTIFY, EventKind.JOIN, EventKind.FAIL}
    # Each drops a slot its effect reads: the list's second entry, read when
    # the first is dead, and the predecessor whose liveness decides a Rectify.
    MUTANTS = {
        "copy-without-second-entry": (
            EventKind.STABILIZE_FROM_OLD_SUCCESSOR,
            lambda state: state.succ_list[:1] + state.succ_list[2:],
        ),
        "rectify-without-pred": (EventKind.RECTIFY, lambda state: ()),
    }

    def test_effects_read_only_their_executor_and_read_set(self):
        checked = set()
        candidates = dead_heads = 0
        for name, (make_init, joins, fails, depth, joiners) in self.CONFIGS.items():
            for net, _, steps in _expanded_states(make_init(), joins, fails, depth, joiners):
                candidates += any(s.pending_candidate is not None for s in net.nodes.values())
                dead_heads += any(net.node(n).succ_list[0] not in net.live for n in net.live)
                for ev, _, _ in steps:
                    reads = events.read_set(ev.kind)
                    if reads is None:
                        continue
                    allowed = {ev.node, *reads(net.node(ev.node))}
                    assert _effect_reads(net, ev) <= allowed, (name, net, ev)
                    checked.add(ev.kind)
        assert checked == self.CACHED
        assert candidates and dead_heads

    def _compare(self, monkeypatch):
        """Run the explorer on every config, comparing each transition it
        takes with a fresh `effect_delta`: the transitions compared by kind,
        and the (state, event) pairs whose results differ."""
        compared, wrong = Counter(), []

        def record(net, ev, result):
            compared[ev.kind] += 1
            if (None if result is None else result[1:]) != effect_delta(net, ev):
                wrong.append((net, ev))

        _record_transitions(monkeypatch, record)
        for make_init, joins, fails, depth, joiners in self.CONFIGS.values():
            checker.explore_reachable(make_init(), joins, fails, depth, joiners=joiners)
        return compared, wrong

    def test_cached_results_match_effect_delta(self, monkeypatch):
        computed = Counter()

        def counted(net, ev):
            computed[ev.kind] += 1
            return effect_delta(net, ev)

        monkeypatch.setattr(checker, "effect_delta", counted)
        compared, wrong = self._compare(monkeypatch)
        assert wrong == []
        assert set(compared) == set(EventKind)
        for kind in EventKind:
            # A cached kind computes a result only on a miss.
            if kind in self.CACHED:
                assert 0 < computed[kind] < compared[kind]
            else:
                assert computed[kind] == compared[kind]

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_a_read_set_missing_a_slot_fails_the_comparison(self, monkeypatch, mutant):
        kind, reads = self.MUTANTS[mutant]
        monkeypatch.setitem(events._KINDS, kind, events._KINDS[kind][:3] + (reads,))
        _, wrong = self._compare(monkeypatch)
        assert wrong and {ev.kind for _, ev in wrong} == {kind}

    # The benchmark's explorations: ((m, r), base, joins, fails, depth, joiners).
    BENCH_RUNS = {
        "r2": ((6, 2), (7, 19, 33), 3, 1, 10, (10, 40, 55)),
        "r3": ((6, 3), (3, 19, 35, 51), 2, 2, 12, (10, 40)),
    }
    # Prints each run's report, as JSON, from a fresh interpreter.
    FRESH_SCRIPT = (
        "import json, sys\n"
        "from chordcheck.checker import explore_reachable\n"
        "from chordcheck.ident import RingParams\n"
        "from chordcheck.netstate import init_network\n"
        "runs = json.loads(sys.argv[1])\n"
        "print(json.dumps({name: explore_reachable(init_network(RingParams(*p), b), j, f, d, joiners=tuple(js)).to_dict()\n"
        "                  for name, (p, b, j, f, d, js) in runs.items()}))\n"
    )

    def test_the_cache_lives_for_one_call(self):
        # The benchmark's r=2 and r=3 explorations, in both orders and twice
        # each in this process, report as they do in a fresh interpreter.
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.FRESH_SCRIPT, json.dumps(self.BENCH_RUNS)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True,
        )
        fresh = json.loads(done.stdout)
        for order in (("r2", "r3"), ("r3", "r2")):
            for _ in range(2):
                for name in order:
                    (m, r), base, joins, fails, depth, joiners = self.BENCH_RUNS[name]
                    report = checker.explore_reachable(
                        init_network(RingParams(m, r), base), joins, fails, depth, joiners=joiners
                    )
                    assert json.loads(json.dumps(report.to_dict())) == fresh[name], (order, name)


def _judged_as_in_full(parent, post, change):
    """`valid_after` agrees with the from-scratch check of `post`, and any walk
    memoised on `post` (`change_code` may hand it the parent's) is the walk
    `post` makes itself. Returns the verdict."""
    expected = conjuncts_reference(post).valid
    assert valid_after(parent, post, change) == expected
    walk = post.__dict__.get("_walk")
    assert walk is None or walk == _walk_graph(post)
    return expected


class TestDeltaValidity:
    """`valid_after` against the full check, case by case."""

    CONFIGS = {
        **TestExploreReachable.ORACLE_CONFIGS,
        "bench-r3": (lambda: init_network(RingParams(6, 3), [3, 19, 35, 51]), 2, 2, 12, (10, 40)),
    }
    FAULTS = [FaultFlags(), FaultFlags(unchecked_adoption=True), FaultFlags(short_join=True)]

    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_every_explored_transition(self, config):
        make_init, joins, fails, depth, joiners = config
        steps = 0
        for net, ev, post, _ in _bfs_steps(make_init(), joins, fails, depth, joiners):
            assert _judged_as_in_full(net, post, change_code(net, post, ev.node))
            steps += 1
        assert steps > 0

    def _judge_cases(self, states):
        verdicts = {True: 0, False: 0}
        for net in states:
            assert is_valid(net)
            cases = list(checker.preservation_cases(net))
            for faults in self.FAULTS:
                for prepared, ev in cases:
                    post = apply_event(prepared, ev, faults=faults)
                    change = change_code(prepared, post, ev.node)
                    verdicts[_judged_as_in_full(prepared, post, change)] += 1
        return verdicts

    def test_every_case_of_the_exhaustive_shapes(self, n4_states):
        shapes = {net.pred_free_key(): net for net in n4_states}
        assert len(shapes) == 33
        verdicts = self._judge_cases(shapes.values())
        assert verdicts[True] and verdicts[False]

    def test_every_one_list_rewrite_of_the_exhaustive_shapes(self, n4_states):
        # Unlike any event, a rewrite can keep the first live entry and skip
        # a base member further down the list.
        verdicts = {True: 0, False: 0}
        for net in {net.pred_free_key(): net for net in n4_states}.values():
            for n in net.live:
                for succ_list in itertools.product(sorted(net.nodes), repeat=net.params.r):
                    post = net.with_node(replace(net.node(n), succ_list=succ_list))
                    verdicts[_judged_as_in_full(net, post, change_code(net, post, n))] += 1
        assert verdicts[True] and verdicts[False]

    def test_a_kept_head_with_a_later_pair_skipping_the_base(self):
        # 7 keeps its first live entry 19, so the walk is its parent's, but
        # its new pair (19, 7) skips the live base member 33.
        parent = init_network(WIDE, [7, 19, 33])
        post = parent.with_node(replace(parent.node(7), succ_list=(19, 7)))
        change = change_code(parent, post, 7)
        assert change == 7 << 3 | LIST_CHANGED
        assert not valid_after(parent, post, change)
        assert not _judged_as_in_full(parent, post, change)

    def test_a_canary_adoption_whose_later_pair_skips_the_base(self):
        # The dead 7 retains (10, 30, 40). Adopting it as the
        # unchecked_adoption canary does gives 5 the list (7, 10, 30): its
        # first live entry is still 10, so the walk is the parent's, but its
        # pair (10, 30) skips the base member 20. Only the executor's pair
        # scan in `valid_after` sees that.
        live = {5: (10, 20, 30), 10: (20, 30, 40), 20: (30, 40, 5), 30: (40, 5, 10), 40: (5, 10, 20)}
        net = make_net(
            6, 3, [10, 20, 30, 40], {n: (None, lst) for n, lst in live.items()}, dead={7: (None, (10, 30, 40))}
        )
        assert is_valid(net)
        faults = FaultFlags(unchecked_adoption=True)
        report = checker.check_preservation([net], faults=faults)
        assert [v.event for v in report.violations] == [Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, 5)]
        v = report.violations[0]
        post = apply_event(v.network, v.event, faults=faults)
        assert post.node(5).succ_list == (7, 10, 30)
        assert conjuncts(post) == replace(conjuncts(net), base_not_skipped=False)
        clean = checker.check_preservation([net])
        assert clean.passed and clean.info["cases"] == 14

    @staticmethod
    def _judge_liveness_changes(states):
        # No Join from a valid state skips a base member, so only a rewrite
        # reaches a False from the joiner's own pairs. Each tracked non-live
        # node joins with every list; each live non-base member fails.
        verdicts = {True: 0, False: 0}
        for net in states:
            lists = list(itertools.product(sorted(net.nodes), repeat=net.params.r))
            for x in sorted(net.nodes.keys() - net.base):
                if x in net.live:
                    posts = [net.without_member(x)]
                else:
                    posts = [net.with_node(replace(net.node(x), succ_list=sl), True) for sl in lists]
                for post in posts:
                    verdicts[_judged_as_in_full(net, post, change_code(net, post, x))] += 1
        assert verdicts[True] and verdicts[False]

    def test_every_liveness_change_of_the_exhaustive_shapes(self, n4_states):
        self._judge_liveness_changes({net.pred_free_key(): net for net in n4_states}.values())

    def test_every_liveness_change_of_sampled_states(self):
        # At n=4 nearly every broken ring also skips a base member; these
        # rings are larger, so they test the conjuncts read from the walk.
        self._judge_liveness_changes(checker.sample_valid_states(WIDE, 8, 300, seed=72))

    @pytest.mark.parametrize("r", [2, 3])
    def test_every_case_of_sampled_states(self, r):
        states = checker.sample_valid_states(RingParams(6, r), 8, 2000, seed=70 + r)
        verdicts = self._judge_cases(states)
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize(
        "faults, violations", [("unchecked_adoption", 647), ("short_join", 3066)]
    )
    def test_canary_counts_through_the_delta_path(self, faults, violations):
        # The counts the full check gives on every case of these states.
        states = checker.sample_valid_states(WIDE, 8, 2000, seed=5)
        report = checker.check_preservation(states, faults=FaultFlags(**{faults: True}))
        assert report.violation_count == violations

    def test_an_invalid_start_is_still_reported(self, monkeypatch):
        # 7 skips the base member 19; its descendants are judged in full
        # until one is valid again.
        net = init_network(WIDE, [7, 19, 33])
        net = net.with_node(replace(net.node(7), succ_list=(33, 7)))
        assert not is_valid(net)
        judged = []
        _record_judged(monkeypatch, judged.append)
        report = checker.explore_reachable(net, 0, 0, 4)
        assert report.violations[0].network == net
        assert report.violation_count == sum(not is_valid(s) for s in judged)
        assert any(is_valid(s) for s in judged)

    def test_effect_delta_and_step_agree_with_apply_event_on_every_listed_event(
        self, bench_r2_reached
    ):
        joiners, reached = bench_r2_reached
        listed = 0
        for net in reached:
            for ev in enabled_events(net, joiners=joiners):
                delta = effect_delta(net, ev)
                post = step(net, ev)
                assert post == apply_event(net, ev)
                assert post is net if delta is None else post == net.with_node(*delta)
                listed += 1
        assert len(reached) == 13_851 and listed > 83_078

    def test_effect_delta_is_none_exactly_on_self_loops(self, bench_r2_reached):
        # The explorer drops a None delta as the state itself.
        joiners, reached = bench_r2_reached
        loops = Counter()
        for net in reached:
            for ev in enabled_events(net, joiners=joiners):
                loop = oracle.apply_event(net, ev) == net
                assert (effect_delta(net, ev) is None) == loop, (net, ev)
                loops[ev.kind] += loop
        assert set(+loops) == {EventKind.RECTIFY, EventKind.STABILIZE_FROM_OLD_SUCCESSOR}

    def test_an_effective_repair_is_never_a_self_loop(self, n4_states):
        # `check_monotonicity` reads the state out of each effective delta.
        effective = 0
        for net in n4_states:
            for ev in effective_enabled(net):
                assert effect_delta(net, ev) is not None, (net, ev)
                effective += 1
        assert effective == 43_144

    # The benchmark's two explorations, unrotated: states, transitions and
    # self-loops by kind.
    BENCH_COUNTS = {
        "bench-r2": (13_851, 83_078, {"StabilizeFromOldSuccessor": 10_355, "Rectify": 15_200}),
        "bench-r3": (15_021, 104_324, {"StabilizeFromOldSuccessor": 16_816, "Rectify": 20_832}),
    }

    @pytest.mark.parametrize("name", BENCH_COUNTS)
    def test_benchmark_explorations_check_only_the_start_in_full(self, monkeypatch, name):
        make_init, joins, fails, depth, joiners = self.CONFIGS[name]
        init = make_init()
        # A full check is `is_valid`, called by the explorer or inside
        # `valid_after`, or a `conjuncts` report.
        full = []

        def counted(check):
            return lambda net: full.append(net) or check(net)

        for module, check in ((checker, is_valid), (invariants, is_valid), (invariants, conjuncts)):
            monkeypatch.setattr(module, check.__name__, counted(check))
        report = checker.explore_reachable(init, joins, fails, depth, joiners=joiners)
        info = report.info
        assert (info["states"], info["transitions"], info["selfLoops"]) == self.BENCH_COUNTS[name]
        assert report.passed and full == [init]


def _dead_member_start():
    """A valid ring in which 25 has failed and 40 holds the lookup result 50.

    7's only live entry is the joined member 20, so 20 may not fail until a
    stabilize of 7 changes 7's list: the Fail slots move with it.
    """
    net = make_net(
        6, 2, base=[7, 33, 50],
        nodes={7: (50, (20, 25)), 20: (7, (33, 50)), 33: (20, (50, 7)), 50: (33, (7, 20))},
        dead={25: (20, (33, 50))},
    )
    net = net.with_node(NodeState(40, (), None, 50))
    assert is_valid(net) and 20 not in events.failable(net)
    return net


def _stranded_start():
    """The start above with 50 stranded: every entry of its list is dead.

    No chain closes a ring, so no lookup is answered and 10 cannot start its
    join, until 50 adopts its stored candidate 7. In a valid state a ring
    always answers, so only an invalid one moves a JoinLookup slot.
    """
    net = _dead_member_start()
    net = net.with_node(NodeState(19, (20, 33), 7))
    net = net.with_node(NodeState(50, (19, 25), 33, None, 7))
    assert all(ev.kind is not EventKind.JOIN_LOOKUP for ev in enabled_events(net, joiners=(10,)))
    return net


class TestCarriedListing:
    """The explorer's listing of every expanded state against the listing loop
    (`events_oracle.listing_loop`), order included."""

    CONFIGS = {
        **TestDeltaValidity.CONFIGS,
        "dead-member": (_dead_member_start, 2, 1, 8, (40, 10)),
        "stranded": (_stranded_start, 1, 1, 8, (40, 10)),
    }

    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_every_expanded_state(self, monkeypatch, config):
        make_init, joins, fails, depth, joiners = config
        init = make_init()
        listed = []

        def recording(list_, net_arg):
            def wrapped(*args):
                listing = list_(*args)
                listed.append((args[net_arg], listing, args))
                return listing

            return wrapped

        monkeypatch.setattr(checker, "slot_listing", recording(checker.slot_listing, 0))
        monkeypatch.setattr(checker, "carried_listing", recording(checker.carried_listing, 1))
        report = checker.explore_reachable(init, joins, fails, depth, joiners=joiners)
        expected = list(_expanded_states(init, joins, fails, depth, joiners))
        assert len(listed) == len(expected) == sum(report.info["listings"].values())
        for (net, listing, _), (oracle_net, allowed, _) in zip(listed, expected):
            assert net == oracle_net
            # The carry keeps its parent's joiners: the explorer drops them
            # itself once its join budget is spent.
            assert listing.joiners in (allowed, joiners)
            if not allowed:
                listing = listing.without_joiners()
            assert listing.events() == oracle.listing_loop(net, allowed), net
        # Only the initial state is listed from scratch: a Join or a Fail is
        # carried like any other step.
        assert report.info["listings"]["rebuilt"] == 1 and listed[0][2][0] is init
        carried = [args[2] for _, _, args in listed[1:]]
        assert bool(joins or fails) == any(change & LIVENESS_CHANGED for change in carried)

    @staticmethod
    def _across(net, ev, joiners=()):
        """The events listed in `net` and, carried across the Join or Fail
        `ev`, in its successor, whose listing must be the one `slot_listing`
        makes."""
        parent = events.slot_listing(net, joiners)
        post = apply_event(net, ev)
        change = change_code(net, post, ev.node)
        assert change & LIVENESS_CHANGED
        listing = events.carried_listing(parent, post, change)
        assert listing == events.slot_listing(post, joiners)
        assert listing.events() == oracle.listing_loop(post, joiners)
        return parent.events(), listing.events()

    @staticmethod
    def _ring(*nodes):
        # The ideal ring of the base 7, 33 and 50 with 20 tracked dead, then
        # each (state, liveness) in `nodes` set with `Network.with_node`.
        net = make_net(
            6, 2, base=[7, 33, 50],
            nodes={7: (50, (33, 50)), 33: (7, (50, 7)), 50: (33, (7, 33))},
            dead={20: (None, (33, 50))},
        )
        for state, live in nodes:
            net = net.with_node(state, live)
        return net

    def test_a_stored_candidate_that_joins(self):
        # 7 holds the candidate 20, which is not in its list: its adoption
        # times out until 20 joins.
        net = self._ring((NodeState(20, (), None, 33), None))
        net = net.with_node(replace(net.node(7), pending_candidate=20))
        before, after = self._across(net, Event(EventKind.JOIN, 20))
        adoption = Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, 7)
        assert adoption not in before and adoption in after

    def test_a_stored_candidate_that_fails(self):
        net = self._ring((NodeState(20, (33, 50), 7), True))
        net = net.with_node(replace(net.node(7), pending_candidate=20))
        before, after = self._across(net, Event(EventKind.FAIL, 20))
        adoption = Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, 7)
        assert adoption in before and adoption not in after

    def test_the_rectify_sent_to_a_head_that_fails(self):
        net = self._ring((NodeState(20, (33, 50), 7), True))
        net = net.with_node(replace(net.node(7), succ_list=(20, 33)))
        before, after = self._across(net, Event(EventKind.FAIL, 20))
        rectify = Event(EventKind.RECTIFY, 20, new_pred=7)
        assert rectify in before and rectify not in after

    def test_the_rectify_sent_to_a_head_that_joins(self):
        net = self._ring((NodeState(20, (), None, 33), None))
        net = net.with_node(replace(net.node(7), succ_list=(20, 33)))
        before, after = self._across(net, Event(EventKind.JOIN, 20))
        rectify = Event(EventKind.RECTIFY, 20, new_pred=7)
        assert rectify not in before and rectify in after

    def test_a_stranded_member_gets_a_live_entry_from_a_join(self):
        # Every entry of 40's list is dead until 45 joins.
        net = self._ring((NodeState(40, (45, 20), 33), True), (NodeState(45, (), None, 50), None))
        before, after = self._across(net, Event(EventKind.JOIN, 45))
        copy = Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, 40)
        assert copy not in before and copy in after

    def test_the_last_join_keeps_the_joiner_slots_until_dropped(self, monkeypatch):
        # The carry keeps the joiner slots across the Join that spends the
        # last join; `without_joiners` drops them, and the explorer offers
        # no joiner a step after that Join.
        init = init_network(WIDE, [7, 19, 33])
        net = apply_join_lookup(init, 10, known=7)
        post = apply_join(net, 10)
        parent = events.slot_listing(net, (10, 40))
        listing = events.carried_listing(parent, post, change_code(net, post, 10))
        assert listing == events.slot_listing(post, (10, 40))
        assert Event(EventKind.JOIN_LOOKUP, 40) in listing.events()
        dropped = listing.without_joiners()
        assert dropped == events.slot_listing(post, ())
        assert dropped.events() == oracle.listing_loop(post, ())

        taken = []

        def recording(net, ev):
            taken.append((net, ev))
            return effect_delta(net, ev)

        monkeypatch.setattr(checker, "effect_delta", recording)
        checker.explore_reachable(init, 1, 0, 6, joiners=(10, 40))
        # With no fail, a state with four members is past the one join.
        joining = (EventKind.JOIN, EventKind.JOIN_LOOKUP)
        before = [ev.kind for net, ev in taken if net.size == 3]
        after = [ev.kind for net, ev in taken if net.size == 4]
        assert EventKind.JOIN in before and after
        assert all(kind not in joining for kind in after)


def _expanded_states(init, max_joins, max_fails, max_depth, joiners):
    """Each state a plain breadth-first search expands, in order, with the
    joiners it offers there and its transitions. The search lists by
    `events_oracle.listing_loop`, builds every successor with `apply_event`
    and keys it with `Network.canonical_key`. A transition is (event,
    successor, visited triple): the triple is (canonical key, joins, fails)
    for a successor not visited before, and None for one already visited."""
    from collections import deque

    seen = {(init.canonical_key(), 0, 0)}
    queue = deque([(init, 0, 0, 0)])
    while queue:
        net, joins, fails, depth = queue.popleft()
        if depth >= max_depth:
            continue
        allowed = joiners if joins < max_joins else ()
        steps = []
        for ev in oracle.listing_loop(net, allowed):
            failing = ev.kind is EventKind.FAIL
            if failing and fails >= max_fails:
                continue
            post = apply_event(net, ev)
            joined = ev.kind is EventKind.JOIN and post.is_live(ev.node)
            key = (post.canonical_key(), joins + joined, fails + failing)
            fresh = key not in seen
            if fresh:
                seen.add(key)
                queue.append((post, key[1], key[2], depth + 1))
            steps.append((ev, post, key if fresh else None))
        yield net, allowed, steps


def _record_judged(monkeypatch, record):
    """Make `explore_reachable` pass each state it judges to `record`, in order:
    the initial state through the full check, its descendants through
    `valid_after` (or the full check, below an invalid state)."""
    monkeypatch.setattr(checker, "is_valid", lambda net: record(net) or is_valid(net))
    monkeypatch.setattr(
        checker,
        "valid_after",
        lambda parent, net, change: record(net) or valid_after(parent, net, change),
    )


def _record_transitions(monkeypatch, record):
    """Make `explore_reachable` pass each transition it takes to `record`, as
    (network, event, result of its transition function), hits of its
    transition cache included."""
    transitions = checker._transitions

    def recording(*args):
        transition = transitions(*args)

        def recorded(net, key, ev):
            result = transition(net, key, ev)
            record(net, ev, result)
            return result

        return recorded

    monkeypatch.setattr(checker, "_transitions", recording)


def _bfs_steps(init, max_joins, max_fails, max_depth, joiners):
    """Each transition (state, event, successor, visited triple) of
    `_expanded_states`."""
    for net, _, steps in _expanded_states(init, max_joins, max_fails, max_depth, joiners):
        for ev, post, key in steps:
            yield net, ev, post, key


def _plain_bfs(init, max_joins, max_fails, max_depth, joiners):
    """The visited (canonical key, joins, fails) triples in visiting order, and
    the transition count, of `_expanded_states`."""
    order, transitions = [(init.canonical_key(), 0, 0)], 0
    for _, _, steps in _expanded_states(init, max_joins, max_fails, max_depth, joiners):
        transitions += len(steps)
        order += (key for _, _, key in steps if key)
    return order, transitions


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
    """The exhaustive search at n <= 4: its first witnesses are the smallest-scope ones."""

    def test_six_conjunct_wrap_found(self):
        found = checker.search_trial_counterexample(
            "six-conjunct", SMALL, 4, require_break="orderedRing"
        )
        assert found is not None
        net, ev = found
        assert six_conjunct_trial(net)
        post = apply_event(net, ev)
        assert not six_conjunct_trial(post)
        assert not conjuncts(post).ordered_ring
        # The first witness in enumeration order.
        assert ev == Event(EventKind.FAIL, 0)
        assert {x: net.node(x).succ_list for x in net.live} == {
            0: (1, 2), 1: (3, 0), 2: (0, 1), 3: (0, 2)
        }

    def test_eight_conjunct_date_conflict_found(self):
        found = checker.search_trial_counterexample(
            "eight-conjunct", SMALL, 4, require_break="noConflictingDates"
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
        assert checker.search_trial_counterexample("valid", SMALL, 4) is None

    @pytest.mark.parametrize("trial", ["six-conjunct", "eight-conjunct"])
    def test_trial_states_are_the_raw_assignments_that_satisfy_the_trial(self, trial):
        # Drawing lists from duplicate-free ordered pairs loses no state.
        holds = invariants.PREDICATES[invariants.trial_predicate_name(trial)][0]
        raw = (
            Network(SMALL, frozenset(), nodes, live)
            for _, live, nodes, _ in checker._list_states(SMALL, 4, checker._raw_lists)
        )
        expected = [net.pred_free_key() for net in raw if holds(net)]
        states = [net.pred_free_key() for net in checker.enumerate_trial_states(SMALL, 4, trial)]
        assert len(states) == len(set(states))
        assert set(states) == set(expected)

    def test_the_search_needs_the_exhaustive_bounds(self):
        with pytest.raises(ValueError, match="exhaustion ceiling"):
            checker.search_trial_counterexample("six-conjunct", RingParams(6, 3), 4)


class TestOneCandidateListing:
    """Preservation cases and the trial search against the old listing loops (`events_oracle`)."""

    def test_preservation_cases_match_in_order(self):
        # Every fourth oracle state: predecessors vary fastest in the
        # enumeration, and no listing reads them.
        cases = 0
        for net in itertools.islice(oracle_states(), 0, None, 4):
            old = list(oracle.preservation_cases(net))
            assert list(checker.preservation_cases(net)) == old, net
            cases += len(old)
        assert cases > 30_000

    @pytest.mark.parametrize(
        "trial, require_break",
        [
            ("six-conjunct", "orderedRing"),
            ("six-conjunct", None),
            ("eight-conjunct", "noConflictingDates"),
            ("eight-conjunct", "noEjects"),
            ("eight-conjunct", None),
            ("valid", None),
        ],
    )
    def test_trial_search_finds_the_same_counterexample(self, trial, require_break):
        states = checker.enumerate_trial_states(SMALL, 4, trial)
        expected = oracle.search_trial_counterexample(trial, states, require_break)
        assert checker.search_trial_counterexample(trial, SMALL, 4, require_break) == expected
