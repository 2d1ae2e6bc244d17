"""Desk-scale re-checking of the correctness lemmas.

Two state sources drive the checks: exhaustive enumeration of every valid
network at small bounds, and constructive seeded sampling toward the larger
bound envelope. Event parameters that the protocol acquires over time (a
join's looked-up successor, a stabilize's acquired candidate) are swept over
every value satisfying their time-independent preconditions, mirroring
checking with events as constrained objects rather than replayed histories.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field

from .ident import RingParams, between
from .netstate import Network, NodeState, network_to_dict, node_key
from .events import (
    ALL_KINDS,
    Event,
    EventKind,
    FaultFlags,
    apply_event,
    carried_listing,
    effect_delta,
    enabled_events,
    event_to_dict,
    join_precondition_holds,
    slot_listing,
    step,
)
from .invariants import (
    PREDICATES,
    _skips_live_base,
    conjuncts,
    conjuncts_reference,
    is_valid,
    list_properties,
    trial_predicate_name,
    valid_after,
)
from .measure import effective_enabled, error_vector, error_vector_after
from .topology import change_code, is_ideal

EXHAUSTION_MAX_NODES = 4
EXHAUSTION_R = 2


@dataclass(frozen=True)
class Violation:
    network: Network
    event: Event | None
    detail: str

    def to_dict(self) -> dict:
        return {
            "network": network_to_dict(self.network),
            "event": event_to_dict(self.event) if self.event else None,
            "detail": self.detail,
        }


@dataclass
class CheckReport:
    lemma: str
    states_checked: int = 0
    violation_count: int = 0
    violations: list[Violation] = field(default_factory=list)
    bounds: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    MAX_EMBEDDED = 20

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def add_violation(self, net: Network, event: Event | None, detail: str) -> None:
        self.violation_count += 1
        if len(self.violations) < self.MAX_EMBEDDED:
            self.violations.append(Violation(net, event, detail))

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "statesChecked": self.states_checked,
            "violationCount": self.violation_count,
            "violations": [v.to_dict() for v in self.violations],
            "violationsTruncated": self.violation_count > len(self.violations),
            "bounds": self.bounds,
            "info": self.info,
            "passed": self.passed,
        }


# --- exhaustive enumeration --------------------------------------------------


def _ordered_pairs(x: int, pool: list[int]) -> list[tuple[int, int]]:
    # For every 2-subset of the pool exactly one orientation passes the
    # circular order test from x.
    out = []
    for a, b in itertools.combinations(pool, 2):
        out.append((a, b) if between(x, a, b) else (b, a))
    return sorted(out)


def _dead_placeholder(ident: int, ids: tuple[int, ...], r: int) -> NodeState:
    # Retained state of a departed node; never queried, only serialized.
    others = sorted(i for i in ids if i != ident)
    succ = tuple((others * r)[:r])
    return NodeState(ident=ident, succ_list=succ, pred=None)


def require_exhaustible(params: RingParams, max_nodes: int) -> None:
    """Raise ValueError unless the bounds lie within the exhaustive enumeration's range."""
    if params.r != EXHAUSTION_R or not params.r + 1 <= max_nodes <= EXHAUSTION_MAX_NODES:
        raise ValueError(
            f"exhaustive bounds are r = {EXHAUSTION_R} and n in [r+1, {EXHAUSTION_MAX_NODES}]"
            f" = [{EXHAUSTION_R + 1}, {EXHAUSTION_MAX_NODES}] (the exhaustion ceiling)"
        )


def _ordered_lists(x: int, ids: tuple[int, ...], r: int) -> list[tuple[int, int]]:
    return _ordered_pairs(x, [i for i in ids if i != x])


def _raw_lists(x: int, ids: tuple[int, ...], r: int):
    return itertools.product(ids, repeat=r)


def _list_states(params: RingParams, max_nodes: int, lists):
    """(ids, live, nodes, bases) for every list assignment over at most `max_nodes` identifiers.

    Identifiers are the consecutive values 0..n-1. Every live set of at least
    r+1 of them is taken with every choice of one list per live member from
    `lists(x, ids, r)`; predecessors are unset and departed nodes hold
    `_dead_placeholder` states. `bases` lists the live (r+1)-subsets, the
    candidate stable bases of the assignment, which its callers vary inside it.
    """
    require_exhaustible(params, max_nodes)
    r = params.r
    for n_total in range(r + 1, max_nodes + 1):
        ids = tuple(range(n_total))
        for live_size in range(r + 1, n_total + 1):
            for members in itertools.combinations(ids, live_size):
                live = frozenset(members)
                placeholders = {d: _dead_placeholder(d, ids, r) for d in ids if d not in live}
                bases = [frozenset(b) for b in itertools.combinations(members, r + 1)]
                for combo in itertools.product(*(lists(x, ids, r) for x in members)):
                    nodes = {x: NodeState(ident=x, succ_list=lst) for x, lst in zip(members, combo)}
                    nodes.update(placeholders)
                    yield ids, live, nodes, bases


def enumerate_valid_states(params: RingParams, max_nodes: int):
    """Every valid network over at most `max_nodes` identifiers, in fixed order.

    Identifiers are the consecutive values 0..n-1: any placement of n nodes in
    the identifier space is order-isomorphic to one of these (the circular
    order test is rotation invariant), so nothing is lost by the collapse.
    Per-node successor lists are pre-restricted to duplicate-free ordered
    extended lists, which every valid state satisfies.

    Predecessors are factored out: no validity conjunct reads a predecessor,
    so a state is valid exactly when its successor lists are. Each list shape
    is checked once per base with predecessors unset, and a valid shape is
    then yielded under every predecessor assignment. The order is
    assignment-major: the base varies inside each list assignment, and
    predecessors vary fastest.
    """
    for ids, live, nodes, bases in _list_states(params, max_nodes, _ordered_lists):
        preds = (None, *ids)
        for base in bases:
            if not is_valid(Network(params, base, nodes, live)):
                continue
            per_node = [[NodeState(x, nodes[x].succ_list, p) for p in preds] for x in sorted(live)]
            for combo in itertools.product(*per_node):
                expanded = dict(nodes)
                expanded.update((state.ident, state) for state in combo)
                yield Network(params, base, expanded, live)


def enumerate_trial_states(params: RingParams, max_nodes: int, trial: str):
    """Every state over at most `max_nodes` identifiers that satisfies a trial
    invariant, in `_list_states` order.

    The `valid` trial is `enumerate_valid_states`. The six- and
    eight-conjunct trials hold no stable base: their states are the
    duplicate-free ordered list assignments that satisfy the trial, with
    predecessors unset. Nothing is lost by either restriction: every state
    of either trial has duplicate-free ordered lists, and neither the trial
    predicates nor a swept event's effect on a list reads a predecessor.
    """
    if trial == "valid":
        yield from enumerate_valid_states(params, max_nodes)
        return
    predicate = PREDICATES[trial_predicate_name(trial)][0]
    for _, live, nodes, _ in _list_states(params, max_nodes, _ordered_lists):
        net = Network(params, frozenset(), nodes, live)
        if predicate(net):
            yield net


def count_valid_states_bruteforce(params: RingParams, max_nodes: int) -> int:
    """Independent oracle: unpruned generate-and-filter count of valid states.

    It judges validity with `conjuncts_reference`, not the one-pass
    `conjuncts` that the enumeration uses.

    Successor lists range over every raw assignment; predecessors multiply the
    count independently since no validity conjunct reads them.
    """
    total = 0
    for ids, live, nodes, bases in _list_states(params, max_nodes, _raw_lists):
        # Only BaseNotSkipped reads the base; judge the other four once per assignment.
        c = conjuncts_reference(Network(params, bases[0], nodes, live))
        if not (
            c.at_least_one_ring
            and c.at_most_one_ring
            and c.ordered_ring
            and c.connected_appendages
        ):
            continue
        for base in bases:
            if conjuncts_reference(Network(params, base, nodes, live)).base_not_skipped:
                total += (len(ids) + 1) ** len(live)
    return total


# --- constructive sampling ---------------------------------------------------
#
# A sampled network is built from its random draws and linear bookkeeping
# over its sorted identifiers. The same `rng` makes the same calls, in the
# same order, as the builder kept in tests/sampler_oracle.py, so a seed
# yields the same networks, node order included, and leaves `rng` in the
# same state.


def _build_member_list(
    rng: random.Random,
    x_at: int,
    seq: list[int],
    seq_at: list[int],
    ids2: list[int],
    live: frozenset[int],
    base_at: list[int],
    r: int,
) -> tuple[int, ...]:
    """A successor list for the ring member at `ids2[x_at]` whose first live
    entry is its ring successor.

    Entries advance strictly clockwise; optional dead prefixes, stale
    inserts and far jumps produce non-ideal but legal shapes, and no jump
    passes a base member. Identifiers are named by their index in `ids2`,
    the sorted identifiers twice over, so the other identifiers, clockwise
    from x, are `ids2[x_at + 1 : x_at + n]`. `seq` holds the other ring
    members in that order and `seq_at` their indices; `base_at` holds the
    base members' indices in that range, ascending, x's own as `x_at + n`.
    """
    n = len(ids2) // 2
    last = x_at + n - 1
    entries: list[int] = []
    # The dead identifiers between x and its ring successor.
    prefix = [w for w in ids2[x_at + 1 : seq_at[0]] if w not in live]
    lo = 0
    while len(entries) < r - 1 and lo < len(prefix) and rng.random() < 0.3:
        lo += rng.randrange(len(prefix) - lo)
        entries.append(prefix[lo])
        lo += 1
    entries.append(seq[0])

    p = seq_at[0]  # the last entry's index
    cursor = 1  # the first ring member past p
    b = 0  # the first base member past p
    while len(entries) < r:
        if cursor < len(seq) and rng.random() < 0.6:
            entries.append(seq[cursor])
            p = seq_at[cursor]
            cursor += 1
            continue
        while b < len(base_at) and base_at[b] <= p:
            b += 1
        limit = min(base_at[b], last) if b < len(base_at) else last
        if limit == p:
            # Nothing remains clockwise, so no ring member either: fall
            # back to the plain aligned walk, which is always legal.
            return tuple(seq[:r])
        # The pool is p+1 .. limit, drawn from in identifier order: indices
        # from n on wrap past zero, so they come first.
        j = rng.randrange(limit - p)
        if p + 1 < n <= limit:
            wrapped = limit - n + 1
            p = n + j if j < wrapped else p + 1 + j - wrapped
        else:
            p += 1 + j
        entries.append(ids2[p])
        while cursor < len(seq) and seq_at[cursor] <= p:
            cursor += 1
    return tuple(entries)


def _structured_network(rng: random.Random, params: RingParams, max_nodes: int) -> Network:
    """A random valid network: one ordered ring, appendages hanging off it,
    departed placeholders, and a stable base drawn from the ring that no
    list skips."""
    r = params.r
    # Rings below r+1 cannot carry full aligned lists; never sample them.
    floor = r + 1
    n_total = rng.randint(floor, max_nodes)
    ids = sorted(rng.sample(range(params.space), n_total))
    live_count = rng.randint(floor, n_total)
    live = sorted(rng.sample(ids, live_count))
    live_set = frozenset(live)
    dead = [i for i in ids if i not in live_set]
    ring_size = rng.randint(floor, live_count)
    ring = sorted(rng.sample(live, ring_size))
    in_ring = set(ring)
    order = [x for x in live if x not in in_ring]  # the appendages
    base = frozenset(rng.sample(ring, r + 1))

    n = len(ids)
    ids2 = ids + ids
    at = {v: i for i, v in enumerate(ids)}
    ring_at = [at[x] for x in ring]
    base_ids = sorted(at[b] for b in base)
    lists: dict[int, tuple[int, ...]] = {}
    for pos, x in enumerate(ring):
        i = ring_at[pos]
        seq = ring[pos + 1 :] + ring[:pos]
        seq_at = ring_at[pos + 1 :] + [j + n for j in ring_at[:pos]]
        s = bisect_right(base_ids, i)
        base_at = base_ids[s:] + [j + n for j in base_ids[:s]]
        lists[x] = _build_member_list(rng, i, seq, seq_at, ids2, live_set, base_at, r)

    # Each appendage copies the list of a target from the ring or the
    # appendages already attached, drawn in identifier order, that lies no
    # further clockwise than the nearest base member.
    rng.shuffle(order)
    targets = ring.copy()
    base_sorted = sorted(base)
    for a in order:
        lo = bisect_right(targets, a)
        nearest = base_sorted[bisect_right(base_sorted, a) % len(base_sorted)]
        hi = bisect_right(targets, nearest)
        if nearest > a:
            target = targets[lo + rng.randrange(hi - lo)]
        else:
            j = rng.randrange(hi + len(targets) - lo)
            target = targets[j] if j < hi else targets[lo + j - hi]
        lists[a] = (target,) + lists[target][: r - 1]
        insort(targets, a)

    # Predecessors do not affect validity; mix correct, missing and stale ones.
    preds: dict[int, int | None] = {}
    for k, x in enumerate(live):
        roll = rng.random()
        if roll < 0.55:
            preds[x] = live[k - 1]  # the globally correct predecessor
        elif roll < 0.7:
            preds[x] = None
        elif roll < 0.9 or not dead:
            preds[x] = rng.choice(live)
        else:
            preds[x] = rng.choice(dead)
    nodes = {x: NodeState(x, lst, preds[x]) for x, lst in lists.items()}
    for d in dead:
        # A departed node keeps the r identifiers clockwise after it.
        i = at[d]
        nodes[d] = NodeState(d, tuple(ids2[i + 1 : i + 1 + r]))
    return Network(params, base, nodes, live_set)


def sample_valid_states(params: RingParams, max_nodes: int, count: int, seed: int):
    """Constructively sampled valid networks, reproducible from the seed.

    Every draw is valid by construction, so none is checked here;
    tests/test_sampler.py asserts it over a grid of bounds and seeds.
    """
    rng = random.Random(seed)
    for _ in range(count):
        yield _structured_network(rng, params, max_nodes)


def sample_raw_states(params: RingParams, max_nodes: int, count: int, seed: int):
    """Unconstrained random assignments, for implication checks."""
    rng = random.Random(seed)
    r = params.r
    for _ in range(count):
        n_total = rng.randint(r + 1, max_nodes)
        ids = sorted(rng.sample(range(params.space), n_total))
        live_count = rng.randint(r + 1, n_total)
        live = sorted(rng.sample(ids, live_count))
        base = frozenset(rng.sample(live, r + 1))
        nodes = {}
        for x in ids:
            succ = tuple(rng.choice(ids) for _ in range(r))
            pred = rng.choice([None, *ids])
            nodes[x] = NodeState(ident=x, succ_list=succ, pred=pred)
        yield Network(params=params, base=base, nodes=nodes, live=frozenset(live))


def enumerate_raw_list_states(params: RingParams, max_nodes: int):
    """Exhaustive raw successor-list assignments (predecessors fixed to None)."""
    for _, live, nodes, bases in _list_states(params, max_nodes, _raw_lists):
        for base in bases:
            yield Network(params, base, nodes, live)


# --- lemma checks ------------------------------------------------------------


# The kinds whose acquired value (a join's looked-up successor, an
# adoption's candidate) is swept.
_ACQUIRED = frozenset({EventKind.JOIN, EventKind.STABILIZE_FROM_NEW_SUCCESSOR})


def _acquired_sweep(net: Network, kind: EventKind):
    """(prepared network, event) for every value the event could have acquired.

    A join is prepared with every live successor the stable-base precondition
    allows. An adoption is prepared with every tracked candidate between the
    node and its successor: the stored candidate is whatever predecessor value
    the queried successor held, so dead identifiers are swept too, a correct
    kernel times out on them, and the canary kernels must be caught adopting.
    """
    live = net.live_idents()
    tracked = sorted(net.nodes)
    is_join = kind is EventKind.JOIN
    if is_join:
        pairs = (
            (j, v)
            for j in tracked
            if not net.is_live(j)
            for v in live
            if join_precondition_holds(net, j, v)
        )
    else:
        pairs = (
            (n, c)
            for n in live
            for c in tracked
            if c != n and between(n, c, net.nodes[n].succ_list[0])
        )
    for n, value in pairs:
        state = net.nodes.get(n) or NodeState(ident=n, succ_list=())
        if is_join:
            state = NodeState(n, state.succ_list, state.pred, value, state.pending_candidate)
        else:
            state = NodeState(n, state.succ_list, state.pred, state.pending_new_succ, value)
        yield net.with_node(state), Event(kind, n)


def preservation_cases(net: Network, kinds=ALL_KINDS):
    """(prepared network, event) pairs covering every enabled event of the kinds.

    Kind by kind in `EventKind` order: the acquired values of joins and
    adoptions are swept, and every other kind is read from `enabled_events`.
    """
    listed: dict[EventKind, list[Event]] = {}
    for ev in enabled_events(net):
        listed.setdefault(ev.kind, []).append(ev)
    for kind in ALL_KINDS:
        if kind in _ACQUIRED and kind in kinds:
            yield from _acquired_sweep(net, kind)
        elif kind in kinds:
            for ev in listed.get(kind, ()):
                yield net, ev


def check_preservation(
    states,
    faults: FaultFlags | None = None,
    bounds: dict | None = None,
    stop_at: int | None = None,
) -> CheckReport:
    """Assert validity survives every enabled event.

    The verdict of a state whose cases all passed is reused for the states
    that follow it and differ from it only in predecessors (equal
    `Network.pred_free_key`). That is sound because no listed guard reads a
    predecessor, the join and adoption sweeps supply their acquired values,
    the only effect that writes `pred` is Rectify's, and validity does not
    read it. A state of a violating shape is checked in full, so violation
    counts and `stop_at` see every state. `info["cases"]` counts the cases of
    every state, `info["shapes"]` the states whose cases were applied, and
    `info["casesApplied"]` the cases applied.

    Each applied shape is judged once in full. An event changes only its
    executor, so a case's post-state is judged by `valid_after` from that
    verdict; an acquired-sweep network differs from the shape only in a
    pending value, so it shares the verdict. A listed case's guard has just
    held, so it is applied by `step`; only the swept join and adoption cases
    are not listed, and go through their guard (`apply_event`).
    """
    report = CheckReport(lemma="EventPreservesValidity", bounds=bounds or {})
    faults = faults or FaultFlags()
    applied = reused = shapes = 0
    clean_key, clean_cases = None, 0

    def finish() -> CheckReport:
        report.info.update(cases=applied + reused, shapes=shapes, casesApplied=applied)
        return report

    for net in states:
        report.states_checked += 1
        key = net.pred_free_key()
        if key == clean_key:
            reused += clean_cases
            continue
        shapes += 1
        first_case, violations = applied, report.violation_count
        net_valid = is_valid(net)
        for prepared, ev in preservation_cases(net):
            applied += 1
            post = (apply_event if ev.kind in _ACQUIRED else step)(prepared, ev, faults)
            change = change_code(prepared, post, ev.node)
            if not (valid_after(prepared, post, change) if net_valid else is_valid(post)):
                report.add_violation(
                    prepared, ev, f"invariant broken after event: {conjuncts(post).to_dict()}"
                )
                if stop_at and report.violation_count >= stop_at:
                    return finish()
        clean_key = key if report.violation_count == violations else None
        clean_cases = applied - first_case
    return finish()


def check_progress(states, bounds: dict | None = None) -> CheckReport:
    """Valid non-ideal states must be improvable; valid ideal states must not be."""
    report = CheckReport(lemma="Progress", bounds=bounds or {})
    for net in states:
        report.states_checked += 1
        improvable = bool(effective_enabled(net))
        if is_ideal(net):
            if improvable:
                report.add_violation(net, None, "IdealNetworkIsNotImprovable violated")
        elif not improvable:
            report.add_violation(net, None, "ValidNetworkIsImprovable violated")
    return report


MONOTONICITY_VIOLATION_CAP = 50_000


def check_monotonicity(states, bounds: dict | None = None) -> CheckReport:
    """Every effective repair event must strictly decrease the error vector
    lexicographically, and the error must be zero exactly on ideal states.

    The scalar total error is not a ranking function (an adoption can leave
    it flat or raise it); the per-level vector of `measure.error_vector` is.
    A repair changes only its executor, so each case is judged by
    `error_vector_after` from the state's vector, with no post network built.
    Checking stops after MONOTONICITY_VIOLATION_CAP violations and then sets
    `info["capped"]`, so the reported count is a lower bound.
    `info["casesByKind"]` splits `info["cases"]` by event kind.
    """
    report = CheckReport(lemma="ErrorMonotonicity", bounds=bounds or {})
    report.info["capped"] = False
    by_kind: dict[EventKind, int] = {}
    for net in states:
        report.states_checked += 1
        before = error_vector(net)
        if (not any(before)) != is_ideal(net):
            report.add_violation(net, None, f"zero-error mismatch: error={sum(before)}")
            continue
        # Listed events' guards hold, and a repair changes no liveness.
        for ev in effective_enabled(net):
            by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
            after = error_vector_after(net, before, effect_delta(net, ev)[0])
            if after >= before:
                report.add_violation(
                    net, ev, f"error vector {before} -> {after} (not a strict decrease)"
                )
        if report.violation_count > MONOTONICITY_VIOLATION_CAP:
            report.info["capped"] = True
            break
    report.info["cases"] = sum(by_kind.values())
    report.info["casesByKind"] = {k.value: by_kind[k] for k in EventKind if k in by_kind}
    return report


def check_implications(states, bounds: dict | None = None) -> CheckReport:
    """BaseNotSkipped implies duplicate-free and ordered extended lists."""
    report = CheckReport(lemma="BaseNotSkippedImplications", bounds=bounds or {})
    for net in states:
        report.states_checked += 1
        if _skips_live_base(net, net.live):
            continue
        for n in net.live:
            props = list_properties(net, n)
            if not props.no_duplicates:
                report.add_violation(net, None, f"{n} has duplicate entries")
            if not props.ordered_successor_lists:
                report.add_violation(net, None, f"{n} has a disordered list")
    return report


# Bytes per interned entry id in a visited key. Four bytes number more
# entries than a search can hold in memory; `int.to_bytes` raises
# OverflowError past them rather than wrapping.
KEY_WIDTH = 4


def _packed(n: int, width: int = KEY_WIDTH) -> bytes:
    """`n` as one fixed-width field of a visited key."""
    return n.to_bytes(width, "big")


def explore_reachable(
    init: Network,
    max_joins: int,
    max_fails: int,
    max_depth: int,
    joiners: tuple[int, ...] = (),
    max_states: int = 200_000,
) -> CheckReport:
    """Breadth-first exploration of every interleaving within the event budget.

    Validity is asserted at every reached state. The join budget counts
    members that join; lookups, and Joins that clear a dead lookup, are free
    but only offered while joins remain. ValueError names a joiner outside
    the identifier space, one named twice, or one in the stable base, which
    never fails and so never joins.

    An event changes only its executor, so a successor is keyed without being
    built. Each distinct `node_key` entry is interned once per call, as a
    `KEY_WIDTH`-byte id counted from 1. Every executor is a live member or a
    joiner, so each identifier of `init.nodes` and `joiners` has a fixed
    slot in a key, in identifier order. A visited key is one `bytes` object:
    the entry ids in those slots (zero for a joiner not yet tracked), then
    joins and fails, each in the fewest bytes that hold its bound. A
    successor's key is its parent's with the executor's slot spliced in,
    and its budgets rewritten only by a Join or a Fail. Params and base
    never change, so they are left out of the visited keys. An event whose
    `effect_delta` is None leaves the state as it is: it counts as a
    transition, and in `info["selfLoops"]` by kind, and is dropped before
    any key work.

    A queue entry is (the parent's frame, the executor's state and liveness
    from `effect_delta`, the key), for a key not seen before. The frame is
    (the parent network, its verdict, its listing, its successors' depth),
    one tuple its queued successors share. A successor is built with
    `with_node` only when its entry is popped, so one network is built per
    new key, and its change code (`topology.change_code`) is computed then.
    It is judged by `valid_after` from that code below a valid parent, and
    by the full check below an invalid one; the initial state, queued with
    no state, gets the full check. A state's verdict is reported when it
    leaves the queue, which is the order it was reached in.

    A state is listed only when it is expanded, by `carried_listing` from
    its parent's listing and the same code, a Join or a Fail included, by
    the one refresh rule for every step. Once the join budget is spent, the
    explorer drops the joiner slots itself (`Listing.without_joiners`)
    before the carry, so no guard is run for a slot about to go, and its
    descendants carry none. Only the initial state is listed by
    `slot_listing`. The listed events' guards have just held, so their
    deltas are read by `effect_delta` without running the guards again.
    `info["listings"]` counts the listings rebuilt (the initial state's)
    and carried, and `info["transitionsByKind"]` splits the transitions by
    event kind.
    """
    space = init.params.space
    for i, j in enumerate(joiners):
        if not 0 <= j < space:
            raise ValueError(f"joiner {j} outside the identifier space [0, {space})")
        if j in joiners[:i]:
            raise ValueError(f"joiner {j} is named twice")
        if j in init.base:
            raise ValueError(f"joiner {j} is a stable-base member: it never fails, so never joins")
    report = CheckReport(
        lemma="ReachableStatesValid",
        bounds={"joins": max_joins, "fails": max_fails, "depth": max_depth},
    )
    join, fail = EventKind.JOIN, EventKind.FAIL
    width = KEY_WIDTH
    # A budget never passes its bound, so the bounds fix the budgets' width.
    budget_width = max(1, (max(max_joins, max_fails).bit_length() + 7) // 8)
    interned: dict[tuple, bytes] = {}
    # Each tracked identifier's byte offset in a key.
    at = {i: k * width for k, i in enumerate(sorted({*init.nodes, *joiners}))}
    key = b"".join(
        interned.setdefault(node_key(init.nodes[i], i in init.live), _packed(len(interned) + 1))
        if i in init.nodes
        else bytes(width)
        for i in at
    ) + bytes(2 * budget_width)
    seen = {key}
    # The initial state's frame carries its own listing: the one listing made
    # from scratch, if any state is expanded.
    rebuilt = int(max_depth > 0)
    listing = slot_listing(init, joiners if max_joins else ()) if rebuilt else None
    queue = deque([((init, None, listing, 0), None, None, key)])
    by_kind: dict[EventKind, int] = {}
    loops: dict[EventKind, int] = {}
    expanded = 0
    truncated = False
    while queue:
        (parent, parent_valid, listing, depth), state, live, key = queue.popleft()
        if state is None:
            net, valid, change = parent, is_valid(parent), None
        else:
            net = parent.with_node(state, live)
            change = change_code(parent, net, state.ident)
            valid = valid_after(parent, net, change) if parent_valid else is_valid(net)
        if not valid:
            report.add_violation(net, None, "invariant broken at reachable state")
        if depth >= max_depth:
            continue
        expanded += 1
        joins = int.from_bytes(key[-2 * budget_width : -budget_width], "big")
        fails = int.from_bytes(key[-budget_width:], "big")
        if change is not None:
            if joins == max_joins:
                listing = listing.without_joiners()
            listing = carried_listing(listing, net, change)
        frame = (net, valid, listing, depth + 1)
        for ev in listing.slots:
            if ev is None:
                continue
            kind = ev.kind
            failed = kind is fail
            if failed and fails >= max_fails:
                continue
            delta = effect_delta(net, ev)
            by_kind[kind] = by_kind.get(kind, 0) + 1
            if delta is None:
                loops[kind] = loops.get(kind, 0) + 1
                continue
            state, live = delta
            n = state.ident
            # A Join that only clears a dead lookup changes no membership.
            joined = live is True and kind is join
            entry = node_key(state, n in net.live if live is None else live)
            packed = interned.get(entry)
            if packed is None:
                packed = interned[entry] = _packed(len(interned) + 1)
            i = at[n]
            if joined or failed:
                budgets = _packed(joins + joined, budget_width)
                budgets += _packed(fails + failed, budget_width)
                post_key = key[:i] + packed + key[i + width : -len(budgets)] + budgets
            else:
                post_key = key[:i] + packed + key[i + width :]
            if post_key in seen:
                continue
            if len(seen) >= max_states:
                truncated = True
                continue
            seen.add(post_key)
            queue.append((frame, state, live, post_key))
    report.states_checked = len(seen)
    report.info.update(
        {
            "states": len(seen),
            "transitions": sum(by_kind.values()),
            "truncated": truncated,
            "listings": {"rebuilt": rebuilt, "carried": expanded - rebuilt},
            "transitionsByKind": {k.value: by_kind[k] for k in EventKind if k in by_kind},
            "selfLoops": {k.value: loops[k] for k in EventKind if k in loops},
        }
    )
    return report


_SEARCH_KINDS = (
    EventKind.STABILIZE_FROM_OLD_SUCCESSOR,
    EventKind.STABILIZE_FROM_NEW_SUCCESSOR,
    EventKind.FAIL,
)


def search_trial_counterexample(
    trial: str,
    params: RingParams,
    max_nodes: int,
    require_break: str | None = None,
) -> tuple[Network, Event] | None:
    """The first state of `enumerate_trial_states` that one event takes out
    of the trial invariant, with that event; None when no state does.

    Sweeps the preservation cases of stabilize copies, stabilize adoptions
    and fails; rectifies never touch list structure and cannot break any of
    the structural conjuncts. `require_break` names a registry predicate that
    must be false afterwards, restricting which counterexample shape counts.
    The search is exhaustive, so it takes the exhaustive bounds
    (`require_exhaustible`).
    """
    predicate = PREDICATES[trial_predicate_name(trial)][0]
    broken = PREDICATES[require_break][0] if require_break else None
    for net in enumerate_trial_states(params, max_nodes, trial):
        for prepared, ev in preservation_cases(net, _SEARCH_KINDS):
            post = apply_event(prepared, ev)
            if not predicate(post) and (broken is None or not broken(post)):
                return prepared, ev
    return None
