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
from collections import deque
from dataclasses import dataclass, field, replace

from .ident import RingParams, between, clockwise_distance
from .netstate import Network, NodeState, network_to_dict
from .events import (
    Event,
    EventKind,
    FaultFlags,
    apply_event,
    apply_stabilize_from_new_successor,
    enabled_events,
    event_to_dict,
    fail_guard_holds,
    is_enabled,
    join_precondition_holds,
)
from .invariants import (
    TRIAL_INVARIANTS,
    conjuncts,
    conjuncts_reference,
    is_valid,
    list_properties,
)
from .measure import effective_enabled, error_vector
from .topology import best_successor, globally_correct_pred, is_ideal

ALL_KINDS = tuple(EventKind)

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
    """Raise ValueError when the bounds exceed the exhaustive enumeration ceiling."""
    if max_nodes > EXHAUSTION_MAX_NODES or params.r != EXHAUSTION_R:
        raise ValueError(
            f"exhaustion ceiling is n <= {EXHAUSTION_MAX_NODES}, r = {EXHAUSTION_R}"
        )


def enumerate_valid_states(params: RingParams, max_nodes: int):
    """Every valid network over at most `max_nodes` identifiers, in fixed order.

    Identifiers are the consecutive values 0..n-1: any placement of n nodes in
    the identifier space is order-isomorphic to one of these (the circular
    order test is rotation invariant), so nothing is lost by the collapse.
    Per-node successor lists are pre-restricted to duplicate-free ordered
    extended lists, which every valid state satisfies.

    Predecessors are factored out: no validity conjunct reads a predecessor,
    so a state is valid exactly when its successor lists are. Each list shape
    is checked once with predecessors unset, and a valid shape is then
    yielded under every predecessor assignment. The order is shape-major.
    """
    require_exhaustible(params, max_nodes)
    r = params.r
    for n_total in range(r + 1, max_nodes + 1):
        ids = tuple(range(n_total))
        preds = (None, *ids)
        for live_size in range(r + 1, n_total + 1):
            for live in itertools.combinations(ids, live_size):
                live_set = frozenset(live)
                dead = tuple(i for i in ids if i not in live_set)
                placeholders = {d: _dead_placeholder(d, ids, r) for d in dead}
                shapes = [_ordered_pairs(x, [i for i in ids if i != x]) for x in live]
                for base in itertools.combinations(live, r + 1):
                    for shape in itertools.product(*shapes):
                        nodes = {x: NodeState(ident=x, succ_list=lst) for x, lst in zip(live, shape)}
                        nodes.update(placeholders)
                        net = Network(
                            params=params, base=frozenset(base), nodes=nodes, live=live_set
                        )
                        if not is_valid(net):
                            continue
                        per_node = [
                            [NodeState(ident=x, succ_list=lst, pred=p) for p in preds]
                            for x, lst in zip(live, shape)
                        ]
                        for combo in itertools.product(*per_node):
                            nodes = {state.ident: state for state in combo}
                            nodes.update(placeholders)
                            yield replace(net, nodes=nodes)


def count_valid_states_bruteforce(params: RingParams, max_nodes: int) -> int:
    """Independent oracle: unpruned generate-and-filter count of valid states.

    It judges validity with `conjuncts_reference`, not the one-pass
    `conjuncts` that the enumeration uses.

    Successor lists range over every raw assignment; predecessors multiply the
    count independently since no validity conjunct reads them.
    """
    r = params.r
    total = 0
    for n_total in range(r + 1, max_nodes + 1):
        ids = tuple(range(n_total))
        pred_choices = len(ids) + 1
        for live_size in range(r + 1, n_total + 1):
            for live in itertools.combinations(ids, live_size):
                live_set = frozenset(live)
                dead = tuple(i for i in ids if i not in live_set)
                placeholders = {d: _dead_placeholder(d, ids, r) for d in dead}
                raw_lists = list(itertools.product(ids, repeat=r))
                for combo in itertools.product(raw_lists, repeat=live_size):
                    nodes = {
                        x: NodeState(ident=x, succ_list=lst)
                        for x, lst in zip(live, combo)
                    }
                    nodes.update(placeholders)
                    net = Network(
                        params=params,
                        base=frozenset(live[: r + 1]),
                        nodes=nodes,
                        live=live_set,
                    )
                    # Base choice affects only BaseNotSkipped; evaluate per base.
                    c = conjuncts_reference(net)
                    if not (
                        c.at_least_one_ring
                        and c.at_most_one_ring
                        and c.ordered_ring
                        and c.connected_appendages
                    ):
                        continue
                    for base in itertools.combinations(live, r + 1):
                        c2 = conjuncts_reference(replace(net, base=frozenset(base)))
                        if c2.base_not_skipped:
                            total += pred_choices**live_size
    return total


# --- constructive sampling ---------------------------------------------------


def _build_member_list(
    rng: random.Random,
    x: int,
    ring_seq: list[int],
    nonring_ids: list[int],
    dead_ids: set[int],
    base: frozenset[int],
    r: int,
    space: int,
    avoid_base_skips: bool,
) -> tuple[int, ...]:
    """A successor list for ring member x whose first live entry is its ring successor.

    Entries advance strictly clockwise from x; optional dead prefixes, stale
    inserts and far jumps produce non-ideal but legal shapes. When asked, any
    jump span containing a base member is rejected so the stable base is never
    skipped.
    """

    def dist(v: int) -> int:
        return clockwise_distance(x, v, space)

    y1 = ring_seq[0]
    entries: list[int] = []
    dead_prefix_pool = sorted(
        (w for w in nonring_ids if w in dead_ids and 0 < dist(w) < dist(y1)),
        key=dist,
    )
    while len(entries) < r - 1 and dead_prefix_pool and rng.random() < 0.3:
        w = dead_prefix_pool.pop(rng.randrange(len(dead_prefix_pool)))
        dead_prefix_pool = [p for p in dead_prefix_pool if dist(p) > dist(w)]
        entries.append(w)
    entries.sort(key=dist)
    entries.append(y1)

    ring_cursor = 1
    while len(entries) < r:
        prev = entries[-1]
        aligned = ring_seq[ring_cursor] if ring_cursor < len(ring_seq) else None
        if aligned is not None and rng.random() < 0.6:
            entries.append(aligned)
            ring_cursor += 1
            continue
        pool = []
        for w in nonring_ids + ring_seq[ring_cursor:]:
            if w == x or dist(w) <= dist(prev):
                continue
            if avoid_base_skips and any(between(prev, b, w) for b in base):
                continue
            pool.append(w)
        if not pool:
            if aligned is None:
                # Nothing legal remains clockwise; fall back to the plain
                # aligned walk, which is always legal.
                return tuple(ring_seq[:r])
            entries.append(aligned)
            ring_cursor += 1
            continue
        w = sorted(pool)[rng.randrange(len(pool))]
        entries.append(w)
        while ring_cursor < len(ring_seq) and dist(ring_seq[ring_cursor]) <= dist(w):
            ring_cursor += 1
    return tuple(entries)


def _structured_network(
    rng: random.Random,
    params: RingParams,
    max_nodes: int,
    *,
    with_base: bool,
    min_ring: int | None = None,
) -> Network:
    r = params.r
    space = params.space
    # Rings below r+1 cannot carry full aligned lists; never sample them.
    floor = max(min_ring or 0, r + 1)
    n_total = rng.randint(floor, max_nodes)
    ids = sorted(rng.sample(range(space), n_total))
    live_count = rng.randint(floor, n_total)
    live = sorted(rng.sample(ids, live_count))
    dead = [i for i in ids if i not in live]
    ring_size = rng.randint(floor, live_count)
    ring = sorted(rng.sample(live, ring_size))
    appendages = [x for x in live if x not in ring]
    base = frozenset(rng.sample(ring, r + 1)) if with_base else frozenset()

    nodes: dict[int, NodeState] = {}
    k = len(ring)
    nonring = [i for i in ids if i not in ring]
    for pos, x in enumerate(ring):
        seq = [ring[(pos + j) % k] for j in range(1, k)]
        lst = _build_member_list(
            rng, x, seq, nonring, set(dead), base, r, space, with_base
        )
        nodes[x] = NodeState(ident=x, succ_list=lst)

    order = list(appendages)
    rng.shuffle(order)
    attached: list[int] = []
    for a in order:
        candidates = []
        for t in ring + attached:
            if t == a:
                continue
            if with_base and any(between(a, b, t) for b in base):
                continue
            candidates.append(t)
        # The nearest clockwise ring member is always a legal target.
        fallback = min(ring, key=lambda v: clockwise_distance(a, v, space))
        target = sorted(candidates)[rng.randrange(len(candidates))] if candidates else fallback
        lst = (target,) + nodes[target].succ_list[: r - 1]
        nodes[a] = NodeState(ident=a, succ_list=lst)
        attached.append(a)

    # Predecessors do not affect validity; mix correct, missing and stale ones.
    live_set = frozenset(live)
    net = Network(params=params, base=base, nodes=nodes, live=live_set)
    for x in live:
        roll = rng.random()
        if roll < 0.55:
            pred: int | None = globally_correct_pred(net, x)
        elif roll < 0.7:
            pred = None
        elif roll < 0.9 or not dead:
            pred = rng.choice(live)
        else:
            pred = rng.choice(dead)
        nodes[x] = replace(nodes[x], pred=pred)

    for d in dead:
        others = sorted((i for i in ids if i != d), key=lambda v: clockwise_distance(d, v, space))
        nodes[d] = NodeState(ident=d, succ_list=tuple((others * r)[:r]), pred=None)

    return Network(params=params, base=base, nodes=nodes, live=live_set)


def sample_valid_states(params: RingParams, max_nodes: int, count: int, seed: int):
    """Constructively sampled valid networks, reproducible from the seed."""
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        net = _structured_network(rng, params, max_nodes, with_base=True)
        attempts += 1
        if is_valid(net):
            produced += 1
            yield net
        elif attempts > 50 * (count + 1):
            raise RuntimeError("constructive sampler failed to produce valid states")


def sample_trial_states(
    params: RingParams, max_nodes: int, count: int, seed: int, trial: str
):
    """Sampled networks satisfying a named trial invariant (no stable base)."""
    predicate = TRIAL_INVARIANTS[trial]
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        net = _structured_network(rng, params, max_nodes, with_base=False, min_ring=3)
        attempts += 1
        if predicate(net):
            produced += 1
            yield net
        if attempts > 200 * (count + 1):
            raise RuntimeError(f"sampler failed to produce {trial} states")


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
    r = params.r
    for n_total in range(r + 1, max_nodes + 1):
        ids = tuple(range(n_total))
        raw_lists = list(itertools.product(ids, repeat=r))
        for live_size in range(r + 1, n_total + 1):
            for live in itertools.combinations(ids, live_size):
                live_set = frozenset(live)
                dead = tuple(i for i in ids if i not in live_set)
                placeholders = {d: _dead_placeholder(d, ids, r) for d in dead}
                for base in itertools.combinations(live, r + 1):
                    for combo in itertools.product(raw_lists, repeat=live_size):
                        nodes = {
                            x: NodeState(ident=x, succ_list=lst)
                            for x, lst in zip(live, combo)
                        }
                        nodes.update(placeholders)
                        yield Network(
                            params=params,
                            base=frozenset(base),
                            nodes=nodes,
                            live=live_set,
                        )


# --- lemma checks ------------------------------------------------------------


def preservation_cases(net: Network, kinds=ALL_KINDS):
    """(prepared network, event) pairs covering every enabled event of the kinds.

    Acquired values are swept: a join is prepared with every live successor
    candidate allowed by the stable-base precondition, and a stabilize
    adoption with every live candidate between the node and its successor.
    """
    kinds = set(kinds)
    live = net.live_idents()
    non_live = tuple(i for i in sorted(net.nodes) if not net.is_live(i))

    if EventKind.JOIN_LOOKUP in kinds:
        for j in non_live:
            ev = Event(EventKind.JOIN_LOOKUP, j)
            if is_enabled(net, ev):
                yield net, ev
    if EventKind.JOIN in kinds:
        for j in non_live:
            for nsucc in live:
                if not join_precondition_holds(net, j, nsucc):
                    continue
                state = net.nodes.get(j) or NodeState(ident=j, succ_list=())
                prepared = net.with_node(replace(state, pending_new_succ=nsucc))
                yield prepared, Event(EventKind.JOIN, j)
    if EventKind.STABILIZE_FROM_OLD_SUCCESSOR in kinds:
        for n in live:
            if best_successor(net, n) is not None:
                yield net, Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, n)
    if EventKind.STABILIZE_FROM_NEW_SUCCESSOR in kinds:
        # The stored candidate is whatever predecessor value the queried
        # successor held, so dead identifiers are swept too: a correct kernel
        # times out on them, and the canary kernels must be caught adopting.
        for n in live:
            head = net.node(n).succ_list[0]
            for c in sorted(net.nodes):
                if c == n or not between(n, c, head):
                    continue
                prepared = net.with_node(replace(net.node(n), pending_candidate=c))
                yield prepared, Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n)
    if EventKind.RECTIFY in kinds:
        for p in live:
            head = net.node(p).succ_list[0]
            if net.is_live(head):
                yield net, Event(EventKind.RECTIFY, head, new_pred=p)
    if EventKind.FAIL in kinds:
        for n in live:
            if n not in net.base and fail_guard_holds(net, n):
                yield net, Event(EventKind.FAIL, n)


def check_preservation(
    states,
    event_kinds=ALL_KINDS,
    invariant=is_valid,
    faults: FaultFlags | None = None,
    bounds: dict | None = None,
    lemma: str = "EventPreservesValidity",
    stop_at: int | None = None,
) -> CheckReport:
    """Assert the invariant survives every enabled event of the given kinds."""
    report = CheckReport(lemma=lemma, bounds=bounds or {})
    faults = faults or FaultFlags()
    cases = 0
    for net in states:
        report.states_checked += 1
        for prepared, ev in preservation_cases(net, event_kinds):
            cases += 1
            post = apply_event(prepared, ev, faults=faults)
            if not invariant(post):
                report.add_violation(
                    prepared, ev, f"invariant broken after event: {conjuncts(post).to_dict()}"
                )
                if stop_at and report.violation_count >= stop_at:
                    report.info["cases"] = cases
                    return report
    report.info["cases"] = cases
    return report


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


def _effective_steps(net: Network):
    """Each effective repair event paired with the state it leads to."""
    for ev in effective_enabled(net):
        if ev.kind is EventKind.STABILIZE_FROM_NEW_SUCCESSOR:
            yield ev, apply_stabilize_from_new_successor(net, ev.node)
        else:
            yield ev, apply_event(net, ev)


MONOTONICITY_VIOLATION_CAP = 50_000


def check_monotonicity(states, bounds: dict | None = None) -> CheckReport:
    """Every effective repair event must strictly decrease the error vector
    lexicographically, and the error must be zero exactly on ideal states.

    The scalar total error is not a ranking function (an adoption can leave
    it flat or raise it); the per-level vector of `measure.error_vector` is.
    Checking stops after MONOTONICITY_VIOLATION_CAP violations and then sets
    `info["capped"]`, so the reported count is a lower bound.
    """
    report = CheckReport(lemma="ErrorMonotonicity", bounds=bounds or {})
    report.info["capped"] = False
    cases = 0
    for net in states:
        report.states_checked += 1
        before = error_vector(net)
        if (not any(before)) != is_ideal(net):
            report.add_violation(net, None, f"zero-error mismatch: error={sum(before)}")
            continue
        for ev, post in _effective_steps(net):
            cases += 1
            after = error_vector(post)
            if after >= before:
                report.add_violation(
                    net, ev, f"error vector {before} -> {after} (not a strict decrease)"
                )
        if report.violation_count > MONOTONICITY_VIOLATION_CAP:
            report.info["capped"] = True
            break
    report.info["cases"] = cases
    return report


def check_executor_local_monotonicity(states, bounds: dict | None = None) -> CheckReport:
    """The executor's own pointer errors never rise and strictly improve overall."""
    from .measure import pointer_error, succ_role, ROLE_PRED

    report = CheckReport(lemma="ExecutorLocalMonotonicity", bounds=bounds or {})
    for net in states:
        report.states_checked += 1
        roles = [ROLE_PRED] + [succ_role(i) for i in range(1, net.params.r + 1)]
        for ev, post in _effective_steps(net):
            n = ev.node
            before = sum(pointer_error(net, n, role) for role in roles)
            after = sum(pointer_error(post, n, role) for role in roles)
            if after >= before:
                report.add_violation(
                    net, ev, f"executor error {before} -> {after}"
                )
    return report


def check_implications(states, bounds: dict | None = None) -> CheckReport:
    """BaseNotSkipped implies duplicate-free and ordered extended lists."""
    report = CheckReport(lemma="BaseNotSkippedImplications", bounds=bounds or {})
    for net in states:
        report.states_checked += 1
        if not conjuncts(net).base_not_skipped:
            continue
        for n in net.live:
            props = list_properties(net, n)
            if not props.no_duplicates:
                report.add_violation(net, None, f"{n} has duplicate entries")
            if not props.ordered_successor_lists:
                report.add_violation(net, None, f"{n} has a disordered list")
    return report


def explore_reachable(
    init: Network,
    max_joins: int,
    max_fails: int,
    max_depth: int,
    joiners: tuple[int, ...] = (),
    max_states: int = 200_000,
    invariant=is_valid,
) -> CheckReport:
    """Breadth-first exploration of every interleaving within the event budget.

    The invariant is asserted at every reached state. Join budget counts
    membership changes; lookups are free but only offered while joins remain.
    """
    report = CheckReport(
        lemma="ReachableStatesValid",
        bounds={"joins": max_joins, "fails": max_fails, "depth": max_depth},
    )
    seen: set[tuple] = set()
    queue: deque[tuple[Network, int, int, int]] = deque()
    transitions = 0
    truncated = False

    def visit(net: Network, joins: int, fails: int, depth: int) -> None:
        nonlocal truncated
        key = (net.canonical_key(), joins, fails)
        if key in seen:
            return
        if len(seen) >= max_states:
            truncated = True
            return
        seen.add(key)
        report.states_checked += 1
        if not invariant(net):
            report.add_violation(net, None, "invariant broken at reachable state")
        queue.append((net, joins, fails, depth))

    visit(init, 0, 0, 0)
    while queue:
        net, joins, fails, depth = queue.popleft()
        if depth >= max_depth:
            continue
        allowed_joiners = joiners if joins < max_joins else ()
        for ev in enabled_events(net, joiners=allowed_joiners):
            if ev.kind is EventKind.FAIL and fails >= max_fails:
                continue
            if ev.kind is EventKind.JOIN and joins >= max_joins:
                continue
            post = apply_event(net, ev)
            transitions += 1
            visit(
                post,
                joins + (1 if ev.kind is EventKind.JOIN else 0),
                fails + (1 if ev.kind is EventKind.FAIL else 0),
                depth + 1,
            )
    report.info.update(
        {"states": len(seen), "transitions": transitions, "truncated": truncated}
    )
    return report


def _broken_conjunct_check(name: str | None):
    if name is None:
        return lambda net: True
    if name == "orderedRing":
        return lambda net: not conjuncts(net).ordered_ring
    if name == "noConflictingDates":
        from .invariants import trial_predicates

        return lambda net: not trial_predicates(net).no_conflicting_dates
    if name == "noEjects":
        from .invariants import trial_predicates

        return lambda net: not trial_predicates(net).no_ejects
    raise ValueError(f"unknown conjunct {name!r}")


def search_trial_counterexample(
    trial: str,
    params: RingParams,
    max_nodes: int,
    seed: int,
    max_states: int = 20_000,
    require_break: str | None = None,
) -> tuple[Network, Event] | None:
    """Hunt for a state satisfying a trial invariant that one event breaks.

    Sweeps fails, stabilize copies and stabilize adoptions over sampled
    trial-invariant states; rectifies never touch list structure and cannot
    break any of the structural conjuncts. `require_break` names a specific
    conjunct that must be false afterwards, restricting which counterexample
    shape counts.
    """
    predicate = TRIAL_INVARIANTS[trial]
    broken = _broken_conjunct_check(require_break)
    if trial == "valid":
        states = sample_valid_states(params, max_nodes, max_states, seed)
    else:
        states = sample_trial_states(params, max_nodes, max_states, seed, trial)
    for net in states:
        for n in net.live_idents():
            if n not in net.base and fail_guard_holds(net, n):
                ev = Event(EventKind.FAIL, n)
                post = apply_event(net, ev)
                if not predicate(post) and broken(post):
                    return net, ev
            if best_successor(net, n) is not None:
                ev = Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, n)
                post = apply_event(net, ev)
                if not predicate(post) and broken(post):
                    return net, ev
            head = net.node(n).succ_list[0]
            for c in net.live_idents():
                if not between(n, c, head):
                    continue
                prepared = net.with_node(replace(net.node(n), pending_candidate=c))
                ev = Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n)
                post = apply_event(prepared, ev)
                if not predicate(post) and broken(post):
                    return prepared, ev
    return None
