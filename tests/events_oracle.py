"""The event guards and candidate listings as written before the guard table.

Each precondition was stated twice, once in `is_enabled` and once as the
raises of each `apply_*`, and candidates were listed separately by
`enabled_events`, the simulator's repair pool, the preservation sweep and
the counterexample search. The code is kept here unchanged as the oracle
for `chordcheck.events`' guard table and its one candidate listing, with
`fail_guard_holds`, the from-scratch Fail guard that `failable` replaced,
and `effective_enabled`, which restated the kernel's stabilize copy,
adoption test and rectify choice before `chordcheck.measure` read them
from `chordcheck.events`. `listing_loop` is the kernel's listing as a
plain loop over the guard table, from before `enabled_events` read the
explorer's slots; it is the oracle of the listing's order. `sort_key` is
the event order the old listings sorted by, once `Event.sort_key`.
"""

from __future__ import annotations

from dataclasses import replace

from chordcheck import events as kernel
from chordcheck.events import (
    AssumptionBreach,
    Event,
    EventKind,
    EventNotEnabled,
    FaultFlags,
    failable,
    join_precondition_holds,
)
from chordcheck.ident import between
from chordcheck.invariants import (
    conjuncts,
    eight_conjunct_trial,
    is_valid,
    six_conjunct_trial,
    trial_predicates,
)
from chordcheck.netstate import Network, NodeState
from chordcheck.topology import best_successor, lookup_succ

ALL_KINDS = tuple(EventKind)
_KIND_ORDER = {kind: i for i, kind in enumerate(EventKind)}
_NO_FAULTS = FaultFlags()
TRIAL_INVARIANTS = {
    "six-conjunct": six_conjunct_trial,
    "eight-conjunct": eight_conjunct_trial,
    "valid": is_valid,
}


def sort_key(ev: Event) -> tuple:
    return (_KIND_ORDER[ev.kind], ev.node, ev.new_pred or -1, ev.known or -1)


def fail_guard_holds(net: Network, n: int) -> bool:
    """Every remaining member keeps a live successor entry after n fails.

    The from-scratch oracle of `chordcheck.events.failable`.
    """
    remaining = net.live - {n}
    for m in remaining:
        if not any(e in remaining for e in net.node(m).succ_list):
            return False
    return True


def apply_join_lookup(net: Network, joining: int, known: int | None = None) -> Network:
    """The joiner asks a member for its proper successor, recording the answer.

    A dead contact times out and leaves the state unchanged (retry later).
    One join at a time per node: a pending lookup result blocks a new lookup.
    """
    if net.is_live(joining):
        raise EventNotEnabled(f"{joining} is already a member")
    if not 0 <= joining < net.params.space:
        raise ValueError(f"identifier {joining} outside the space")
    existing = net.nodes.get(joining)
    if existing is not None and existing.pending_new_succ is not None:
        raise EventNotEnabled(f"{joining} already has a join in progress")
    if known is not None and not net.is_live(known):
        return net  # timeout, retry later
    result = lookup_succ(net, joining)
    if result is None or not net.is_live(result):
        raise EventNotEnabled("no ring member to answer the lookup")
    # A rejoining identifier re-initializes its variables.
    state = NodeState(ident=joining, succ_list=(), pending_new_succ=result)
    return net.with_node(state)



def apply_join(net: Network, joining: int, faults: FaultFlags = _NO_FAULTS) -> Network:
    """Complete a join: copy the new successor's list and become a member.

    A dead lookup result times out, clearing the intermediate so the join can
    be retried. A base member between the joiner and its target blocks the
    join entirely (the precondition contains no mutable term, so interleaved
    events cannot invalidate it once it holds).
    """
    state = net.nodes.get(joining)
    if net.is_live(joining) or state is None or state.pending_new_succ is None:
        raise EventNotEnabled(f"{joining} has no join in progress")
    new_succ = state.pending_new_succ
    if not net.is_live(new_succ):
        return net.with_node(replace(state, pending_new_succ=None))  # timeout, retry
    if not join_precondition_holds(net, joining, new_succ):
        raise EventNotEnabled(f"a base member lies between {joining} and {new_succ}")
    if faults.short_join:
        succ_list = (new_succ,) * net.params.r
    else:
        succ_list = (new_succ,) + net.node(new_succ).succ_list[:-1]
    joined = NodeState(ident=joining, succ_list=succ_list, pred=None)
    return net.with_node(joined, live=True)


def apply_stabilize_from_old_successor(net: Network, n: int) -> Network:
    """Query the first live successor, adopt its list, and acquire its predecessor.

    Dead list prefixes are skipped in one atomic step, mirroring the retry
    loop of the stabilize operation. The acquired predecessor is held as the
    adoption candidate for a following StabilizeFromNewSuccessor.
    """
    if not net.is_live(n):
        raise EventNotEnabled(f"{n} is not a live member")
    h = best_successor(net, n)
    if h is None:
        raise AssumptionBreach(f"{n} has no live successor in its list")
    h_state = net.node(h)
    state = net.node(n)
    new_list = (h,) + h_state.succ_list[: net.params.r - 1]
    return net.with_node(
        replace(state, succ_list=new_list, pending_candidate=h_state.pred)
    )


_UNSET = object()


def apply_stabilize_from_new_successor(
    net: Network,
    n: int,
    candidate: int | None | object = _UNSET,
    faults: FaultFlags = _NO_FAULTS,
) -> Network:
    """Adopt the acquired predecessor as the new first successor if it is closer.

    The candidate defaults to the stored intermediate; when none is stored the
    value a fresh stabilize would acquire (the first live successor's current
    predecessor) is used, which makes the call behave like the full stabilize
    operation completing through its adoption branch.

    A dead candidate times out (intermediate cleared, list kept); a candidate
    that is not between the node and its successor clears the intermediate
    without adoption.
    """
    if not net.is_live(n):
        raise EventNotEnabled(f"{n} is not a live member")
    state = net.node(n)
    if candidate is not _UNSET:
        c = candidate
        ref_head = state.succ_list[0]
    elif state.pending_candidate is not None:
        c = state.pending_candidate
        ref_head = state.succ_list[0]
    else:
        h = best_successor(net, n)
        if h is None:
            raise AssumptionBreach(f"{n} has no live successor in its list")
        c = net.node(h).pred
        ref_head = h
    if c is None:
        raise EventNotEnabled(f"{n} acquired no predecessor to adopt")
    if not net.is_live(c) and not faults.unchecked_adoption:
        return net.with_node(replace(state, pending_candidate=None))  # timeout
    if not between(n, c, ref_head):
        return net.with_node(replace(state, pending_candidate=None))
    new_list = (c,) + net.node(c).succ_list[: net.params.r - 1]
    return net.with_node(
        replace(state, succ_list=new_list, pending_candidate=None)
    )


def apply_rectify(net: Network, n: int, new_pred: int) -> Network:
    """Adopt a notifying predecessor if the current one is gone or farther away.

    Enabled only when the notifier is live and has n at the head of its list
    (it would notify n after stabilizing). A rectify that changes nothing is
    legal but not effective.
    """
    if not net.is_live(n):
        raise EventNotEnabled(f"{n} is not a live member")
    if not net.is_live(new_pred):
        raise EventNotEnabled(f"notifier {new_pred} is not live")
    if net.node(new_pred).succ_list[0] != n:
        raise EventNotEnabled(f"{new_pred} would not notify {n}")
    state = net.node(n)
    cur = state.pred
    if cur is None or not net.is_live(cur) or between(cur, new_pred, n):
        new_val: int | None = new_pred
    else:
        new_val = cur
    # Executing any event other than the stabilize pair invalidates a held
    # stabilize intermediate.
    return net.with_node(replace(state, pred=new_val, pending_candidate=None))


def apply_fail(net: Network, n: int, force: bool = False) -> Network:
    """Remove a member, retaining its last state read-only.

    Base members never fail, and a fail that would strand some member with an
    all-dead list is not enabled; `force` bypasses both guards for scripted
    demonstrations of assumption violations.
    """
    if not net.is_live(n):
        raise EventNotEnabled(f"{n} is not a live member")
    if not force:
        if n in net.base:
            raise EventNotEnabled(f"{n} is a stable-base member")
        if not fail_guard_holds(net, n):
            raise EventNotEnabled(f"failing {n} would strand a member")
    return net.without_member(n)


def apply_event(
    net: Network, event: Event, faults: FaultFlags = _NO_FAULTS, force: bool = False
) -> Network:
    if event.kind is EventKind.JOIN_LOOKUP:
        return apply_join_lookup(net, event.node, event.known)
    if event.kind is EventKind.JOIN:
        return apply_join(net, event.node, faults)
    if event.kind is EventKind.STABILIZE_FROM_OLD_SUCCESSOR:
        return apply_stabilize_from_old_successor(net, event.node)
    if event.kind is EventKind.STABILIZE_FROM_NEW_SUCCESSOR:
        return apply_stabilize_from_new_successor(net, event.node, faults=faults)
    if event.kind is EventKind.RECTIFY:
        assert event.new_pred is not None
        return apply_rectify(net, event.node, event.new_pred)
    if event.kind is EventKind.FAIL:
        return apply_fail(net, event.node, force=force)
    raise ValueError(f"unknown event kind {event.kind}")


def is_enabled(net: Network, event: Event) -> bool:
    kind, n = event.kind, event.node
    if kind is EventKind.JOIN_LOOKUP:
        if net.is_live(n):
            return False
        existing = net.nodes.get(n)
        if existing is not None and existing.pending_new_succ is not None:
            return False
        if event.known is not None and not net.is_live(event.known):
            return False
        result = lookup_succ(net, n)
        return result is not None and net.is_live(result)
    if kind is EventKind.JOIN:
        state = net.nodes.get(n)
        if net.is_live(n) or state is None or state.pending_new_succ is None:
            return False
        target = state.pending_new_succ
        return net.is_live(target) and join_precondition_holds(net, n, target)
    if kind is EventKind.STABILIZE_FROM_OLD_SUCCESSOR:
        return net.is_live(n) and best_successor(net, n) is not None
    if kind is EventKind.STABILIZE_FROM_NEW_SUCCESSOR:
        if not net.is_live(n):
            return False
        state = net.node(n)
        c = state.pending_candidate
        return (
            c is not None
            and net.is_live(c)
            and between(n, c, state.succ_list[0])
        )
    if kind is EventKind.RECTIFY:
        p = event.new_pred
        return (
            p is not None
            and net.is_live(n)
            and net.is_live(p)
            and net.node(p).succ_list[0] == n
        )
    if kind is EventKind.FAIL:
        return net.is_live(n) and n not in net.base and fail_guard_holds(net, n)
    return False


def enabled_events(
    net: Network, joiners: tuple[int, ...] | None = None
) -> list[Event]:
    """All events whose preconditions hold, in deterministic order.

    `joiners` names the identifiers considered as join candidates; by default
    every non-live identifier already tracked by the network is considered.
    """
    if joiners is None:
        joiners = tuple(i for i in sorted(net.nodes) if not net.is_live(i))
    events: list[Event] = []
    for j in joiners:
        ev = Event(EventKind.JOIN_LOOKUP, j)
        if is_enabled(net, ev):
            events.append(ev)
        ev = Event(EventKind.JOIN, j)
        if is_enabled(net, ev):
            events.append(ev)
    fails = failable(net) - net.base
    for n in net.live_idents():
        ev = Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, n)
        if is_enabled(net, ev):
            events.append(ev)
        ev = Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n)
        if is_enabled(net, ev):
            events.append(ev)
        if n in fails:
            events.append(Event(EventKind.FAIL, n))
    for p in net.live_idents():
        head = net.node(p).succ_list[0]
        ev = Event(EventKind.RECTIFY, head, new_pred=p)
        if is_enabled(net, ev):
            events.append(ev)
    return sorted(events, key=sort_key)


def effective_enabled(net: Network) -> list[Event]:
    """Repair events that can occur now and would change their executor's pointers.

    Evaluated over pointer state alone: the stabilize adoption candidate is
    the value a stabilize running now would acquire (the first live
    successor's current predecessor), matching the progress lemmas' reading.
    """
    events: list[Event] = []
    r = net.params.r
    for n in net.live_idents():
        state = net.node(n)
        h = best_successor(net, n)
        if h is None:
            continue  # assumption breach; unreachable from valid states
        new_list = (h,) + net.node(h).succ_list[: r - 1]
        if new_list != state.succ_list:
            events.append(Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, n))
        c = net.node(h).pred
        if c is not None and net.is_live(c) and between(n, c, h):
            adopted = (c,) + net.node(c).succ_list[: r - 1]
            if adopted != state.succ_list:
                events.append(Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n))
    for p in net.live_idents():
        head = net.node(p).succ_list[0]
        if not net.is_live(head):
            continue
        n = head
        cur = net.node(n).pred
        if cur == p:
            continue
        if cur is None or not net.is_live(cur) or between(cur, p, n):
            events.append(Event(EventKind.RECTIFY, n, new_pred=p))
    return sorted(events, key=sort_key)


def _repair_pool(net: Network, live: tuple[int, ...]) -> list[Event]:
    """Every enabled stabilize and rectify, in the order the scheduler draws from."""
    repairs: list[Event] = []
    for n in live:
        repairs.append(Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, n))
        ev = Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n)
        if is_enabled(net, ev):
            repairs.append(ev)
    for p in live:
        head = net.node(p).succ_list[0]
        ev = Event(EventKind.RECTIFY, head, new_pred=p)
        if is_enabled(net, ev):
            repairs.append(ev)
    return repairs


def listing_loop(net: Network, joiners=None) -> list[Event]:
    """Every event the guard table enables, in listing order.

    The order is fixed: each joiner's one join step (JoinLookup, or Join once
    it holds a lookup result), then each live member's two stabilize steps
    and its Fail, then the Rectify that each live member would send to the
    head of its list. `joiners` names the identifiers considered as join
    candidates; by default every non-live identifier the network tracks.
    """
    if joiners is None:
        joiners = [i for i in sorted(net.nodes) if i not in net.live]
    fails = failable(net) - net.base
    events = []
    for j in joiners:
        state = net.nodes.get(j)
        pending = state is not None and state.pending_new_succ is not None
        ev = Event(EventKind.JOIN if pending else EventKind.JOIN_LOOKUP, j)
        if kernel.is_enabled(net, ev):
            events.append(ev)
    live = net.live_idents()
    for n in live:
        for k in (EventKind.STABILIZE_FROM_OLD_SUCCESSOR, EventKind.STABILIZE_FROM_NEW_SUCCESSOR):
            ev = Event(k, n)
            if kernel.is_enabled(net, ev):
                events.append(ev)
        if n in fails:
            events.append(Event(EventKind.FAIL, n))
    for p in live:
        ev = Event(EventKind.RECTIFY, net.nodes[p].succ_list[0], new_pred=p)
        if kernel.is_enabled(net, ev):
            events.append(ev)
    return events


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
        fails = failable(net) - net.base
        for n in live:
            if n in fails:
                yield net, Event(EventKind.FAIL, n)


def _broken_conjunct_check(name: str | None):
    if name is None:
        return lambda net: True
    if name == "orderedRing":
        return lambda net: not conjuncts(net).ordered_ring
    if name == "noConflictingDates":
        return lambda net: not trial_predicates(net).no_conflicting_dates
    if name == "noEjects":
        return lambda net: not trial_predicates(net).no_ejects
    raise ValueError(f"unknown conjunct {name!r}")


def search_trial_counterexample(
    trial: str,
    states,
    require_break: str | None = None,
) -> tuple[Network, Event] | None:
    """Hunt for a state satisfying a trial invariant that one event breaks.

    Sweeps fails, stabilize copies and stabilize adoptions over the given
    trial-invariant states; rectifies never touch list structure and cannot
    break any of the structural conjuncts. `require_break` names a specific
    conjunct that must be false afterwards, restricting which counterexample
    shape counts. It takes the states as a stream, so it sweeps the states
    the checker's search sweeps.
    """
    predicate = TRIAL_INVARIANTS[trial]
    broken = _broken_conjunct_check(require_break)
    for net in states:
        fails = failable(net) - net.base
        for n in net.live_idents():
            if n in fails:
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
