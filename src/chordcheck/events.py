"""The six atomic event kinds and their transition semantics.

Every event is executed by a single node and alters only that node's state
(plus the liveness set for Join/Fail). Queries to dead nodes deterministically
time out; queries to live nodes deterministically succeed. Notification is
modeled by enabling: Rectify(n, p) is enabled whenever live p has n as the
head of its successor list.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .ident import between
from .netstate import Network, NodeState
from .topology import best_successor, lookup_succ


class EventKind(Enum):
    JOIN_LOOKUP = "JoinLookup"
    JOIN = "Join"
    STABILIZE_FROM_OLD_SUCCESSOR = "StabilizeFromOldSuccessor"
    STABILIZE_FROM_NEW_SUCCESSOR = "StabilizeFromNewSuccessor"
    RECTIFY = "Rectify"
    FAIL = "Fail"


_KIND_ORDER = {kind: i for i, kind in enumerate(EventKind)}


@dataclass(frozen=True, slots=True)
class Event:
    kind: EventKind
    node: int
    new_pred: int | None = None  # Rectify only: the notifying node
    known: int | None = None  # JoinLookup only: the bootstrap contact

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.node, self.new_pred or -1, self.known or -1)


class EventNotEnabled(Exception):
    """The event's precondition does not hold in the given snapshot."""


class AssumptionBreach(Exception):
    """A member was left with no live successor, violating the operating assumption."""


@dataclass(frozen=True)
class FaultFlags:
    """Deliberate kernel faults for checker canaries.

    unchecked_adoption drops the liveness check before adopting a stabilize
    candidate; short_join populates a joiner's list with duplicated entries
    instead of copying the successor's list.
    """

    unchecked_adoption: bool = False
    short_join: bool = False


_NO_FAULTS = FaultFlags()


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


def join_precondition_holds(net: Network, joining: int, new_succ: int) -> bool:
    """No stable-base member lies between the joiner and its new successor."""
    return not any(between(joining, b, new_succ) for b in net.base)


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


def fail_guard_holds(net: Network, n: int) -> bool:
    """Every remaining member keeps a live successor entry after n fails."""
    remaining = net.live - {n}
    for m in remaining:
        if not any(e in remaining for e in net.node(m).succ_list):
            return False
    return True


def failable(net: Network) -> frozenset[int]:
    """The members n for which `fail_guard_holds(net, n)`, from one pass over the lists.

    A member whose only live entry is some other member e makes e critical:
    e's fail would strand it. A member with no live entry is stranded already,
    so it blocks every fail but its own. `fail_guard_holds` is the oracle.
    """
    live = net.live
    nodes = net.nodes
    critical: set[int] = set()
    stranded: list[int] = []
    for m in live:
        only = None
        for e in nodes[m].succ_list:
            if e in live:
                if only is None:
                    only = e
                elif e != only:
                    break  # two distinct live entries: no single fail strands m
        else:
            if only is None:
                stranded.append(m)
            elif only != m:
                critical.add(only)
    if len(stranded) > 1:
        return frozenset()
    candidates = live if not stranded else frozenset(stranded)
    return candidates - critical


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
    return sorted(events, key=Event.sort_key)


# --- serialization ----------------------------------------------------------


def event_to_dict(event: Event) -> dict:
    rec: dict = {"kind": event.kind.value, "node": event.node}
    if event.new_pred is not None:
        rec["newPred"] = event.new_pred
    if event.known is not None:
        rec["known"] = event.known
    return rec


def event_from_dict(rec: dict) -> Event:
    return Event(
        kind=EventKind(rec["kind"]),
        node=rec["node"],
        new_pred=rec.get("newPred"),
        known=rec.get("known"),
    )
