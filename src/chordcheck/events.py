"""The six atomic event kinds and their transition semantics.

Every event is executed by a single node and alters only that node's state
(plus the liveness set for Join/Fail). Queries to dead nodes deterministically
time out; queries to live nodes deterministically succeed. Notification is
modeled by enabling: Rectify(n, p) is enabled whenever live p has n as the
head of its successor list.

Each kind's precondition is written once, as the guard in `_KINDS`:
`apply_event` raises its reason, and `is_enabled` is "the guard holds and the
event does not time out". Each effect returns only what the rule above lets
it change: the executor's new state and its liveness change, or None when
the event changes nothing (`effect_delta`). `step` is the one way to make a
successor of an event whose guard is known to hold: it builds the next
network from that pair, or returns the network itself for a self-loop.
`apply_event` is the guard, then `step`. The explorer keys a successor from
its delta before building it. The candidates are listed in one place:
`slot_listing` lays them out in fixed slots, and `enabled_events` is its
events in slot order, read by the checker. The explorer and the simulator
list only their first state by `slot_listing`: they keep the slots and
derive a successor's from its parent's (`carried_listing`), refreshing only
the slots whose guards read what the step's `topology.change_code` says
changed in the one node it touched, its liveness included. A
`Join` whose looked-up successor has died is an enabled step that clears
the lookup, so the explorer takes that branch wherever the simulator can.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .ident import between
from .netstate import Network, NodeState
from .topology import HEAD_MOVED, LIST_CHANGED, LIVENESS_CHANGED, _walk, best_successor, lookup_succ


class EventKind(Enum):
    JOIN_LOOKUP = "JoinLookup"
    JOIN = "Join"
    STABILIZE_FROM_OLD_SUCCESSOR = "StabilizeFromOldSuccessor"
    STABILIZE_FROM_NEW_SUCCESSOR = "StabilizeFromNewSuccessor"
    RECTIFY = "Rectify"
    FAIL = "Fail"

    # Members are singletons, so identity hashing is exact, and it keeps the
    # per-event table lookups at C speed.
    __hash__ = object.__hash__


ALL_KINDS = tuple(EventKind)
# The kinds read on every listing and application: a module global is read
# several times faster than an enum attribute.
_RECTIFY = EventKind.RECTIFY
_FAIL = EventKind.FAIL
_SFOS = EventKind.STABILIZE_FROM_OLD_SUCCESSOR
_SFNS = EventKind.STABILIZE_FROM_NEW_SUCCESSOR


class Event(NamedTuple):
    """One event; a named tuple, since candidate listing builds many of them."""

    kind: EventKind
    node: int
    new_pred: int | None = None  # Rectify only: the notifying node
    known: int | None = None  # JoinLookup only: the bootstrap contact


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


def join_precondition_holds(net: Network, joining: int, new_succ: int) -> bool:
    """No stable-base member lies between the joiner and its new successor."""
    return not any(between(joining, b, new_succ) for b in net.base)


def failable(net: Network) -> frozenset[int]:
    """The members whose fail leaves every other member a live successor entry.

    One pass over the lists: a member whose only live entry is some other
    member e makes e critical, since e's fail would strand it. A member with
    no live entry is stranded already, so it blocks every fail but its own.
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


def _live_successor(net: Network, n: int) -> int:
    h = best_successor(net, n)
    if h is None:
        raise AssumptionBreach(f"{n} has no live successor in its list")
    return h


# --- the repair rules, each written once ----------------------------------------
#
# The effects below, `measure.effective_enabled` and the simulator's repair
# phase all read them, so a repair is judged by the rule it applies.


def _copied_list(net: Network, h: int) -> tuple[int, ...]:
    """The successor list a member takes from its live successor h."""
    return (h,) + net.nodes[h].succ_list[: net.params.r - 1]


def _adopts(net: Network, n: int, c: int | None, head: int) -> bool:
    """A stabilize of n adopts candidate c: c is live and strictly between n and head."""
    return c is not None and c in net.live and between(n, c, head)


def _rectified_pred(net: Network, n: int, p: int) -> int:
    """The predecessor n keeps after p notifies it."""
    cur = net.nodes[n].pred
    if cur is None or cur not in net.live or between(cur, p, n):
        return p
    return cur


# --- guards: the reason an event may not occur, or None ------------------------


def _member_guard(net: Network, ev: Event) -> str | None:
    return None if ev.node in net.live else f"{ev.node} is not a live member"


def _join_lookup_guard(net: Network, ev: Event) -> str | None:
    j = ev.node
    if j in net.live:
        return f"{j} is already a member"
    if not 0 <= j < net.params.space:
        return f"identifier {j} outside the space"
    existing = net.nodes.get(j)
    if existing is not None and existing.pending_new_succ is not None:
        return f"{j} already has a join in progress"
    if _contact_dead(net, ev):
        return None  # the query times out before any member answers
    # A ring answers every lookup (`topology.lookup_succ`), so only the
    # effect asks it which member.
    if _walk(net).cycle is None:
        return "no ring member to answer the lookup"
    return None


def _join_guard(net: Network, ev: Event) -> str | None:
    # The precondition contains no mutable term, so interleaved events cannot
    # invalidate it once it holds.
    j = ev.node
    state = net.nodes.get(j)
    if j in net.live or state is None or state.pending_new_succ is None:
        return f"{j} has no join in progress"
    target = state.pending_new_succ
    if target in net.live and not join_precondition_holds(net, j, target):
        return f"a base member lies between {j} and {target}"
    return None


def _adoption_guard(net: Network, ev: Event) -> str | None:
    n = ev.node
    if n not in net.live:
        return f"{n} is not a live member"
    if net.nodes[n].pending_candidate is None:
        # No stored candidate: the one a fresh stabilize would acquire.
        h = best_successor(net, n)
        if h is not None and net.nodes[h].pred is None:
            return f"{n} acquired no predecessor to adopt"
    return None


def _rectify_guard(net: Network, ev: Event) -> str | None:
    # Notification is modeled by enabling: a live notifier with n at the head
    # of its list would notify n after stabilizing.
    n, p = ev.node, ev.new_pred
    live = net.live
    if n not in live:
        return f"{n} is not a live member"
    if p is None:
        return f"Rectify of {n} names no notifier (newPred)"
    if p not in live:
        return f"notifier {p} is not live"
    if net.nodes[p].succ_list[0] != n:
        return f"{p} would not notify {n}"
    return None


def _fail_guard(net: Network, ev: Event) -> str | None:
    n = ev.node
    if n not in net.live:
        return f"{n} is not a live member"
    if n in net.base:
        return f"{n} is a stable-base member"
    if n not in failable(net):
        return f"failing {n} would strand a member"
    return None


# --- timeouts: an event whose guard holds but whose query goes to a dead node ----
#
# It is not counted enabled. It still applies, as a retry that clears the
# intermediate it waited on, except a stabilize whose every successor entry
# is dead: that member is stranded, and applying it raises AssumptionBreach.
# A Join has no timeout test: when its looked-up successor has died, it is
# an enabled step that clears the lookup, as the simulator schedules it.


def _stranded(net: Network, ev: Event) -> bool:
    return best_successor(net, ev.node) is None


def _contact_dead(net: Network, ev: Event) -> bool:
    return ev.known is not None and ev.known not in net.live


def _no_closer_candidate(net: Network, ev: Event) -> bool:
    # An unset candidate counts too: only a stored one makes the step enabled.
    state = net.nodes[ev.node]
    return not _adopts(net, ev.node, state.pending_candidate, state.succ_list[0])


# --- effects, applied once the guard holds -----------------------------------------
#
# Each effect returns its executor's new state and liveness change (True,
# False, or None for unchanged), or None for an event that changes nothing:
# a timeout, a copy that leaves the list and the candidate as they are, or a
# Rectify that keeps the predecessor when no candidate is held. Executing any
# event other than the stabilize pair invalidates a held stabilize
# intermediate.

Delta = tuple[NodeState, "bool | None"]


def _join_lookup(net: Network, ev: Event, faults: FaultFlags) -> Delta | None:
    if _contact_dead(net, ev):
        return None  # timeout, retry later
    # A rejoining identifier re-initializes its variables.
    return NodeState(ev.node, (), None, lookup_succ(net, ev.node)), None


def _join(net: Network, ev: Event, faults: FaultFlags) -> Delta:
    state = net.nodes[ev.node]
    new_succ = state.pending_new_succ
    if new_succ not in net.live:
        # Clear, look up again.
        return NodeState(ev.node, state.succ_list, state.pred, None, state.pending_candidate), None
    if faults.short_join:
        succ_list = (new_succ,) * net.params.r
    else:
        succ_list = _copied_list(net, new_succ)
    return NodeState(ev.node, succ_list), True


def _stabilize_from_old_successor(net: Network, ev: Event, faults: FaultFlags) -> Delta | None:
    # Dead list prefixes are skipped in one atomic step, mirroring the retry
    # loop of the stabilize operation.
    n = ev.node
    h = _live_successor(net, n)
    state = net.nodes[n]
    succ_list = _copied_list(net, h)
    candidate = net.nodes[h].pred
    if succ_list == state.succ_list and candidate == state.pending_candidate:
        return None
    return NodeState(n, succ_list, state.pred, state.pending_new_succ, candidate), None


def _stabilize_from_new_successor(net: Network, ev: Event, faults: FaultFlags) -> Delta:
    # A dead candidate times out, and one that is not between the node and
    # its successor is dropped; both clear the intermediate and keep the list.
    n = ev.node
    state = net.nodes[n]
    c, ref_head = state.pending_candidate, state.succ_list[0]
    if c is None:
        ref_head = _live_successor(net, n)
        c = net.nodes[ref_head].pred
    # The unchecked_adoption canary drops the liveness check.
    adopts = between(n, c, ref_head) if faults.unchecked_adoption else _adopts(net, n, c, ref_head)
    succ_list = _copied_list(net, c) if adopts else state.succ_list
    return NodeState(n, succ_list, state.pred, state.pending_new_succ), None


def _rectify(net: Network, ev: Event, faults: FaultFlags) -> Delta | None:
    n = ev.node
    state = net.nodes[n]
    pred = _rectified_pred(net, n, ev.new_pred)
    if pred == state.pred and state.pending_candidate is None:
        return None
    # A Rectify clears a held stabilize candidate on purpose: it is not one of
    # the stabilize pair, so it invalidates the intermediate.
    return NodeState(n, state.succ_list, pred, state.pending_new_succ), None


def _fail(net: Network, ev: Event, faults: FaultFlags) -> Delta:
    return net.nodes[ev.node], False


# The single source of each kind's precondition: (guard, timeout or None
# for kinds that never time out, effect).
_KINDS = {
    EventKind.JOIN_LOOKUP: (_join_lookup_guard, _contact_dead, _join_lookup),
    EventKind.JOIN: (_join_guard, None, _join),
    EventKind.STABILIZE_FROM_OLD_SUCCESSOR: (_member_guard, _stranded, _stabilize_from_old_successor),
    EventKind.STABILIZE_FROM_NEW_SUCCESSOR: (_adoption_guard, _no_closer_candidate, _stabilize_from_new_successor),
    EventKind.RECTIFY: (_rectify_guard, None, _rectify),
    EventKind.FAIL: (_fail_guard, None, _fail),
}


def guard(net: Network, event: Event) -> str | None:
    """Why the event may not occur in this snapshot, or None if it may."""
    return _KINDS[event.kind][0](net, event)


def effect_delta(net: Network, event: Event, faults: FaultFlags = _NO_FAULTS) -> Delta | None:
    """The executor's new state and liveness change after an event whose guard
    is known to hold, or None if the event changes nothing.

    `step` builds its network from this; the explorer keys a successor
    before building it, and `check_monotonicity` scores the new state
    without one. None means exactly that the event leaves `net` as it is.
    An effective repair (`measure.effective_enabled`) changes its executor's
    list or predecessor, so its delta is never None.
    """
    return _KINDS[event.kind][2](net, event, faults)


def step(net: Network, event: Event, faults: FaultFlags = _NO_FAULTS) -> Network:
    """The network after an event whose guard is known to hold, or `net`
    itself when the event changes nothing.

    An event that a listing has just listed is one, as are the simulator's
    joins, whose guards `is_enabled` has just checked, and its repair
    sweeps' steps, whose guards its repair rules imply: their callers make
    each successor here, so each guard runs once.
    """
    delta = effect_delta(net, event, faults)
    return net if delta is None else net.with_node(*delta)


def apply_event(
    net: Network, event: Event, faults: FaultFlags = _NO_FAULTS, force: bool = False
) -> Network:
    """The network after the event: its guard, then `step`.

    Raises EventNotEnabled with the guard's reason if the event may not
    occur, and AssumptionBreach for a stabilize of a member with no live
    successor. `force` bypasses the Fail guards (base permanence and the
    strand check) for scripted demonstrations of assumption violations; the
    executor must still be a live member, and every other kind keeps its
    guard.
    """
    check = _KINDS[event.kind][0]
    if force and event.kind is _FAIL:
        check = _member_guard
    reason = check(net, event)
    if reason is not None:
        raise EventNotEnabled(reason)
    return step(net, event, faults)


def is_enabled(net: Network, event: Event) -> bool:
    """The guard holds and the event does not time out."""
    check, times_out, _ = _KINDS[event.kind]
    return check(net, event) is None and not (times_out and times_out(net, event))


def apply_stabilize_from_old_successor(net: Network, n: int) -> Network:
    """Query the first live successor, adopt its list, and acquire its predecessor."""
    return apply_event(net, Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, n))


def apply_stabilize_from_new_successor(
    net: Network, n: int, faults: FaultFlags = _NO_FAULTS
) -> Network:
    """Adopt the acquired predecessor as the new first successor if it is closer.

    With no stored candidate, the one a fresh stabilize would acquire is used,
    completing the full stabilize operation through its adoption branch.
    """
    return apply_event(net, Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n), faults)


def apply_rectify(net: Network, n: int, new_pred: int) -> Network:
    """Adopt a notifying predecessor if the current one is gone or farther away."""
    return apply_event(net, Event(EventKind.RECTIFY, n, new_pred=new_pred))


# --- the one candidate listing, in slots carried from parent to successor ---------
#
# For one live set and one joiner tuple, every candidate event has a fixed
# slot: each joiner's join step, then each live member's two stabilize steps
# and its Fail, then the Rectify each live member sends. A slot holds its
# event while it is enabled and None otherwise, so the events in slot order
# are the listing.

# A joiner's one possible step, indexed by whether it holds a lookup result:
# the JoinLookup guard refuses a second lookup, and a Join needs one.
_JOIN_STEP = (EventKind.JOIN_LOOKUP, EventKind.JOIN)


class Listing(NamedTuple):
    """The enabled events as slots, so a successor can refresh only a few."""

    joiners: tuple[int, ...]
    members: tuple[int, ...]  # the live set, sorted
    slots: list  # one Event or None per slot

    def events(self) -> list[Event]:
        return [ev for ev in self.slots if ev is not None]

    def fails(self) -> list[Event]:
        """The enabled Fails, in member order."""
        return [ev for ev in self.slots[_fail_slots(self)] if ev is not None]

    def without_joiners(self) -> Listing:
        """This listing with no joiner slots, which come first."""
        return Listing((), self.members, self.slots[len(self.joiners) :]) if self.joiners else self


def _fail_slots(listing: Listing) -> slice:
    # Each member's Fail slot follows its two stabilize slots.
    first = len(listing.joiners)
    return slice(first + 2, first + 3 * len(listing.members), 3)


def slot_listing(net: Network, joiners: Sequence[int]) -> Listing:
    """The slots of every enabled event; each of the distinct `joiners` owns one."""
    joiners = tuple(joiners)
    members = net.live_idents()
    fails = failable(net) - net.base
    slots = [_join_step(net, j) for j in joiners]
    for n in members:
        slots += (
            _enabled(net, Event(_SFOS, n)),
            _enabled(net, Event(_SFNS, n)),
            Event(_FAIL, n) if n in fails else None,
        )
    slots += [_rectify_step(net, p, None) for p in members]
    return Listing(joiners, members, slots)


def enabled_events(net: Network, joiners: Sequence[int] | None = None) -> list[Event]:
    """Every enabled event, in slot order; the distinct `joiners` default to
    every non-live identifier the network tracks."""
    if joiners is None:
        joiners = [i for i in sorted(net.nodes) if i not in net.live]
    return slot_listing(net, joiners).events()


def carried_listing(parent: Listing, net: Network, change: int) -> Listing:
    """The listing of `net` from `parent`, the listing of the state it succeeds,
    and the `topology.change_code` of that step; its joiners are the parent's.

    The step altered only its executor x, so the head decides which slots
    it moved. A Join or a Fail of x inserts or removes x's three member
    slots and its Rectify slot, and names the slots whose guards read x's
    liveness: every slot of each member whose list holds x, the adoption
    step of each member whose stored candidate is x, and every joiner's
    step. Any other step names x's own slots: its join step, or its
    adoption step and, when its list changed, its other stabilize step and
    the Rectify it sends; and, when x's first live entry moved, the
    JoinLookup of every joiner with no lookup, since that reads the ring
    walk. One tail refreshes the named slots, and every Fail whenever a list
    or the live set changed. A non-member x that is not a joiner moves no
    slot, so `parent` is returned. `slot_listing` is the oracle. A refreshed
    slot keeps its parent's event object when the event is the same, so a
    family of listings shares them.
    """
    x = change >> 3
    joiners, members, slots = parent
    first = len(joiners)
    nodes = net.nodes
    slots = slots.copy()
    if change & LIVENESS_CHANGED:
        # x's place among the parent's members, or where it joins them.
        k = bisect_left(members, x)
        at, rectify = first + 3 * k, first + 3 * len(members) + k
        if x in net.live:
            slots.insert(rectify, None)
            slots[at:at] = (None, None, None)
        else:
            del slots[rectify]
            del slots[at : at + 3]
        members = net.live_idents()
        # Member i's adoption step reads x's liveness; when x is i or in its
        # list (`listed`), its first live entry may move, so all its slots do.
        named = [
            (i, listed)
            for i, n in enumerate(members)
            if (listed := n == x or x in nodes[n].succ_list) or nodes[n].pending_candidate == x
        ]
        # A joiner's lookup reads the ring walk, and its Join its successor's liveness.
        stale = range(first)
        fails = True
    elif x in net.live:
        fails = change & LIST_CHANGED
        named = ((members.index(x), fails),)
        stale = ()
        if change & HEAD_MOVED:
            stale = (
                i for i, j in enumerate(joiners) if j not in nodes or nodes[j].pending_new_succ is None
            )
    elif x in joiners:
        # A non-member's state is read only by its own join step.
        named, stale, fails = (), (joiners.index(x),), False
    else:
        return parent
    listing = Listing(joiners, members, slots)
    rectifies = first + 3 * len(members)  # the first Rectify slot
    for i, listed in named:
        n, at = members[i], first + 3 * i
        slots[at + 1] = _enabled(net, slots[at + 1] or Event(_SFNS, n))
        if listed:
            slots[at] = _enabled(net, slots[at] or Event(_SFOS, n))
            slots[rectifies + i] = _rectify_step(net, n, slots[rectifies + i])
    for i in stale:
        slots[i] = _join_step(net, joiners[i])
    if fails:
        _fill_fails(net, listing)
    # Listings are never changed once made, so an unchanged one is shared.
    return parent if slots == parent.slots else listing


def _enabled(net: Network, ev: Event) -> Event | None:
    return ev if is_enabled(net, ev) else None


def _join_step(net: Network, j: int) -> Event | None:
    state = net.nodes.get(j)
    kind = _JOIN_STEP[state is not None and state.pending_new_succ is not None]
    return _enabled(net, Event(kind, j))


def _rectify_step(net: Network, p: int, old: Event | None) -> Event | None:
    """The Rectify p sends, reusing `old` if it is that event."""
    head = net.nodes[p].succ_list[0]
    ev = old if old is not None and old.node == head else Event(_RECTIFY, head, new_pred=p)
    return _enabled(net, ev)


def _fill_fails(net: Network, listing: Listing) -> None:
    # `failable` applies the Fail guard to every member in one pass.
    fails = failable(net) - net.base
    slots, at = listing.slots, _fail_slots(listing)
    slots[at] = [
        (ev or Event(_FAIL, n)) if n in fails else None for n, ev in zip(listing.members, slots[at])
    ]


# --- serialization ----------------------------------------------------------


def event_to_dict(event: Event) -> dict:
    rec: dict = {"kind": event.kind.value, "node": event.node}
    if event.new_pred is not None:
        rec["newPred"] = event.new_pred
    if event.known is not None:
        rec["known"] = event.known
    return rec


def event_from_dict(rec) -> Event:
    """Build an event from its record; ValueError names the first malformed field.

    `kind` must name an event kind and `node` must be an integer, as must
    `newPred` and `known` when present and not null. JSON true and false are
    not integers.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"event {rec!r} is not an object")
    try:
        kind = EventKind(rec.get("kind"))
    except ValueError:
        raise ValueError(f"kind {rec.get('kind')!r} is not an event kind") from None
    for key in ("node", "newPred", "known"):
        value = rec.get(key)
        if (value is not None or key == "node") and (
            not isinstance(value, int) or isinstance(value, bool)
        ):
            raise ValueError(f"{key} {value!r} is not an integer")
    return Event(kind, rec["node"], rec.get("newPred"), rec.get("known"))
