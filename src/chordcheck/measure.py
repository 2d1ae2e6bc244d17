"""The pointer-error measure and the effective-repair predicates.

Every live member has r+1 pointer roles, each with a per-pointer error. The
error vector groups them by level: level 1 sums every member's predecessor
and first-successor errors, and level k (2 <= k <= r) sums the k-th
successor scores. The total error is the sum of the vector. Both are zero
exactly on ideal networks.

The vector, compared lexicographically, strictly decreases on every
effective repair event, while the total need not. Level-1 errors depend only
on a member's own pointers and the live set, which repair never changes, and
a rectify or an adoption strictly lowers its executor's level-1 error. A
stabilize that copies a live head's list and first changes entry j >= 2
fixes the executor's entry j, and can only unsync entries at index j+1 or
later of members whose head is the executor. The total can stay flat or
rise, because a later entry is scored against the current first successor's
list: one change desynchronizes the copies other members hold of it.

Effective repair events are the state-changing stabilize and rectify steps
that the progress argument relies on.
"""

from __future__ import annotations

from .ident import clockwise_rank
from .netstate import Network
from .events import Event, EventKind, _adopts, _copied_list, _rectified_pred
from .topology import best_successor

ROLE_PRED = "pred"


def succ_role(i: int) -> str:
    return f"succ{i}"


def pointer_error(net: Network, n: int, role: str) -> int:
    """Error of one pointer of one member.

    Predecessor and first successor score their clockwise rank distance from
    the globally correct target, s for a missing predecessor, s+1 for a dead
    target. A later successor scores 0 only when the first successor is live
    and the entry coincides with the matching entry of that successor's list.
    """
    if not net.is_live(n):
        raise ValueError(f"{n} is not a live member")
    state = net.node(n)
    s = net.size
    live = net.live
    if role == ROLE_PRED:
        v = state.pred
        if v is None:
            return s
        if v not in live:
            return s + 1
        return clockwise_rank(v, n, live)
    if role == succ_role(1):
        v = state.succ_list[0]
        if v not in live:
            return s + 1
        return clockwise_rank(n, v, live)
    idx = int(role[4:])
    v = state.succ_list[idx - 1]
    head = state.succ_list[0]
    if head in live and v == net.node(head).succ_list[idx - 2]:
        return 0
    return 1


def error_vector(net: Network) -> tuple[int, ...]:
    """Per-level error sums, to be compared lexicographically.

    Entry 0 sums every live member's predecessor and first-successor errors;
    entry k-1 (2 <= k <= r) sums the members' k-th successor scores.

    Every clockwise rank is read from one position map of the sorted live
    ring: with s members, (pos[to] - pos[frm] - 1) mod s members lie strictly
    inside the arc. Per-role sums of `pointer_error` are the test oracle.
    """
    r = net.params.r
    nodes = net.nodes
    pos = {x: i for i, x in enumerate(sorted(net.live))}
    s = len(pos)
    levels = [0] * r
    for n, i in pos.items():
        state = nodes[n]
        v = state.pred
        if v is None:
            levels[0] += s
        elif v in pos:
            levels[0] += (i - pos[v] - 1) % s
        else:
            levels[0] += s + 1
        succ = state.succ_list
        head = succ[0]
        if head in pos:
            levels[0] += (pos[head] - i - 1) % s
            head_list = nodes[head].succ_list
            for k in range(1, r):
                levels[k] += succ[k] != head_list[k - 1]
        else:
            levels[0] += s + 1
            for k in range(1, r):
                levels[k] += 1
    return tuple(levels)


def total_error(net: Network) -> int:
    return sum(error_vector(net))


def visible_state(net: Network, n: int) -> tuple:
    """The pointer state of a member that the error measure can observe."""
    state = net.node(n)
    return (state.pred, state.succ_list)


def effective_enabled(net: Network) -> list[Event]:
    """Repair events that can occur now and would change their executor's pointers.

    Evaluated over pointer state alone, with the kernel's own repair rules:
    the stabilize adoption candidate is the value a stabilize running now
    would acquire (the first live successor's current predecessor), matching
    the progress lemmas' reading. An adoption always changes the list, since
    it replaces the head with a live member other than the first live one.
    """
    events: list[Event] = []
    nodes = net.nodes
    live = net.live_idents()
    for n in live:
        h = best_successor(net, n)
        if h is None:
            continue  # assumption breach; unreachable from valid states
        if _copied_list(net, h) != nodes[n].succ_list:
            events.append(Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, n))
        if _adopts(net, n, nodes[h].pred, h):
            events.append(Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n))
    for p in live:
        n = nodes[p].succ_list[0]
        if net.is_live(n) and _rectified_pred(net, n, p) != nodes[n].pred:
            events.append(Event(EventKind.RECTIFY, n, new_pred=p))
    return sorted(events, key=Event.sort_key)
