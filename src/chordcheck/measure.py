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

from operator import itemgetter, ne

from .netstate import Network, NodeState
from .events import Event, EventKind, _adopts, _copied_list, _rectified_pred


def _positions(net: Network) -> dict[int, int]:
    """Each live member's index in the sorted live ring, made once per network.

    With s members, (pos[to] - pos[frm] - 1) mod s members lie strictly
    inside the clockwise arc from frm to to. Kept in the instance's
    `__dict__`, as `topology._walk` is: a state's vector and the deltas of
    its repairs share it.
    """
    memo = net.__dict__
    pos = memo.get("_positions")
    if pos is None:
        pos = memo["_positions"] = {x: i for i, x in enumerate(sorted(net.live))}
    return pos


def _pred_error(v: int | None, i: int, pos: dict[int, int]) -> int:
    """The predecessor term of the member at sorted position i: s if unset, s+1 if dead."""
    s = len(pos)
    if v is None:
        return s
    return (i - pos[v] - 1) % s if v in pos else s + 1


def _member_errors(state: NodeState, i: int, pos: dict[int, int], nodes) -> tuple[int, ...]:
    """The per-level terms of the live member at sorted position i: the scoring rule.

    Level 1 adds the predecessor term and the first-successor error (s+1 if
    dead, else the clockwise rank). Level k (2 <= k <= r) scores 0 when the
    k-th entry matches the live head's (k-1)-th, read from `nodes`, and 1
    otherwise.
    """
    s = len(pos)
    level1 = _pred_error(state.pred, i, pos)
    succ = state.succ_list
    head = succ[0]
    if head not in pos:
        return (level1 + s + 1,) + (1,) * (len(succ) - 1)
    return (level1 + (pos[head] - i - 1) % s, *map(ne, succ[1:], nodes[head].succ_list))


def error_vector(net: Network) -> tuple[int, ...]:
    """Per-level error sums, to be compared lexicographically.

    Entry 0 sums every live member's predecessor and first-successor errors;
    entry k-1 (2 <= k <= r) sums the members' k-th successor scores.
    Per-role sums of `pointer_error` in `tests/measure_oracle.py` are the
    test oracle.
    """
    nodes = net.nodes
    pos = _positions(net)
    terms = [_member_errors(nodes[n], i, pos, nodes) for n, i in pos.items()]
    return tuple(map(sum, zip(*terms))) or (0,) * net.params.r


def error_vector_after(net: Network, before: tuple[int, ...], state: NodeState) -> tuple[int, ...]:
    """`error_vector` of `net` with `state` as its node's state, from `before`.

    `before` is `error_vector(net)`, and the node keeps its liveness. A
    non-member's state is scored nowhere. When the list is unchanged, only
    the member's level-1 term moves, by its predecessor's error. A list
    change rescores the member and each member whose head it is, since
    their later entries are scored against its list. `error_vector` of the
    rewritten network is the test oracle.
    """
    n = state.ident
    pos = _positions(net)
    i = pos.get(n)
    if i is None:
        return before
    nodes = net.nodes
    old = nodes[n]
    if state.succ_list == old.succ_list:
        moved = _pred_error(state.pred, i, pos) - _pred_error(old.pred, i, pos)
        return (before[0] + moved, *before[1:])
    after = dict(nodes)
    after[n] = state
    levels = list(before)
    for m, j in pos.items():
        if m == n or nodes[m].succ_list[0] == n:
            terms = _member_errors(after[m], j, pos, after)
            for k, (a, b) in enumerate(zip(_member_errors(nodes[m], j, pos, nodes), terms)):
                levels[k] += b - a
    return tuple(levels)


def total_error(net: Network) -> int:
    return sum(error_vector(net))


def member_error(net: Network, n: int) -> int:
    """The sum of live member n's pointer errors, by the rule of `error_vector`."""
    pos = _positions(net)
    return sum(_member_errors(net.nodes[n], pos[n], pos, net.nodes))


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

    One pass over the sorted members lists both stabilize kinds in node
    order and each member's Rectify of its head; only the Rectify part is
    sorted, by (node, notifier), so the events come in kind order, then by
    node.
    """
    copy, adopt = EventKind.STABILIZE_FROM_OLD_SUCCESSOR, EventKind.STABILIZE_FROM_NEW_SUCCESSOR
    rectify = EventKind.RECTIFY
    copies: list[Event] = []
    adoptions: list[Event] = []
    rectifies: list[Event] = []
    nodes = net.nodes
    live = net.live
    for n in sorted(live):
        succ = nodes[n].succ_list
        # The first live entry; a member with none breaches the operating
        # assumption, which no valid state does.
        for h in succ:
            if h in live:
                if _copied_list(net, h) != succ:
                    copies.append(Event(copy, n))
                if _adopts(net, n, nodes[h].pred, h):
                    adoptions.append(Event(adopt, n))
                break
        head = succ[0]
        if head in live and _rectified_pred(net, head, n) != nodes[head].pred:
            rectifies.append(Event(rectify, head, n))  # n notifies its head
    rectifies.sort(key=itemgetter(1, 2))
    return copies + adoptions + rectifies
