"""Global structural queries: best successors, ring membership, ideality.

The lookup oracle lives here as a whole-snapshot query; routing fidelity is
out of scope since correctness of ring maintenance does not depend on it.
"""

from __future__ import annotations

from typing import NamedTuple

from .ident import between
from .netstate import Network


def best_successor(net: Network, n: int) -> int | None:
    """First entry of n's successor list that refers to a live node.

    None means every entry is dead, which breaches the operating assumption
    that a member always keeps at least one live successor.
    """
    live = net.live
    if n not in live:
        raise ValueError(f"{n} is not a live member")
    for entry in net.nodes[n].succ_list:
        if entry in live:
            return entry
    return None


# A change code packs a successor's executor and what its step changed
# besides the pending values and the predecessor:
# `executor << 3 | LIVENESS_CHANGED | LIST_CHANGED | HEAD_MOVED`.
LIST_CHANGED = 1  # the executor's list
HEAD_MOVED = 2  # its first live entry or its liveness, so the best-successor map and the walk
LIVENESS_CHANGED = 4  # a Join or a Fail


def change_code(parent: Network, post: Network, executor: int) -> int:
    """The change code of `post`, which differs from `parent` only in
    `executor`'s state and liveness.

    The one comparison of the executor's old and new list, first live entry
    and liveness: the explorer reads it in `invariants.valid_after` and
    `events.carried_listing`, and the simulator's churn phase in the latter.
    A Join or a Fail sets `LIVENESS_CHANGED` and `HEAD_MOVED`, and a Join
    also `LIST_CHANGED`, since its list is new to the live set.
    When the liveness is unchanged and the first live entry did not move,
    the best-successor map is the parent's, so `post` is given the walk
    memoised on `parent`, if there is one: this is the one place a walk
    passes from one network to another.
    """
    live = parent.live
    if (executor in live) != (executor in post.live):
        joined = LIST_CHANGED if executor in post.live else 0
        return executor << 3 | LIVENESS_CHANGED | HEAD_MOVED | joined
    changed = 0
    if executor in live and parent.nodes[executor].succ_list != post.nodes[executor].succ_list:
        changed = LIST_CHANGED
        if best_successor(parent, executor) != best_successor(post, executor):
            return executor << 3 | LIST_CHANGED | HEAD_MOVED
    walk = parent.__dict__.get("_walk")
    if walk is not None:
        post.__dict__["_walk"] = walk
    return executor << 3 | changed


def best_successor_map(net: Network) -> dict[int, int | None]:
    return {n: best_successor(net, n) for n in net.live_idents()}


def ring_members(net: Network) -> frozenset[int]:
    """Members that reach themselves by following the chain of best successors."""
    bs = best_successor_map(net)
    limit = len(bs)
    ring: set[int] = set()
    for start in bs:
        cur: int | None = start
        for _ in range(limit):
            cur = bs.get(cur) if cur is not None else None
            if cur == start:
                ring.add(start)
                break
            if cur is None:
                break
    return frozenset(ring)


def ring_cycle(net: Network) -> tuple[int, ...] | None:
    """The unique best-successor cycle through the smallest ring member, or None."""
    ring = ring_members(net)
    if not ring:
        return None
    bs = best_successor_map(net)
    start = min(ring)
    cycle = [start]
    cur = bs[start]
    while cur != start and cur is not None and len(cycle) <= len(bs):
        cycle.append(cur)
        cur = bs.get(cur)
    return tuple(cycle)


def _cycle_is_ordered(cycle: tuple[int, ...] | None) -> bool:
    if cycle is None or len(cycle) < 3:
        return True
    k = len(cycle)
    return all(between(cycle[i], cycle[(i + 1) % k], cycle[(i + 2) % k]) for i in range(k))


class _Walk(NamedTuple):
    ring: frozenset[int]
    cycle_count: int
    cycle: tuple[int, ...] | None
    connected: bool
    ordered: bool

    @property
    def valid(self) -> bool:
        """The four ring conjuncts: at least one ring and at most one (exactly
        one cycle), the ring ordered, and every appendage's chain on it."""
        return self.cycle_count == 1 and self.ordered and self.connected


def _walk(net: Network) -> _Walk:
    """One pass over the best-successor graph, made once per network.

    Builds the best-successor map once, then follows each chain until it
    ends (no live successor), closes a new cycle, or joins a chain already
    walked. Returns the members on any cycle, the number of cycles, the cycle
    through the smallest ring member, whether every live member's chain
    ends on a cycle, and whether that cycle is ordered: the one verdict of
    the four ring conjuncts (`_Walk.valid`). `ring_members`, `ring_cycle` and
    `best_successor_map` compute the same facts from scratch and serve as
    its test oracle.

    Networks are immutable, so the walk is kept in the instance's `__dict__`
    (beside its dataclass fields, which alone decide equality): a lookup's
    guard and effect and the validity check of one state share it, and
    `change_code` hands it on to a successor with the same best-successor map.
    """
    memo = net.__dict__
    walk = memo.get("_walk")
    if walk is None:
        walk = memo["_walk"] = _walk_graph(net)
    return walk


def _walk_graph(net: Network) -> _Walk:
    live = net.live
    nodes = net.nodes
    bs: dict[int, int | None] = {}
    for n in live:
        for entry in nodes[n].succ_list:
            if entry in live:
                bs[n] = entry
                break
        else:
            bs[n] = None

    ends_on_ring: dict[int, bool] = {}
    ring: set[int] = set()
    cycle_count = 0
    for start in bs:
        if start in ends_on_ring:
            continue
        path: list[int] = []
        on_path: dict[int, int] = {}
        cur = start
        while cur is not None and cur not in ends_on_ring and cur not in on_path:
            on_path[cur] = len(path)
            path.append(cur)
            cur = bs[cur]
        if cur is None:
            ends = False
        elif cur in on_path:
            ring.update(path[on_path[cur]:])
            cycle_count += 1
            ends = True
        else:
            ends = ends_on_ring[cur]
        for p in path:
            ends_on_ring[p] = ends

    cycle = None
    if ring:
        first = min(ring)
        seq = [first]
        cur = bs[first]
        while cur != first:
            seq.append(cur)
            cur = bs[cur]
        cycle = tuple(seq)
    connected = all(ends_on_ring.values())
    return _Walk(frozenset(ring), cycle_count, cycle, connected, _cycle_is_ordered(cycle))


def is_ideal(net: Network) -> bool:
    """True iff every successor-list entry and every predecessor is globally correct.

    Sorts the live set once: in the sorted ring, a member's globally correct
    successors are the next r positions and its predecessor the previous one.
    `globally_correct_succ` and `globally_correct_pred` in
    `tests/topology_oracle.py` are the test oracle.
    """
    r = net.params.r
    ring = sorted(net.live)
    if len(ring) < r + 1:
        return False
    nodes = net.nodes
    wrapped = ring + ring[:r]
    for i, n in enumerate(ring):
        state = nodes[n]
        if state.pred != ring[i - 1] or state.succ_list != tuple(wrapped[i + 1 : i + 1 + r]):
            return False
    return True


def lookup_succ(net: Network, joining: int) -> int | None:
    """The joining identifier's proper ring successor.

    Realized as an oracle over the snapshot: the ring member y whose ring
    predecessor x satisfies between(x, joining, y). Every cycle member is
    live and the clockwise arcs of a closed cycle cover every other
    identifier, so the answer is None exactly when there is no ring, which
    is all the `JoinLookup` guard asks of the walk.
    """
    if joining in net.live:
        raise ValueError(f"{joining} is already a live member")
    cycle = _walk(net).cycle
    if cycle is None:
        return None
    k = len(cycle)
    for i in range(k):
        x, y = cycle[i], cycle[(i + 1) % k]
        if between(x, joining, y):
            return y
    return None
