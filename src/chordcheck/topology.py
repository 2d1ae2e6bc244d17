"""Global structural queries: best successors, ring membership, ideality.

The lookup oracle lives here as a whole-snapshot query; routing fidelity is
out of scope since correctness of ring maintenance does not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .ident import between, clockwise_distance
from .netstate import Network


@dataclass(frozen=True)
class StructureReport:
    ring_members: frozenset[int]
    appendage_members: frozenset[int]
    ordered_ring_flag: bool

    def to_dict(self) -> dict:
        return {
            "ringMembers": sorted(self.ring_members),
            "appendageMembers": sorted(self.appendage_members),
            "orderedRingFlag": self.ordered_ring_flag,
        }


def best_successor(net: Network, n: int) -> int | None:
    """First entry of n's successor list that refers to a live node.

    None means every entry is dead, which breaches the operating assumption
    that a member always keeps at least one live successor.
    """
    if not net.is_live(n):
        raise ValueError(f"{n} is not a live member")
    for entry in net.node(n).succ_list:
        if net.is_live(entry):
            return entry
    return None


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


def _walk(net: Network) -> _Walk:
    """One pass over the best-successor graph.

    Builds the best-successor map once, then follows each chain until it
    ends (no live successor), closes a new cycle, or joins a chain already
    walked. Returns the members on any cycle, the number of cycles, the cycle
    through the smallest ring member, and whether every live member's chain
    ends on a cycle. `ring_members`, `ring_cycle` and `best_successor_map`
    compute the same facts from scratch and serve as its test oracle.
    """
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
    return _Walk(frozenset(ring), cycle_count, cycle, all(ends_on_ring.values()))


def structure(net: Network) -> StructureReport:
    walk = _walk(net)
    return StructureReport(
        ring_members=walk.ring,
        appendage_members=frozenset(net.live) - walk.ring,
        ordered_ring_flag=_cycle_is_ordered(walk.cycle),
    )


def globally_correct_succ(net: Network, n: int, i: int) -> int:
    """The i-th nearest live member clockwise from n (1-based)."""
    if not net.is_live(n):
        raise ValueError(f"{n} is not a live member")
    if i < 1:
        raise ValueError("successor index must be >= 1")
    others = sorted(
        (x for x in net.live if x != n),
        key=lambda x: clockwise_distance(n, x, net.params.space),
    )
    if i > len(others):
        raise ValueError(f"network has only {len(others)} other members, wanted {i}")
    return others[i - 1]


def globally_correct_pred(net: Network, n: int) -> int:
    """The nearest live member counterclockwise from n."""
    if not net.is_live(n):
        raise ValueError(f"{n} is not a live member")
    others = sorted(
        (x for x in net.live if x != n),
        key=lambda x: clockwise_distance(n, x, net.params.space),
    )
    if not others:
        raise ValueError("no other live members")
    return others[-1]


def is_ideal(net: Network) -> bool:
    """True iff every successor-list entry and every predecessor is globally correct."""
    r = net.params.r
    live = net.live
    if len(live) < r + 1:
        return False
    for n in live:
        others = sorted(
            (x for x in live if x != n),
            key=lambda x: clockwise_distance(n, x, net.params.space),
        )
        state = net.node(n)
        if state.succ_list != tuple(others[:r]):
            return False
        if state.pred != others[-1]:
            return False
    return True


def lookup_succ(net: Network, joining: int) -> int | None:
    """The joining identifier's proper ring successor.

    Realized as an oracle over the snapshot: the ring member y whose ring
    predecessor x satisfies between(x, joining, y).
    """
    if net.is_live(joining):
        raise ValueError(f"{joining} is already a live member")
    cycle = _walk(net).cycle
    if cycle is None:
        return None
    if len(cycle) == 1:
        return cycle[0]
    k = len(cycle)
    for i in range(k):
        x, y = cycle[i], cycle[(i + 1) % k]
        if between(x, joining, y):
            return y
    return None
