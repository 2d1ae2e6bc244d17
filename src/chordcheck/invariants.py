"""The inductive-invariant conjuncts, per-list properties, and trial predicates.

Validity is the conjunction of AtLeastOneRing, AtMostOneRing, OrderedRing,
ConnectedAppendages and BaseNotSkipped. None of the conjuncts read
predecessor pointers; they constrain successor-list structure only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

from .ident import between
from .netstate import Network, extended_succ_list
from .topology import best_successor_map, ring_cycle, ring_members, _cycle_is_ordered, _walk


@dataclass(frozen=True)
class ConjunctReport:
    at_least_one_ring: bool
    at_most_one_ring: bool
    ordered_ring: bool
    connected_appendages: bool
    base_not_skipped: bool

    @property
    def valid(self) -> bool:
        return (
            self.at_least_one_ring
            and self.at_most_one_ring
            and self.ordered_ring
            and self.connected_appendages
            and self.base_not_skipped
        )

    def to_dict(self) -> dict:
        return {
            "atLeastOneRing": self.at_least_one_ring,
            "atMostOneRing": self.at_most_one_ring,
            "orderedRing": self.ordered_ring,
            "connectedAppendages": self.connected_appendages,
            "baseNotSkipped": self.base_not_skipped,
            "valid": self.valid,
        }


@dataclass(frozen=True)
class ListProperties:
    no_duplicates: bool
    ordered_successor_lists: bool


@dataclass(frozen=True)
class TrialPredicates:
    no_conflicting_dates: bool
    no_ejects: bool


def skips(net: Network, n: int, n2: int) -> bool:
    """True iff some adjacent pair (n1, n3) of n's extended list has between(n1, n2, n3).

    n2 may equal n itself: a wrapped-around list makes a node skip its own
    identifier, and that case participates in the dating predicates.
    """
    ext = extended_succ_list(net, n)
    return any(between(a, n2, b) for a, b in zip(ext, ext[1:]))


def conjuncts(net: Network) -> ConjunctReport:
    """All five validity conjuncts from one walk of the best-successor graph.

    `conjuncts_reference` computes the same report from the from-scratch
    topology queries and is its test oracle.
    """
    walk = _walk(net)
    live = net.live
    live_base = [b for b in net.base if b in live]
    nodes = net.nodes
    # One scan of adjacent extended-list pairs; stops at the first skip.
    base_ok = not any(
        between(a, b, c)
        for n in live
        for a, c in pairwise((n,) + nodes[n].succ_list)
        for b in live_base
    )
    return ConjunctReport(
        at_least_one_ring=bool(walk.ring),
        at_most_one_ring=walk.cycle_count <= 1,
        ordered_ring=_cycle_is_ordered(walk.cycle),
        connected_appendages=walk.connected,
        base_not_skipped=base_ok,
    )


def conjuncts_reference(net: Network) -> ConjunctReport:
    """From-scratch conjuncts: each query rebuilds the best-successor map."""
    ring = ring_members(net)
    cycle = ring_cycle(net)
    at_least = bool(ring)
    at_most = cycle is not None and set(cycle) == set(ring) if at_least else True

    connected = True
    bs = best_successor_map(net)
    limit = len(bs) + 1
    for n in net.live:
        if n in ring:
            continue
        cur: int | None = n
        reached = False
        for _ in range(limit):
            cur = bs.get(cur) if cur is not None else None
            if cur is None:
                break
            if cur in ring:
                reached = True
                break
        if not reached:
            connected = False
            break

    live_base = [b for b in net.base if net.is_live(b)]
    base_ok = not any(skips(net, n, b) for n in net.live for b in live_base)

    return ConjunctReport(
        at_least_one_ring=at_least,
        at_most_one_ring=at_most,
        ordered_ring=_cycle_is_ordered(cycle),
        connected_appendages=connected,
        base_not_skipped=base_ok,
    )


def is_valid(net: Network) -> bool:
    return conjuncts(net).valid


def list_properties(net: Network, n: int) -> ListProperties:
    ext = extended_succ_list(net, n)
    triples = zip(ext, ext[1:], ext[2:])
    return ListProperties(
        no_duplicates=len(set(ext)) == len(ext),
        ordered_successor_lists=all(between(x, y, z) for x, y, z in triples),
    )


def must_pre_date(net: Network, n1: int, n2: int) -> bool:
    """Both ring members, and some ring member (possibly n1) mentions n1 and skips n2."""
    ring = ring_members(net)
    if n1 not in ring or n2 not in ring:
        return False
    for n3 in ring:
        if n1 in extended_succ_list(net, n3) and skips(net, n3, n2):
            return True
    return False


def trial_predicates(net: Network) -> TrialPredicates:
    ring = ring_members(net)
    appendages = frozenset(net.live) - ring

    # Collect, per ring member, what it mentions and which ring members it skips.
    mentions: dict[int, set[int]] = {}
    skipped: dict[int, set[int]] = {}
    for n3 in ring:
        ext = extended_succ_list(net, n3)
        mentions[n3] = set(ext) & ring
        skipped[n3] = {
            n2 for n2 in ring if any(between(a, n2, b) for a, b in zip(ext, ext[1:]))
        }

    pre_dates: set[tuple[int, int]] = set()
    for n3 in ring:
        for n1 in mentions[n3]:
            for n2 in skipped[n3]:
                pre_dates.add((n1, n2))
    ncd = not any(
        (n2, n1) in pre_dates for (n1, n2) in pre_dates if n1 != n2
    )

    no_ejects = not any(
        entry in appendages for n in ring for entry in net.node(n).succ_list
    )
    return TrialPredicates(no_conflicting_dates=ncd, no_ejects=no_ejects)


def six_conjunct_trial(net: Network) -> bool:
    """Four original conjuncts plus NoDuplicates and OrderedSuccessorLists."""
    c = conjuncts(net)
    if not (c.at_least_one_ring and c.at_most_one_ring and c.ordered_ring and c.connected_appendages):
        return False
    for n in net.live:
        props = list_properties(net, n)
        if not (props.no_duplicates and props.ordered_successor_lists):
            return False
    return True


def eight_conjunct_trial(net: Network) -> bool:
    """The six-conjunct trial plus NoConflictingDates and NoEjects."""
    if not six_conjunct_trial(net):
        return False
    t = trial_predicates(net)
    return t.no_conflicting_dates and t.no_ejects


TRIAL_INVARIANTS = {
    "six-conjunct": six_conjunct_trial,
    "eight-conjunct": eight_conjunct_trial,
    "valid": is_valid,
}
