"""The inductive-invariant conjuncts, per-list properties, and trial predicates.

Validity is the conjunction of AtLeastOneRing, AtMostOneRing, OrderedRing,
ConnectedAppendages and BaseNotSkipped. None of the conjuncts read
predecessor pointers; they constrain successor-list structure only.

`PREDICATES` is the one table of named predicates, read by scenario
expectations, the trial-invariant samplers and the counterexample search.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .ident import between
from .measure import effective_enabled, total_error
from .netstate import Network, extended_succ_list
from .topology import best_successor_map, ring_cycle, ring_members, _cycle_is_ordered, _walk
from .topology import HEAD_MOVED, LIST_CHANGED, LIVENESS_CHANGED, is_ideal


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
    return ConjunctReport(
        at_least_one_ring=bool(walk.ring),
        at_most_one_ring=walk.cycle_count <= 1,
        ordered_ring=walk.ordered,
        connected_appendages=walk.connected,
        base_not_skipped=not _skips_live_base(net, net.live),
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
    """`conjuncts(net).valid`: the walk's verdict, then the base-skip scan."""
    return _walk(net).valid and not _skips_live_base(net, net.live)


def valid_after(parent: Network, post: Network, change: int) -> bool:
    """`is_valid(post)`, given that `parent` is valid and that `post` differs
    from it only in one executor's state and liveness, as `change` (its
    `topology.change_code`) says.

    Validity reads only the live set, the base and the live members' lists:
    - a liveness change (Join, Fail) of a stable-base member moves the live
      base and gets the full check;
    - any other liveness change, or a moved first live entry, changes the
      best-successor map (`HEAD_MOVED`), so the four ring conjuncts are
      the verdict of the walk of `post`; otherwise the walk, and so those
      conjuncts, are the parent's;
    - the live base is then the parent's, so BaseNotSkipped can only fail in
      the executor's own adjacent pairs, and only when its list changed or
      it just joined (`LIST_CHANGED`). A Fail removes pairs, and a list left
      as it was (a joiner's step, Rectify, a pending-value write) skips
      nothing new.

    Wherever the best-successor map is unchanged, `change_code` has already
    given `post` the parent's memoised walk. `conjuncts_reference` is the
    test oracle.
    """
    executor, scan = change >> 3, change & LIST_CHANGED
    if change & LIVENESS_CHANGED and executor in post.base:
        return is_valid(post)
    if change & HEAD_MOVED and not _walk(post).valid:
        return False
    return not (scan and _skips_live_base(post, (executor,)))


def _skips_live_base(net: Network, members: Iterable[int]) -> bool:
    """Some adjacent pair of a live member's extended list skips a live base
    member: one scan, which stops at the first skip. `between(a, b, c)` is
    written out: inside a < c when a < b < c, and around zero otherwise,
    where a == c holds every b but a."""
    live, nodes = net.live, net.nodes
    live_base = [b for b in net.base if b in live]
    for n in members:
        a = n
        for c in nodes[n].succ_list:
            if a < c:
                for b in live_base:
                    if a < b < c:
                        return True
            else:
                for b in live_base:
                    if a < b or b < c:
                        return True
            a = c
    return False


def list_properties(net: Network, n: int) -> ListProperties:
    ext = extended_succ_list(net, n)
    triples = zip(ext, ext[1:], ext[2:])
    return ListProperties(
        no_duplicates=len(set(ext)) == len(ext),
        ordered_successor_lists=all(between(x, y, z) for x, y, z in triples),
    )


def trial_predicates(net: Network) -> TrialPredicates:
    ring = _walk(net).ring
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
    if not _walk(net).valid:
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


# Every predicate a scenario expectation can name: name -> (function of the
# network and the arguments, the argument counts it accepts). Arguments are
# tracked identifiers; the two list properties judge one live member, or
# every live member when given none.
PREDICATES = {
    "atLeastOneRing": (lambda net: conjuncts(net).at_least_one_ring, (0,)),
    "atMostOneRing": (lambda net: conjuncts(net).at_most_one_ring, (0,)),
    "orderedRing": (lambda net: conjuncts(net).ordered_ring, (0,)),
    "connectedAppendages": (lambda net: conjuncts(net).connected_appendages, (0,)),
    "baseNotSkipped": (lambda net: conjuncts(net).base_not_skipped, (0,)),
    "valid": (is_valid, (0,)),
    "ideal": (is_ideal, (0,)),
    "totalError": (total_error, (0,)),
    "networkIsImprovable": (lambda net: bool(effective_enabled(net)), (0,)),
    "noConflictingDates": (lambda net: trial_predicates(net).no_conflicting_dates, (0,)),
    "noEjects": (lambda net: trial_predicates(net).no_ejects, (0,)),
    "sixConjunct": (six_conjunct_trial, (0,)),
    "eightConjunct": (eight_conjunct_trial, (0,)),
    "noDuplicates": (
        lambda net, *n: all(list_properties(net, x).no_duplicates for x in n or net.live),
        (0, 1),
    ),
    "orderedSuccessorLists": (
        lambda net, *n: all(list_properties(net, x).ordered_successor_lists for x in n or net.live),
        (0, 1),
    ),
    "live": (lambda net, n: net.is_live(n), (1,)),
    "pred": (lambda net, n: net.node(n).pred, (1,)),
    # A joiner holds no list until its Join: its successor is null.
    "succ": (lambda net, n: (net.node(n).succ_list or (None,))[0], (1,)),
    "succList": (lambda net, n: list(net.node(n).succ_list), (1,)),
    "pendingCandidate": (lambda net, n: net.node(n).pending_candidate, (1,)),
    "pendingNewSucc": (lambda net, n: net.node(n).pending_new_succ, (1,)),
}


def trial_predicate_name(trial: str) -> str:
    """The registry name of a command-line trial name: six-conjunct -> sixConjunct."""
    first, *rest = trial.split("-")
    return first + "".join(word.capitalize() for word in rest)
