"""The globally correct pointers, computed from scratch, kept as an oracle
for `chordcheck.topology.is_ideal` and the sampler.

Each query sorts the other live members by clockwise distance from the
member; `is_ideal` reads the same targets off one sorted live ring, and
the constructive sampler reads a member's predecessor off the sorted live
list.
"""

from __future__ import annotations

from chordcheck.ident import clockwise_distance
from chordcheck.netstate import Network


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
