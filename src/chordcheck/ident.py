"""Identifier arithmetic on the circular m-bit space.

Identifiers are plain ints in [0, 2**m). Because the space wraps at zero,
two identifiers cannot be compared directly; every order judgment goes
through the three-argument `between` test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

# The widest identifier space accepted: Chord's SHA-1 identifiers have 160 bits.
MAX_M = 160


@dataclass(frozen=True, slots=True)
class RingParams:
    """Ring configuration: identifier bit width m and successor-list length r.

    Both are checked before the space 2**m is built: ints, not bools, with
    3 <= m <= MAX_M and r >= 2.
    """

    m: int
    r: int

    def __post_init__(self) -> None:
        for name, value in (("m", self.m), ("r", self.r)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.m < 3:
            raise ValueError(f"m must be at least 3, got {self.m}")
        if self.m > MAX_M:
            raise ValueError(f"m must be at most {MAX_M}, got {self.m}")
        if self.r < 2:
            raise ValueError(f"r must be at least 2, got {self.r}")
        if self.r + 1 > 2**self.m:
            raise ValueError(f"identifier space 2^{self.m} cannot hold r+1={self.r + 1} nodes")

    @property
    def space(self) -> int:
        return 2**self.m


def between(n1: int, n2: int, n3: int) -> bool:
    """True iff n2 lies strictly inside the clockwise arc from n1 to n3.

    Strict at both ends: between(x, y, x) is true for any y != x, while
    between(x, x, y) and between(y, x, x) are always false.
    """
    if n1 < n3:
        return n1 < n2 and n2 < n3
    return n1 < n2 or n2 < n3


def clockwise_distance(frm: int, to: int, space: int) -> int:
    """Steps walked clockwise from `frm` to reach `to` in a ring of `space` slots."""
    return (to - frm) % space


def clockwise_rank(frm: int, to: int, members: Iterable[int]) -> int:
    """Count members strictly inside the clockwise arc from `frm` to `to`.

    0 means `to` is `frm`'s nearest clockwise member; rank(x, x) counts every
    other member (the arc loops all the way around).
    """
    members = set(members)
    if frm not in members:
        raise ValueError(f"{frm} is not a member")
    if to not in members:
        raise ValueError(f"{to} is not a member")
    return sum(1 for x in members if between(frm, x, to))
