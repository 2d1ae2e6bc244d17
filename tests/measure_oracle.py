"""The per-pointer error report, kept as an oracle for `chordcheck.measure`.

It scores every pointer role of every live member one `pointer_error` call
at a time; `error_vector` and `total_error` compute the same sums in one
pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from chordcheck.measure import ROLE_PRED, pointer_error, succ_role
from chordcheck.netstate import Network


def _roles(r: int) -> list[str]:
    return [ROLE_PRED] + [succ_role(i) for i in range(1, r + 1)]


@dataclass(frozen=True)
class ErrorReport:
    per_pointer: dict[tuple[int, str], int]
    total: int


def error_report(net: Network) -> ErrorReport:
    per: dict[tuple[int, str], int] = {}
    for n in net.live_idents():
        for role in _roles(net.params.r):
            per[(n, role)] = pointer_error(net, n, role)
    return ErrorReport(per_pointer=per, total=sum(per.values()))
