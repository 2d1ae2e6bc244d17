"""The per-pointer error score and report, kept as an oracle for `chordcheck.measure`.

`pointer_error` scores one pointer role of one live member from scratch,
ranking its target with `clockwise_rank`; `error_report` scores every role
of every live member one call at a time. `error_vector`, `member_error` and
`total_error` compute the same sums from one position map of the sorted
ring. `check_executor_local_monotonicity` is the executor-local half of the
measure argument, judged on `member_error` after each effective repair.
"""

from __future__ import annotations

from dataclasses import dataclass

from chordcheck.checker import CheckReport
from chordcheck.events import step
from chordcheck.ident import clockwise_rank
from chordcheck.measure import effective_enabled, member_error
from chordcheck.netstate import Network

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


def check_executor_local_monotonicity(states, bounds: dict | None = None) -> CheckReport:
    """The executor's own pointer errors never rise and strictly improve overall."""
    report = CheckReport(lemma="ExecutorLocalMonotonicity", bounds=bounds or {})
    for net in states:
        report.states_checked += 1
        for ev in effective_enabled(net):
            n = ev.node
            before = member_error(net, n)
            after = member_error(step(net, ev), n)
            if after >= before:
                report.add_violation(
                    net, ev, f"executor error {before} -> {after}"
                )
    return report
