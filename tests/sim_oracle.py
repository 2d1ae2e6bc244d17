"""The simulator's convergence verdict, computed from scratch, kept as an
oracle for `chordcheck.sim.convergence_steps`.

It judges `is_ideal` on the network the repair phase starts from and on
every repair step's network, and compares every live member's pointers
from one network to the next; `convergence_steps` calls `is_ideal` once,
on the final network, and compares only each step's executor with it.
"""

from __future__ import annotations

from chordcheck.netstate import Network, Trace
from chordcheck.sim import REPAIR, DivergenceError
from chordcheck.topology import is_ideal


def pointers(net: Network) -> dict[int, tuple]:
    """Every live member's predecessor and successor list."""
    return {n: (net.nodes[n].pred, net.nodes[n].succ_list) for n in net.live}


def convergence_steps(trace: Trace) -> int:
    """The pointer-changing repair steps before the first ideal network.

    The repair phase starts before the first REPAIR-tagged step, or at the
    end of the trace if there is none. Raises DivergenceError if no network
    of the phase is ideal, or if one after the first ideal one is not.
    """
    steps = list(trace.steps)
    start = next((i for i, s in enumerate(steps) if s.tag == REPAIR), len(steps))
    prev = steps[start - 1].network if start else trace.initial
    reached = is_ideal(prev)
    effective = 0
    for k, traced in enumerate(steps[start:], start=start + 1):
        net = traced.network
        if not reached and pointers(net) != pointers(prev):
            effective += 1
        if is_ideal(net):
            reached = True
        elif reached:
            raise DivergenceError(f"step {k} leaves the ideal state")
        prev = net
    if not reached:
        raise DivergenceError("no network of the repair phase is ideal")
    return effective
