"""Shared fixture builders for the test suite."""

from __future__ import annotations

import json

from hypothesis import settings

from chordcheck import sim
from chordcheck.checker import enumerate_valid_states, sample_raw_states
from chordcheck.events import Event, EventKind, FaultFlags, apply_event
from chordcheck.ident import RingParams
from chordcheck.netstate import Network, NodeState, network_from_dict

settings.register_profile("suite", max_examples=100, derandomize=True)
settings.load_profile("suite")


# Shorthands for `apply_event` on one event, as the kernel tests write it.


def apply_join_lookup(net: Network, joining: int, known: int | None = None) -> Network:
    """The joiner asks a member (`known`) for its proper successor, recording the answer."""
    return apply_event(net, Event(EventKind.JOIN_LOOKUP, joining, known=known))


def apply_join(net: Network, joining: int, faults: FaultFlags = FaultFlags()) -> Network:
    """Complete a join: copy the new successor's list and become a member."""
    return apply_event(net, Event(EventKind.JOIN, joining), faults)


def apply_fail(net: Network, n: int, force: bool = False) -> Network:
    """Remove a member, retaining its last state read-only."""
    return apply_event(net, Event(EventKind.FAIL, n), force=force)


def network_from_json(text: str) -> Network:
    """The network of `netstate.network_to_json`'s text."""
    return network_from_dict(json.loads(text))


def make_net(m, r, base, nodes, live=None, dead=()):
    """Build a network from {ident: (pred, succ_list)} specs.

    `nodes` describes live members unless `live` is given; `dead` adds
    departed nodes with retained state in the same format.
    """
    states = {}
    for ident, (pred, succ) in nodes.items():
        states[ident] = NodeState(ident=ident, succ_list=tuple(succ), pred=pred)
    for ident, (pred, succ) in dict(dead).items():
        states[ident] = NodeState(ident=ident, succ_list=tuple(succ), pred=pred)
    live_set = frozenset(live if live is not None else nodes.keys())
    return Network(
        params=RingParams(m=m, r=r),
        base=frozenset(base),
        nodes=states,
        live=live_set,
    )


def wrap_trap_state():
    """Ordered four-ring with an appendage merged at the wrong place.

    The appendage sits behind the ring member whose second successor points
    at it, so a fail plus one stabilize disorders the ring.
    """
    return make_net(
        6,
        2,
        base=[20, 31, 52],
        nodes={
            3: (52, (20, 31)),
            20: (3, (31, 52)),
            31: (20, (52, 3)),
            45: (None, (20, 31)),
            52: (31, (3, 45)),
        },
    )


def undersized_init_state():
    """Size-1 ring with two appendages whose lists are duplicated entries."""
    return make_net(
        6,
        2,
        base=[],
        nodes={
            37: (None, (48, 48)),
            48: (48, (48, 48)),
            62: (None, (48, 48)),
        },
    )


def stranded_member_state():
    """Ideal three-ring except that live 7 lists only 50, tracked but dead."""
    return make_net(
        6,
        2,
        base=[7, 19, 33],
        nodes={7: (33, (50, 50)), 19: (7, (33, 7)), 33: (19, (7, 19))},
        dead={50: (None, (7, 19))},
    )


def valid_with_appendage_chain():
    """Ordered ring {14, 23, 37, 48} with appendage chain 50 -> 53 -> 63 and 9."""
    return make_net(
        6,
        2,
        base=[14, 23, 37],
        nodes={
            9: (None, (14, 23)),
            14: (9, (23, 37)),
            23: (14, (37, 48)),
            37: (23, (48, 14)),
            48: (37, (14, 23)),
            50: (48, (53, 14)),
            53: (50, (63, 14)),
            63: (53, (14, 23)),
        },
    )


def valid_with_eject():
    """Valid network where ring member 0 lists appendage 20 as second successor."""
    return make_net(
        6,
        2,
        base=[0, 10, 30],
        nodes={
            0: (30, (10, 20)),
            10: (0, (30, 0)),
            20: (10, (30, 0)),
            30: (20, (0, 10)),
        },
    )


def valid_with_date_conflict():
    """Valid five-ring with mutual skips: 20 and 30 pre-date each other."""
    return make_net(
        6,
        2,
        base=[0, 10, 40],
        nodes={
            0: (40, (10, 30)),
            10: (0, (20, 40)),
            20: (10, (30, 40)),
            30: (20, (40, 0)),
            40: (30, (0, 10)),
        },
    )


def cross_term_state():
    """Valid state where the only effective repair does not lower total error.

    Adopting 15 as 10's successor desynchronizes 30's copied second entry,
    so the measure stays at 1 even though the adoption is a real improvement.
    """
    return make_net(
        6,
        2,
        base=[10, 20, 30],
        nodes={
            10: (30, (20, 30)),
            15: (10, (20, 30)),
            20: (15, (30, 10)),
            30: (20, (10, 20)),
        },
    )


def two_bystander_state():
    """Valid state where two members hold copies of the adopter's old list.

    Adopting 15 as 10's successor desynchronizes both 30's and 40's copied
    second entries, so the total error rises from 2 to 3.
    """
    return make_net(
        6,
        2,
        base=[10, 20, 30],
        nodes={
            10: (40, (20, 30)),
            15: (10, (20, 30)),
            20: (15, (30, 10)),
            30: (20, (10, 20)),
            40: (30, (10, 20)),
        },
    )


def convergence_configs(seeds=range(200)):
    """Criterion 7's seeded churn mix at m=6: r alternates 2 and 3, churn
    length and member cap vary with the seed."""
    return [
        sim.SimConfig(
            params=RingParams(6, 2 + seed % 2),
            churn_steps=50 + (seed * 97) % 151,
            seed=seed,
            max_members=12 + seed % 9,
        )
        for seed in seeds
    ]


def pinned_sim_configs():
    """Six seeded simulations whose traces `tests/test_sim.py` pins.

    Criterion 7's mix at seeds 0-3, then two join-heavy m=12, r=3 runs
    that fill a member cap of 32.
    """
    configs = convergence_configs(range(4))
    configs += [
        sim.SimConfig(
            params=RingParams(12, 3), churn_steps=192, seed=seed, join_weight=6.0, max_members=32
        )
        for seed in (7, 8)
    ]
    return configs


def oracle_states():
    """States on which each fast path is compared with its from-scratch oracle.

    Every valid state at m=3, r=2, n<=4; raw m=6, r=3 assignments, which
    include dead heads, dead and missing predecessors and stranded members;
    and every snapshot of the pinned simulations.
    """
    yield from enumerate_valid_states(RingParams(3, 2), 4)
    yield from sample_raw_states(RingParams(6, 3), 9, 2000, seed=0)
    for config in pinned_sim_configs():
        yield from sim_networks(config)


def sim_networks(config):
    """Every network of one simulation: the initial one, then one per step."""
    trace = sim.run_simulation(config)
    yield trace.initial
    for step in trace.steps:
        yield step.network
