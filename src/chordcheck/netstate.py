"""Global configuration snapshots: per-node variables, liveness, stable base.

Networks are immutable; applying an event produces a new snapshot. Departed
nodes keep their last state read-only so obsolete references stay resolvable,
but that state is never queried by the protocol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Iterable, Iterator, Mapping

from .ident import RingParams


@dataclass(frozen=True, slots=True)
class NodeState:
    """One participant's protocol variables.

    `pending_new_succ` holds a join lookup result awaiting the Join step;
    `pending_candidate` holds the successor's predecessor acquired by a
    stabilize query, awaiting possible adoption. Both are transient.
    """

    ident: int
    succ_list: tuple[int, ...]
    pred: int | None = None
    pending_new_succ: int | None = None
    pending_candidate: int | None = None


@dataclass(frozen=True)
class Network:
    """Immutable snapshot of the whole configuration.

    `nodes` maps every identifier ever tracked (members, departed members and
    joiners mid-handshake) to its state; `live` marks the current members.
    """

    params: RingParams
    base: frozenset[int]
    nodes: Mapping[int, NodeState]
    live: frozenset[int]

    def node(self, ident: int) -> NodeState:
        return self.nodes[ident]

    def is_live(self, ident: int) -> bool:
        return ident in self.live

    @property
    def size(self) -> int:
        """Number of current members."""
        return len(self.live)

    def live_idents(self) -> tuple[int, ...]:
        return tuple(sorted(self.live))

    def iter_live(self) -> Iterator[NodeState]:
        for ident in sorted(self.live):
            yield self.nodes[ident]

    def with_node(self, state: NodeState, live: bool | None = None) -> "Network":
        nodes = dict(self.nodes)
        nodes[state.ident] = state
        new_live = self.live
        if live is True:
            new_live = self.live | {state.ident}
        elif live is False:
            new_live = self.live - {state.ident}
        return replace(self, nodes=nodes, live=new_live)

    def without_member(self, ident: int) -> "Network":
        """Remove `ident` from the live set, retaining its last state."""
        return replace(self, live=self.live - {ident})

    def canonical_key(self) -> tuple:
        """Hashable canonical form, used for state deduplication."""
        return (
            self.params.m,
            self.params.r,
            tuple(sorted(self.base)),
            tuple(
                (
                    s.ident,
                    s.succ_list,
                    s.pred,
                    s.pending_new_succ,
                    s.pending_candidate,
                    s.ident in self.live,
                )
                for s in (self.nodes[i] for i in sorted(self.nodes))
            ),
        )


def init_network(params: RingParams, base_ids: Iterable[int]) -> Network:
    """Build an ideal ring over exactly r+1 base members.

    Every member's successor list holds its next r clockwise members and its
    predecessor points at the clockwise-previous member, so the initial state
    is ideal (and in particular valid).
    """
    ids = sorted(base_ids)
    if len(ids) != len(set(ids)):
        raise ValueError("base identifiers must be distinct")
    if len(ids) != params.r + 1:
        raise ValueError(
            f"initial ring must have exactly r+1={params.r + 1} members, got {len(ids)}"
        )
    for i in ids:
        if not 0 <= i < params.space:
            raise ValueError(f"identifier {i} outside [0, {params.space})")

    k = len(ids)
    nodes: dict[int, NodeState] = {}
    for pos, ident in enumerate(ids):
        succ_list = tuple(ids[(pos + j) % k] for j in range(1, params.r + 1))
        nodes[ident] = NodeState(ident=ident, succ_list=succ_list, pred=ids[(pos - 1) % k])
    return Network(params=params, base=frozenset(ids), nodes=nodes, live=frozenset(ids))


def validate_network(net: Network) -> None:
    """Raise ValueError unless the network is well formed.

    Every identifier is an int in [0, 2**m); every live member's successor
    list has exactly r entries; every list entry, predecessor and base
    member names a tracked node.
    """
    space = net.params.space

    def check_ident(value: Any, what: str) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{what} {value!r} is not an identifier")
        if not 0 <= value < space:
            raise ValueError(f"{what} {value} outside [0, {space})")

    def check_tracked(value: int, what: str) -> None:
        check_ident(value, what)
        if value not in net.nodes:
            raise ValueError(f"{what} {value} is not a tracked node")

    for ident, state in net.nodes.items():
        check_ident(ident, "node")
        if ident in net.live and len(state.succ_list) != net.params.r:
            raise ValueError(
                f"member {ident} has {len(state.succ_list)} successors, expected r={net.params.r}"
            )
        for entry in state.succ_list:
            check_tracked(entry, f"successor of {ident}")
        if state.pred is not None:
            check_tracked(state.pred, f"predecessor of {ident}")
        for value in (state.pending_new_succ, state.pending_candidate):
            if value is not None:
                check_ident(value, f"pending value of {ident}")
    for b in net.base:
        check_tracked(b, "base member")


def extended_succ_list(net: Network, n: int) -> tuple[int, ...]:
    """The node's identifier prepended to its successor list (length r+1)."""
    if not net.is_live(n):
        raise ValueError(f"{n} is not a live member")
    state = net.node(n)
    return (n,) + state.succ_list


def is_live(net: Network, n: int) -> bool:
    return net.is_live(n)


@dataclass(frozen=True)
class TraceStep:
    """One applied event and the snapshot it produced."""

    event: Any
    network: Network
    tag: str | None = None


@dataclass(frozen=True)
class Trace:
    initial: Network
    steps: tuple[TraceStep, ...]

    def final(self) -> Network:
        return self.steps[-1].network if self.steps else self.initial


# --- serialization ----------------------------------------------------------


def network_to_dict(net: Network) -> dict:
    return {
        "m": net.params.m,
        "r": net.params.r,
        "base": sorted(net.base),
        "nodes": [
            {
                "ident": s.ident,
                "pred": s.pred,
                "succList": list(s.succ_list),
                "pendingNewSucc": s.pending_new_succ,
                "pendingCandidate": s.pending_candidate,
                "live": s.ident in net.live,
            }
            for s in (net.nodes[i] for i in sorted(net.nodes))
        ],
    }


def network_from_dict(data: dict) -> Network:
    params = RingParams(m=data["m"], r=data["r"])
    nodes: dict[int, NodeState] = {}
    live: set[int] = set()
    for rec in data["nodes"]:
        ident = rec["ident"]
        nodes[ident] = NodeState(
            ident=ident,
            succ_list=tuple(rec["succList"]),
            pred=rec["pred"],
            pending_new_succ=rec.get("pendingNewSucc"),
            pending_candidate=rec.get("pendingCandidate"),
        )
        if rec["live"]:
            live.add(ident)
    return Network(
        params=params,
        base=frozenset(data["base"]),
        nodes=nodes,
        live=frozenset(live),
    )


def network_to_json(net: Network, indent: int | None = None) -> str:
    return json.dumps(network_to_dict(net), indent=indent, sort_keys=True)


def network_from_json(text: str) -> Network:
    return network_from_dict(json.loads(text))
