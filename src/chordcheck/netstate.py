"""Global configuration snapshots: per-node variables, liveness, stable base.

Networks are immutable; applying an event produces a new snapshot. Departed
nodes keep their last state read-only so obsolete references stay resolvable,
but that state is never queried by the protocol.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Mapping

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

    def with_node(self, state: NodeState, live: bool | None = None) -> "Network":
        """This network with `state` as its node's state and, unless None, that liveness."""
        ident = state.ident
        nodes = self.nodes
        if nodes.get(ident) is not state:
            nodes = dict(nodes)
            nodes[ident] = state
        new_live = self.live
        if live is True:
            new_live = new_live | {ident}
        elif live is False:
            new_live = new_live - {ident}
        return Network(self.params, self.base, nodes, new_live)

    def without_member(self, ident: int) -> "Network":
        """Remove `ident` from the live set, retaining its last state."""
        return Network(self.params, self.base, self.nodes, self.live - {ident})

    def canonical_key(self) -> tuple:
        """Hashable canonical form, used for state deduplication.

        Its last item holds one `node_key` per tracked node, in identifier
        order, so a key can be updated one node at a time.
        """
        live = self.live
        return (
            self.params.m,
            self.params.r,
            tuple(sorted(self.base)),
            tuple(node_key(self.nodes[i], i in live) for i in sorted(self.nodes)),
        )

    def pred_free_key(self) -> tuple:
        """Hashable form of everything but predecessors.

        Two networks with equal keys differ at most in their `pred` values.
        """
        return (
            self.params,
            self.base,
            self.live,
            tuple(
                (s.ident, s.succ_list, s.pending_new_succ, s.pending_candidate)
                for s in (self.nodes[i] for i in sorted(self.nodes))
            ),
        )


def node_key(state: NodeState, live: bool) -> tuple:
    """One node's entry in `Network.canonical_key`."""
    return (
        state.ident,
        state.succ_list,
        state.pred,
        state.pending_new_succ,
        state.pending_candidate,
        live,
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


@dataclass(frozen=True)
class TraceStep:
    """One applied event and the snapshot it produced."""

    event: Any
    network: Network
    tag: str | None = None


class StepLog(Sequence):
    """A trace's steps kept as their (event, tag) log and a few networks.

    `snapshots` maps a step count to the network after that many steps, and
    holds at least 0. Each step's network is rebuilt on read by replaying
    `apply(network, event)` from the nearest snapshot at or before it, so
    the log costs memory per step, not per step and member. Iteration
    replays once and holds one network at a time; an index replays from the
    nearest snapshot, and a slice with step 1 is itself a log.
    """

    __slots__ = ("entries", "_snapshots", "_counts", "_apply")

    def __init__(
        self,
        entries: Sequence[tuple[Any, str | None]],
        snapshots: Mapping[int, Network],
        apply: Callable[[Network, Any], Network],
    ) -> None:
        self.entries = tuple(entries)
        self._snapshots = dict(snapshots)
        self._counts = sorted(self._snapshots)
        self._apply = apply

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceStep]:
        return self._replay(0)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, stride = index.indices(len(self))
            if stride != 1:
                return tuple(self)[index]
            stop = max(start, stop)
            snapshots = {c - start: net for c, net in self._snapshots.items() if start <= c <= stop}
            if 0 not in snapshots:
                snapshots[0] = self[start - 1].network
            return StepLog(self.entries[start:stop], snapshots, self._apply)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("trace step index out of range")
        net = self._snapshots.get(index + 1)
        if net is None:
            return next(self._replay(index))
        event, tag = self.entries[index]
        return TraceStep(event, net, tag)

    def _replay(self, start: int) -> Iterator[TraceStep]:
        """The steps from index `start` on, replayed from the nearest snapshot."""
        count = self._counts[bisect_right(self._counts, start) - 1]
        net, apply = self._snapshots[count], self._apply
        for event, _ in islice(self.entries, count, start):
            net = apply(net, event)
        for event, tag in islice(self.entries, start, None):
            net = apply(net, event)
            yield TraceStep(event, net, tag)

    def __repr__(self) -> str:
        return f"StepLog({len(self)} steps, snapshots at {self._counts})"


@dataclass(frozen=True)
class Trace:
    """An initial network and the steps applied to it.

    `steps` is a `StepLog` for a simulated or replayed trace, or any
    sequence of `TraceStep`s built by hand.
    """

    initial: Network
    steps: Sequence[TraceStep]

    def final(self) -> Network:
        return self.steps[-1].network if self.steps else self.initial

    @property
    def log(self) -> Sequence[tuple[Any, str | None]]:
        """Each step's (event, tag), read without building a network."""
        steps = self.steps
        if isinstance(steps, StepLog):
            return steps.entries
        return tuple((s.event, s.tag) for s in steps)

    def network_at(self, count: int) -> Network:
        """The network after the first `count` steps."""
        return self.steps[count - 1].network if count else self.initial


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
    """The network of a record; ValueError if it lists a node or a base member twice."""
    params = RingParams(m=data["m"], r=data["r"])
    nodes: dict[int, NodeState] = {}
    live: set[int] = set()
    for rec in data["nodes"]:
        ident = rec["ident"]
        if ident in nodes:
            raise ValueError(f"node {ident} is listed twice")
        nodes[ident] = NodeState(
            ident=ident,
            succ_list=tuple(rec["succList"]),
            pred=rec["pred"],
            pending_new_succ=rec.get("pendingNewSucc"),
            pending_candidate=rec.get("pendingCandidate"),
        )
        if not isinstance(rec["live"], bool):
            raise ValueError(f"node {ident}: live {rec['live']!r} is not true or false")
        if rec["live"]:
            live.add(ident)
    base = frozenset(data["base"])
    if len(base) != len(data["base"]):
        raise ValueError(f"base {data['base']!r} names an identifier twice")
    return Network(
        params=params,
        base=base,
        nodes=nodes,
        live=frozenset(live),
    )


def network_from_record(data: Any) -> Network:
    """Build and validate a network record; malformed content raises ValueError."""
    try:
        net = network_from_dict(data)
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(f"malformed network record: {err!r}") from err
    validate_network(net)
    return net


def network_to_json(net: Network, indent: int | None = None) -> str:
    return json.dumps(network_to_dict(net), indent=indent, sort_keys=True)
