"""Deterministic churn-then-quiesce simulation.

Phase 1 applies randomly chosen joins, fails and repairs. It keeps one
`events.Listing` of the current network and carries it from step to step as
the explorer does, across a Join or a Fail too: the fails are its Fail slots
and the repairs are its other events. The joins are the Joins of the pending
joiners, kept from step to step by identifier, and one fresh lookup. Phase 2
schedules only repair events, weakly fairly, until a whole sweep finds no
effective repair; the theorem says that point is the ideal state and that
it stays ideal. Every event either phase applies has just had
its guard checked, by the listing, by `is_enabled` or by the sweep's own
rules, so both make each successor with `events.step`.

A run keeps its (event, tag) log and three networks: the initial one, the
one the repair phase starts from, and the final one. Every other step's
network is rebuilt on read by replaying `events.step`, which built it in
the run, so memory grows with the steps, not with steps times members.
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

from .ident import RingParams
from .netstate import (
    Network,
    StepLog,
    Trace,
    init_network,
    network_from_record,
    network_to_dict,
)
from .events import (
    AssumptionBreach,
    Event,
    EventKind,
    _adopts,
    _copied_list,
    _join_step,
    _live_successor,
    _rectified_pred,
    apply_event,
    carried_listing,
    event_from_dict,
    event_to_dict,
    is_enabled,
    slot_listing,
    step,
)
from .invariants import is_valid
from .measure import total_error, visible_state
from .topology import _walk, change_code, is_ideal

CHURN = "churn"
REPAIR = "repair"

# Churn pool weights beside `SimConfig.join_weight`.
FAIL_WEIGHT = 1.0
REPAIR_WEIGHT = 3.0


# Phase 2 gives up after this many applied repair events.
STEP_CEILING = 10**6


class DivergenceError(Exception):
    """Phase 2 exceeded its step ceiling without quiescing."""


@dataclass(frozen=True)
class SimConfig:
    params: RingParams
    churn_steps: int
    seed: int
    join_weight: float = 2.0
    max_members: int | None = None

    def __post_init__(self) -> None:
        if self.churn_steps < 0:
            raise ValueError("churn steps must be non-negative")
        # The stable base alone has r+1 members.
        if self.max_members is not None and self.max_members < self.params.r + 1:
            raise ValueError(f"max members must be at least r+1 = {self.params.r + 1}")


def _default_base(params: RingParams, rng: random.Random) -> tuple[int, ...]:
    k = params.r + 1
    # Spread the base around the ring, jittered but collision-free.
    gap = params.space // k
    ids = [(i * gap + rng.randrange(max(gap // 2, 1))) % params.space for i in range(k)]
    while len(set(ids)) != k:
        ids = sorted(rng.sample(range(params.space), k))
    return tuple(sorted(set(ids)))


def _pick(rng: random.Random, items: Sequence) -> object:
    return items[rng.randrange(len(items))]


def _kth_unblocked(k: int, blocked: list[int]) -> int:
    """The k-th (0-based) identifier, in increasing order, not in sorted `blocked`."""
    for b in blocked:
        if b > k:
            break
        k += 1
    return k


def _handed_on(net: Network, post: Network, ev: Event) -> Network:
    """`post`, given the walk memoised on `net` when `ev` left the
    best-successor map alone, as the churn phase gives it: a replayed
    lookup then does not rebuild the walk."""
    if post is not net and "_walk" in net.__dict__:
        change_code(net, post, ev.node)
    return post


def _replayed(net: Network, ev: Event) -> Network:
    """The network after a logged step, built by `step` as the run built it."""
    return _handed_on(net, step(net, ev), ev)


def run_simulation(config: SimConfig) -> Trace:
    """Run churn then fair repair; returns the tagged trace as a step log."""
    rng = random.Random(config.seed)
    params = config.params
    net = init_network(params, _default_base(params, rng))
    log: list[tuple[Event, str]] = []
    initial = net

    def record(ev: Event, post: Network, tag: str) -> Network:
        log.append((ev, tag))
        return post

    cap = params.space if config.max_members is None else config.max_members

    # The listing of `net` without joiners: its members are the live set.
    listing = slot_listing(net, ())
    # Each non-member with a lookup in progress, and its Join. `init_network`
    # tracks only live members, so none is pending at the start.
    pending: dict[int, Event | None] = {}
    for _ in range(config.churn_steps):
        live = listing.members
        joins: list[Event] = []
        if len(live) < cap:
            # A pending joiner's Join completes, or it clears a lookup whose
            # successor has died.
            joins = [ev for j in sorted(pending) if (ev := pending[j]) is not None]
            # A fresh joiner is any identifier neither live nor mid-join; the
            # base never fails, so a live contact always exists.
            blocked = sorted([*live, *(ev.node for ev in joins)])
            if len(blocked) < params.space:
                j = _kth_unblocked(rng.randrange(params.space - len(blocked)), blocked)
                ev = Event(EventKind.JOIN_LOOKUP, j, known=_pick(rng, live))
                if is_enabled(net, ev):
                    joins.append(ev)
        fails = listing.fails()

        # The repair pool holds a stabilize for every member, and the base
        # never fails, so it is always offered: it is built only if picked.
        pools = [
            (w, p)
            for w, p, nonempty in (
                (config.join_weight, joins, joins),
                (FAIL_WEIGHT, fails, fails),
                (REPAIR_WEIGHT, None, live),
            )
            if nonempty and w > 0
        ]
        total_w = sum(w for w, _ in pools)
        roll = rng.random() * total_w
        pool = pools[-1][1]
        for w, p in pools:
            if roll < w:
                pool = p
                break
            roll -= w
        if pool is None:
            pool = [ev for ev in listing.events() if ev.kind is not EventKind.FAIL]
        ev = _pick(rng, pool)
        post = step(net, ev)
        if post is not net:
            x = ev.node
            # An unchanged best-successor map hands on the walk a lookup reads.
            change = change_code(net, post, x)
            listing = carried_listing(listing, post, change)
            if post.nodes[x].pending_new_succ is not None and x not in post.live:
                pending[x] = _join_step(post, x)
            else:
                pending.pop(x, None)
        net = record(ev, post, CHURN)
    repair_start = net

    # Phase 2: repair only, scheduled by round-robin sweeps so every enabled
    # effective event fires within one sweep. Each step is decided by the
    # kernel's repair rules before it is applied, so only recorded events
    # are applied; a sweep that records none finds no effective repair left.
    # Those rules imply each step's guard: a stabilize's executor is live, an
    # adoption follows the copy that stored its candidate, and a Rectify's
    # notifier has its target at the head of its list.
    applied, swept = 0, -1
    while applied != swept:
        swept = applied
        order = list(net.live_idents())
        rng.shuffle(order)
        for n in order:
            h = _live_successor(net, n)
            # The stabilize is kept when its copy changes the list or its
            # acquired candidate will be adopted.
            adopts = _adopts(net, n, net.nodes[h].pred, h)
            if adopts or _copied_list(net, h) != net.nodes[n].succ_list:
                sfos = Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, n)
                net = record(sfos, step(net, sfos), REPAIR)
                applied += 1
                if adopts:
                    sfns = Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n)
                    net = record(sfns, step(net, sfns), REPAIR)
                    applied += 1
            head = net.nodes[n].succ_list[0]
            if net.is_live(head) and _rectified_pred(net, head, n) != net.nodes[head].pred:
                rect = Event(EventKind.RECTIFY, head, new_pred=n)
                net = record(rect, step(net, rect), REPAIR)
                applied += 1
            if applied > STEP_CEILING:
                raise DivergenceError(f"repair phase exceeded {STEP_CEILING} steps")

    snapshots = {0: initial, config.churn_steps: repair_start, len(log): net}
    return Trace(initial=initial, steps=StepLog(log, snapshots, _replayed))


def _repair_count(trace: Trace) -> int:
    """The number of steps before the first repair step."""
    return next((i for i, (_, tag) in enumerate(trace.log) if tag == REPAIR), len(trace.steps))


def phase2_initial_error(trace: Trace) -> int:
    """Total error at the start of the repair-only phase."""
    return total_error(trace.network_at(_repair_count(trace)))


def convergence_steps(trace: Trace) -> int:
    """Effective repair steps before the first ideal snapshot.

    Streams the repair steps from the network the repair phase starts from.
    Raises if the trace never reaches the ideal state or fails to stay there.
    """
    start = _repair_count(trace)
    prev = trace.network_at(start)
    effective = 0
    converged = False
    for traced in trace.steps[start:]:
        if traced.tag != REPAIR:
            continue
        # A repair event alters only its executor's state.
        n = traced.event.node
        changed = visible_state(prev, n) != visible_state(traced.network, n)
        if changed and not converged:
            effective += 1
        if not converged:
            converged = is_ideal(traced.network)
        elif not is_ideal(traced.network):
            raise DivergenceError("network left the ideal state during repair")
        prev = traced.network

    # Repair follows churn, so the last step is the last churn step when
    # the repair phase is empty.
    if not converged and not is_ideal(trace.final()):
        raise DivergenceError("trace never reached the ideal state")
    return effective


# --- trace streaming ---------------------------------------------------------


def write_trace_jsonl(trace: Trace, path: str, snapshot_interval: int = 0) -> None:
    """Line-delimited trace: a record per step; snapshots, with their summaries, on an interval.

    The steps are streamed, one network at a time; an interval of 0 writes
    no snapshot and reads only the log. A negative interval raises
    ValueError before the file is opened.
    """
    if snapshot_interval < 0:
        raise ValueError(f"snapshot interval must be non-negative, got {snapshot_interval}")
    last = len(trace.steps)
    # With no snapshot to write, no step's network is needed.
    networks = (s.network for s in trace.steps) if snapshot_interval else repeat(None)
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "type": "header",
            "initial": network_to_dict(trace.initial),
            "snapshotInterval": snapshot_interval,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i, ((ev, tag), net) in enumerate(zip(trace.log, networks), start=1):
            rec = {"type": "step", "step": i, "event": event_to_dict(ev), "tag": tag}
            if snapshot_interval and (i % snapshot_interval == 0 or i == last):
                walk = _walk(net)
                rec["snapshot"] = network_to_dict(net)
                rec["structure"] = {
                    "ringMembers": sorted(walk.ring),
                    "appendageMembers": sorted(net.live - walk.ring),
                    "orderedRingFlag": walk.ordered,
                }
                rec["totalError"] = total_error(net)
                rec["valid"] = is_valid(net)
                rec["ideal"] = is_ideal(net)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _entry(rec, key: str):
    if not isinstance(rec, dict) or key not in rec:
        raise ValueError(f"the record has no {key!r}")
    return rec[key]


def replay_trace_jsonl(path: str) -> Trace:
    """Re-apply a streamed trace, checking any embedded snapshots bit-exactly.

    Every guard and snapshot is checked as the file is read; the trace
    returned keeps the (event, tag) log with the initial network, the one
    before the first repair step and the final one, as a run's does.
    A disabled event raises `EventNotEnabled`. A line that is not a JSON
    record with a well-formed `initial` network (the header) or `event`
    (each step), whose event strands a member, whose `tag` is neither CHURN
    nor REPAIR, or whose snapshot fails `validate_network`, raises
    ValueError naming the line.
    """
    initial: Network | None = None
    log: list[tuple[Event, str]] = []
    snapshots: dict[int, Network] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            try:
                rec = json.loads(text)
                if initial is None:
                    net = initial = network_from_record(_entry(rec, "initial"))
                    continue
                ev = event_from_dict(_entry(rec, "event"))
                expected = network_from_record(rec["snapshot"]) if "snapshot" in rec else None
                post = apply_event(net, ev)
                tag = rec.get("tag")
                if tag not in (CHURN, REPAIR):
                    raise ValueError(f"tag {tag!r} is neither {CHURN!r} nor {REPAIR!r}")
            except (ValueError, AssumptionBreach) as err:
                raise ValueError(f"trace line {lineno}: {err}") from None
            if expected is not None and expected != post:
                raise ValueError(f"trace line {lineno}: snapshot mismatch")
            if tag == REPAIR and not snapshots:
                snapshots[len(log)] = net
            net = _handed_on(net, post, ev)
            log.append((ev, tag))
    if initial is None:
        raise ValueError("the trace has no header line")
    snapshots.update({0: initial, len(log): net})
    return Trace(initial=initial, steps=StepLog(log, snapshots, _replayed))
