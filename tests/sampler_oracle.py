"""The constructive sampler's network builder as written before its rewrite.

`_build_member_list` sorted and filtered candidate pools by clockwise
distance and tested every candidate against every base member with
`between`; `_structured_network` sorted the live set once per member for
its predecessor and the identifiers once per departed node for its list.
`chordcheck.checker` now builds the same networks from the sorted
identifiers with the same `rng` calls in the same order. The code is kept
here unchanged as the oracle for that contract.
"""

from __future__ import annotations

import random

from chordcheck.ident import RingParams, between, clockwise_distance
from chordcheck.netstate import Network, NodeState
from topology_oracle import globally_correct_pred


def _build_member_list(
    rng: random.Random,
    x: int,
    ring_seq: list[int],
    nonring_ids: list[int],
    dead_ids: set[int],
    base: frozenset[int],
    r: int,
    space: int,
    avoid_base_skips: bool,
) -> tuple[int, ...]:
    """A successor list for ring member x whose first live entry is its ring successor.

    Entries advance strictly clockwise from x; optional dead prefixes, stale
    inserts and far jumps produce non-ideal but legal shapes. When asked, any
    jump span containing a base member is rejected so the stable base is never
    skipped.
    """

    def dist(v: int) -> int:
        return clockwise_distance(x, v, space)

    y1 = ring_seq[0]
    entries: list[int] = []
    dead_prefix_pool = sorted(
        (w for w in nonring_ids if w in dead_ids and 0 < dist(w) < dist(y1)),
        key=dist,
    )
    while len(entries) < r - 1 and dead_prefix_pool and rng.random() < 0.3:
        w = dead_prefix_pool.pop(rng.randrange(len(dead_prefix_pool)))
        dead_prefix_pool = [p for p in dead_prefix_pool if dist(p) > dist(w)]
        entries.append(w)
    entries.sort(key=dist)
    entries.append(y1)

    ring_cursor = 1
    while len(entries) < r:
        prev = entries[-1]
        aligned = ring_seq[ring_cursor] if ring_cursor < len(ring_seq) else None
        if aligned is not None and rng.random() < 0.6:
            entries.append(aligned)
            ring_cursor += 1
            continue
        pool = []
        for w in nonring_ids + ring_seq[ring_cursor:]:
            if w == x or dist(w) <= dist(prev):
                continue
            if avoid_base_skips and any(between(prev, b, w) for b in base):
                continue
            pool.append(w)
        if not pool:
            if aligned is None:
                # Nothing legal remains clockwise; fall back to the plain
                # aligned walk, which is always legal.
                return tuple(ring_seq[:r])
            entries.append(aligned)
            ring_cursor += 1
            continue
        w = sorted(pool)[rng.randrange(len(pool))]
        entries.append(w)
        while ring_cursor < len(ring_seq) and dist(ring_seq[ring_cursor]) <= dist(w):
            ring_cursor += 1
    return tuple(entries)


def _structured_network(
    rng: random.Random,
    params: RingParams,
    max_nodes: int,
    *,
    with_base: bool,
    min_ring: int | None = None,
) -> Network:
    r = params.r
    space = params.space
    # Rings below r+1 cannot carry full aligned lists; never sample them.
    floor = max(min_ring or 0, r + 1)
    n_total = rng.randint(floor, max_nodes)
    ids = sorted(rng.sample(range(space), n_total))
    live_count = rng.randint(floor, n_total)
    live = sorted(rng.sample(ids, live_count))
    dead = [i for i in ids if i not in live]
    ring_size = rng.randint(floor, live_count)
    ring = sorted(rng.sample(live, ring_size))
    appendages = [x for x in live if x not in ring]
    base = frozenset(rng.sample(ring, r + 1)) if with_base else frozenset()

    nodes: dict[int, NodeState] = {}
    k = len(ring)
    nonring = [i for i in ids if i not in ring]
    for pos, x in enumerate(ring):
        seq = [ring[(pos + j) % k] for j in range(1, k)]
        lst = _build_member_list(
            rng, x, seq, nonring, set(dead), base, r, space, with_base
        )
        nodes[x] = NodeState(ident=x, succ_list=lst)

    order = list(appendages)
    rng.shuffle(order)
    attached: list[int] = []
    for a in order:
        candidates = []
        for t in ring + attached:
            if t == a:
                continue
            if with_base and any(between(a, b, t) for b in base):
                continue
            candidates.append(t)
        # The nearest clockwise ring member is always a legal target.
        fallback = min(ring, key=lambda v: clockwise_distance(a, v, space))
        target = sorted(candidates)[rng.randrange(len(candidates))] if candidates else fallback
        lst = (target,) + nodes[target].succ_list[: r - 1]
        nodes[a] = NodeState(ident=a, succ_list=lst)
        attached.append(a)

    # Predecessors do not affect validity; mix correct, missing and stale ones.
    live_set = frozenset(live)
    net = Network(params=params, base=base, nodes=nodes, live=live_set)
    for x in live:
        roll = rng.random()
        if roll < 0.55:
            pred: int | None = globally_correct_pred(net, x)
        elif roll < 0.7:
            pred = None
        elif roll < 0.9 or not dead:
            pred = rng.choice(live)
        else:
            pred = rng.choice(dead)
        nodes[x] = NodeState(x, nodes[x].succ_list, pred)

    for d in dead:
        others = sorted((i for i in ids if i != d), key=lambda v: clockwise_distance(d, v, space))
        nodes[d] = NodeState(ident=d, succ_list=tuple((others * r)[:r]), pred=None)

    return Network(params=params, base=base, nodes=nodes, live=live_set)

