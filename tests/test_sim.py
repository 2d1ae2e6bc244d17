"""Churn-then-quiesce simulation: convergence, fairness, and trace streaming."""

import hashlib
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from chordcheck.events import (
    Event,
    EventKind,
    EventNotEnabled,
    apply_event,
    event_to_dict,
    failable,
    is_enabled,
    slot_listing,
)
from chordcheck.ident import RingParams
from chordcheck.netstate import Trace, TraceStep, init_network, network_to_dict
from chordcheck.invariants import conjuncts, is_valid
from chordcheck.measure import effective_enabled, total_error, visible_state
from chordcheck.topology import _walk_graph, is_ideal
from chordcheck import sim

import sim_oracle
from conftest import convergence_configs, pinned_sim_configs, stranded_member_state


def config(seed=0, churn=60, r=2, max_members=16, **kw):
    return sim.SimConfig(
        params=RingParams(6, r),
        churn_steps=churn,
        seed=seed,
        max_members=max_members,
        **kw,
    )


def run(**kw):
    return sim.run_simulation(config(**kw))


class TestConfig:
    def test_rejects_negative_churn(self):
        with pytest.raises(ValueError):
            sim.SimConfig(params=RingParams(6, 2), churn_steps=-1, seed=0)

    @pytest.mark.parametrize("r, cap", [(2, 2), (2, 0), (2, -1), (3, 3)])
    def test_rejects_a_member_cap_below_the_base(self, r, cap):
        with pytest.raises(ValueError, match="at least r\\+1"):
            sim.SimConfig(params=RingParams(6, r), churn_steps=10, seed=0, max_members=cap)

    def test_a_cap_of_r_plus_one_admits_no_join(self):
        trace = run(seed=0, churn=60, max_members=3)
        assert all(step.network.size <= 3 for step in trace.steps)
        assert not any(
            step.event.kind in (EventKind.JOIN_LOOKUP, EventKind.JOIN) for step in trace.steps
        )


class TestDefaultBase:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_base_is_the_first_draw_strictly_increasing_in_the_ring(self, m):
        space = 2**m
        for r in range(2, space):
            params, k = RingParams(m, r), r + 1
            gap = space // k
            for seed in range(3):
                base = sim._default_base(params, random.Random(seed))
                assert len(base) == k and list(base) == sorted(set(base)), (m, r, seed)
                assert 0 <= base[0] and base[-1] < space, (m, r, seed)
                # The first draw, reduced into the ring, never collides.
                rng = random.Random(seed)
                first = [(i * gap + rng.randrange(max(gap // 2, 1))) % space for i in range(k)]
                assert base == tuple(first), (m, r, seed)


class TestConvergence:
    def test_no_churn_converges_immediately(self, monkeypatch):
        trace, _, _, built = _recorded_run(monkeypatch, config(churn=0))
        assert built == []
        assert tuple(trace.steps) == ()
        assert is_ideal(trace.final())
        assert sim.convergence_steps(trace) == 0

    def test_churn_ending_non_ideal_without_repair_diverges(self):
        # With an empty repair phase the last churn network is judged.
        net = init_network(RingParams(6, 2), [7, 19, 33])
        steps = []
        for ev in (Event(EventKind.JOIN_LOOKUP, 10, known=7), Event(EventKind.JOIN, 10)):
            net = apply_event(net, ev)
            steps.append(TraceStep(event=ev, network=net, tag=sim.CHURN))
        assert not is_ideal(net)
        with pytest.raises(sim.DivergenceError):
            sim.convergence_steps(Trace(initial=init_network(RingParams(6, 2), [7, 19, 33]), steps=tuple(steps)))

    def test_churn_schedules_joins_whose_target_died(self):
        # A Join whose looked-up successor died is an enabled step: the churn
        # Join pool draws it from `enabled_events`, and it clears the lookup
        # so the join can be retried.
        cfg = sim.SimConfig(params=RingParams(6, 2), churn_steps=179, seed=6, max_members=18)
        trace = sim.run_simulation(cfg)
        prev, timeouts = trace.initial, 0
        for step in trace.steps:
            ev = step.event
            if ev.kind is EventKind.JOIN and not prev.is_live(prev.nodes[ev.node].pending_new_succ):
                assert is_enabled(prev, ev)
                assert step.network.nodes[ev.node].pending_new_succ is None
                assert not step.network.is_live(ev.node)
                timeouts += 1
            prev = step.network
        assert timeouts

    def test_scripted_style_join_converges(self):
        trace = run(seed=5, churn=40)
        final = trace.final()
        assert is_ideal(final)
        assert is_valid(final)

    @pytest.mark.parametrize("seed", range(8))
    def test_small_campaign(self, seed):
        trace = run(seed=seed, churn=50 + seed * 13, r=2 + seed % 2)
        final = trace.final()
        assert is_ideal(final)
        steps = sim.convergence_steps(trace)
        assert steps <= sim.phase2_initial_error(trace)

    def test_valid_at_every_step(self):
        trace = run(seed=9, churn=80)
        assert is_valid(trace.initial)
        for step in trace.steps:
            assert is_valid(step.network)

    def test_ideal_state_stays_fixed_under_repairs(self):
        trace = run(seed=11, churn=50)
        final = trace.final()
        applied = 0
        from chordcheck.events import (
            apply_rectify,
            apply_stabilize_from_new_successor,
            apply_stabilize_from_old_successor,
            is_enabled,
            Event,
            EventKind,
        )

        net = final
        snapshot = {n: visible_state(net, n) for n in net.live_idents()}
        while applied < 100:
            for n in net.live_idents():
                net = apply_stabilize_from_old_successor(net, n)
                applied += 1
                if is_enabled(net, Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n)):
                    net = apply_stabilize_from_new_successor(net, n)
                    applied += 1
                head = net.node(n).succ_list[0]
                if is_enabled(net, Event(EventKind.RECTIFY, head, new_pred=n)):
                    net = apply_rectify(net, head, n)
                    applied += 1
        assert {n: visible_state(net, n) for n in net.live_idents()} == snapshot
        assert is_ideal(net)


PINNED_CONFIGS = pinned_sim_configs()

# Per pinned configuration: event counts by kind (JoinLookup, Join,
# StabilizeFromOldSuccessor, StabilizeFromNewSuccessor, Rectify, Fail), step
# count and the sha256 of the (event, tag) sequence.
PINNED_TRACES = [
    ((11, 8, 18, 3, 15, 6), 61,
     "7fad5db1e5a5bb2cad17c67694590d42b105044f085c3d7e30440563f6077211"),
    ((23, 22, 63, 14, 56, 15), 193,
     "d473ccd361e8575e2ecef96601c3db9b5d680f6daf2a1cf5c5d666cae265e51c"),
    ((19, 19, 55, 25, 41, 9), 168,
     "528e2f76478ab0f78f97d02df1623420ad2974afd39321172e8959fde94d5bc9"),
    ((33, 32, 50, 2, 48, 31), 196,
     "a32edcfa4104be75fc97ec8f59a6084c15616852c2cda8cf1c741e832b8dcd88"),
    ((52, 50, 184, 117, 84, 22), 509,
     "604a0cfae7ac7bc59e6d7c401f0ae386f589679c5ae31c5cf2b769e988f25a81"),
    ((48, 48, 142, 79, 94, 21), 432,
     "e0250191c5758c322cd00a75a56c7167a8999a4e687dea44a31c97f79635903c"),
]


class TestDeterminism:
    """Any change in how the simulator consumes its random stream fails here."""

    @pytest.mark.parametrize(
        "config, pinned",
        zip(PINNED_CONFIGS, PINNED_TRACES),
        ids=[f"m{c.params.m}-r{c.params.r}-seed{c.seed}" for c in PINNED_CONFIGS],
    )
    def test_trace_is_pinned(self, config, pinned):
        counts, steps, digest = pinned
        trace = sim.run_simulation(config)
        kinds = Counter(s.event.kind for s in trace.steps)
        h = hashlib.sha256()
        for step in trace.steps:
            h.update(json.dumps([event_to_dict(step.event), step.tag], sort_keys=True).encode())
        assert tuple(kinds[kind] for kind in EventKind) == counts
        assert len(trace.steps) == steps
        assert h.hexdigest() == digest
        # Phase 2 stops only once no effective repair is left.
        assert effective_enabled(trace.final()) == []

    # sha256 of the whole trace file written with a snapshot on every line,
    # for the first pinned configuration and the first m=12 one.
    @pytest.mark.parametrize(
        "index, digest",
        [
            (0, "488491afcc9e773ac58b209d5821c7383a68882c5d758b0ea5cc84baf46ebfa4"),
            (4, "a006b577cb48674c87f0c0ac6452a106f270a91b08501188cac4368194c21c73"),
        ],
        ids=["m6-r2-seed0", "m12-r3-seed7"],
    )
    def test_snapshot_on_every_line_file_is_pinned(self, tmp_path, index, digest):
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(sim.run_simulation(PINNED_CONFIGS[index]), str(path), snapshot_interval=1)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# The pinned simulations, then twenty more of criterion 7's mix.
LISTING_CONFIGS = PINNED_CONFIGS + convergence_configs(range(4, 24))


def _recorded_run(mp, config):
    """`TestCarriedListing.recorded` for one config, patched through `mp`."""
    listed, picked, churn, built = [], [], [], []

    def recording(list_, net_arg, kind):
        def wrapped(*args):
            listing = list_(*args)
            listed.append((args[net_arg], listing, kind))
            return listing

        return wrapped

    def pick(rng, items, _pick=sim._pick):
        # A JoinLookup's contact is picked before the pool is.
        picked[:] = [items]
        return _pick(rng, items)

    def applied(net, ev, _step=sim.step):
        # Only a churn step is drawn from a pool.
        if picked:
            churn.append((net, picked.pop(), ev))
        built.append(_step(net, ev))
        return built[-1]

    mp.setattr(sim, "slot_listing", recording(sim.slot_listing, 0, "rebuilt"))
    mp.setattr(sim, "carried_listing", recording(sim.carried_listing, 1, "carried"))
    mp.setattr(sim, "_pick", pick)
    mp.setattr(sim, "step", applied)
    return sim.run_simulation(config), listed, churn, built


def _assert_join_pool(net, pool):
    """The pending joiners' Joins, in identifier order, then at most one
    fresh joiner's lookup: returns (Joins, lookups)."""
    pending = (j for j in sorted(net.nodes) if net.nodes[j].pending_new_succ is not None)
    scan = [e for j in pending if is_enabled(net, e := Event(EventKind.JOIN, j))]
    assert pool[: len(scan)] == scan, net
    fresh = pool[len(scan) :]
    assert len(fresh) <= 1, net
    for e in fresh:
        assert e.kind is EventKind.JOIN_LOOKUP and is_enabled(net, e), net
        assert e.node not in net.live and all(e.node != s.node for s in scan), net
    return scan, fresh


class TestCarriedListing:
    """The churn phase's listing, pools, unguarded steps and shared walks,
    each against its from-scratch oracle at every step."""

    @pytest.fixture(scope="class")
    def recorded(self):
        """Per config: the trace, each listing made, as (network, listing,
        "rebuilt" or "carried") in order, each churn step's (network,
        picked pool, event), and each step's network as the run built it."""
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            for config in LISTING_CONFIGS:
                runs.append(_recorded_run(mp, config))
                mp.undo()
        return runs

    def test_listing_in_force_is_the_slot_listing(self, recorded):
        made = Counter()
        liveness_changes = 0
        for trace, listed, churn, built in recorded:
            made.update(kind for _, _, kind in listed)
            made_for = iter(listed)
            net, listing, _ = next(made_for)
            assert net is trace.initial
            following = next(made_for, None)
            # The last churn step's network is listed too, though nothing is
            # drawn from it. A step that moves no slot makes no listing.
            for post in built[: len(churn)]:
                if following is not None and following[0] is post:
                    listing = following[1]
                    following = next(made_for, None)
                assert listing == slot_listing(post, ()), post
                liveness_changes += listing.members != net.live_idents()
                net = post
            assert following is None
        # Only each initial network is listed from scratch: a Join or a Fail
        # is carried like any other step.
        assert made["rebuilt"] == len(recorded) and liveness_changes

    def test_picked_pools_are_the_oracle_pools(self, recorded):
        drawn = Counter()
        for _, _, churn, _ in recorded:
            for net, pool, ev in churn:
                if ev.kind is EventKind.FAIL:
                    fails = [Event(EventKind.FAIL, n) for n in sorted(failable(net) - net.base)]
                    assert pool == fails, net
                elif ev.kind in (EventKind.JOIN_LOOKUP, EventKind.JOIN):
                    scan, fresh = _assert_join_pool(net, pool)
                    drawn.update(pending=bool(scan), fresh=len(fresh))
                else:
                    repairs = slot_listing(net, ()).events()
                    assert pool == [e for e in repairs if e.kind is not EventKind.FAIL], net
        kinds = Counter(ev.kind for _, _, churn, _ in recorded for _, _, ev in churn)
        assert all(kinds[kind] for kind in EventKind)
        assert drawn["pending"] and drawn["fresh"]

    def test_every_step_replays_through_its_guard(self, recorded):
        for trace, _, _, _ in recorded:
            net = trace.initial
            for step in trace.steps:
                assert apply_event(net, step.event) == step.network, (net, step.event)
                net = step.network

    def test_every_memoised_walk_is_the_walk_of_its_network(self, recorded):
        shared = 0
        for trace, _, _, built in recorded:
            prev = trace.initial
            for net in (trace.initial, *built):
                walk = net.__dict__.get("_walk")
                if walk is not None:
                    assert walk == _walk_graph(net), net
                    shared += net is not prev and walk is prev.__dict__.get("_walk")
                prev = net
        assert shared

    def test_replayed_networks_are_the_networks_the_run_built(self, recorded, tmp_path):
        path = tmp_path / "trace.jsonl"
        for trace, _, _, built in recorded:
            assert [step.network for step in trace.steps] == built
            n = len(built)
            for k in (0, n // 3, n - 1):
                assert trace.steps[k].network == built[k]
                assert trace.steps[k - n].network == built[k]
            assert [step.network for step in trace.steps[n // 3 : n // 2]] == built[n // 3 : n // 2]
            sim.write_trace_jsonl(trace, str(path), snapshot_interval=50)
            replayed = sim.replay_trace_jsonl(str(path))
            assert [step.network for step in replayed.steps] == built
            assert replayed.log == trace.log


class TestFlatMemory:
    """A trace keeps its event log, not a network per step."""

    def test_cap_256_run_and_convergence_stay_small(self):
        # A trace that kept every step's network held about 260 MB for
        # this run: 15,264 networks of up to 256 members each.
        cfg = sim.SimConfig(
            params=RingParams(16, 3), churn_steps=6 * 256, seed=1, join_weight=6.0, max_members=256
        )
        tracemalloc.start()
        try:
            trace = sim.run_simulation(cfg)
            effective = sim.convergence_steps(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(trace.steps), trace.final().size, effective) == (15264, 256, 7915)
        assert peak < 16 * 2**20


IDEAL = init_network(RingParams(6, 2), (7, 19, 33))
# The ideal ring with 19's predecessor moved from 7 to 33.
OFF = IDEAL.with_node(replace(IDEAL.node(19), pred=33))


def _hand_built(net, *pointer_changes):
    """A trace from `net` with one repair step per (node, pred): a Rectify that sets it."""
    initial, steps = net, []
    for n, pred in pointer_changes:
        net = net.with_node(replace(net.node(n), pred=pred))
        steps.append(TraceStep(Event(EventKind.RECTIFY, n, new_pred=pred), net, sim.REPAIR))
    return Trace(initial=initial, steps=tuple(steps))


def _churn_only(*events):
    """A trace of churn steps from IDEAL: its repair phase is empty."""
    net, steps = IDEAL, []
    for ev in events:
        net = apply_event(net, ev)
        steps.append(TraceStep(ev, net, sim.CHURN))
    return Trace(initial=IDEAL, steps=tuple(steps))


LEAVES = "network left the ideal state during repair"
NOT_ENDING = "trace does not end in the ideal state"

# Hand-built traces with the error each raises, or their count.
HAND_BUILT = {
    "starts-ideal-leaves-and-returns": (_hand_built(IDEAL, (19, 33), (19, 7)), LEAVES),
    "starts-ideal-leaves-for-good": (_hand_built(IDEAL, (19, 33)), NOT_ENDING),
    "reaches-ideal-leaves-and-returns": (_hand_built(OFF, (19, 7), (19, 33), (19, 7)), LEAVES),
    "reaches-ideal-and-stays": (_hand_built(OFF, (19, 7), (19, 7)), 1),
    "no-steps": (Trace(initial=IDEAL, steps=()), 0),
    "no-repair-ending-ideal": (_churn_only(Event(EventKind.JOIN_LOOKUP, 10, known=7)), 0),
    "no-repair-ending-non-ideal": (
        _churn_only(Event(EventKind.JOIN_LOOKUP, 10, known=7), Event(EventKind.JOIN, 10)),
        NOT_ENDING,
    ),
}

# The ladder's cap-64 rung: m=12, r=3, join weight 6, six churn steps per member.
LADDER_CONFIG = sim.SimConfig(
    params=RingParams(12, 3), churn_steps=6 * 64, seed=7, join_weight=6.0, max_members=64
)


class TestConvergenceOracle:
    """`convergence_steps` against `sim_oracle.convergence_steps`, which
    judges every network of the repair phase from scratch."""

    @pytest.mark.parametrize(
        "config",
        # LISTING_CONFIGS holds the pinned configs; then every eighth of
        # criterion 7's remaining seeds, and the ladder's cap-64 rung.
        LISTING_CONFIGS + convergence_configs(range(24, 200, 8)) + [LADDER_CONFIG],
        ids=lambda c: f"m{c.params.m}-r{c.params.r}-cap{c.max_members}-seed{c.seed}",
    )
    def test_seeded_runs_match_the_oracle(self, config):
        trace = sim.run_simulation(config)
        assert sim.convergence_steps(trace) == sim_oracle.convergence_steps(trace)

    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_hand_built_traces_match_the_oracle(self, name):
        trace, expected = HAND_BUILT[name]
        if isinstance(expected, int):
            assert sim.convergence_steps(trace) == sim_oracle.convergence_steps(trace) == expected
            return
        with pytest.raises(sim.DivergenceError):
            sim_oracle.convergence_steps(trace)
        with pytest.raises(sim.DivergenceError, match=f"^{expected}$"):
            sim.convergence_steps(trace)

    def test_is_ideal_runs_once_per_trace(self, monkeypatch):
        traces = [sim.run_simulation(config) for config in PINNED_CONFIGS]
        traces += [trace for trace, _ in HAND_BUILT.values()]
        calls = []

        def counting(net, _is_ideal=sim.is_ideal):
            calls.append(net)
            return _is_ideal(net)

        monkeypatch.setattr(sim, "is_ideal", counting)
        for trace in traces:
            calls.clear()
            try:
                sim.convergence_steps(trace)
            except sim.DivergenceError:
                pass
            assert calls == [trace.final()]


class TestTraceStructure:
    def test_snapshots_change_one_node_at_a_time(self):
        trace = run(seed=13, churn=70)
        prev = trace.initial
        for step in trace.steps:
            cur = step.network
            changed_nodes = set()
            for ident in set(prev.nodes) | set(cur.nodes):
                if prev.nodes.get(ident) != cur.nodes.get(ident):
                    changed_nodes.add(ident)
            assert len(changed_nodes) <= 1
            assert len(prev.live ^ cur.live) <= 1
            prev = cur

    def test_lists_always_full_and_entries_ever_tracked(self):
        trace = run(seed=15, churn=70)
        for step in trace.steps:
            net = step.network
            for n in net.live:
                assert len(net.node(n).succ_list) == net.params.r
                assert set(net.node(n).succ_list) <= set(net.nodes)

    def test_base_membership_is_permanent(self):
        trace = run(seed=17, churn=90)
        for step in trace.steps:
            assert trace.initial.base == step.network.base
            assert step.network.base <= step.network.live

    def test_error_constant_on_non_effective_repair_steps(self):
        trace = run(seed=19, churn=60)
        prev = trace.initial
        for step in trace.steps:
            if step.tag == sim.REPAIR:
                changed = any(
                    visible_state(prev, n) != visible_state(step.network, n)
                    for n in step.network.live_idents()
                )
                if not changed:
                    assert total_error(step.network) == total_error(prev)
            prev = step.network


class TestTraceStreaming:
    def test_round_trip_reproduces_snapshots(self, tmp_path):
        trace = run(seed=21, churn=50)
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(trace, str(path), snapshot_interval=7)
        replayed = sim.replay_trace_jsonl(str(path))
        assert replayed.initial == trace.initial
        assert len(replayed.steps) == len(trace.steps)
        for a, b in zip(replayed.steps, trace.steps):
            assert a.network == b.network
            assert a.event == b.event

    def test_summaries_only_on_snapshot_lines(self, tmp_path):
        trace = run(seed=21, churn=50)
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(trace, str(path), snapshot_interval=7)
        replayed = sim.replay_trace_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        snapshots = 0
        for rec, step in zip(lines[1:], replayed.steps, strict=True):
            if "snapshot" not in rec:
                assert set(rec) == {"type", "step", "event", "tag"}
                continue
            snapshots += 1
            net = step.network
            assert rec["totalError"] == total_error(net)
            assert rec["valid"] == conjuncts(net).valid
            assert rec["ideal"] == is_ideal(net)
        assert snapshots == len(trace.steps) // 7 + 1

    def test_negative_snapshot_interval_raises_before_writing(self, tmp_path):
        # Python's modulo would snapshot every third step, and the header
        # would record -3.
        path = tmp_path / "trace.jsonl"
        with pytest.raises(ValueError, match="snapshot interval must be non-negative, got -3"):
            sim.write_trace_jsonl(run(seed=21, churn=10), str(path), snapshot_interval=-3)
        assert not path.exists()

    def test_stranding_event_raises_value_error_naming_its_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(Trace(initial=stranded_member_state(), steps=()), str(path))
        event = {"kind": "StabilizeFromOldSuccessor", "node": 7}
        with path.open("a") as fh:
            fh.write(json.dumps({"type": "step", "step": 1, "event": event, "tag": None}) + "\n")
        with pytest.raises(ValueError, match="^trace line 2: 7 has no live successor"):
            sim.replay_trace_jsonl(str(path))

    def test_retyped_tags_raise_value_error_naming_the_first_step(self, tmp_path):
        # Replayed without the check, these tags gave 0 repair steps, and
        # convergence_steps 0 instead of 3.
        trace = run(seed=3, churn=30)
        assert sim.convergence_steps(trace) == 3
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(trace, str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in lines[1:]:
            rec["tag"] = [5]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        message = r"^trace line 2: tag \[5\] is neither 'churn' nor 'repair'"
        with pytest.raises(ValueError, match=message):
            sim.replay_trace_jsonl(str(path))

    @pytest.mark.parametrize("kind", ["JoinLookup", "Join", "Fail"])
    def test_repair_tagged_churn_event_raises_value_error_naming_its_line(self, tmp_path, kind):
        # Retagged, the event would start the repair phase with a step that
        # changes the live set or a joiner's lookup.
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(run(seed=21, churn=50), str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        index = next(i for i, rec in enumerate(lines[1:], start=1) if rec["event"]["kind"] == kind)
        lines[index]["tag"] = sim.REPAIR
        path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        message = f"^trace line {index + 1}: a {kind} is tagged 'repair'$"
        with pytest.raises(ValueError, match=message):
            sim.replay_trace_jsonl(str(path))

    def test_churn_step_after_a_repair_step_raises_value_error_naming_its_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(run(seed=21, churn=50), str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["tag"] for rec in lines[-2:]] == [sim.REPAIR, sim.REPAIR]
        lines[-1]["tag"] = sim.CHURN
        path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        message = f"^trace line {len(lines)}: a 'churn' step follows a 'repair' step$"
        with pytest.raises(ValueError, match=message):
            sim.replay_trace_jsonl(str(path))

    def test_header_with_huge_m_raises_value_error_naming_line_1(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        initial = network_to_dict(init_network(RingParams(6, 2), [7, 19, 33]))
        initial["m"] = 10**12
        path.write_text(json.dumps({"type": "header", "initial": initial}) + "\n")
        with pytest.raises(ValueError, match="^trace line 1: .*at most 160"):
            sim.replay_trace_jsonl(str(path))

    def test_header_listing_a_node_twice_raises_value_error_naming_line_1(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        initial = network_to_dict(init_network(RingParams(6, 2), [7, 19, 33]))
        initial["nodes"].append(initial["nodes"][0])
        path.write_text(json.dumps({"type": "header", "initial": initial}) + "\n")
        with pytest.raises(ValueError, match="^trace line 1: node 7 is listed twice"):
            sim.replay_trace_jsonl(str(path))

    def test_fail_of_a_base_member_raises_on_replay(self, tmp_path):
        trace = run(seed=21, churn=50)
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(trace, str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        base_member = min(trace.initial.base)
        lines[-1]["event"] = {"kind": "Fail", "node": base_member}
        path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        with pytest.raises(EventNotEnabled, match="stable-base"):
            sim.replay_trace_jsonl(str(path))

    def test_malformed_snapshot_is_rejected(self, tmp_path):
        trace = run(seed=21, churn=50)
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(trace, str(path), snapshot_interval=1)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        live = next(rec for rec in lines[1]["snapshot"]["nodes"] if rec["live"])
        live["succList"] = live["succList"][:1]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        with pytest.raises(ValueError, match="successors"):
            sim.replay_trace_jsonl(str(path))

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (lambda lines: lines[3]["event"].update(node="7"), 4, "node '7' is not an integer"),
            (lambda lines: lines[2].update(event=["Fail", 7]), 3, "is not an object"),
            (lambda lines: lines[2].pop("event"), 3, "no 'event'"),
            (lambda lines: lines[0].pop("initial"), 1, "no 'initial'"),
            (lambda lines: lines.insert(2, "{not json"), 3, "Expecting property name"),
        ],
        ids=["string-node", "list-event", "missing-event", "missing-initial", "not-json"],
    )
    def test_malformed_line_raises_value_error_naming_it(self, tmp_path, edit, line, message):
        trace = run(seed=21, churn=50)
        path = tmp_path / "trace.jsonl"
        sim.write_trace_jsonl(trace, str(path))
        lines = [json.loads(text) for text in path.read_text().splitlines()]
        edit(lines)
        path.write_text("".join(
            (text if isinstance(text, str) else json.dumps(text)) + "\n" for text in lines
        ))
        with pytest.raises(ValueError, match=f"^trace line {line}: .*{message}"):
            sim.replay_trace_jsonl(str(path))

    def test_divergence_guard_config(self, monkeypatch):
        monkeypatch.setattr(sim, "STEP_CEILING", 1)
        with pytest.raises(sim.DivergenceError):
            cfg = sim.SimConfig(
                params=RingParams(6, 2), churn_steps=200, seed=23, max_members=18,
            )
            sim.run_simulation(cfg)
