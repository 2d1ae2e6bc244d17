"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 4 asserts that every effective repair event strictly decreases the
per-level error vector (`measure.error_vector`) in lexicographic order, and
that the error is zero exactly on ideal states. Level 1 sums the predecessor
and first-successor errors, which depend only on a member's own pointers and
the live set; rectify and adoption strictly lower the executor's share. Level
k sums the k-th successor scores; a stabilize that first changes entry j
fixes it and can only unsync entries past j of members whose head is the
executor. The scalar total (the vector's sum) is not a ranking function: an
adoption can leave it flat or raise it (see TestMeasureCrossTerm in
test_measure.py).
"""

import json
import time
from pathlib import Path

from chordcheck.ident import RingParams
from chordcheck.netstate import network_to_json
from chordcheck.events import (
    Event,
    EventKind,
    FaultFlags,
    apply_rectify,
    apply_stabilize_from_new_successor,
    apply_stabilize_from_old_successor,
    apply_event,
    is_enabled,
)
from chordcheck.invariants import (
    conjuncts,
    eight_conjunct_trial,
    is_valid,
    six_conjunct_trial,
    trial_predicates,
)
from chordcheck.measure import total_error, visible_state
from chordcheck.topology import is_ideal
from chordcheck import checker, cli, sim

from conftest import convergence_configs, network_from_json
from measure_oracle import check_executor_local_monotonicity

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

EXHAUSTIVE = RingParams(m=3, r=2)
RANDOM_SAMPLES = 50_000  # per r in {2, 3}: 1e5 total
RANDOM_MAX_NODES = 9


def _report(criterion: int, ok: bool, summary: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {summary}", flush=True)
    return ok


def _random_sources(seed_offset: int = 0):
    for r in (2, 3):
        yield r, checker.sample_valid_states(
            RingParams(6, r), RANDOM_MAX_NODES, RANDOM_SAMPLES, seed=100 + r + seed_offset
        )


def test_criterion_1_figure_replays():
    results = []
    for name in ("fig2.json", "fig3.json", "fig4.json"):
        t0 = time.time()
        report = cli.replay_scenario(cli.load_scenario(str(SCENARIOS / name)))
        elapsed = time.time() - t0
        results.append((name, report.ok, elapsed))
    ok = all(r[1] and r[2] < 1.0 for r in results)
    detail = ", ".join(f"{n} {'ok' if good else 'BAD'} {dt*1000:.0f}ms" for n, good, dt in results)
    assert _report(1, ok, f"figure replays: {detail}")


def test_criterion_2_invariant_preservation():
    t0 = time.time()
    exh = checker.check_preservation(
        checker.enumerate_valid_states(EXHAUSTIVE, 4),
        bounds={"n": 4, "r": 2, "mode": "exhaustive"},
    )
    t_exh = time.time() - t0
    rand_reports = []
    t0 = time.time()
    for r, states in _random_sources():
        rand_reports.append((r, checker.check_preservation(states)))
    t_rand = time.time() - t0
    ok = (
        exh.passed
        and all(rep.passed for _, rep in rand_reports)
        and t_exh < 600
        and t_rand < 300
    )
    assert _report(
        2,
        ok,
        f"preservation: exhaustive {exh.states_checked} states/{exh.info['cases']} cases "
        f"({t_exh:.0f}s), randomized "
        + ", ".join(f"r={r} {rep.states_checked} states" for r, rep in rand_reports)
        + f" ({t_rand:.0f}s), violations "
        f"{exh.violation_count + sum(rep.violation_count for _, rep in rand_reports)}",
    )


def test_criterion_3_progress():
    exh = checker.check_progress(checker.enumerate_valid_states(EXHAUSTIVE, 4))
    rand_ok = True
    total = 0
    for r, states in _random_sources(seed_offset=10):
        rep = checker.check_progress(states)
        rand_ok = rand_ok and rep.passed
        total += rep.states_checked
    ok = exh.passed and rand_ok
    assert _report(
        3,
        ok,
        f"progress: exhaustive {exh.states_checked} states, randomized {total} states, "
        f"improvability and ideal-quiescence hold" if ok else "progress violations found",
    )


def test_criterion_4_error_monotonicity():
    exh = checker.check_monotonicity(checker.enumerate_valid_states(EXHAUSTIVE, 4))
    rand_reports = []
    for r, states in _random_sources(seed_offset=20):
        rand_reports.append((r, checker.check_monotonicity(states)))
    zero_char_ok = not any(
        "zero-error mismatch" in v.detail
        for rep in [exh] + [rep for _, rep in rand_reports]
        for v in rep.violations
    )
    violations = exh.violation_count + sum(r.violation_count for _, r in rand_reports)
    ok = violations == 0 and zero_char_ok
    example = ""
    if exh.violations:
        v = exh.violations[0]
        example = (
            f"; first counterexample: {v.event.kind.value}({v.event.node}) with {v.detail}"
        )
    _report(
        4,
        ok,
        f"monotonicity: {violations} strict-decrease violations "
        f"(zero-error<=>ideal {'holds' if zero_char_ok else 'BROKEN'}){example}",
    )
    assert ok, (
        "an effective repair event did not strictly decrease the per-level error "
        "vector lexicographically, or zero error did not coincide with ideality; "
        "see the argument in the test module docstring."
    )


def test_criterion_4_supplement_local_monotonicity_and_zero_characterization():
    # The parts of the measure argument that do hold, checked at the same bounds.
    states = list(checker.enumerate_valid_states(EXHAUSTIVE, 4))
    local = check_executor_local_monotonicity(iter(states))
    zero_ok = all((is_ideal(n)) == (total_error(n) == 0) for n in states)
    ok = local.passed and zero_ok
    assert _report(
        4,
        ok,
        f"supplement: executor-local strict decrease over {local.states_checked} states, "
        f"error=0 iff ideal",
    )


def test_criterion_5_implications():
    t0 = time.time()
    exh = checker.check_implications(checker.enumerate_raw_list_states(EXHAUSTIVE, 4))
    rand_total = 0
    rand_ok = True
    for r in (2, 3):
        rep = checker.check_implications(
            checker.sample_raw_states(RingParams(6, r), RANDOM_MAX_NODES, RANDOM_SAMPLES, seed=30 + r)
        )
        rand_ok = rand_ok and rep.passed
        rand_total += rep.states_checked
    ok = exh.passed and rand_ok
    assert _report(
        5,
        ok,
        f"implications: stable-base coverage forces clean lists over "
        f"{exh.states_checked} exhaustive + {rand_total} random states ({time.time()-t0:.0f}s)",
    )


def test_criterion_6_trial_invariant_counterexamples():
    # Exhaustive at the smallest scope: every trial state over four identifiers.
    params = RingParams(3, 2)
    t0 = time.time()
    wrap = checker.search_trial_counterexample("six-conjunct", params, 4, require_break="orderedRing")
    t_wrap = time.time() - t0
    t0 = time.time()
    dates = checker.search_trial_counterexample(
        "eight-conjunct", params, 4, require_break="noConflictingDates"
    )
    t_dates = time.time() - t0

    ok = wrap is not None and dates is not None and t_wrap < 600 and t_dates < 600
    schema_ok = False
    if ok:
        net6, ev6 = wrap
        post6 = apply_event(net6, ev6)
        net8, ev8 = dates
        post8 = apply_event(net8, ev8)
        schema_ok = (
            six_conjunct_trial(net6)
            and not conjuncts(post6).ordered_ring
            and eight_conjunct_trial(net8)
            and not trial_predicates(post8).no_conflicting_dates
            and ev8.kind in (
                EventKind.FAIL,
                EventKind.STABILIZE_FROM_OLD_SUCCESSOR,
                EventKind.STABILIZE_FROM_NEW_SUCCESSOR,
            )
        )
    ok = ok and schema_ok
    assert _report(
        6,
        ok,
        f"negative results: ring-disordering counterexample in {t_wrap:.1f}s, "
        f"date-conflict counterexample in {t_dates:.1f}s",
    )


def _run_persistence_check(net, events=100):
    # Schedule repair events round-robin on a quiescent network; nothing may change.
    snapshot = {n: visible_state(net, n) for n in net.live_idents()}
    applied = 0
    while applied < events:
        for n in net.live_idents():
            net = apply_stabilize_from_old_successor(net, n)
            applied += 1
            if is_enabled(net, Event(EventKind.STABILIZE_FROM_NEW_SUCCESSOR, n)):
                return False, applied
            head = net.node(n).succ_list[0]
            if is_enabled(net, Event(EventKind.RECTIFY, head, new_pred=n)):
                net = apply_rectify(net, head, n)
                applied += 1
            if applied >= events:
                break
    still = {n: visible_state(net, n) for n in net.live_idents()}
    return still == snapshot and is_ideal(net), applied


def test_criterion_7_convergence_theorem():
    t0 = time.time()
    failures = []
    for cfg in convergence_configs():
        seed = cfg.seed
        trace = sim.run_simulation(cfg)
        final = trace.final()
        if not is_ideal(final):
            failures.append((seed, "did not reach ideal"))
            continue
        steps = sim.convergence_steps(trace)
        bound = sim.phase2_initial_error(trace)
        if steps > bound:
            failures.append((seed, f"convergence steps {steps} > initial error {bound}"))
            continue
        persists, _ = _run_persistence_check(final)
        if not persists:
            failures.append((seed, "did not remain ideal"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 600
    assert _report(
        7,
        ok,
        f"convergence: 200/200 seeded runs reached and kept the ideal state within "
        f"their error budget ({elapsed:.0f}s)" if ok else f"failures: {failures[:5]}",
    )


def test_criterion_8_fault_injection_canaries():
    source = lambda seed: checker.sample_valid_states(  # noqa: E731
        RingParams(6, 2), 8, 5000, seed=seed
    )
    adoption = checker.check_preservation(
        source(40), faults=FaultFlags(unchecked_adoption=True), stop_at=1
    )
    join = checker.check_preservation(
        source(41), faults=FaultFlags(short_join=True), stop_at=1
    )
    ok = (not adoption.passed) and (not join.passed)
    detail = []
    if adoption.violations:
        v = adoption.violations[0]
        detail.append(f"dead adoption caught at {v.event.kind.value}({v.event.node})")
    if join.violations:
        v = join.violations[0]
        detail.append(f"stubby join caught at {v.event.kind.value}({v.event.node})")
    assert _report(8, ok, "canaries: " + "; ".join(detail))


def test_criterion_9_serialization_round_trip():
    count = 0
    for r in (2, 3):
        for net in checker.sample_valid_states(RingParams(6, r), 9, 5000, seed=50 + r):
            assert network_from_json(network_to_json(net)) == net
            count += 1

    trace = sim.run_simulation(
        sim.SimConfig(params=RingParams(6, 2), churn_steps=60, seed=51, max_members=14)
    )
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "trace.jsonl")
        sim.write_trace_jsonl(trace, path, snapshot_interval=9)
        replayed = sim.replay_trace_jsonl(path)
        assert replayed.initial == trace.initial
        assert [s.network for s in replayed.steps] == [s.network for s in trace.steps]

    for name in ("fig2.json", "fig3.json", "fig4.json"):
        a = cli.load_scenario(str(SCENARIOS / name))
        b = cli.load_scenario(str(SCENARIOS / name))
        assert a == b

    assert _report(9, True, f"round-trips: {count} networks bit-exact, trace and scenarios stable")
