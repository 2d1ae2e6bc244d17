"""Tests of the benchmark's own output checks, statistics and tracer.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from chordcheck import checker, events, sim  # noqa: E402
from chordcheck.ident import RingParams  # noqa: E402
from chordcheck.netstate import NodeState, init_network  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def ideal():
    return init_network(RingParams(6, 2), (7, 19, 33))


@pytest.fixture
def simulated():
    cfg = sim.SimConfig(params=RingParams(6, 3), churn_steps=80, seed=3, max_members=14)
    return sim.run_simulation(cfg)


def test_percentile_gives_p95_of_known_list():
    values = list(range(200, 0, -1))
    assert checks.percentile(values, 0.95) == 190
    assert sum(1 for v in values if v > checks.percentile(values, 0.95)) == 10
    assert checks.percentile(values, 0.5) == 100
    assert checks.percentile([4.0], 0.95) == 4.0


def test_round_metrics_give_median_and_p95_of_small_runs():
    import workloads
    from worker import round_metrics

    outs = [workloads.Outcome("small", {"sim_run": ms / 1000}, {"rung": "small"})
            for ms in range(200, 0, -1)]
    metrics = round_metrics({"outcomes": outs})
    assert metrics["sim_run_p50_ms"] == pytest.approx(100.5)
    assert metrics["sim_run_p95_ms"] == pytest.approx(190)
    assert metrics["verdict_s"] == pytest.approx(sum(range(1, 201)) / 1000)


def test_sampler_gauges_work_between_calls_and_restores_the_handler():
    import signal
    import time

    import reference

    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.8:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.durations) >= 2
    assert 0 < sampler.busy(t0, t1) < t1 - t0
    assert sampler.factor(t0, t1) > 0
    # An operation with no sample near it is gauged by all samples.
    assert sampler.factor(t1 + 10, t1 + 11) == pytest.approx(
        reference.QUIET_UNIT_S * len(sampler.durations) / sum(sampler.durations)
    )


def test_ideal_check_accepts_ideal_networks(ideal, simulated):
    assert checks.ideal_reason(ideal) is None
    assert checks.ideal_reason(simulated.final()) is None


def test_ideal_check_rejects_wrong_pred(ideal):
    broken = ideal.with_node(replace(ideal.node(19), pred=33))
    assert "pred" in checks.ideal_reason(broken)


def test_ideal_check_rejects_stale_list(ideal):
    # 25 joins with a correct list and pred, but 7 and 19 still skip it.
    joined = ideal.with_node(NodeState(25, (33, 7), pred=19), live=True)
    assert checks.ideal_reason(joined) == "member 7 lists [19, 33], expected [19, 25]"


def test_ideal_check_rejects_rings_too_small_for_their_lists(ideal):
    assert "cannot fill" in checks.ideal_reason(ideal.without_member(33))


def test_repair_round_keeps_ideal_and_flags_repairable(ideal):
    assert checks.repair_round_reason(ideal, events) is None
    broken = ideal.with_node(replace(ideal.node(19), pred=33))
    assert checks.repair_round_reason(broken, events) is not None


def test_budget_check():
    assert checks.budget_reason(5, 5) is None
    assert checks.budget_reason(6, 5) is not None


def test_replay_check_rejects_a_differing_snapshot(simulated, tmp_path):
    path = tmp_path / "trace.jsonl"
    sim.write_trace_jsonl(simulated, str(path), 10)
    replayed = sim.replay_trace_jsonl(str(path))
    assert checks.replay_reason(simulated, replayed) is None
    steps = list(replayed.steps)
    steps[3] = replace(steps[3], network=simulated.initial)
    assert "step 4" in checks.replay_reason(simulated, replace(replayed, steps=tuple(steps)))
    assert "steps" in checks.replay_reason(simulated, replace(replayed, steps=replayed.steps[:-1]))


def _states(seed, count=40):
    return checker.sample_valid_states(RingParams(6, 2), 8, count, seed)


def test_canary_check_fails_when_the_canary_is_not_caught():
    uncaught = checker.check_preservation(_states(5))
    assert uncaught.passed
    assert "not caught" in checks.canary_verdict(uncaught)
    caught = checker.check_preservation(
        _states(5), faults=events.FaultFlags(short_join=True), stop_at=1
    )
    assert checks.canary_verdict(caught) is None


def test_lemma_check_needs_zero_violations_over_the_expected_states():
    report = checker.check_progress(_states(6, 30))
    assert checks.lemma_verdict(report, 30) is None
    assert "expected 31" in checks.lemma_verdict(report, 31)
    report.add_violation(None, None, "x")
    assert "1 violations" in checks.lemma_verdict(report, 30)
    capped = checker.CheckReport(lemma="L", states_checked=3, info={"capped": True})
    assert "cap" in checks.lemma_verdict(capped, 3)


def test_explore_check(ideal):
    report = checker.explore_reachable(ideal, 1, 0, 3, joiners=(10,))
    assert checks.explore_verdict(report) is None
    for info, expected in (
        ({"truncated": True}, "truncated"),
        ({"transitions": report.info["states"] - 2}, "transitions"),
    ):
        bad = checker.CheckReport(lemma="L", info={**report.info, **info})
        assert expected in checks.explore_verdict(bad)
    report.add_violation(ideal, None, "x")
    assert "violations" in checks.explore_verdict(report)


def test_tracer_counts_spans_and_restores_functions():
    import chordcheck.invariants as invariants

    original = checker.is_valid
    tracer = Tracer()
    tracer.install()
    try:
        assert checker.is_valid is not original
        states = list(checker.enumerate_valid_states(RingParams(3, 2), 3))
        report = checker.check_progress(iter(states))
    finally:
        tracer.uninstall()
    assert checker.is_valid is original and invariants.is_valid is original
    assert checker.check_preservation.__defaults__[1] is original

    candidates = tracer.calls_under("invariants.is_valid", "checker.enumerate_valid_states")
    assert tracer.yielded("checker.enumerate_valid_states") == len(states) == report.states_checked
    assert candidates >= len(states) > 0
    assert tracer.count("ident.between") > 0
    assert tracer.self_time("invariants.conjuncts") > 0
    assert tracer.count("invariants.conjuncts") >= candidates
    assert all(t >= 0 for t in tracer.self_s)
    # Every span ends no earlier than it starts and inside its parent.
    for i in range(tracer.span_count):
        assert tracer.end[i] >= tracer.start[i]
        p = tracer.parent[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] and tracer.end[i] <= tracer.end[p]


def test_run_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sampled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
