"""One benchmark process: set up a workload, run it, and report the result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process prints `READY` once set-up is done (the interpreter, importing
chordcheck, building parameters and initial networks), then, unless
`--setup-only`, one `RESULT <json>` line. bench/run.py starts it and reads
both lines; it is not meant to be run by hand.

Untraced (`--trace 0`), it repeats whole rounds while another round fits in
S seconds, at least one, and reports the median over rounds of each timing,
scaled to the quiet host by reference.Sampler. Traced (`--trace 1`), it runs
exactly one untraced round, then the same round with the tracer installed,
so that the counts repeat exactly for a seed; the wall-time difference of
the two rounds is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_round(ops, sampler=None):
    """Run the operations once. With a sampler, scale each one to the quiet host.

    An operation's scale is the sampler's gauge around it times the share of
    its wall time that was not the sampler's own.
    """
    outcomes, spans = [], []
    t0 = time.perf_counter()
    for name, fn in ops:
        a = time.perf_counter()
        try:
            out = fn()
        except Exception as err:  # an operation that raises counts as failed
            out = workloads.Outcome(name, {}, {}, f"{type(err).__name__}: {err}", raised=True)
        outcomes.append(out)
        spans.append((a, time.perf_counter()))
    t1 = time.perf_counter()
    rnd = {"wall": t1 - t0, "outcomes": outcomes, "hostFactor": None}
    if sampler is not None:
        rnd["wall"] -= sampler.busy(t0, t1)
        rnd["hostFactor"] = sampler.factor(t0, t1)
        for out, (a, b) in zip(outcomes, spans):
            out.scale = sampler.factor(a, b) * (1 - sampler.busy(a, b) / (b - a))
    return rnd


def round_metrics(rnd) -> dict:
    """Timings of one round, scaled to the quiet host; `verdict_wall_s` is unscaled."""
    outs = rnd["outcomes"]
    metrics = {
        "verdict_s": sum(o.seconds * o.scale for o in outs),
        "verdict_wall_s": sum(o.seconds for o in outs),
    }
    for o in outs:
        for phase, dt in o.phases.items():
            if phase != "sim_run":
                metrics[f"{phase}_s"] = metrics.get(f"{phase}_s", 0.0) + dt * o.scale
    runs = [o.phases["sim_run"] * o.scale * 1000 for o in outs if "sim_run" in o.phases]
    if runs:
        metrics["sim_run_p50_ms"] = statistics.median(runs)
        metrics["sim_run_p95_ms"] = checks.percentile(runs, 0.95)
    rungs: dict[str, list] = {}
    for o in outs:
        if o.counts.get("rung", "small") != "small":
            acc = rungs.setdefault(o.counts["rung"], [0.0, 0])
            acc[0] += o.counts["runSeconds"] * o.scale
            acc[1] += o.counts["steps"]
    for rung, (secs, steps) in rungs.items():
        metrics[f"step_ms.{rung}"] = 1000 * secs / steps
    return metrics


def verdict_counts(outs) -> dict:
    """Work done by one round: the counts a faster run must reproduce."""
    totals = {"states": 0, "cases": 0, "violations": 0, "capped": 0, "truncated": 0,
              "transitions": 0}
    kinds = dict.fromkeys(workloads.EVENT_KINDS, 0)
    applied = effective = 0
    for o in outs:
        c = o.counts
        for key in totals:
            totals[key] += int(c.get(key) or 0)
        for kind, n in c.get("events", {}).items():
            kinds[kind] += n
        applied += c.get("repairApplied", 0)
        effective += c.get("repairEffective", 0)
    totals["simEvents"] = kinds
    totals["repairApplied"] = applied
    totals["repairEffective"] = effective
    return totals


def per_layer(tracer: Tracer, untraced, traced) -> dict:
    """Per-layer metrics from the traced round, timings of the untraced one."""
    outs = traced["outcomes"]

    def ratio(a, b):
        return a / b if b else 0.0

    def report_total(prefix, key):
        return sum(int(o.counts.get(key) or 0) for o in outs if o.op.startswith(prefix))

    m = {}
    candidates = tracer.calls_under("invariants.is_valid", "checker.enumerate_valid_states")
    sampled = tracer.calls_under("invariants.is_valid", "checker.sample_valid_states")
    m["checker.enumerate.candidates"] = candidates
    m["checker.enumerate.yield"] = ratio(tracer.yielded("checker.enumerate_valid_states"), candidates)
    m["checker.enumerate_valid_states.self_s"] = tracer.self_time("checker.enumerate_valid_states")
    m["checker.sample.yield"] = ratio(tracer.yielded("checker.sample_valid_states"), sampled)
    m["checker.preservation.cases"] = report_total("preservation", "cases") + report_total("canary", "cases")
    m["checker.monotonicity.cases"] = report_total("monotonicity", "cases")
    states = report_total("explore", "states")
    transitions = report_total("explore", "transitions")
    m["checker.explore.states"] = states
    m["checker.explore.transitions"] = transitions
    # Each exploration's start state is reached without a transition.
    explorations = sum(1 for o in outs if o.op.startswith("explore"))
    m["checker.explore.new_state_ratio"] = ratio(states - explorations, transitions)

    for name in ("invariants.conjuncts", "topology.ring_members", "topology.is_ideal",
                 "topology.lookup_succ", "measure.error_vector", "measure.effective_enabled",
                 "events.apply_event", "events.is_enabled", "events.enabled_events",
                 "events.fail_guard_holds", "netstate.Network.with_node",
                 "netstate.Network.canonical_key"):
        m[f"{name}.calls"] = tracer.count(name)
        m[f"{name}.self_s"] = tracer.self_time(name)
    for name in ("invariants.skips", "topology.best_successor_map", "measure.pointer_error",
                 "ident.between", "ident.clockwise_rank"):
        m[f"{name}.calls"] = tracer.count(name)
    for name in ("netstate.network_to_dict", "netstate.network_from_dict", "sim.run_simulation",
                 "sim.convergence_steps", "sim.write_trace_jsonl", "sim.replay_trace_jsonl"):
        m[f"{name}.self_s"] = tracer.self_time(name)

    ref = round_metrics(untraced)
    for cap, _ in workloads.Churn.LADDER:
        m[f"sim.step_ms.cap{cap}"] = ref.get(f"step_ms.cap{cap}", 0.0)
    counts = verdict_counts(outs)
    for kind in workloads.EVENT_KINDS:
        m[f"sim.events.{kind}"] = counts["simEvents"][kind]
    m["sim.repair.effective_ratio"] = ratio(counts["repairEffective"], counts["repairApplied"])

    for phase in ("preservation_s", "monotonicity_s", "progress_s", "canary_s", "simulate_s",
                  "sim_run_p50_ms", "sim_run_p95_ms", "trace_io_s", "explore_s"):
        m[f"phase.{phase}"] = ref.get(phase, 0.0)
    m["trace.spans"] = tracer.span_count
    m["trace.overhead_s"] = traced["wall"] - untraced["wall"]
    m["trace.overhead_ratio"] = ratio(traced["wall"], untraced["wall"])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT)
    ops = wl.operations()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    t_start = time.perf_counter()
    rounds = []
    layer = None
    if args.trace:
        with reference.Sampler() as sampler:
            untraced = run_round(ops, sampler)
        # The traced round runs without the sampler, whose signal would land inside spans.
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(ops)
        finally:
            tracer.uninstall()
        rounds = [untraced, traced]
        layer = per_layer(tracer, untraced, traced)
    else:
        with reference.Sampler() as sampler:
            while True:
                rounds.append(run_round(ops, sampler))
                elapsed = time.perf_counter() - t_start
                if elapsed + statistics.median(r["wall"] for r in rounds) > args.seconds:
                    break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = [o for r in rounds for o in r["outcomes"]]
    wl.final_checks(outcomes)

    per_round = [round_metrics(r) for r in rounds]
    metrics = {}
    if not args.trace:
        for key in per_round[0]:
            metrics[key] = statistics.median(pr[key] for pr in per_round)
        metrics["peak_rss_mb"] = peak_rss_mb
    if layer is not None and args.spans_out:
        tracer.write(args.spans_out)

    result = {
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.error),
        "wrong": sum(1 for o in outcomes if o.error and not o.raised),
        "failures": [f"{o.op}: {o.error}" for o in outcomes if o.error][:20],
        "metrics": metrics,
        "perLayer": layer,
        "rounds": [
            {"wall": r["wall"], "hostFactor": r["hostFactor"], "metrics": pr,
             "verdicts": verdict_counts(r["outcomes"]),
             "operations": [{"op": o.op, "phases": o.phases, "scale": o.scale, "counts": o.counts,
                             "error": o.error}
                            for o in r["outcomes"]]}
            for r, pr in zip(rounds, per_round)
        ],
        "inputs": wl.describe(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
