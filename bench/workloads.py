"""The four workloads. Each round runs the same operations on inputs made from the seed.

An operation is one call that produces a verdict: a lemma-check command, a
fault canary, a simulation (run, convergence count, and trace write and
replay where present) or an exploration. Each operation returns an `Outcome`
with its timed phases, its verdict counts and, if a check failed, the reason.
The benchmark's own checks run between timed calls and are not timed.

chordcheck is always reached through module attributes (`checker.x`, not a
name imported from it), so the tracer's wrappers are the functions called.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from chordcheck import checker, events, sim
from chordcheck.ident import RingParams
from chordcheck.netstate import init_network

import checks

EVENT_KINDS = [k.value for k in events.EventKind]


@dataclass
class Outcome:
    op: str
    phases: dict  # phase name -> seconds of timed calls
    counts: dict = field(default_factory=dict)
    error: str | None = None
    raised: bool = False  # the call raised, as opposed to a check rejecting its output
    scale: float = 1.0  # host-speed factor from the reference points around the call

    @property
    def seconds(self) -> float:
        return sum(self.phases.values())


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _report_counts(report) -> dict:
    return {
        "states": report.states_checked,
        "cases": report.info.get("cases"),
        "violations": report.violation_count,
        "capped": bool(report.info.get("capped", False)),
        "truncated": bool(report.info.get("truncated", False)),
    }


def _derive(seed: int, *parts) -> int:
    """A sub-seed for one input, fixed by the run seed and the input's place."""
    return random.Random(f"{seed}:" + ":".join(map(str, parts))).randrange(2**31)


class Workload:
    name = ""

    def operations(self):
        """(operation name, callable returning an Outcome) for one round."""
        raise NotImplementedError

    def final_checks(self, outcomes) -> None:
        """Checks made once per run, after the timed rounds; they may set `error`."""

    def describe(self) -> dict:
        raise NotImplementedError


# --- exhaustive -------------------------------------------------------------------


class Exhaustive(Workload):
    """Lemma checks over every valid network of m=3, r=2 on at most 4 identifiers."""

    name = "exhaustive"
    M, R, MAX_NODES = 3, 2, 4

    def __init__(self, seed: int):
        # Enumeration takes no seed: the same states come out on every run.
        self.params = RingParams(self.M, self.R)
        self.bounds = {"n": self.MAX_NODES, "r": self.R, "mode": "exhaustive"}

    def operations(self):
        return [
            ("preservation", lambda: self._command("preservation", checker.check_preservation)),
            ("monotonicity", lambda: self._command("monotonicity", checker.check_monotonicity)),
        ]

    def _command(self, phase, check):
        # As `chordcheck check ... --mode exhaustive` does, each command generates its own states.
        report, dt = _timed(
            check, checker.enumerate_valid_states(self.params, self.MAX_NODES), bounds=self.bounds
        )
        # The state count is checked once per run, against the brute-force count.
        return Outcome(phase, {phase: dt}, _report_counts(report),
                       checks.lemma_verdict(report, report.states_checked))

    def final_checks(self, outcomes) -> None:
        # The covered state count must equal the unpruned generate-and-filter count.
        oracle = checker.count_valid_states_bruteforce(self.params, self.MAX_NODES)
        self.oracle_count = oracle
        for out in outcomes:
            if out.error is None and out.counts["states"] != oracle:
                out.error = f"{out.op}: covered {out.counts['states']} states, brute force counts {oracle}"

    def describe(self) -> dict:
        return {"m": self.M, "r": self.R, "maxNodes": self.MAX_NODES,
                "bruteForceCount": getattr(self, "oracle_count", None)}


# --- sampled -----------------------------------------------------------------------


class Sampled(Workload):
    """Lemma checks over constructively sampled valid networks, plus two fault canaries."""

    name = "sampled"
    M, MAX_NODES, SAMPLES = 6, 9, 1000
    CANARY_MAX_NODES, CANARY_SAMPLES = 8, 5000
    COMMANDS = (
        ("preservation", "check_preservation"),
        ("progress", "check_progress"),
        ("monotonicity", "check_monotonicity"),
    )
    CANARIES = ("unchecked_adoption", "short_join")

    def __init__(self, seed: int):
        self.seeds = {
            f"{phase}.r{r}": _derive(seed, "sampled", phase, r)
            for r in (2, 3)
            for phase, _ in self.COMMANDS
        }
        self.seeds.update({f"canary.{c}": _derive(seed, "canary", c) for c in self.CANARIES})

    def operations(self):
        ops = []
        for r in (2, 3):
            for phase, fn in self.COMMANDS:
                ops.append((f"{phase}.r{r}", lambda phase=phase, fn=fn, r=r: self._command(phase, fn, r)))
        for flag in self.CANARIES:
            ops.append((f"canary.{flag}", lambda flag=flag: self._canary(flag)))
        return ops

    def _command(self, phase, fn, r):
        # Each command samples its own states, as `chordcheck check ... --mode random` does.
        params = RingParams(self.M, r)
        seed = self.seeds[f"{phase}.r{r}"]
        bounds = {"n": self.MAX_NODES, "r": r, "mode": "random", "seed": seed}
        states = checker.sample_valid_states(params, self.MAX_NODES, self.SAMPLES, seed)
        report, dt = _timed(getattr(checker, fn), states, bounds=bounds)
        return Outcome(f"{phase}.r{r}", {phase: dt}, _report_counts(report),
                       checks.lemma_verdict(report, self.SAMPLES))

    def _canary(self, flag):
        states = checker.sample_valid_states(
            RingParams(self.M, 2), self.CANARY_MAX_NODES, self.CANARY_SAMPLES,
            self.seeds[f"canary.{flag}"],
        )
        report, dt = _timed(
            checker.check_preservation, states, faults=events.FaultFlags(**{flag: True}), stop_at=1
        )
        return Outcome(f"canary.{flag}", {"canary": dt}, _report_counts(report),
                       checks.canary_verdict(report))

    def describe(self) -> dict:
        return {"m": self.M, "maxNodes": self.MAX_NODES, "samplesPerCommand": self.SAMPLES,
                "canaryMaxNodes": self.CANARY_MAX_NODES, "seeds": self.seeds}


# --- churn ---------------------------------------------------------------------------


class Churn(Workload):
    """Criterion 7's 200 small simulations, then a ladder of join-heavy runs of growing size.

    Every fourth small run also writes its trace and replays it. The ladder
    rungs run long enough to fill their member cap, and the smaller rungs hold
    several runs each, because one run's time varies by 10-15% with its seed.
    """

    name = "churn"
    SMALL_RUNS = 200
    TRACE_EVERY = 4
    LADDER_M, LADDER_R, JOIN_WEIGHT = 12, 3, 6.0
    LADDER = ((16, 4), (32, 2), (64, 1))  # (member cap, runs at that cap)
    CHURN_PER_MEMBER = 6
    SNAPSHOT_INTERVAL = 50

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        base = _derive(seed, "churn", "small")
        # Criterion 7's mix of r, churn length and member cap, on seeds from the run seed.
        self.small = [
            sim.SimConfig(
                params=RingParams(6, 2 + i % 2),
                churn_steps=50 + (i * 97) % 151,
                seed=base + i,
                max_members=12 + i % 9,
            )
            for i in range(self.SMALL_RUNS)
        ]
        self.ladder = [
            (cap, sim.SimConfig(
                params=RingParams(self.LADDER_M, self.LADDER_R),
                churn_steps=self.CHURN_PER_MEMBER * cap,
                seed=_derive(seed, "churn", cap, k),
                join_weight=self.JOIN_WEIGHT,
                max_members=cap,
            ))
            for cap, runs in self.LADDER
            for k in range(runs)
        ]

    def operations(self):
        ops = [(f"small.{i}", lambda i=i, cfg=cfg: self._simulate("small", cfg, i % self.TRACE_EVERY == 0))
               for i, cfg in enumerate(self.small)]
        ops += [(f"cap{cap}.{cfg.seed}", lambda cap=cap, cfg=cfg: self._simulate(f"cap{cap}", cfg, False))
                for cap, cfg in self.ladder]
        return ops

    def _simulate(self, rung, cfg, with_trace):
        trace, t_run = _timed(sim.run_simulation, cfg)
        effective, t_conv = _timed(sim.convergence_steps, trace)
        phase = "sim_run" if rung == "small" else "simulate"
        phases = {phase: t_run + t_conv}
        kinds = dict.fromkeys(EVENT_KINDS, 0)
        for step in trace.steps:
            kinds[step.event.kind.value] += 1
        final = trace.final()
        counts = {
            "rung": rung,
            "seed": cfg.seed,
            "members": final.size,
            "steps": len(trace.steps),
            "runSeconds": t_run,
            "repairApplied": sum(1 for s in trace.steps if s.tag == sim.REPAIR),
            "repairEffective": effective,
            "events": kinds,
        }
        error = (
            checks.ideal_reason(final)
            or checks.budget_reason(effective, sim.phase2_initial_error(trace))
            or checks.repair_round_reason(final, events)
        )
        if with_trace and error is None:
            path = self.out_dir / f"trace-{os.getpid()}-{cfg.seed}.jsonl"
            try:
                _, t_write = _timed(sim.write_trace_jsonl, trace, str(path), self.SNAPSHOT_INTERVAL)
                replayed, t_replay = _timed(sim.replay_trace_jsonl, str(path))
            finally:
                path.unlink(missing_ok=True)
            phases["trace_io"] = t_write + t_replay
            counts["traceWriteSeconds"] = t_write
            error = checks.replay_reason(trace, replayed)
        return Outcome(rung, phases, counts, error)

    def describe(self) -> dict:
        return {
            "small": {"runs": self.SMALL_RUNS, "m": 6, "firstSeed": self.small[0].seed,
                      "traceEvery": self.TRACE_EVERY, "snapshotInterval": self.SNAPSHOT_INTERVAL},
            "ladder": [{"cap": cap, "m": cfg.params.m, "r": cfg.params.r,
                        "churnSteps": cfg.churn_steps, "joinWeight": cfg.join_weight,
                        "seed": cfg.seed} for cap, cfg in self.ladder],
        }


# --- explore ------------------------------------------------------------------------------


class Explore(Workload):
    """Bounded breadth-first exploration from an ideal base ring, at r=2 and r=3."""

    name = "explore"
    M = 6
    # r, base identifiers, joiners, join budget, fail budget, depth bound
    CONFIGS = (
        (2, (7, 19, 33), (10, 40, 55), 3, 1, 10),
        (3, (3, 19, 35, 51), (10, 40), 2, 2, 12),
    )

    def __init__(self, seed: int):
        # The seed rotates every identifier around the ring. Rotation keeps the
        # circular order, so each seed explores the same state graph under other names.
        space = 2**self.M
        self.offset = _derive(seed, "explore") % space
        def rot(ids):
            return tuple(sorted((i + self.offset) % space for i in ids))

        self.runs = [
            (r, init_network(RingParams(self.M, r), rot(base)), rot(joiners), joins, fails, depth)
            for r, base, joiners, joins, fails, depth in self.CONFIGS
        ]

    def operations(self):
        return [(f"explore.r{run[0]}", lambda run=run: self._explore(*run)) for run in self.runs]

    def _explore(self, r, net, joiners, joins, fails, depth):
        report, dt = _timed(checker.explore_reachable, net, joins, fails, depth, joiners=joiners)
        counts = _report_counts(report)
        counts["transitions"] = report.info["transitions"]
        return Outcome(f"explore.r{r}", {"explore": dt}, counts, checks.explore_verdict(report))

    def describe(self) -> dict:
        return {"m": self.M, "rotation": self.offset, "runs": [
            {"r": r, "base": sorted(net.base), "joiners": list(j), "joins": jn,
             "fails": f, "depth": d} for r, net, j, jn, f, d in self.runs]}


def make(name: str, seed: int, out_dir: Path) -> Workload:
    if name == "churn":
        return Churn(seed, out_dir)
    classes = {"exhaustive": Exhaustive, "sampled": Sampled, "explore": Explore}
    return classes[name](seed)


NAMES = ("exhaustive", "sampled", "churn", "explore")
