"""Command-line front end: init, check, explore, simulate, replay, export-dot.

Scenario files script event sequences against an initial network and assert
named predicates at chosen steps; checker violations serialize in the same
network format, so a failing lemma feeds straight back into `replay`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .ident import RingParams
from .netstate import (
    Network,
    init_network,
    network_from_record,
    network_to_dict,
    network_to_json,
)
from .events import (
    AssumptionBreach,
    Event,
    EventKind,
    EventNotEnabled,
    apply_event,
    event_from_dict,
    guard,
    is_enabled,
)
from .invariants import PREDICATES, trial_predicate_name
from . import checker
from . import sim as simulation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DISABLED_EVENT = 3
EXIT_EXPECTATION = 4
EXIT_USAGE = 64
# A reader closed stdout early (`| head`); the shell's code for SIGPIPE.
EXIT_BROKEN_PIPE = 141


# --- scenario replay ---------------------------------------------------------


@dataclass(frozen=True)
class ScriptedEvent:
    event: Event
    force: bool = False


@dataclass(frozen=True)
class Expectation:
    step: int
    predicate: str
    args: tuple
    expected: object


@dataclass(frozen=True)
class Scenario:
    initial: Network
    script: tuple[ScriptedEvent, ...]
    expectations: tuple[Expectation, ...]


_TYPE_NAMES = {
    int: "an integer",
    str: "a string",
    list: "a list",
    dict: "an object",
    bool: "true or false",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(rec, key: str, kind: type, where: str, optional: bool = False):
    """rec[key] if it has the JSON type `kind`; ValueError naming the field otherwise.

    An optional field may be absent or null. JSON true and false are not integers.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"{where} is not an object")
    value = rec.get(key)
    if value is None:
        if optional:
            return None
        raise ValueError(f"{where} has no {key}")
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ValueError(f"{where}: {key} {value!r} is not {_TYPE_NAMES[kind]}")
    return value


def _scripted_event(rec, where: str) -> ScriptedEvent:
    try:
        event = event_from_dict(rec)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
    force = _field(rec, "force", bool, where, optional=True)
    return ScriptedEvent(event=event, force=bool(force))


def _expectation(rec, where: str, last: int) -> Expectation:
    step = _field(rec, "step", int, where)
    if not 0 <= step <= last:
        raise ValueError(f"{where}: step {step} is outside the script's steps 0..{last}")
    predicate = _field(rec, "predicate", str, where)
    args = _field(rec, "args", list, where, optional=True) or []
    if "expected" not in rec:
        raise ValueError(f"{where} has no expected")
    return Expectation(step=step, predicate=predicate, args=tuple(args), expected=rec["expected"])


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario; ValueError names the first malformed field."""
    params = _field(data, "params", dict, "scenario")
    params = RingParams(m=_field(params, "m", int, "params"), r=_field(params, "r", int, "params"))
    base = _field(data, "base", list, "scenario", optional=True) or []
    for b in base:
        if not _is_int(b):
            raise ValueError(f"base entry {b!r} is not an integer")
    initial = data.get("initialState")
    # Without an explicit state (absent or null), the scenario starts from
    # the ideal base ring.
    if initial is None:
        initial = init_network(params, base)
    else:
        initial = network_from_record(initial)
        if initial.params != params:
            got = initial.params
            raise ValueError(
                f"params m={params.m} r={params.r} disagree with the initialState's"
                f" m={got.m} r={got.r}"
            )
        if base and frozenset(base) != initial.base:
            raise ValueError(f"base {base} disagrees with the initialState's {sorted(initial.base)}")
    script = _field(data, "script", list, "scenario")
    expectations = _field(data, "expectations", list, "scenario", optional=True) or []
    return Scenario(
        initial=initial,
        script=tuple(
            _scripted_event(rec, f"script step {i}") for i, rec in enumerate(script, 1)
        ),
        expectations=tuple(
            _expectation(rec, f"expectation {i}", len(script))
            for i, rec in enumerate(expectations, 1)
        ),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def _expectation_value(net: Network, exp: Expectation):
    """Evaluate an expectation's predicate; ValueError names a bad name or argument."""
    if exp.predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {exp.predicate!r}")
    predicate, arities = PREDICATES[exp.predicate]
    call = f"{exp.predicate}{list(exp.args)}"
    if len(exp.args) not in arities:
        counts = " or ".join(map(str, arities))
        raise ValueError(f"{call}: takes {counts} arguments, got {len(exp.args)}")
    for arg in exp.args:
        if not _is_int(arg) or arg not in net.nodes:
            raise ValueError(f"{call}: {arg!r} is not a tracked identifier")
    try:
        return predicate(net, *exp.args)
    except ValueError as err:
        raise ValueError(f"{call}: {err}") from None


@dataclass
class ReplayReport:
    exit_code: int
    messages: list[str]

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK


def replay_scenario(scenario: Scenario) -> ReplayReport:
    messages: list[str] = []
    net = scenario.initial
    by_step: dict[int, list[Expectation]] = {}
    for exp in scenario.expectations:
        by_step.setdefault(exp.step, []).append(exp)

    def evaluate(step: int, current: Network) -> int:
        for exp in by_step.get(step, []):
            try:
                actual = _expectation_value(current, exp)
            except ValueError as err:
                messages.append(f"step {step}: {err}")
                return EXIT_PARSE
            if actual != exp.expected:
                messages.append(
                    f"step {step}: {exp.predicate}{list(exp.args)} = {actual!r}, "
                    f"expected {exp.expected!r}"
                )
                return EXIT_EXPECTATION
            messages.append(f"step {step}: {exp.predicate}{list(exp.args)} = {actual!r} ok")
        return EXIT_OK

    code = evaluate(0, net)
    if code != EXIT_OK:
        return ReplayReport(code, messages)

    for i, scripted in enumerate(scenario.script, start=1):
        ev = scripted.event
        try:
            # A guard that holds on an event that is not enabled means it times out.
            if not scripted.force and not is_enabled(net, ev):
                raise EventNotEnabled(guard(net, ev) or "its query times out")
            net = apply_event(net, ev, force=scripted.force)
        except (EventNotEnabled, AssumptionBreach) as err:
            messages.append(
                f"step {i}: scripted event {ev.kind.value}({ev.node}) not enabled: {err}; state:\n"
                + network_to_json(net, indent=2)
            )
            return ReplayReport(EXIT_DISABLED_EVENT, messages)
        code = evaluate(i, net)
        if code != EXIT_OK:
            return ReplayReport(code, messages)

    messages.append("all expectations hold")
    return ReplayReport(EXIT_OK, messages)


# --- DOT export --------------------------------------------------------------


def export_dot(net: Network) -> str:
    """Graphviz digraph: solid first successors, dashed later entries, dotted preds."""
    lines = ["digraph ring {", "  node [shape=circle];"]
    for ident in sorted(net.nodes):
        attrs = "" if net.is_live(ident) else " [style=filled, fillcolor=gray80]"
        lines.append(f'  "{ident}"{attrs};')
    for ident in sorted(net.nodes):
        if not net.is_live(ident):
            continue
        state = net.node(ident)
        for i, entry in enumerate(state.succ_list):
            style = "solid" if i == 0 else "dashed"
            lines.append(f'  "{ident}" -> "{entry}" [style={style}];')
        if state.pred is not None:
            lines.append(f'  "{ident}" -> "{state.pred}" [style=dotted];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- command-line entry ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _ids_arg(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v != "")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chordcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="emit a fresh ideal network file")
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--base", type=_ids_arg, required=True, help="comma-separated identifiers")
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="run a lemma check")
    p.add_argument(
        "target",
        choices=["preservation", "progress", "monotonicity", "implications", "trial-search"],
    )
    p.add_argument("--n", type=int, default=4, help="maximum nodes")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", choices=["six-conjunct", "eight-conjunct", "valid"], default=None)
    p.add_argument("--out", default=None, help="write the JSON report/artifact here")

    p = sub.add_parser("explore", help="bounded breadth-first interleaving exploration")
    p.add_argument("--net", default=None, help="network file; defaults to init from --base")
    # None tells an unset flag from a given one: the network file fixes all three.
    p.add_argument("--m", type=int, default=None, help="default 6; not with --net")
    p.add_argument("--r", type=int, default=None, help="default 2; not with --net")
    p.add_argument("--base", type=_ids_arg, default=None, help="not with --net")
    p.add_argument("--joins", type=int, default=0)
    p.add_argument("--fails", type=int, default=0)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--joiners", type=_ids_arg, default=())
    p.add_argument("--max-states", type=int, default=200_000)

    p = sub.add_parser("simulate", help="churn then fair repair until quiescent")
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--churn-steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-members", type=int, default=None)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--snapshot-interval", type=int, default=50)

    p = sub.add_parser("replay", help="replay a scenario file")
    p.add_argument("scenario")

    p = sub.add_parser("export-dot", help="render a network file as Graphviz DOT")
    p.add_argument("network")
    p.add_argument("--out", default=None)

    return parser


def _usage_error(command: str, err) -> int:
    print(f"{command}: {err}", file=sys.stderr)
    return EXIT_USAGE


def _write_out(command: str, path: str, write) -> int:
    """Call `write(path)`; a path that cannot be written exits 64 with one line naming it."""
    try:
        write(path)
    except OSError as err:
        return _usage_error(command, f"cannot write {path}: {err.strerror or err}")
    return EXIT_OK


def _write_text(text: str):
    return lambda path: Path(path).write_text(text, encoding="utf-8")


def _require_floors(args, **floors) -> None:
    """Raise ValueError naming the first flag whose value lies below its floor."""
    for name, floor in floors.items():
        if getattr(args, name) < floor:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {floor}")


def _cmd_init(args) -> int:
    try:
        net = init_network(RingParams(m=args.m, r=args.r), args.base)
    except ValueError as err:
        return _usage_error("init", err)
    text = network_to_json(net, indent=2)
    if args.out:
        return _write_out("init", args.out, _write_text(text + "\n"))
    print(text)
    return EXIT_OK


def _cmd_check(args) -> int:
    r = args.r
    # trial-search is always exhaustive; it ignores --mode, --seed and --samples.
    exhaustive = args.mode == "exhaustive" or args.target == "trial-search"
    try:
        params = RingParams(m=(3 if exhaustive else 6) if args.m is None else args.m, r=r)
        _require_floors(args, samples=1)
        if args.trial and args.target != "trial-search":
            raise ValueError("--trial applies only to trial-search")
        if exhaustive:
            checker.require_exhaustible(params, args.n)
        elif not r + 1 <= args.n <= params.space:
            raise ValueError(f"--n must lie in [r+1, 2^m] = [{r + 1}, {params.space}]")
    except ValueError as err:
        return _usage_error(f"check {args.target}", err)

    if args.target == "trial-search":
        trial = args.trial or "six-conjunct"
        found = checker.search_trial_counterexample(trial, params, max_nodes=args.n)
        if found is None:
            print(f"trial-search[{trial}]: no counterexample within bounds")
            return EXIT_CHECK_FAILED
        net, ev = found
        predicate = trial_predicate_name(trial)
        # The artifact doubles as a replayable scenario.
        artifact = {
            "trial": trial,
            "params": {"m": net.params.m, "r": net.params.r},
            "base": sorted(net.base),
            "initialState": network_to_dict(net),
            "script": [{"kind": ev.kind.value, "node": ev.node}],
            "expectations": [
                {"step": 0, "predicate": predicate, "expected": True},
                {"step": 1, "predicate": predicate, "expected": False},
            ],
            "event": {"kind": ev.kind.value, "node": ev.node},
        }
        out = args.out or "trial_counterexample.json"
        text = json.dumps(artifact, indent=2, sort_keys=True)
        if _write_out("check trial-search", out, _write_text(text)) != EXIT_OK:
            return EXIT_USAGE
        print(f"trial-search[{trial}]: counterexample written to {out}")
        return EXIT_OK

    if exhaustive:
        bounds = {"n": args.n, "r": r, "mode": "exhaustive", "seed": None}
        make_states = lambda: checker.enumerate_valid_states(params, args.n)  # noqa: E731
        raw_states = lambda: checker.enumerate_raw_list_states(params, args.n)  # noqa: E731
    else:
        bounds = {"n": args.n, "r": r, "mode": "random", "seed": args.seed}
        make_states = lambda: checker.sample_valid_states(  # noqa: E731
            params, args.n, args.samples, args.seed
        )
        raw_states = lambda: checker.sample_raw_states(  # noqa: E731
            params, args.n, args.samples, args.seed
        )

    if args.target == "preservation":
        report = checker.check_preservation(make_states(), bounds=bounds)
    elif args.target == "progress":
        report = checker.check_progress(make_states(), bounds=bounds)
    elif args.target == "monotonicity":
        report = checker.check_monotonicity(make_states(), bounds=bounds)
    else:
        report = checker.check_implications(raw_states(), bounds=bounds)

    status = "pass" if report.passed else f"FAIL ({report.violation_count} violations)"
    summary = f"{report.lemma}: {status} over {report.states_checked} states"
    if "casesApplied" in report.info:
        info = report.info
        summary += (
            f", {info['cases']} cases ({info['casesApplied']} applied"
            f" over {info['shapes']} shapes)"
        )
    print(f"{summary} (bounds {bounds})")
    if args.out:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if _write_out(f"check {args.target}", args.out, _write_text(text)) != EXIT_OK:
            return EXIT_USAGE
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _load_network(path: str) -> Network:
    """Read and validate a network file; malformed content raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        return network_from_record(json.load(fh))


def _cmd_explore(args) -> int:
    if args.net:
        for flag in ("base", "m", "r"):
            if getattr(args, flag) is not None:
                return _usage_error("explore", f"--{flag} does not apply with --net")
        try:
            net = _load_network(args.net)
        except (OSError, ValueError) as err:
            print(f"cannot parse network: {err}", file=sys.stderr)
            return EXIT_PARSE
    else:
        if not args.base:
            return _usage_error("explore", "provide --net or --base")
        try:
            params = RingParams(m=6 if args.m is None else args.m, r=2 if args.r is None else args.r)
            net = init_network(params, args.base)
        except ValueError as err:
            return _usage_error("explore", err)
    try:
        _require_floors(args, joins=0, fails=0, depth=0, max_states=1)
        report = checker.explore_reachable(
            net,
            max_joins=args.joins,
            max_fails=args.fails,
            max_depth=args.depth,
            joiners=args.joiners,
            max_states=args.max_states,
        )
    except ValueError as err:
        return _usage_error("explore", err)
    print(
        f"explored {report.info['states']} states, {report.info['transitions']} transitions"
        + (" (truncated)" if report.info["truncated"] else "")
    )
    if not report.passed:
        print(f"{report.violation_count} invariant violations found")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        _require_floors(args, snapshot_interval=0)
        config = simulation.SimConfig(
            params=RingParams(m=args.m, r=args.r),
            churn_steps=args.churn_steps,
            seed=args.seed,
            max_members=args.max_members,
        )
    except ValueError as err:
        return _usage_error("simulate", err)
    try:
        trace = simulation.run_simulation(config)
        steps = simulation.convergence_steps(trace)
    except simulation.DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    # One pass over the log: no step's network is rebuilt.
    tags, kinds = Counter(), Counter()
    for ev, tag in trace.log:
        tags[tag] += 1
        kinds[ev.kind] += 1
    print(
        f"converged: members={trace.final().size} churn_events={tags[simulation.CHURN]} "
        f"repair_events={tags[simulation.REPAIR]} "
        f"effective_repairs={steps} seed={args.seed}"
    )
    print("events: " + " ".join(f"{kind.value}={kinds[kind]}" for kind in EventKind))
    if args.trace_out:
        write = lambda path: simulation.write_trace_jsonl(  # noqa: E731
            trace, path, args.snapshot_interval
        )
        return _write_out("simulate", args.trace_out, write)
    return EXIT_OK


def _cmd_replay(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        print(f"cannot parse scenario: {err}", file=sys.stderr)
        return EXIT_PARSE
    report = replay_scenario(scenario)
    for line in report.messages:
        print(line)
    return report.exit_code


def _cmd_export_dot(args) -> int:
    try:
        net = _load_network(args.network)
    except (OSError, ValueError) as err:
        print(f"cannot parse network: {err}", file=sys.stderr)
        return EXIT_PARSE
    text = export_dot(net)
    if args.out:
        return _write_out("export-dot", args.out, _write_text(text))
    print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "init": _cmd_init,
        "check": _cmd_check,
        "explore": _cmd_explore,
        "simulate": _cmd_simulate,
        "replay": _cmd_replay,
        "export-dot": _cmd_export_dot,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Nothing more reaches the reader, and the interpreter's last flush
        # must not fail again, so stdout goes to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
