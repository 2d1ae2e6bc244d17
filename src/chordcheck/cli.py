"""Command-line front end: init, check, explore, simulate, replay, export-dot.

Scenario files script event sequences against an initial network and assert
named predicates at chosen steps; checker violations serialize in the same
network format, so a failing lemma feeds straight back into `replay`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .ident import RingParams
from .netstate import (
    Network,
    init_network,
    network_from_dict,
    network_to_dict,
    network_to_json,
    validate_network,
)
from .events import Event, apply_event, event_from_dict, is_enabled
from .invariants import (
    conjuncts,
    eight_conjunct_trial,
    list_properties,
    six_conjunct_trial,
    trial_predicates,
)
from .measure import network_is_improvable, total_error
from . import checker
from . import sim as simulation
from .topology import is_ideal

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DISABLED_EVENT = 3
EXIT_EXPECTATION = 4
EXIT_USAGE = 64


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
    params: RingParams
    base: tuple[int, ...]
    initial_state: Network | None
    script: tuple[ScriptedEvent, ...]
    expectations: tuple[Expectation, ...]


def scenario_from_dict(data: dict) -> Scenario:
    params = RingParams(m=data["params"]["m"], r=data["params"]["r"])
    initial = data.get("initialState")
    initial_state = None
    if initial:
        initial_state = network_from_dict(initial)
        validate_network(initial_state)
    return Scenario(
        params=params,
        base=tuple(data.get("base", [])),
        initial_state=initial_state,
        script=tuple(
            ScriptedEvent(event=event_from_dict(rec), force=bool(rec.get("force")))
            for rec in data["script"]
        ),
        expectations=tuple(
            Expectation(
                step=rec["step"],
                predicate=rec["predicate"],
                args=tuple(rec.get("args", [])),
                expected=rec["expected"],
            )
            for rec in data.get("expectations", [])
        ),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def _predicate_value(net: Network, name: str, args: tuple):
    c = lambda: conjuncts(net)  # noqa: E731
    if name == "atLeastOneRing":
        return c().at_least_one_ring
    if name == "atMostOneRing":
        return c().at_most_one_ring
    if name == "orderedRing":
        return c().ordered_ring
    if name == "connectedAppendages":
        return c().connected_appendages
    if name == "baseNotSkipped":
        return c().base_not_skipped
    if name == "valid":
        return c().valid
    if name == "ideal":
        return is_ideal(net)
    if name == "totalError":
        return total_error(net)
    if name == "networkIsImprovable":
        return network_is_improvable(net)
    if name == "noConflictingDates":
        return trial_predicates(net).no_conflicting_dates
    if name == "noEjects":
        return trial_predicates(net).no_ejects
    if name == "sixConjunct":
        return six_conjunct_trial(net)
    if name == "eightConjunct":
        return eight_conjunct_trial(net)
    if name == "noDuplicates":
        if args:
            return list_properties(net, args[0]).no_duplicates
        return all(list_properties(net, n).no_duplicates for n in net.live)
    if name == "orderedSuccessorLists":
        if args:
            return list_properties(net, args[0]).ordered_successor_lists
        return all(list_properties(net, n).ordered_successor_lists for n in net.live)
    if name == "live":
        return net.is_live(args[0])
    if name == "pred":
        return net.node(args[0]).pred
    if name == "succ":
        return net.node(args[0]).succ_list[0]
    if name == "succList":
        return list(net.node(args[0]).succ_list)
    if name == "pendingCandidate":
        return net.node(args[0]).pending_candidate
    if name == "pendingNewSucc":
        return net.node(args[0]).pending_new_succ
    raise KeyError(f"unknown predicate {name!r}")


@dataclass
class ReplayReport:
    exit_code: int
    messages: list[str]

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK


def replay_scenario(scenario: Scenario) -> ReplayReport:
    messages: list[str] = []
    if scenario.initial_state is not None:
        net = scenario.initial_state
    else:
        net = init_network(scenario.params, scenario.base)

    by_step: dict[int, list[Expectation]] = {}
    for exp in scenario.expectations:
        by_step.setdefault(exp.step, []).append(exp)

    def evaluate(step: int, current: Network) -> int:
        for exp in by_step.get(step, []):
            try:
                actual = _predicate_value(current, exp.predicate, exp.args)
            except KeyError as err:
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
        if not scripted.force and not is_enabled(net, ev):
            messages.append(
                f"step {i}: scripted event {ev.kind.value}({ev.node}) not enabled; state:\n"
                + network_to_json(net, indent=2)
            )
            return ReplayReport(EXIT_DISABLED_EVENT, messages)
        net = apply_event(net, ev, force=scripted.force)
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
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--base", type=_ids_arg, default=None)
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


def _cmd_init(args) -> int:
    net = init_network(RingParams(m=args.m, r=args.r), args.base)
    text = network_to_json(net, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_check(args) -> int:
    r = args.r
    if args.target == "trial-search":
        trial = args.trial or "six-conjunct"
        params = RingParams(m=args.m or 6, r=r)
        found = checker.search_trial_counterexample(
            trial, params, max_nodes=args.n, seed=args.seed, max_states=args.samples
        )
        if found is None:
            print(f"trial-search[{trial}]: no counterexample within bounds")
            return EXIT_CHECK_FAILED
        net, ev = found
        trial_predicate_name = {
            "six-conjunct": "sixConjunct",
            "eight-conjunct": "eightConjunct",
            "valid": "valid",
        }[trial]
        # The artifact doubles as a replayable scenario.
        artifact = {
            "trial": trial,
            "seed": args.seed,
            "params": {"m": net.params.m, "r": net.params.r},
            "base": sorted(net.base),
            "initialState": network_to_dict(net),
            "script": [{"kind": ev.kind.value, "node": ev.node}],
            "expectations": [
                {"step": 0, "predicate": trial_predicate_name, "expected": True},
                {"step": 1, "predicate": trial_predicate_name, "expected": False},
            ],
            "event": {"kind": ev.kind.value, "node": ev.node},
        }
        out = args.out or "trial_counterexample.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
        print(f"trial-search[{trial}]: counterexample written to {out}")
        return EXIT_OK

    if args.mode == "exhaustive":
        params = RingParams(m=args.m or 3, r=r)
        if args.target != "implications":
            try:
                checker.require_exhaustible(params, args.n)
            except ValueError as err:
                print(f"check {args.target}: {err}", file=sys.stderr)
                return EXIT_USAGE
        bounds = {"n": args.n, "r": r, "mode": "exhaustive", "seed": None}
        make_states = lambda: checker.enumerate_valid_states(params, args.n)  # noqa: E731
        raw_states = lambda: checker.enumerate_raw_list_states(params, args.n)  # noqa: E731
    else:
        params = RingParams(m=args.m or 6, r=r)
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
    print(
        f"{report.lemma}: {status} over {report.states_checked} states "
        f"(bounds {bounds})"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _load_network(path: str) -> Network:
    """Read and validate a network file; malformed content raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        net = network_from_dict(data)
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(f"malformed network record: {err!r}") from err
    validate_network(net)
    return net


def _cmd_explore(args) -> int:
    if args.net:
        try:
            net = _load_network(args.net)
        except (OSError, ValueError) as err:
            print(f"cannot parse network: {err}", file=sys.stderr)
            return EXIT_PARSE
    else:
        if not args.base:
            print("explore: provide --net or --base", file=sys.stderr)
            return EXIT_USAGE
        net = init_network(RingParams(m=args.m, r=args.r), args.base)
    report = checker.explore_reachable(
        net,
        max_joins=args.joins,
        max_fails=args.fails,
        max_depth=args.depth,
        joiners=args.joiners,
        max_states=args.max_states,
    )
    print(
        f"explored {report.info['states']} states, {report.info['transitions']} transitions"
        + (" (truncated)" if report.info["truncated"] else "")
    )
    if not report.passed:
        print(f"{report.violation_count} invariant violations found")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = simulation.SimConfig(
        params=RingParams(m=args.m, r=args.r),
        churn_steps=args.churn_steps,
        seed=args.seed,
        max_members=args.max_members,
    )
    try:
        trace = simulation.run_simulation(config)
    except simulation.DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    steps = simulation.convergence_steps(trace)
    final = trace.final()
    print(
        f"converged: members={final.size} churn_events={sum(1 for s in trace.steps if s.tag == simulation.CHURN)} "
        f"repair_events={sum(1 for s in trace.steps if s.tag == simulation.REPAIR)} "
        f"effective_repairs={steps} seed={args.seed}"
    )
    if args.trace_out:
        simulation.write_trace_jsonl(trace, args.trace_out, args.snapshot_interval)
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
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
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
