"""The input boundary under mutation: every input gives a documented outcome.

Scenario files (`replay`), network files (`explore --net`, `export-dot`) and
flag values are mutated at random, and `cli.main` must return one of the
documented exit codes without raising. Trace files are mutated likewise, and
`sim.replay_trace_jsonl` may raise only ValueError or EventNotEnabled.
Integers stay within a few bits of the valid ranges, so a mutated input
never asks for a long run; the huge identifier widths that are tried are
rejected before their space is built.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chordcheck import cli, sim
from chordcheck.events import Event, EventKind, EventNotEnabled, apply_event
from chordcheck.ident import RingParams
from chordcheck.invariants import PREDICATES
from chordcheck.netstate import init_network, network_to_dict

from conftest import apply_join_lookup, stranded_member_state, wrap_trap_state

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EXIT_CODES = {
    cli.EXIT_OK,
    cli.EXIT_CHECK_FAILED,
    cli.EXIT_PARSE,
    cli.EXIT_DISABLED_EVENT,
    cli.EXIT_EXPECTATION,
    cli.EXIT_USAGE,
}
FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SMALL_INTS = st.integers(-3, 70)
LEAVES = (
    st.none()
    | st.booleans()
    | SMALL_INTS
    | st.integers(-(2**16), 2**16)
    | st.text(max_size=4)
    | st.sampled_from([*PREDICATES, *(kind.value for kind in EventKind)])
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _with_pending_values():
    """Dead members, a held lookup result and a held stabilize candidate."""
    net = init_network(RingParams(6, 2), [7, 19, 33])
    net = apply_join_lookup(net, 10, known=7)
    net = apply_event(net, Event(EventKind.JOIN, 10))
    net = apply_event(net, Event(EventKind.STABILIZE_FROM_OLD_SUCCESSOR, 7))
    net = apply_join_lookup(net, 50, known=19)
    return apply_event(net, Event(EventKind.FAIL, 10))


NETWORK_RECORDS = [
    network_to_dict(init_network(RingParams(6, 2), [7, 19, 33])),
    network_to_dict(wrap_trap_state()),
    network_to_dict(_with_pending_values()),
]
SCENARIO_RECORDS = [json.loads((SCENARIOS / name).read_text()) for name in sorted(
    p.name for p in SCENARIOS.glob("*.json")
)]


@st.composite
def _mutated(draw, value):
    """`value` with one entry replaced, deleted or added at a drawn depth."""
    if isinstance(value, dict):
        copy, keys = dict(value), sorted(value)
    elif isinstance(value, list):
        copy, keys = list(value), range(len(value))
    else:
        return draw(JSON_VALUES)
    action = draw(st.sampled_from(["descend", "descend", "delete", "add", "replace"]))
    if action == "add" and isinstance(copy, dict):
        copy[draw(st.text(max_size=12))] = draw(JSON_VALUES)
    elif action == "add":
        copy.insert(draw(st.integers(0, len(copy))), draw(JSON_VALUES))
    elif action == "replace" or not keys:
        return draw(JSON_VALUES)
    elif action == "delete":
        del copy[draw(st.sampled_from(keys))]
    else:
        key = draw(st.sampled_from(keys))
        copy[key] = draw(_mutated(value[key]))
    return copy


@st.composite
def _mutated_record(draw, records):
    doc = draw(st.sampled_from(records))
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(_mutated(doc))
    return doc


NODES = st.sampled_from([7, 10, 19, 33, 40, 50]) | SMALL_INTS
EVENT_RECORDS = st.fixed_dictionaries(
    {"kind": st.sampled_from([kind.value for kind in EventKind]), "node": NODES},
    optional={"newPred": NODES, "known": NODES, "force": st.booleans()},
)
EXPECTATION_RECORDS = st.fixed_dictionaries(
    {
        "step": st.integers(0, 8),
        "predicate": st.sampled_from(sorted(PREDICATES)),
        "args": st.lists(NODES, max_size=2),
        "expected": LEAVES,
    }
)


@st.composite
def _edited_scenario(draw):
    """A packaged scenario with well-typed events and expectations spliced in."""
    doc = dict(draw(st.sampled_from(SCENARIO_RECORDS)))
    for key, records in (("script", EVENT_RECORDS), ("expectations", EXPECTATION_RECORDS)):
        edited = list(doc.get(key, []))
        for rec in draw(st.lists(records, max_size=3)):
            edited.insert(draw(st.integers(0, len(edited))), rec)
        doc[key] = edited
    return doc


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _run_on_file(doc, argv_before, argv_after=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        return _run([*argv_before, str(path), *argv_after])


def _assert_documented(code, err):
    assert code in EXIT_CODES
    assert "Traceback" not in err


@FUZZ
@given(_mutated_record(SCENARIO_RECORDS) | _edited_scenario())
# Each of these once raised or hung: a base outside the space, the successor
# of a joiner that holds no list yet, and a 10^12-bit identifier space.
@example({"params": {"m": 6, "r": 2}, "base": [-1, 19, 33], "script": []})
@example({"params": {"m": 10**12, "r": 2}, "base": [7, 19, 33], "script": []})
@example(
    {
        "params": {"m": 6, "r": 2},
        "base": [7, 19, 33],
        "script": [{"kind": "JoinLookup", "node": 10, "known": 7}],
        "expectations": [{"step": 1, "predicate": "succ", "args": [10], "expected": None}],
    }
)
def test_mutated_scenarios_exit_with_a_documented_code(doc):
    _assert_documented(*_run_on_file(doc, ["replay"]))


def _live_flag_as_text():
    """The network with pending values, its dead node 10's `live` flag the string "false"."""
    doc = json.loads(json.dumps(NETWORK_RECORDS[2]))
    next(rec for rec in doc["nodes"] if rec["ident"] == 10)["live"] = "false"
    return doc


LIVE_FLAG_AS_TEXT = _live_flag_as_text()


@FUZZ
@given(_mutated_record(NETWORK_RECORDS))
@example({**NETWORK_RECORDS[0], "m": 10**12})
# This was once read as live: any non-empty string is truthy.
@example(LIVE_FLAG_AS_TEXT)
def test_mutated_network_files_exit_with_a_documented_code(doc):
    _assert_documented(
        *_run_on_file(doc, ["explore", "--net"], ["--depth", "2", "--joins", "1", "--joiners", "10"])
    )
    _assert_documented(*_run_on_file(doc, ["export-dot"]))


def test_a_live_flag_that_is_not_a_json_boolean_is_refused_at_every_input():
    message = "node 10: live 'false' is not true or false"
    for argv in (["explore", "--net"], ["export-dot"]):
        code, err = _run_on_file(LIVE_FLAG_AS_TEXT, argv)
        assert code == cli.EXIT_PARSE and message in err, argv
    scenario = {"params": {"m": 6, "r": 2}, "initialState": LIVE_FLAG_AS_TEXT, "script": []}
    code, err = _run_on_file(scenario, ["replay"])
    assert code == cli.EXIT_PARSE and message in err
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_text(json.dumps({"type": "header", "initial": LIVE_FLAG_AS_TEXT}) + "\n")
        with pytest.raises(ValueError, match=f"trace line 1: {message}"):
            sim.replay_trace_jsonl(str(path))


# Each command with small, valid flag values; one flag at a time gets a bad one.
COMMANDS = [
    ["init", "--m", "6", "--r", "2", "--base", "7,19,33"],
    ["check", "preservation", "--n", "4", "--r", "2", "--mode", "random", "--samples", "3"],
    ["check", "progress", "--n", "3", "--r", "2", "--m", "3"],
    ["check", "trial-search", "--n", "4", "--r", "2", "--samples", "3"],
    ["explore", "--m", "6", "--r", "2", "--base", "7,19,33", "--joins", "1", "--depth", "2",
     "--joiners", "10"],
    ["simulate", "--m", "6", "--r", "2", "--churn-steps", "5", "--max-members", "6",
     "--snapshot-interval", "2"],
]
SMALL_BAD = st.integers(-(2**40), 2) | st.sampled_from(
    ["", "x", "1.5", "1,1", "7,,19", "-1,3,5", "7,19", "0x10", "nan"]
)
# Flags whose large values ask for long runs or big states get small ones only.
WORK_FLAGS = {"--n", "--samples", "--churn-steps", "--depth"}


@FUZZ
@given(st.sampled_from(COMMANDS), st.data())
def test_bad_flag_values_exit_with_a_documented_code(command, data):
    i = data.draw(st.sampled_from([i for i, arg in enumerate(command) if arg.startswith("--")]))
    bad = SMALL_BAD if command[i] in WORK_FLAGS else SMALL_BAD | st.integers(64, 2**16)
    argv = [*command[: i + 1], str(data.draw(bad)), *command[i + 2 :]]
    with tempfile.TemporaryDirectory() as tmp:
        if command[0] in ("init", "check"):
            # Keep written files, trial-search's artifact included, out of the tree.
            argv += ["--out", str(Path(tmp) / "out.json")]
        _assert_documented(*_run(argv))


def _written_trace():
    """A short simulation's trace lines, with snapshots on every third step."""
    config = sim.SimConfig(params=RingParams(6, 2), churn_steps=20, seed=21, max_members=8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        sim.write_trace_jsonl(sim.run_simulation(config), str(path), snapshot_interval=3)
        return [json.loads(line) for line in path.read_text().splitlines()]


TRACE_LINES = _written_trace()
PARAM_VALUES = SMALL_INTS | st.sampled_from([160, 161, 10**12, 6.0, True, "6"])


@st.composite
def _mutated_trace(draw):
    """A written trace with a few lines edited, as text, possibly truncated."""
    lines = list(TRACE_LINES)
    if draw(st.booleans()):
        key = draw(st.sampled_from(["m", "r"]))
        lines[0] = {**lines[0], "initial": {**lines[0]["initial"], key: draw(PARAM_VALUES)}}
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            # Drops, adds or retypes one entry at a drawn depth.
            lines[i] = draw(_mutated(lines[i]))
        elif isinstance(lines[i], dict):
            lines[i] = {**lines[i], "event": draw(EVENT_RECORDS)}
    text = "".join(json.dumps(rec) + "\n" for rec in lines)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


STRANDED_TRACE = "".join(json.dumps(rec) + "\n" for rec in [
    {"type": "header", "initial": network_to_dict(stranded_member_state())},
    {"type": "step", "step": 1, "event": {"kind": "StabilizeFromOldSuccessor", "node": 7}},
])


@FUZZ
@given(_mutated_trace())
# This once escaped as AssumptionBreach: the stabilize strands member 7.
@example(STRANDED_TRACE)
def test_mutated_traces_raise_only_documented_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_text(text)
        try:
            sim.replay_trace_jsonl(str(path))
        except (ValueError, EventNotEnabled):
            pass
