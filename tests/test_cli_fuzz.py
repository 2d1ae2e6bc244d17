"""The input boundary under mutation: every input gives a documented exit code.

Scenario files (`replay`), network files (`explore --net`, `export-dot`) and
flag values are mutated at random, and `cli.main` must return one of the
documented exit codes without raising. Integers stay within a few bits of
the valid ranges, so a mutated input never asks for a huge identifier
space or a long run.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chordcheck import cli
from chordcheck.events import Event, EventKind, apply_event, apply_join_lookup
from chordcheck.ident import RingParams
from chordcheck.invariants import PREDICATES
from chordcheck.netstate import init_network, network_to_dict

from conftest import wrap_trap_state

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
# Each of these once raised: a base outside the space, and the successor of
# a joiner that holds no list yet.
@example({"params": {"m": 6, "r": 2}, "base": [-1, 19, 33], "script": []})
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


@FUZZ
@given(_mutated_record(NETWORK_RECORDS))
def test_mutated_network_files_exit_with_a_documented_code(doc):
    _assert_documented(
        *_run_on_file(doc, ["explore", "--net"], ["--depth", "2", "--joins", "1", "--joiners", "10"])
    )
    _assert_documented(*_run_on_file(doc, ["export-dot"]))


# Each command with small, valid flag values; one flag at a time gets a bad one.
COMMANDS = [
    ["init", "--m", "6", "--r", "2", "--base", "7,19,33"],
    ["check", "preservation", "--n", "4", "--r", "2", "--mode", "random", "--samples", "3"],
    ["check", "progress", "--n", "3", "--r", "2", "--m", "3"],
    ["check", "trial-search", "--n", "5", "--r", "2", "--samples", "3"],
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
