"""CLI behavior: subcommands, exit codes, scenario replay, DOT export."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chordcheck import cli
from chordcheck.ident import RingParams
from chordcheck.netstate import init_network, network_to_dict, network_to_json

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _ideal_record(edit):
    """The record of the ideal ring over 7, 19 and 33 at m=6, r=2, after `edit`."""
    rec = network_to_dict(init_network(RingParams(6, 2), [7, 19, 33]))
    edit(rec)
    return rec


def _node_twice(rec):
    rec["nodes"].append(rec["nodes"][0])


def _base_twice(rec):
    rec["base"] = [7, 7, 19]


class TestReplayScenarios:
    @pytest.mark.parametrize("name", ["fig2.json", "fig3.json", "fig4.json"])
    def test_packaged_scenarios_pass(self, name):
        assert cli.main(["replay", str(SCENARIOS / name)]) == cli.EXIT_OK

    def test_parse_failure_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["replay", str(bad)]) == cli.EXIT_PARSE

    def test_missing_file_exit_2(self):
        assert cli.main(["replay", "/nonexistent/scenario.json"]) == cli.EXIT_PARSE

    def test_disabled_event_exit_3(self, tmp_path):
        scenario = {
            "params": {"m": 6, "r": 2},
            "base": [7, 19, 33],
            "script": [{"kind": "Fail", "node": 7}],  # base member: never enabled
            "expectations": [],
        }
        path = tmp_path / "disabled.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["replay", str(path)]) == cli.EXIT_DISABLED_EVENT

    def test_failed_expectation_exit_4(self, tmp_path):
        scenario = {
            "params": {"m": 6, "r": 2},
            "base": [7, 19, 33],
            "script": [],
            "expectations": [{"step": 0, "predicate": "ideal", "expected": False}],
        }
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["replay", str(path)]) == cli.EXIT_EXPECTATION

    def test_malformed_initial_state_exit_2(self, tmp_path):
        initial = network_to_dict(init_network(RingParams(6, 2), [7, 19, 33]))
        initial["nodes"][1]["succList"] = []
        scenario = {
            "params": {"m": 6, "r": 2},
            "initialState": initial,
            "script": [],
            "expectations": [{"step": 0, "predicate": "succ", "args": [19], "expected": 33}],
        }
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["replay", str(path)]) == cli.EXIT_PARSE

    def _replay(self, tmp_path, capsys, script=(), expectations=()):
        scenario = {
            "params": {"m": 6, "r": 2},
            "base": [7, 19, 33],
            "script": list(script),
            "expectations": list(expectations),
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = cli.main(["replay", str(path)])
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        return code, out.out

    def test_forced_join_without_lookup_exit_3(self, tmp_path, capsys):
        code, out = self._replay(tmp_path, capsys, [{"kind": "Join", "node": 10, "force": True}])
        assert code == cli.EXIT_DISABLED_EVENT
        assert "10 has no join in progress" in out

    def test_forced_rectify_without_notifier_exit_3(self, tmp_path, capsys):
        code, out = self._replay(tmp_path, capsys, [{"kind": "Rectify", "node": 19, "force": True}])
        assert code == cli.EXIT_DISABLED_EVENT
        assert "names no notifier" in out

    def test_forced_fail_still_bypasses_the_fail_guards(self, tmp_path, capsys):
        code, _ = self._replay(
            tmp_path, capsys, [{"kind": "Fail", "node": 7, "force": True}],
            [{"step": 1, "predicate": "live", "args": [7], "expected": False}],
        )
        assert code == cli.EXIT_OK

    def test_disabled_event_prints_the_guard_reason(self, tmp_path, capsys):
        code, out = self._replay(tmp_path, capsys, [{"kind": "Fail", "node": 7}])
        assert code == cli.EXIT_DISABLED_EVENT
        assert "7 is a stable-base member" in out

    @pytest.mark.parametrize(
        "expectation, named",
        [
            ({"predicate": "pred"}, "pred[]"),
            ({"predicate": "ideal", "args": [7]}, "ideal[7]"),
            ({"predicate": "noDuplicates", "args": [7, 19]}, "noDuplicates[7, 19]"),
            ({"predicate": "succ", "args": [42]}, "succ[42]: 42 is not a tracked identifier"),
            ({"predicate": "live", "args": ["7"]}, "live['7']"),
            ({"predicate": "live", "args": [True]}, "live[True]: True is not a tracked identifier"),
            ({"predicate": "bogus"}, "unknown predicate 'bogus'"),
        ],
    )
    def test_bad_predicate_call_exit_2(self, tmp_path, capsys, expectation, named):
        # 1 is tracked after its lookup, and JSON true is not the identifier 1.
        script = [{"kind": "JoinLookup", "node": 1, "known": 7}]
        expectations = [{"step": 1, "expected": 1, **expectation}]
        code, out = self._replay(tmp_path, capsys, script, expectations)
        assert code == cli.EXIT_PARSE
        assert named in out

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s["expectations"][1].update(args=5), "expectation 2: args 5 is not a list"),
            (lambda s: s["script"][0].update(node="x"), "script step 1: node 'x' is not an integer"),
            (lambda s: s["params"].update(r="2"), "params: r '2' is not an integer"),
            (lambda s: s["script"][3].update(newPred=[10]), "newPred [10] is not an integer"),
            (lambda s: s["script"][0].update(known="7"), "known '7' is not an integer"),
            (lambda s: s["script"][0].update(force=1), "force 1 is not true or false"),
            (lambda s: s["expectations"][0].update(step="0"), "step '0' is not an integer"),
            (lambda s: s["expectations"][0].update(predicate=None), "expectation 1 has no predicate"),
            (lambda s: s.update(base=[7, "19", 33]), "base entry '19' is not an integer"),
            (lambda s: s.update(script={}), "script {} is not a list"),
            (lambda s: s["params"].update(m=10**12), "m must be at most 160"),
            (
                lambda s: s["expectations"][0].update(step=8),
                "expectation 1: step 8 is outside the script's steps 0..7",
            ),
            (
                lambda s: s["expectations"][11].update(step=-1),
                "expectation 12: step -1 is outside the script's steps 0..7",
            ),
            (
                lambda s: s.update(initialState=_ideal_record(_node_twice)),
                "node 7 is listed twice",
            ),
            (
                lambda s: s.update(initialState=_ideal_record(_base_twice)),
                "base [7, 7, 19] names an identifier twice",
            ),
            (lambda s: s.update(initialState={}), "malformed network record"),
            (
                lambda s: s.update(
                    initialState=_ideal_record(lambda rec: rec["nodes"][1].update(live="false"))
                ),
                "node 19: live 'false' is not true or false",
            ),
            # The initialState holds its own params and base: a scenario that
            # names others would replay under values it does not state.
            (
                lambda s: s.update(
                    params={"m": 6, "r": 3}, initialState=_ideal_record(lambda rec: None)
                ),
                "params m=6 r=3 disagree with the initialState's m=6 r=2",
            ),
            (
                lambda s: s.update(base=[7, 19, 40], initialState=_ideal_record(lambda rec: None)),
                "base [7, 19, 40] disagrees with the initialState's [7, 19, 33]",
            ),
        ],
    )
    def test_mistyped_scenario_field_exit_2(self, tmp_path, capsys, edit, message):
        scenario = json.loads((SCENARIOS / "fig2.json").read_text())
        edit(scenario)
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["replay", str(path)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("cannot parse scenario: ") and message in err

    def test_unknown_flag_exit_64(self):
        assert cli.main(["replay", "--bogus"]) == cli.EXIT_USAGE

    def test_unknown_command_exit_64(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv, named",
    [
        ("simulate --r 0", "r must be at least 2"),
        ("simulate --m 1", "m must be at least 3"),
        ("simulate --m 1000000000000", "m must be at most 160"),
        ("check progress --m 1000000000000", "m must be at most 160"),
        ("check progress --m 0 --n 3", "m must be at least 3, got 0"),
        ("init --m 1000000000000 --base 7,19,33", "m must be at most 160"),
        ("simulate --churn-steps -1", "churn steps must be non-negative"),
        ("init --base 1,1", "distinct"),
        ("explore --base 7,19", "r+1=3 members"),
        ("check progress --mode random --n 2", "[r+1, 2^m]"),
        ("check trial-search --n 2", "exhaustion ceiling"),
        ("check trial-search --n 5", "exhaustion ceiling"),
        ("check trial-search --r 3 --n 4", "exhaustion ceiling"),
        ("check implications --mode exhaustive --n 9", "exhaustion ceiling"),
        ("check preservation --n 2", "exhaustion ceiling"),
        ("check preservation --n 0", "exhaustion ceiling"),
        ("check preservation --n -1", "exhaustion ceiling"),
        ("check progress --mode random --samples -5", "--samples must be at least 1"),
        ("check trial-search --samples 0", "--samples must be at least 1"),
        ("simulate --max-members 0", "max members must be at least r+1"),
        ("simulate --max-members -1", "max members must be at least r+1"),
        ("simulate --snapshot-interval -3", "--snapshot-interval must be at least 0"),
        ("explore --base 7,19,33 --max-states 0", "--max-states must be at least 1"),
        ("explore --base 7,19,33 --joins -1", "--joins must be at least 0"),
        ("explore --base 7,19,33 --fails -1", "--fails must be at least 0"),
        ("explore --base 7,19,33 --depth -1", "--depth must be at least 0"),
        ("explore --base 7,19,33 --joiners 10,40,10", "joiner 10 is named twice"),
        ("explore --base 7,19,33 --joiners 10,7", "joiner 7 is a stable-base member"),
        # The network file fixes the base and the parameters.
        ("explore --net n.json --base 7,19,33 --m 9 --r 3", "--base does not apply with --net"),
        ("explore --net n.json --m 9", "--m does not apply with --net"),
        ("explore --net n.json --r 3", "--r does not apply with --net"),
        ("check preservation --n 3 --trial six-conjunct", "--trial applies only to trial-search"),
        ("check progress --mode random --trial valid", "--trial applies only to trial-search"),
    ],
)
def test_bad_flag_value_exit_64_with_one_line(argv, named, capsys):
    assert cli.main(argv.split()) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(argv.split()[0]) and named in err


@pytest.mark.parametrize(
    "argv",
    [
        "init --base 7,19,33 --out {out}",
        "check preservation --n 3 --out {out}",
        "check trial-search --n 4 --out {out}",
        "simulate --churn-steps 5 --trace-out {out}",
        "export-dot {net} --out {out}",
    ],
)
def test_unwritable_output_exit_64_naming_the_path(argv, tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(network_to_json(init_network(RingParams(6, 2), [7, 19, 33])))
    out = tmp_path / "missing" / "x.json"
    assert cli.main(argv.format(out=out, net=net).split()) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(argv.split()[0]) and f"cannot write {out}" in err


class TestExportDot:
    def test_ideal_three_ring_edge_counts(self):
        net = init_network(RingParams(6, 2), [7, 19, 33])
        text = cli.export_dot(net)
        assert text.count("[style=solid]") == 3
        assert text.count("[style=dashed]") == 3
        assert text.count("[style=dotted]") == 3

    def test_deterministic(self):
        net = init_network(RingParams(6, 2), [7, 19, 33])
        assert cli.export_dot(net) == cli.export_dot(net)

    def test_appendage_edge_present(self):
        from conftest import wrap_trap_state

        text = cli.export_dot(wrap_trap_state())
        assert '"52" -> "45" [style=dashed];' in text

    def test_cli_command(self, tmp_path, capsys):
        netfile = tmp_path / "net.json"
        netfile.write_text(
            json.dumps(network_to_dict(init_network(RingParams(6, 2), [7, 19, 33])))
        )
        assert cli.main(["export-dot", str(netfile)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("digraph ring {")


class TestNetworkFiles:
    @pytest.fixture
    def empty_list_network(self, tmp_path):
        data = network_to_dict(init_network(RingParams(6, 2), [7, 19, 33]))
        data["nodes"][1]["succList"] = []
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        return path

    def test_explore_rejects_empty_successor_list(self, empty_list_network, capsys):
        code = cli.main(["explore", "--net", str(empty_list_network), "--depth", "2"])
        assert code == cli.EXIT_PARSE
        assert "Traceback" not in capsys.readouterr().err

    def test_export_dot_rejects_empty_successor_list(self, empty_list_network, capsys):
        assert cli.main(["export-dot", str(empty_list_network)]) == cli.EXIT_PARSE
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["explore", "--net"], ["export-dot"]])
    def test_huge_m_exit_2(self, tmp_path, capsys, argv):
        # Rejected before the 2^m identifier space is built.
        data = network_to_dict(init_network(RingParams(6, 2), [7, 19, 33]))
        data["m"] = 10**12
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        assert cli.main([*argv, str(path)]) == cli.EXIT_PARSE
        assert "m must be at most 160" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["explore", "--net"], ["export-dot"]])
    @pytest.mark.parametrize(
        "edit, message",
        [(_node_twice, "node 7 is listed twice"), (_base_twice, "names an identifier twice")],
    )
    def test_ambiguous_record_exit_2(self, tmp_path, capsys, argv, edit, message):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(_ideal_record(edit)))
        assert cli.main([*argv, str(path)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ['{"m": 6}', "[1, 2]", '{"m": 6, "r": 2, "base": [], "nodes": [5]}'])
    def test_explore_rejects_malformed_records(self, tmp_path, text):
        path = tmp_path / "net.json"
        path.write_text(text)
        assert cli.main(["explore", "--net", str(path)]) == cli.EXIT_PARSE


class TestInitCommand:
    def test_writes_network_file(self, tmp_path):
        out = tmp_path / "net.json"
        assert cli.main(["init", "--m", "6", "--r", "2", "--base", "7,19,33", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["base"] == [7, 19, 33]
        assert len(data["nodes"]) == 3


class TestCheckCommand:
    def test_progress_exhaustive_small(self, capsys):
        code = cli.main(["check", "progress", "--n", "3", "--r", "2", "--mode", "exhaustive"])
        assert code == cli.EXIT_OK
        assert "pass" in capsys.readouterr().out

    def test_preservation_random_small(self, tmp_path):
        report_file = tmp_path / "report.json"
        code = cli.main(
            [
                "check", "preservation", "--n", "6", "--r", "2", "--mode", "random",
                "--samples", "200", "--seed", "1", "--out", str(report_file),
            ]
        )
        assert code == cli.EXIT_OK
        data = json.loads(report_file.read_text())
        assert data["passed"] is True
        assert data["bounds"]["seed"] == 1

    def test_preservation_exhaustive_reports_applied_cases(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        code = cli.main(["check", "preservation", "--n", "4", "--out", str(report_file)])
        assert code == cli.EXIT_OK
        assert "12064 states, 111384 cases (286 applied over 33 shapes)" in capsys.readouterr().out
        data = json.loads(report_file.read_text())
        assert data["statesChecked"] == 12064
        assert data["info"] == {"cases": 111384, "shapes": 33, "casesApplied": 286}

    def test_monotonicity_exhaustive(self, tmp_path):
        report_file = tmp_path / "report.json"
        code = cli.main(
            [
                "check", "monotonicity", "--n", "4", "--r", "2", "--mode", "exhaustive",
                "--out", str(report_file),
            ]
        )
        assert code == cli.EXIT_OK
        data = json.loads(report_file.read_text())
        assert data["passed"] is True
        assert data["info"] == {
            "cases": 43144,
            "casesByKind": {
                "StabilizeFromOldSuccessor": 7000,
                "StabilizeFromNewSuccessor": 1000,
                "Rectify": 35144,
            },
            "capped": False,
        }

    def test_exhaustive_bounds_beyond_ceiling_exit_64(self, capsys):
        code = cli.main(["check", "preservation", "--n", "5", "--r", "2", "--mode", "exhaustive"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_trial_search_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "cex.json"
        code = cli.main(
            [
                "check", "trial-search", "--trial", "six-conjunct", "--r", "2",
                "--n", "4", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        artifact = json.loads(out.read_text())
        assert artifact["trial"] == "six-conjunct"
        assert artifact["event"]["kind"] in (
            "Fail", "StabilizeFromOldSuccessor", "StabilizeFromNewSuccessor"
        )
        assert "seed" not in artifact

    def test_trial_search_ignores_the_sampling_flags(self, tmp_path, capsys):
        texts = []
        for extra in ([], ["--mode", "random", "--seed", "9", "--samples", "3"]):
            out = tmp_path / "cex.json"
            argv = ["check", "trial-search", "--trial", "eight-conjunct", "--out", str(out)]
            assert cli.main(argv + extra) == cli.EXIT_OK
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["params"] == {"m": 3, "r": 2}

    def test_trial_search_of_the_final_invariant_finds_nothing(self, capsys):
        assert cli.main(["check", "trial-search", "--trial", "valid"]) == cli.EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert out == "trial-search[valid]: no counterexample within bounds\n"


class TestSimulateAndExplore:
    def test_simulate_writes_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        code = cli.main(
            [
                "simulate", "--churn-steps", "40", "--seed", "2",
                "--max-members", "12", "--trace-out", str(trace_file),
                "--snapshot-interval", "10",
            ]
        )
        assert code == cli.EXIT_OK
        assert "converged" in capsys.readouterr().out
        lines = trace_file.read_text().strip().splitlines()
        assert json.loads(lines[0])["type"] == "header"
        from chordcheck.sim import replay_trace_jsonl

        replayed = replay_trace_jsonl(str(trace_file))
        assert len(replayed.steps) == len(lines) - 1

    def test_simulate_prints_per_kind_counts(self, capsys):
        code = cli.main(["simulate", "--churn-steps", "40", "--seed", "2", "--max-members", "12"])
        assert code == cli.EXIT_OK
        summary, events = capsys.readouterr().out.splitlines()
        assert events.startswith("events: ")
        counts = dict(field.split("=") for field in events.split()[1:])
        assert list(counts) == [
            "JoinLookup", "Join", "StabilizeFromOldSuccessor",
            "StabilizeFromNewSuccessor", "Rectify", "Fail",
        ]
        fields = dict(field.split("=") for field in summary.split()[1:])
        assert sum(map(int, counts.values())) == (
            int(fields["churn_events"]) + int(fields["repair_events"])
        )

    def test_simulate_divergence_in_convergence_steps_exit_1(self, monkeypatch, capsys):
        from chordcheck import sim

        def diverge(trace):
            raise sim.DivergenceError("trace never reached the ideal state")

        monkeypatch.setattr(sim, "convergence_steps", diverge)
        code = cli.main(["simulate", "--churn-steps", "40", "--seed", "2", "--max-members", "12"])
        assert code == cli.EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["divergence: trace never reached the ideal state"]

    def test_explore_joiner_outside_the_space_exit_64(self, capsys):
        code = cli.main(["explore", "--base", "7,19,33", "--joins", "1", "--joiners", "99"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "99" in err and "Traceback" not in err

    def test_explore_command(self, capsys):
        code = cli.main(
            [
                "explore", "--base", "7,19,33", "--joins", "1",
                "--depth", "6", "--joiners", "10",
            ]
        )
        assert code == cli.EXIT_OK
        assert "explored" in capsys.readouterr().out

    def test_explore_with_a_join_budget_past_one_byte(self, capsys):
        # A bound past 255 takes two bytes per budget in each visited key.
        code = cli.main(
            ["explore", "--base", "7,19,33", "--joiners", "10", "--joins", "300", "--depth", "4"]
        )
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out == "explored 34 states, 153 transitions\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--m", "12", "--r", "3", "--churn-steps", "384", "--seed", "7", "--max-members", "64"],
        ["explore", "--base", "7,19,33", "--depth", "3"],
    ],
    ids=["simulate", "explore"],
)
def test_a_closed_stdout_exits_quietly(argv):
    # The pipe's reader is gone before the command starts, as after
    # `| head -0`, so its first write or flush breaks the pipe. That is not
    # a failed check: no traceback, and the documented code, not 1.
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "chordcheck", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


def test_every_predicate_answers_on_every_state_of_the_packaged_scenarios():
    # Each registry predicate, on each tracked identifier of each state a
    # packaged scenario passes through, gives a value or a named error.
    from chordcheck.events import apply_event
    from chordcheck.invariants import PREDICATES

    for name in ("fig2.json", "fig3.json", "fig4.json"):
        scenario = cli.load_scenario(str(SCENARIOS / name))
        nets = [scenario.initial]
        for scripted in scenario.script:
            nets.append(apply_event(nets[-1], scripted.event, force=scripted.force))
        for net in nets:
            for predicate, (_, arities) in PREDICATES.items():
                for arity in arities:
                    for args in itertools.product(sorted(net.nodes), repeat=arity):
                        expectation = cli.Expectation(0, predicate, args, expected=object())
                        report = cli.replay_scenario(cli.Scenario(net, (), (expectation,)))
                        assert report.exit_code in (cli.EXIT_EXPECTATION, cli.EXIT_PARSE)


def test_readme_lists_every_registry_predicate_with_its_arity():
    # Every row of README's predicate table, each once, in the form
    # | `name` | 0 or 1 |, and the same names and arities as the registry.
    from chordcheck.invariants import PREDICATES

    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| predicate | arguments |")
    assert lines[start + 1] == "| --- | --- |"
    rows = []
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start + 2 :]):
        row = re.fullmatch(r"\| `(\w+)` \| (\d+(?: or \d+)*) \|", line)
        assert row, f"malformed predicate row {line!r}"
        rows.append((row[1], tuple(int(n) for n in row[2].split(" or "))))
    assert len(rows) == len(dict(rows))
    assert dict(rows) == {name: arities for name, (_, arities) in PREDICATES.items()}


def test_readme_module_references_resolve():
    # Every `module.name` in README whose module is a chordcheck module names
    # an attribute of it, so a renamed or moved function leaves no stale name.
    import importlib
    import pkgutil

    import chordcheck

    modules = [info.name for info in pkgutil.iter_modules(chordcheck.__path__)]
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    refs = set(re.findall(rf"`((?:{'|'.join(modules)})(?:\.\w+)+)`", text))
    assert refs
    for ref in sorted(refs):
        obj = importlib.import_module(f"chordcheck.{ref.split('.')[0]}")
        for attr in ref.split(".")[1:]:
            assert hasattr(obj, attr), f"README names {ref}, which does not resolve"
            obj = getattr(obj, attr)
