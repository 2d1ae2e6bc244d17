"""CLI behavior: subcommands, exit codes, scenario replay, DOT export."""

import json
from pathlib import Path

import pytest

from chordcheck import cli
from chordcheck.ident import RingParams
from chordcheck.netstate import init_network, network_to_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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

    def test_unknown_flag_exit_64(self):
        assert cli.main(["replay", "--bogus"]) == cli.EXIT_USAGE

    def test_unknown_command_exit_64(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


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
        assert data["info"] == {"cases": 43144, "capped": False}

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
                "--n", "7", "--seed", "0", "--samples", "5000", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        artifact = json.loads(out.read_text())
        assert artifact["trial"] == "six-conjunct"
        assert artifact["event"]["kind"] in (
            "Fail", "StabilizeFromOldSuccessor", "StabilizeFromNewSuccessor"
        )


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

    def test_explore_command(self, capsys):
        code = cli.main(
            [
                "explore", "--base", "7,19,33", "--joins", "1",
                "--depth", "6", "--joiners", "10",
            ]
        )
        assert code == cli.EXIT_OK
        assert "explored" in capsys.readouterr().out
