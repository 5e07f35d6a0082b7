"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io import load_network, save_network
from repro.scenarios import figure1_network


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    save_network(figure1_network(), path)
    return path


class TestGenerate:
    def test_generates_valid_model(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code = main(
            [
                "generate",
                "--nodes",
                "16",
                "--commodities",
                "2",
                "--seed",
                "5",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        network = load_network(out)
        assert network.physical.num_nodes == 16
        assert network.num_commodities == 2
        assert "wrote" in capsys.readouterr().out


class TestInfo:
    def test_prints_summary(self, model_path, capsys):
        assert main(["info", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "StreamNetwork" in out
        assert "S1" in out and "S2" in out

    def test_json_output(self, model_path, capsys):
        assert main(["info", str(model_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.info/1"
        assert doc["nodes"] > 0 and doc["links"] > 0
        assert all("utility" in c for c in doc["commodities"])
        assert doc["extended"]["edges"] > doc["links"]


class TestSolve:
    def test_gradient_solve_writes_solution(self, model_path, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(
            [
                "solve",
                str(model_path),
                "--method",
                "gradient",
                "--max-iterations",
                "800",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["method"] == "gradient"
        assert data["utility"] > 0
        assert "total utility" in capsys.readouterr().out

    def test_optimal_solve(self, model_path, capsys):
        assert main(["solve", str(model_path), "--method", "optimal"]) == 0
        assert "lp" in capsys.readouterr().out

    def test_backpressure_solve(self, model_path, capsys):
        code = main(
            [
                "solve",
                str(model_path),
                "--method",
                "backpressure",
                "--max-iterations",
                "3000",
            ]
        )
        assert code == 0
        assert "backpressure" in capsys.readouterr().out

    def test_adaptive_flag(self, model_path, capsys):
        code = main(
            [
                "solve",
                str(model_path),
                "--adaptive",
                "--max-iterations",
                "500",
            ]
        )
        assert code == 0

    def test_unknown_method_rejected(self, model_path):
        with pytest.raises(SystemExit):
            main(["solve", str(model_path), "--method", "magic"])

    def test_json_output_embeds_metrics(self, model_path, capsys):
        code = main(
            ["solve", str(model_path), "--max-iterations", "200", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.result/1"
        assert doc["solution"]["method"] == "gradient"
        assert len(doc["trajectory"]["iterations"]) >= 1
        assert doc["metrics"]["schema"] == "repro.metrics/1"
        assert doc["metrics"]["counters"]["flow_solves"] >= 1

    def test_metrics_and_trace_out(self, model_path, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        code = main(
            [
                "solve",
                str(model_path),
                "--max-iterations",
                "100",
                "--metrics-out",
                str(metrics),
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        mdoc = json.loads(metrics.read_text())
        assert mdoc["schema"] == "repro.metrics/1"
        assert "phase.iteration.seconds" in mdoc["histograms"]
        assert mdoc["events"]  # full timeline in the file form
        tdoc = json.loads(trace.read_text())
        assert any(e.get("ph") == "X" for e in tdoc["traceEvents"])

    def test_distributed_method(self, model_path, capsys):
        code = main(
            [
                "solve",
                str(model_path),
                "--method",
                "distributed",
                "--max-iterations",
                "10",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["average_messages_per_iteration"] > 0
        assert doc["metrics"]["counters"]["messages_total"] > 0

    def test_step_size_flag(self, model_path, capsys):
        code = main(
            [
                "solve",
                str(model_path),
                "--step-size",
                "0.05",
                "--max-iterations",
                "50",
            ]
        )
        assert code == 0

    def test_workers_rejected_for_optimal(self, model_path):
        with pytest.raises(TypeError, match="workers"):
            main(
                ["solve", str(model_path), "--method", "optimal", "--workers", "2"]
            )


class TestProfile:
    def test_prints_phase_timings(self, model_path, capsys):
        code = main(["profile", str(model_path), "--max-iterations", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Phase timings" in out
        assert "flow_solve" in out and "gamma" in out
        assert "flow_solves" in out  # counters section
        assert "final utility" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag", ["--workers", "--staleness"])
    def test_serve_has_no_pool_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, "2"])
        assert exc.value.code == 2  # an argparse error, before any work
        assert "unrecognized arguments" in capsys.readouterr().err


class TestScenario:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "churn-120" in out and "fat-tree-16" in out

    def test_list_json(self, capsys):
        assert main(["scenario", "list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.scenarios/1"
        names = {row["name"] for row in doc["scenarios"]}
        assert {"churn-120", "serve-mix-120", "fat-tree-16", "isp-32"} <= names

    def test_run_online_json(self, capsys):
        code = main(
            ["scenario", "run", "churn-smoke-20", "--json", "--iterations", "150"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.scenario.run/1"
        assert doc["mode"] == "online"
        assert doc["events"] == 12
        assert doc["final_utility"] > 0

    def test_run_unknown_name(self):
        from repro.exceptions import ModelError

        with pytest.raises(ModelError):
            main(["scenario", "run", "no-such-scenario"])

    def test_solve_with_scenario_flag(self, capsys):
        code = main(
            ["solve", "--scenario", "figure1", "--max-iterations", "200", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["context"]["model"] == "scenario:figure1"

    def test_solve_rejects_model_plus_scenario(self, model_path):
        with pytest.raises(SystemExit):
            main(["solve", str(model_path), "--scenario", "figure1"])

    def test_solve_requires_some_input(self):
        with pytest.raises(SystemExit):
            main(["solve"])
