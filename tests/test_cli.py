"""Tests for the CLI and experiment registry."""

import io

import pytest

from repro.cli import build_parser, command_list, command_run
from repro.experiments.registry import (
    REGISTRY,
    experiment_ids,
    get_experiment,
)


class TestRegistry:
    def test_all_paper_figures_registered(self):
        ids = experiment_ids()
        for expected in (
            "fig04", "fig08", "fig11", "fig14", "fig15", "fig16",
            "fig17", "fig18", "fig19", "reliability", "ablations",
        ):
            assert expected in ids

    def test_get_experiment(self):
        experiment = get_experiment("fig14")
        assert "Fig. 14" in experiment.title

    def test_unknown_experiment_lists_known(self):
        with pytest.raises(KeyError, match="fig14"):
            get_experiment("fig99")

    def test_unhashable_experiment_id_is_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment(["fig14"])

    def test_entries_are_callable(self):
        for experiment in REGISTRY.values():
            assert callable(experiment.run)
            assert callable(experiment.render)


class TestCli:
    def test_list(self):
        out = io.StringIO()
        assert command_list(out=out) == 0
        text = out.getvalue()
        assert "fig14" in text
        assert "Fig. 18" in text

    def test_run_fast_experiment(self):
        out = io.StringIO()
        assert command_run("reliability", out=out) == 0
        text = out.getvalue()
        assert "reliability model" in text
        assert "completed in" in text

    def test_run_unknown(self):
        out = io.StringIO()
        assert command_run("fig99", out=out) == 2
        assert "error" in out.getvalue()

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_run(self):
        arguments = build_parser().parse_args(["run", "fig14"])
        assert arguments.command == "run"
        assert arguments.experiment == "fig14"


class TestStructuredExperimentApi:
    def test_run_returns_structured_result(self):
        from repro.experiments.registry import (
            ExperimentConfig,
            ExperimentResult,
        )

        experiment = get_experiment("reliability")
        result = experiment.run()
        assert isinstance(result, ExperimentResult)
        assert result.identifier == "reliability"
        assert result.config == ExperimentConfig()
        assert set(result.data) == {"analytic", "monte_carlo"}
        assert result.elapsed_s > 0

    def test_render_accepts_result_or_data(self):
        experiment = get_experiment("reliability")
        result = experiment.run()
        assert experiment.render(result) == experiment.render(result.data)
        assert "1 - beta^k" in experiment.render(result)

    def test_config_validation(self):
        from repro.experiments.registry import ExperimentConfig

        with pytest.raises(ValueError):
            ExperimentConfig(seeds=0)
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)
        assert ExperimentConfig(seeds=5).seed_range(10) == range(5)
        assert ExperimentConfig().seed_range(10) == range(10)


class TestCliStructuredFlags:
    def test_parser_accepts_new_flags(self):
        arguments = build_parser().parse_args(
            ["run", "fig18", "--workers", "4", "--seeds", "32",
             "--json", "/tmp/out.json"]
        )
        assert arguments.workers == 4
        assert arguments.seeds == 32
        assert arguments.json_path == "/tmp/out.json"

    def test_parser_flag_defaults(self):
        arguments = build_parser().parse_args(["run", "fig14"])
        assert arguments.workers == 1
        assert arguments.seeds is None
        assert arguments.json_path is None

    def test_run_with_json_dump(self, tmp_path):
        import json

        target = tmp_path / "reliability.json"
        out = io.StringIO()
        assert command_run("reliability", json_path=str(target), out=out) == 0
        assert f"{target}" in out.getvalue()
        parsed = json.loads(target.read_text())
        assert parsed["identifier"] == "reliability"
        assert parsed["config"] == {
            "seeds": None, "workers": 1, "faults": [], "scenario": None,
        }
        assert "analytic" in parsed["data"]

    def test_run_rejects_bad_workers(self):
        out = io.StringIO()
        assert command_run("reliability", workers=0, out=out) == 2
        assert "error" in out.getvalue()


class TestCliScenarioFlag:
    def test_parser_accepts_scenario(self):
        arguments = build_parser().parse_args(
            ["run", "--scenario", "network-smoke"]
        )
        assert arguments.experiment is None
        assert arguments.scenario == "network-smoke"

    def test_scenario_defaults_to_network_scale(self):
        out = io.StringIO()
        status = command_run(None, scenario="network-smoke", out=out)
        assert status == 0
        text = out.getvalue()
        assert "network-scale" in text
        assert "completed in" in text

    def test_unknown_scenario_exits_2(self):
        out = io.StringIO()
        status = command_run(None, scenario="no-such-scenario", out=out)
        assert status == 2
        assert "error" in out.getvalue()

    def test_scenario_from_json_file(self, tmp_path):
        import json

        from repro.sim.spec import ScenarioSpec

        spec = ScenarioSpec(
            name="cli-file", cells=2, users=2, duration_s=0.05
        )
        path = tmp_path / "cli-file.json"
        path.write_text(json.dumps(spec.to_dict()))
        out = io.StringIO()
        status = command_run(None, scenario=str(path), out=out)
        assert status == 0
        assert "network-scale" in out.getvalue()

    def test_no_experiment_and_no_scenario_exits_2(self):
        out = io.StringIO()
        assert command_run(None, out=out) == 2
        assert "error" in out.getvalue()


class TestCliFaultFlags:
    def test_parser_accepts_fault_flags(self):
        arguments = build_parser().parse_args(
            ["run", "fig18", "--fault", "probe_loss:0.1",
             "--fault", "slow_run:1.0:delay_s=0.5",
             "--faults", "/tmp/campaign.json"]
        )
        assert arguments.faults == ["probe_loss:0.1", "slow_run:1.0:delay_s=0.5"]
        assert arguments.faults_path == "/tmp/campaign.json"

    def test_parser_fault_defaults(self):
        arguments = build_parser().parse_args(["run", "fig14"])
        assert arguments.faults is None
        assert arguments.faults_path is None

    def test_bad_fault_text_exits_2(self):
        out = io.StringIO()
        status = command_run(
            "reliability", fault_args=["bogus:0.5"], out=out
        )
        assert status == 2
        assert "unknown fault kind" in out.getvalue()

    def test_bad_fault_rate_exits_2(self):
        out = io.StringIO()
        status = command_run(
            "reliability", fault_args=["probe_loss:not-a-number"], out=out
        )
        assert status == 2
        assert "error" in out.getvalue()

    def test_missing_faults_file_exits_2(self):
        out = io.StringIO()
        status = command_run(
            "reliability", faults_path="/nonexistent/faults.json", out=out
        )
        assert status == 2
        assert "cannot read" in out.getvalue()

    def test_faults_file_threaded_into_config(self, tmp_path):
        import json

        campaign = tmp_path / "faults.json"
        campaign.write_text(json.dumps([{"kind": "probe_loss", "rate": 0.0}]))
        out = io.StringIO()
        # reliability ignores faults, but the config must build cleanly.
        status = command_run(
            "reliability", faults_path=str(campaign), out=out
        )
        assert status == 0
        assert "completed in" in out.getvalue()
