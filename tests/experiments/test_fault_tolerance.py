"""Smoke tests for the fault_tolerance chaos-sweep experiment."""

import json

import pytest

from repro.experiments import fault_tolerance
from repro.experiments.registry import ExperimentConfig, get_experiment
from repro.faults import FaultSpec


@pytest.fixture(scope="module")
def sweep():
    return fault_tolerance.run_fault_rate_sweep(
        rates=(0.0, 0.3), seeds=range(2), duration_s=0.1
    )


class TestSweep:
    def test_shape(self, sweep):
        assert sweep["kind"] == "probe_loss"
        assert sweep["rates"] == [0.0, 0.3]
        assert set(sweep["curves"]) == {"mmreliable", "reactive"}
        for points in sweep["curves"].values():
            assert [p["rate"] for p in points] == [0.0, 0.3]
            for point in points:
                assert 0.0 <= point["reliability"] <= 1.0
                assert point["completed_runs"] == 2

    def test_acceptance_zero_failures_under_chaos(self, sweep):
        # ISSUE acceptance: every run completes even at rate 0.3.
        for points in sweep["curves"].values():
            assert all(p["failed_runs"] == 0 for p in points)

    def test_json_exportable(self, sweep):
        json.dumps(sweep)  # plain scalars only

    def test_report_mentions_the_story(self, sweep):
        text = fault_tolerance.render({"sweep": sweep})
        assert "probe_loss" in text
        assert "mmReliable" in text
        assert "reactive" in text
        assert "0.30" in text


class TestRegistryIntegration:
    def test_registered(self):
        experiment = get_experiment("fault_tolerance")
        assert "fault" in experiment.title

    def test_runs_through_registry(self):
        experiment = get_experiment("fault_tolerance")
        result = experiment.run(ExperimentConfig(seeds=2))
        assert "sweep" in result.data
        assert "reliability" in experiment.render(result)

    def test_cli_fault_selects_kind(self):
        experiment = get_experiment("fault_tolerance")
        config = ExperimentConfig(
            seeds=2, faults=(FaultSpec(kind="feedback_dropout", rate=0.1),)
        )
        result = experiment.run(config)
        assert result.data["sweep"]["kind"] == "feedback_dropout"


class TestConfigFaults:
    def test_faults_validated(self):
        with pytest.raises(TypeError):
            ExperimentConfig(faults=("probe_loss:0.1",))

    def test_default_no_faults(self):
        assert ExperimentConfig().faults == ()
