"""Tests for CSV trace/metrics export."""

import numpy as np
import pytest

from repro.sim.export import (
    METRICS_COLUMNS,
    TRACE_COLUMNS,
    metrics_to_csv,
    trace_to_csv,
)
from repro.sim.link import SimulationTrace
from repro.sim.metrics import LinkMetrics


def make_trace():
    times = np.linspace(0.0, 0.01, 11)
    snr = np.full(11, 20.0)
    snr[3] = 2.0  # one outage sample
    return SimulationTrace(
        times_s=times,
        snr_db=snr,
        actions=((0.005, "reprobe"),),
        training_windows=((0.0, 0.005),),
        training_rounds=1,
        probe_airtime_s=1e-3,
        bandwidth_hz=400e6,
    )


class TestTraceCsv:
    def test_header_and_rows(self):
        text = trace_to_csv(make_trace())
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 12  # header + 11 samples

    def test_outage_flag(self):
        lines = trace_to_csv(make_trace()).strip().splitlines()
        flags = [int(line.split(",")[-1]) for line in lines[1:]]
        assert sum(flags) == 1
        assert flags[3] == 1

    def test_spectral_efficiency_column(self):
        lines = trace_to_csv(make_trace()).strip().splitlines()
        efficiency = float(lines[1].split(",")[2])
        assert efficiency > 0


class TestMetricsCsv:
    def make_metrics(self):
        trace = make_trace()
        return trace.metrics()

    def test_table(self):
        text = metrics_to_csv(
            [("mmreliable", self.make_metrics()), ("reactive", self.make_metrics())]
        )
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(METRICS_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith("mmreliable,")

    def test_roundtrippable_values(self):
        metrics = self.make_metrics()
        text = metrics_to_csv([("x", metrics)])
        row = text.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(metrics.reliability, abs=1e-6)
        assert int(row[6]) == metrics.training_rounds

    def test_type_error(self):
        with pytest.raises(TypeError):
            metrics_to_csv([("x", object())])


class TestJsonExport:
    def make_summary(self):
        from repro.sim.executor import EnsembleSummary, ExecutorStats, RunFailure

        metrics = make_trace().metrics()
        return EnsembleSummary(
            label="oracle",
            metrics=(metrics, metrics),
            failures=(
                RunFailure(seed=7, error="RuntimeError('x')",
                           traceback="...", elapsed_s=0.1),
            ),
            stats=ExecutorStats(
                backend="process", workers=2, total_runs=3, failed_runs=1,
                wall_time_s=0.5, run_times_s=(0.1, 0.2, 0.1),
            ),
        )

    def test_to_jsonable_primitives(self):
        from repro.sim.export import to_jsonable

        assert to_jsonable({"a": np.float64(1.5)}) == {"a": 1.5}
        assert to_jsonable(np.arange(3)) == [0, 1, 2]
        assert to_jsonable((1, 2)) == [1, 2]
        assert to_jsonable(1 + 2j) == {"real": 1.0, "imag": 2.0}

    def test_to_jsonable_non_finite(self):
        from repro.sim.export import to_jsonable

        assert to_jsonable(float("nan")) is None
        assert to_jsonable(float("inf")) == "Infinity"
        assert to_jsonable(float("-inf")) == "-Infinity"
        assert to_jsonable(np.float64("nan")) is None
        assert to_jsonable(complex(float("nan"), float("inf"))) == {
            "real": None, "imag": "Infinity"
        }

    def test_non_finite_round_trips_through_strict_json(self):
        import json

        from repro.sim.export import result_to_json

        payload = {
            "snr": float("nan"),
            "bounds": [float("inf"), float("-inf"), 1.5],
        }
        parsed = json.loads(result_to_json(payload))
        assert parsed == {
            "snr": None, "bounds": ["Infinity", "-Infinity", 1.5]
        }

    def test_summary_expanded(self):
        from repro.sim.export import to_jsonable

        payload = to_jsonable(self.make_summary())
        assert payload["label"] == "oracle"
        assert len(payload["runs"]) == 2
        assert payload["runs"][0]["reliability"] == pytest.approx(
            make_trace().metrics().reliability
        )
        assert payload["failures"][0]["seed"] == 7
        assert payload["stats"]["failed_runs"] == 1
        assert 0 < payload["stats"]["utilization"] <= 1
        assert payload["summary"]["median_reliability"] <= 1.0

    def test_result_json_round_trips(self):
        import json

        from repro.experiments.registry import (
            ExperimentConfig,
            ExperimentResult,
        )
        from repro.sim.export import result_to_json

        result = ExperimentResult(
            identifier="demo",
            title="demo experiment",
            config=ExperimentConfig(seeds=4, workers=2),
            data={"summary": self.make_summary(), "grid": np.eye(2)},
            elapsed_s=1.25,
        )
        parsed = json.loads(result_to_json(result))
        assert parsed["identifier"] == "demo"
        assert parsed["config"] == {
            "seeds": 4, "workers": 2, "faults": [], "scenario": None,
        }
        assert parsed["data"]["grid"] == [[1.0, 0.0], [0.0, 1.0]]
        assert parsed["data"]["summary"]["stats"]["backend"] == "process"

    def test_write_result_json(self, tmp_path):
        import json

        from repro.sim.export import write_result_json

        target = tmp_path / "result.json"
        with open(target, "w", encoding="utf-8") as stream:
            write_result_json({"x": np.float32(2.0)}, stream)
        assert json.loads(target.read_text()) == {"x": 2.0}
