"""Tests for the parallel ensemble execution engine.

Covers the acceptance contract: serial-vs-parallel bitwise equality on
fixed seeds, one-poisoned-seed fault tolerance, failure-threshold
escalation, the ``EnsembleSummary`` stats fields, and the serial
fallback for non-picklable factories.
"""

from dataclasses import fields, replace
from functools import partial

import pytest

from repro.arrays import UniformLinearArray
from repro.baselines import OracleBeam
from repro.channel.blockage import random_blockage_schedule
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.executor import (
    EnsembleError,
    EnsembleSpec,
    ExecutorStats,
    RunFailure,
    execute_ensemble,
    parallel_map,
)
from repro.sim.link import build_link_simulator
from repro.sim.scenarios import indoor_two_path_scenario
from repro.telemetry import TelemetryRecorder, TelemetrySummary, use_recorder

ARRAY = UniformLinearArray(num_elements=8)


# Module-level factories: picklable by reference, as the process pool
# requires.

def make_scenario(seed):
    return indoor_two_path_scenario(
        ARRAY,
        blockage=random_blockage_schedule(num_paths=2, rng=seed),
    )


def make_oracle(seed):
    sounder = ChannelSounder(
        config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
        rng=seed,
    )
    return OracleBeam(array=ARRAY, sounder=sounder)


def poisoned_scenario(seed, bad_seeds=(3,)):
    if seed in bad_seeds:
        raise RuntimeError(f"poisoned seed {seed}")
    return make_scenario(seed)


def fast_spec(
    scenario_factory=make_scenario,
    manager_factory=make_oracle,
    duration_s=0.02,
    **overrides,
):
    defaults = dict(
        label="oracle",
        simulator_factory=partial(
            build_link_simulator, scenario_factory, manager_factory,
            duration_s,
        ),
        seeds=range(4),
    )
    defaults.update(overrides)
    return EnsembleSpec(**defaults)


class TestSpec:
    def test_seeds_normalized_to_ints(self):
        spec = fast_spec(seeds=[0.0, 1, 2])
        assert spec.seeds == (0, 1, 2)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            fast_spec(seeds=())

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            fast_spec(workers=0)

    def test_invalid_failure_fraction_rejected(self):
        with pytest.raises(ValueError, match="failure"):
            fast_spec(max_failure_fraction=1.5)

    def test_simulator_factory_is_the_only_run_input(self):
        assert [field.name for field in fields(EnsembleSpec)] == [
            "label", "simulator_factory", "seeds", "workers",
            "max_failure_fraction", "faults",
        ]
        with pytest.raises(TypeError, match="simulator_factory"):
            EnsembleSpec(label="oracle", seeds=(0,))


class TestSerialParallelEquality:
    def test_16_seeds_bitwise_identical(self):
        # The acceptance criterion: workers=4 over 16 seeds reproduces
        # the serial metrics exactly, per seed.
        spec = fast_spec(seeds=range(16))
        serial = execute_ensemble(spec)
        parallel = execute_ensemble(replace(spec, workers=4))
        assert len(serial.metrics) == len(parallel.metrics) == 16
        for left, right in zip(serial.metrics, parallel.metrics):
            assert left == right  # frozen dataclasses: bitwise field equality
        assert serial.stats.backend == "serial"
        assert parallel.stats.backend == "process"

    def test_non_picklable_factory_falls_back_to_serial(self):
        spec = fast_spec(
            scenario_factory=lambda seed: make_scenario(seed), workers=4
        )
        with pytest.warns(RuntimeWarning, match="not picklable"):
            summary = execute_ensemble(spec)
        assert summary.stats.backend == "serial"
        assert len(summary.metrics) == 4


class TestFaultTolerance:
    def test_poisoned_seed_recorded_not_fatal(self):
        spec = fast_spec(
            scenario_factory=poisoned_scenario, seeds=range(5)
        )
        summary = execute_ensemble(spec)
        assert len(summary.metrics) == 4
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert isinstance(failure, RunFailure)
        assert failure.seed == 3
        assert "poisoned seed 3" in failure.error
        assert "RuntimeError" in failure.traceback
        assert "failed run" in summary.describe()

    def test_poisoned_seed_in_parallel(self):
        spec = fast_spec(
            scenario_factory=poisoned_scenario, seeds=range(5), workers=4
        )
        summary = execute_ensemble(spec)
        assert [f.seed for f in summary.failures] == [3]
        # Surviving runs match the serial run for the same seeds.
        serial = execute_ensemble(replace(spec, workers=1))
        assert summary.metrics == serial.metrics

    def test_threshold_escalation(self):
        spec = fast_spec(
            scenario_factory=partial(poisoned_scenario, bad_seeds=(1, 3)),
            seeds=range(4),
            max_failure_fraction=0.25,
        )
        with pytest.raises(EnsembleError, match="2/4 runs failed"):
            execute_ensemble(spec)

    def test_threshold_holds_below_budget(self):
        spec = fast_spec(
            scenario_factory=partial(poisoned_scenario, bad_seeds=(1,)),
            seeds=range(4),
            max_failure_fraction=0.25,
        )
        summary = execute_ensemble(spec)
        assert len(summary.failures) == 1

    def test_all_seeds_failing_always_errors(self):
        spec = fast_spec(
            scenario_factory=partial(
                poisoned_scenario, bad_seeds=tuple(range(4))
            ),
            seeds=range(4),
            max_failure_fraction=1.0,
        )
        with pytest.raises(EnsembleError) as excinfo:
            execute_ensemble(spec)
        assert len(excinfo.value.failures) == 4
        assert excinfo.value.total_runs == 4


class TestStats:
    def test_stats_fields(self):
        summary = execute_ensemble(fast_spec(seeds=range(3)))
        stats = summary.stats
        assert isinstance(stats, ExecutorStats)
        assert stats.total_runs == 3
        assert stats.failed_runs == 0
        assert stats.completed_runs == 3
        assert len(stats.run_times_s) == 3
        assert stats.wall_time_s > 0
        assert stats.busy_time_s == pytest.approx(sum(stats.run_times_s))
        assert 0.0 < stats.utilization <= 1.0
        assert stats.runs_per_second > 0
        assert "runs" in stats.describe()

    def test_failed_runs_counted(self):
        summary = execute_ensemble(
            fast_spec(scenario_factory=poisoned_scenario, seeds=range(5))
        )
        assert summary.stats.failed_runs == 1
        assert summary.stats.total_runs == 5
        # Failed runs still contribute their wall time, once each.
        assert len(summary.stats.run_times_s) == 5
        assert summary.stats.total_retries == 0


class TestEnsembleTelemetry:
    def test_disabled_by_default(self):
        summary = execute_ensemble(fast_spec(seeds=range(2)))
        assert summary.telemetry is None

    def test_serial_collection(self):
        with use_recorder(TelemetryRecorder()):
            summary = execute_ensemble(fast_spec(seeds=range(2)))
        telemetry = summary.telemetry
        assert telemetry is not None
        assert telemetry.num_runs == 2
        assert telemetry.count("run_start") == 2
        assert telemetry.count("run_end") == 2
        # The oracle baseline never probes, but it does adapt its MCS.
        assert telemetry.count("mcs_switch") > 0

    def test_multi_worker_merge_matches_serial(self):
        spec = fast_spec(seeds=range(4), workers=4)
        with use_recorder(TelemetryRecorder()):
            parallel = execute_ensemble(spec)
            serial = execute_ensemble(replace(spec, workers=1))
        assert parallel.stats.backend == "process"
        assert parallel.telemetry is not None
        # Event content is deterministic per seed.
        assert parallel.telemetry.num_runs == 4
        assert parallel.telemetry == serial.telemetry

    def test_metrics_bitwise_identical_with_and_without_telemetry(self):
        # The overhead contract: instrumentation never perturbs results.
        plain = execute_ensemble(fast_spec(seeds=range(4)))
        with use_recorder(TelemetryRecorder()):
            traced = execute_ensemble(fast_spec(seeds=range(4)))
        assert traced.telemetry is not None
        assert plain.metrics == traced.metrics

    def test_events_flow_into_parent_recorder(self):
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            summary = execute_ensemble(fast_spec(seeds=range(2), workers=2))
        assert summary.telemetry == TelemetrySummary.from_events(
            recorder.events
        )
        assert len(recorder.events) > 0
        run_labels = {event.run for event in recorder.events}
        assert any("seed0" in label for label in run_labels)
        assert any("seed1" in label for label in run_labels)


class TestParallelMap:
    def test_serial_and_parallel_agree(self):
        items = list(range(6))
        assert parallel_map(_square, items) == [i * i for i in items]
        assert parallel_map(_square, items, workers=3) == [
            i * i for i in items
        ]

    def test_non_picklable_falls_back(self):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            result = parallel_map(lambda x: x + 1, [1, 2, 3], workers=2)
        assert result == [2, 3, 4]

    def test_exceptions_propagate(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(_invert, [1, 0], workers=2)


def _square(value):
    return value * value


def _invert(value):
    return 1 / value
