"""Failure-path tests for the hardened ensemble executor.

Covers the robustness contract: every seed runs exactly once and a
seed-run that raises is a failure on that run, the BrokenProcessPool
serial fallback, no orphaned workers after KeyboardInterrupt, and the
utilization fix (stats report the workers actually used, not the
requested width).
"""

import multiprocessing
import os
import time
from functools import partial

import pytest

from repro.arrays import UniformLinearArray
from repro.baselines import OracleBeam
from repro.channel.blockage import random_blockage_schedule
from repro.faults import FaultSpec
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.executor import (
    EnsembleError,
    EnsembleSpec,
    execute_ensemble,
)
from repro.sim.link import build_link_simulator
from repro.sim.scenarios import indoor_two_path_scenario

ARRAY = UniformLinearArray(num_elements=8)


# Module-level factories: picklable by reference for the process pool.

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


def flaky_scenario(seed, marker_dir=None):
    """Fails the first time each seed runs, succeeds after that."""
    marker = os.path.join(marker_dir, f"seen-{seed}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"transient failure for seed {seed}")
    return make_scenario(seed)


def pool_killer_scenario(seed):
    """Kills any pool worker hard; runs normally in the parent.

    ``os._exit`` skips all cleanup, so the pool sees a dead worker and
    raises BrokenProcessPool; the in-process serial fallback (which runs
    in the parent, where ``parent_process()`` is None) then succeeds.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return make_scenario(seed)


def poisoned_scenario(seed, bad_seeds=()):
    if seed in bad_seeds:
        raise RuntimeError(f"poisoned seed {seed}")
    return make_scenario(seed)


def interrupting_scenario(seed):
    if seed == 0:
        raise KeyboardInterrupt()
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


def drain_workers(wait_s=5.0):
    """Wait for every child process to exit; returns the stragglers."""
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()
        if not children:
            return []
        time.sleep(0.05)
    return multiprocessing.active_children()


class TestSpecValidation:
    def test_faults_must_be_specs(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            fast_spec(faults=("probe_loss:0.1",))


class TestOneRunPerSeed:
    def test_transient_failure_is_a_run_failure(self, tmp_path):
        spec = fast_spec(
            scenario_factory=partial(
                flaky_scenario, marker_dir=str(tmp_path)
            ),
            seeds=range(3),
            max_failure_fraction=1.0,
        )
        with pytest.raises(EnsembleError) as excinfo:
            execute_ensemble(spec)
        failures = excinfo.value.failures
        # Every seed failed: a second run of any of them would succeed.
        assert [f.seed for f in failures] == [0, 1, 2]
        assert all("transient failure" in f.error for f in failures)

    def test_injected_crash_fails_its_only_run(self):
        spec = fast_spec(
            seeds=range(2),
            max_failure_fraction=1.0,
            faults=(FaultSpec(kind="worker_crash", rate=1.0),),
        )
        with pytest.raises(EnsembleError) as excinfo:
            execute_ensemble(spec)
        failures = excinfo.value.failures
        assert [f.seed for f in failures] == [0, 1]
        assert all(f.kind == "crash" for f in failures)
        assert all("attempt" not in f.error for f in failures)

    def test_no_retry_event_on_failure(self):
        from repro.telemetry import TelemetryRecorder, use_recorder

        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            summary = execute_ensemble(
                fast_spec(
                    scenario_factory=partial(
                        poisoned_scenario, bad_seeds=(1,)
                    ),
                    seeds=range(2),
                )
            )
        assert [f.seed for f in summary.failures] == [1]
        assert "run_retry" not in {e.kind for e in recorder.events}
        # Only the healthy seed's run reached the trace.
        assert summary.telemetry.num_runs == 1


class TestBrokenPoolFallback:
    def test_dead_worker_falls_back_to_serial(self):
        spec = fast_spec(
            scenario_factory=pool_killer_scenario,
            seeds=range(4),
            workers=2,
            max_failure_fraction=1.0,
        )
        summary = execute_ensemble(spec)
        # Every seed ends up with metrics: the broken pool's leftovers
        # ran in the parent process, where the factory behaves.
        assert len(summary.metrics) == 4
        assert summary.failures == ()
        assert summary.stats.serial_fallback_runs > 0
        assert "serial-fallback" in summary.stats.describe()

    def test_fallback_engaged_event(self):
        from repro.telemetry import TelemetryRecorder, use_recorder

        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            execute_ensemble(
                fast_spec(
                    scenario_factory=pool_killer_scenario,
                    seeds=range(4),
                    workers=2,
                    max_failure_fraction=1.0,
                )
            )
        fallbacks = [
            e for e in recorder.events
            if e.kind == "fallback_engaged"
            and e.fields.get("fallback") == "serial_executor"
        ]
        assert fallbacks


class TestKeyboardInterrupt:
    def test_serial_backend_propagates(self):
        with pytest.raises(KeyboardInterrupt):
            execute_ensemble(
                fast_spec(scenario_factory=interrupting_scenario, workers=1)
            )

    def test_process_backend_propagates_and_leaves_no_orphans(self):
        with pytest.raises(KeyboardInterrupt):
            execute_ensemble(
                fast_spec(
                    scenario_factory=interrupting_scenario,
                    seeds=range(6),
                    workers=2,
                )
            )
        stragglers = drain_workers(wait_s=5.0)
        assert stragglers == []


class TestUtilizationFix:
    """Satellite bugfix: stats report the workers actually used."""

    def test_pool_never_wider_than_seed_count(self):
        summary = execute_ensemble(fast_spec(seeds=range(2), workers=8))
        assert summary.stats.workers == 2

    def test_serial_backend_reports_one_worker(self):
        summary = execute_ensemble(fast_spec(seeds=range(3), workers=1))
        assert summary.stats.workers == 1

    def test_utilization_denominator_uses_actual_pool(self):
        # Pre-fix, workers=8 over 2 seeds divided busy time by 8 phantom
        # workers; the denominator must be the pool actually built.
        stats = execute_ensemble(fast_spec(seeds=range(2), workers=8)).stats
        expected = min(1.0, stats.busy_time_s / (2 * stats.wall_time_s))
        assert stats.utilization == pytest.approx(expected)
