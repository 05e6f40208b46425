"""Failure-path tests for the hardened ensemble executor.

Covers the robustness contract: retry accounting and exhaustion, the
BrokenProcessPool serial fallback, no orphaned workers after
KeyboardInterrupt, and the utilization fix (stats report the workers
actually used, not the requested width).
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
    """Fails the first time each seed runs, succeeds on retry."""
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


def interrupting_scenario(seed):
    if seed == 0:
        raise KeyboardInterrupt()
    return make_scenario(seed)


def pool_killer_flaky_scenario(seed, marker_dir=None):
    """Kills pool workers hard; fails once, then succeeds in the parent.

    Round 0 breaks the pool and the serial fallback fails transiently,
    so the *retry* round must also run on the serial path (the pool is
    gone for the rest of the ensemble) and keep the fallback accounting.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    marker = os.path.join(marker_dir, f"seen-{seed}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"transient failure for seed {seed}")
    return make_scenario(seed)


def fast_spec(**overrides):
    defaults = dict(
        label="oracle",
        scenario_factory=make_scenario,
        manager_factory=make_oracle,
        seeds=range(4),
        duration_s=0.02,
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
    def test_max_retries_must_be_non_negative(self):
        with pytest.raises(ValueError, match="max_retries"):
            fast_spec(max_retries=-1)

    def test_faults_must_be_specs(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            fast_spec(faults=("probe_loss:0.1",))


class TestRetries:
    def test_transient_failure_recovered_by_retry(self, tmp_path):
        spec = fast_spec(
            scenario_factory=partial(
                flaky_scenario, marker_dir=str(tmp_path)
            ),
            seeds=range(3),
            workers=1,
            max_retries=1,
        )
        summary = execute_ensemble(spec)
        assert summary.failures == ()
        assert len(summary.metrics) == 3
        assert summary.stats.total_retries == 3
        assert summary.stats.retried_runs == 3
        assert "retries over 3 run(s)" in summary.stats.describe()

    def test_retry_accounting_is_deterministic(self, tmp_path):
        def run(subdir):
            directory = tmp_path / subdir
            directory.mkdir()
            return execute_ensemble(
                fast_spec(
                    scenario_factory=partial(
                        flaky_scenario, marker_dir=str(directory)
                    ),
                    seeds=range(2),
                    workers=1,
                    max_retries=2,
                )
            )

        first, second = run("a"), run("b")
        assert first.stats.total_retries == second.stats.total_retries
        assert first.metrics == second.metrics

    def test_injected_crash_exhausts_retries(self):
        spec = fast_spec(
            seeds=range(2),
            workers=1,
            max_retries=2,
            max_failure_fraction=1.0,
            faults=(FaultSpec(kind="worker_crash", rate=1.0),),
        )
        with pytest.raises(EnsembleError) as excinfo:
            execute_ensemble(spec)
        failures = excinfo.value.failures
        assert all(f.kind == "crash" for f in failures)
        # The surviving failure is the final attempt.
        assert all(f.attempt == 2 for f in failures)

    def test_retry_recovers_injected_chaos(self):
        # At rate 0.5 the per-attempt redraw means enough retries always
        # find a crash-free attempt for these seeds (deterministic).
        spec = fast_spec(
            seeds=range(4),
            workers=1,
            max_retries=6,
            max_failure_fraction=1.0,
            faults=(FaultSpec(kind="worker_crash", rate=0.5),),
        )
        summary = execute_ensemble(spec)
        assert summary.failures == ()
        assert summary.stats.total_retries > 0

    def test_run_retry_event_emitted(self, tmp_path):
        from repro.telemetry import TelemetryRecorder, use_recorder

        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            execute_ensemble(
                fast_spec(
                    scenario_factory=partial(
                        flaky_scenario, marker_dir=str(tmp_path)
                    ),
                    seeds=range(2),
                    workers=1,
                    max_retries=1,
                )
            )
        retries = [e for e in recorder.events if e.kind == "run_retry"]
        assert len(retries) == 2
        assert all(e.fields["attempt"] == 1 for e in retries)
        assert all("transient failure" in e.fields["error"] for e in retries)


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

    def test_broken_pool_stays_serial_across_retry_rounds(self, tmp_path):
        spec = fast_spec(
            scenario_factory=partial(
                pool_killer_flaky_scenario, marker_dir=str(tmp_path)
            ),
            seeds=range(3),
            workers=2,
            max_retries=1,
            max_failure_fraction=1.0,
        )
        summary = execute_ensemble(spec)
        # Round 0 broke the pool and its serial fallback failed
        # transiently; the retry round ran serially too (markers exist
        # now, so it succeeded) and kept the fallback accounting.
        assert summary.failures == ()
        assert len(summary.metrics) == 3
        assert summary.stats.retried_runs == 3
        assert summary.stats.serial_fallback_runs > 3

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
