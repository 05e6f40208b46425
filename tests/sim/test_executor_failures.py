"""Failure-path tests for the hardened ensemble executor.

Covers the robustness contract: every seed runs exactly once and a
seed-run that raises is a failure on that run, a dead pool worker fails
the seeds it left without a result (nothing re-runs them in the
caller), no orphaned workers after KeyboardInterrupt, and the
utilization fix (stats report the workers actually used, not the
requested width).
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
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
    raises BrokenProcessPool.  A seed that ran in the parent would
    succeed, so any success means the caller re-ran a seed.
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


#: Runs an ensemble whose scenario factory kills whichever process
#: builds seed 1, the caller included, and prints each seed's outcome.
SEED_KILLER = textwrap.dedent(
    """
    import os
    from functools import partial

    from repro.arrays import UniformLinearArray
    from repro.baselines import OracleBeam
    from repro.phy.ofdm import ChannelSounder, OfdmConfig
    from repro.sim.executor import EnsembleError, EnsembleSpec, execute_ensemble
    from repro.sim.link import build_link_simulator
    from repro.sim.scenarios import indoor_two_path_scenario

    ARRAY = UniformLinearArray(num_elements=8)


    def scenario(seed):
        if seed == 1:
            os._exit(3)
        return indoor_two_path_scenario(ARRAY)


    def manager(seed):
        sounder = ChannelSounder(
            config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
            rng=seed,
        )
        return OracleBeam(array=ARRAY, sounder=sounder)


    if __name__ == "__main__":
        spec = EnsembleSpec(
            label="killer",
            simulator_factory=partial(
                build_link_simulator, scenario, manager, 0.02
            ),
            seeds=range(4),
            workers=2,
            max_failure_fraction=1.0,
        )
        try:
            failures = execute_ensemble(spec).failures
        except EnsembleError as error:  # no seed returned metrics
            failures = error.failures
        kinds = {failure.seed: failure.kind for failure in failures}
        for seed in range(4):
            print(seed, kinds.get(seed, "ok"))
    """
)


class TestDeadWorker:
    def test_dead_worker_fails_its_seeds_in_the_pool(self):
        spec = fast_spec(
            scenario_factory=pool_killer_scenario,
            seeds=range(4),
            workers=2,
            max_failure_fraction=1.0,
        )
        with pytest.raises(EnsembleError) as excinfo:
            execute_ensemble(spec)
        # Every pool worker dies and nothing re-runs a seed in this
        # process, where the factory would have succeeded.
        failures = excinfo.value.failures
        assert [f.seed for f in failures] == [0, 1, 2, 3]
        assert all(f.kind == "crash" for f in failures)

    @staticmethod
    def run_seed_killer(tmp_path):
        import repro

        script = tmp_path / "seed_killer.py"
        script.write_text(SEED_KILLER)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        completed = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        return dict(line.split() for line in completed.stdout.splitlines())

    def test_dead_worker_never_takes_the_caller_down(self, tmp_path):
        outcomes = self.run_seed_killer(tmp_path)
        assert outcomes["1"] == "crash"
        assert set(outcomes.values()) <= {"ok", "crash"}

    def test_dead_worker_fails_only_the_seeds_it_held(self, tmp_path):
        # Seeds 0 and 1 share the first pool; seeds 2 and 3 were never
        # submitted to it, so they run on a fresh pool.
        outcomes = self.run_seed_killer(tmp_path)
        assert outcomes["2"] == outcomes["3"] == "ok"
        assert {s for s, kind in outcomes.items() if kind == "crash"} <= {"0", "1"}


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
