"""Seed-stability contracts for the fault subsystem.

Two guarantees keep chaos experiments scientific:

* ``rate=0.0`` consumes no randomness, so an all-zero campaign is
  bitwise identical to running with no injector at all;
* the fault schedule is a pure function of ``(seed, fault_spec)``, so
  the same campaign reproduces identically whether the ensemble runs
  serial or fanned out over a process pool.
"""

from functools import partial

from repro.experiments.common import make_manager
from repro.experiments.fig18_end2end import _mobile_scenario
from repro.faults import FaultInjector, FaultSpec
from repro.sim.executor import EnsembleSpec, execute_ensemble
from repro.sim.link import build_link_simulator
from repro.telemetry import TelemetryRecorder, use_recorder


def chaos_spec(faults=(), workers=1, seeds=range(4)):
    return EnsembleSpec(
        label="stability",
        simulator_factory=partial(
            build_link_simulator,
            partial(
                _mobile_scenario, speed_mps=1.5, blockage_depth_db=30.0,
                distance_m=25.0,
            ),
            partial(make_manager, "mmreliable"),
            0.1,
        ),
        seeds=seeds,
        workers=workers,
        max_failure_fraction=1.0,
        faults=faults,
    )


class TestZeroRateBitwiseIdentity:
    def test_zero_rate_campaign_matches_no_injector(self):
        baseline = execute_ensemble(chaos_spec())
        zeroed = execute_ensemble(
            chaos_spec(
                faults=(
                    FaultSpec(kind="probe_loss", rate=0.0),
                    FaultSpec(kind="stuck_elements", rate=0.0),
                    FaultSpec(kind="worker_crash", rate=0.0),
                )
            )
        )
        # Frozen dataclasses: equality is bitwise field equality.
        assert baseline.metrics == zeroed.metrics


class TestScheduleReproducibility:
    FAULTS = (
        FaultSpec(kind="probe_loss", rate=0.3),
        FaultSpec(kind="feedback_dropout", rate=0.2),
    )

    def _fault_schedule(self, workers):
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            execute_ensemble(chaos_spec(faults=self.FAULTS, workers=workers))
        return sorted(
            (event.run, event.time_s, event.fields["fault"])
            for event in recorder.events
            if event.kind == "fault_injected"
        )

    def test_identical_across_worker_counts(self):
        serial = self._fault_schedule(workers=1)
        parallel = self._fault_schedule(workers=4)
        assert serial  # chaos actually fired
        assert serial == parallel

    def test_metrics_identical_across_worker_counts(self):
        serial = execute_ensemble(chaos_spec(faults=self.FAULTS, workers=1))
        parallel = execute_ensemble(chaos_spec(faults=self.FAULTS, workers=4))
        assert serial.metrics == parallel.metrics

    def test_injector_schedule_is_pure_function_of_seed_and_spec(self):
        import numpy as np

        spec = (FaultSpec(kind="probe_loss", rate=0.4),)
        logs = []
        for _ in range(2):
            injector = FaultInjector(seed=42, specs=spec)
            rng = np.random.default_rng(0)
            with use_recorder(TelemetryRecorder()) as recorder:
                for i in range(30):
                    injector.filter_probe(
                        rng.normal(size=16) + 0j, time_s=i * 1e-3
                    )
            logs.append([(e.time_s, e.fields) for e in recorder.events])
        assert logs[0]  # probes were lost
        assert logs[0] == logs[1]
