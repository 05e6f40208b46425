"""Graceful-degradation tests: faults flag and fall back, never crash.

The headline regression: before the fault subsystem, a lost probe zeroed
the measured reference power and ``two_probe_ratio``'s ``p1 > 0``
precondition escaped as a ``ValueError`` through the maintenance loop,
``LinkSimulator.run``, and the executor — one lost probe killed a whole
seed-run.  These tests pin the new contract at every layer: the
estimator still enforces its precondition, but every consumer above it
validates, retries, flags, and falls back instead of dying.
"""

from functools import partial

import numpy as np
import pytest

from repro.arrays import UniformLinearArray
from repro.core.probing import ProbeController, two_probe_ratio
from repro.experiments.common import make_manager
from repro.experiments.fig18_end2end import _mobile_scenario
from repro.faults import FaultInjector, FaultSpec
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.phy.reference_signals import ProbeBudget
from repro.sim.executor import EnsembleSpec, execute_ensemble
from repro.sim.link import LinkSimulator, build_link_simulator
from repro.sim.scenarios import two_path_channel

ARRAY = UniformLinearArray(num_elements=8)


def make_controller(seed=0, faults=()):
    sounder = ChannelSounder(
        config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
        rng=seed,
    )
    if faults:
        sounder.fault_injector = FaultInjector(seed=seed, specs=faults)
    return ProbeController(array=ARRAY, sounder=sounder)


@pytest.fixture
def channel():
    return two_path_channel(ARRAY)


class TestEstimatorContractUnchanged:
    """The low-level precondition still holds — validation moved up."""

    def test_two_probe_ratio_still_raises_on_dead_reference(self):
        with pytest.raises(ValueError, match="strictly positive"):
            two_probe_ratio(0.0, 1.0, 1.0, 1.0)

    def test_structural_misuse_still_raises(self, channel):
        controller = make_controller()
        with pytest.raises(ValueError, match="at least one"):
            controller.probe_relative_gains(channel, [])
        with pytest.raises(ValueError, match="reference powers"):
            controller.probe_relative_gains(
                channel, [0.0, 0.4], reference_powers=[np.ones(64)]
            )


class TestProbeOutcomeFlags:
    ANGLES = (0.0, 0.45)

    def test_clean_round_is_fully_valid(self, channel):
        outcome = make_controller().probe_relative_gains(
            channel, self.ANGLES
        )
        assert outcome.valid == (True, True)
        assert not outcome.degraded
        assert outcome.retries == 0

    def test_total_probe_loss_flags_instead_of_raising(self, channel):
        # Every probe lost: pre-PR this was the escaping ValueError.
        controller = make_controller(
            faults=(FaultSpec(kind="probe_loss", rate=1.0),)
        )
        outcome = controller.probe_relative_gains(
            channel, self.ANGLES, max_retries=2
        )
        assert outcome.degraded
        assert outcome.valid[0] is False
        assert outcome.estimate.relative_gains[1] == 0.0
        assert outcome.retries > 0  # the budgeted retries were spent

    def test_retries_recover_from_transient_loss(self, channel):
        # At 50% loss a couple of retries nearly always find a clean
        # probe; the schedule is seed-deterministic so this never flakes.
        controller = make_controller(
            seed=1, faults=(FaultSpec(kind="probe_loss", rate=0.5),)
        )
        outcome = controller.probe_relative_gains(
            channel, self.ANGLES, max_retries=4
        )
        assert outcome.valid[0] is True

    def test_retry_emits_probe_retry_events(self, channel):
        from repro.telemetry import TelemetryRecorder, use_recorder

        controller = make_controller(
            faults=(FaultSpec(kind="probe_loss", rate=1.0),)
        )
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            outcome = controller.probe_relative_gains(
                channel, self.ANGLES, max_retries=2
            )
        retries = [e for e in recorder.events if e.kind == "probe_retry"]
        assert retries
        assert {e.fields["stage"] for e in retries} <= {"reference", "pair"}
        assert not all(outcome.valid)

    def test_estimate_relative_gains_wrapper_never_raises_on_loss(
        self, channel
    ):
        controller = make_controller(
            faults=(FaultSpec(kind="probe_loss", rate=1.0),)
        )
        estimate = controller.estimate_relative_gains(channel, self.ANGLES)
        assert estimate.relative_gains[1] == 0.0


class TestMaintenanceDegradation:
    def run_rounds(self, faults, seed=0, rounds=20):
        scenario = _mobile_scenario(
            seed, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
        )
        manager = make_manager("mmreliable", seed)
        manager.sounder.fault_injector = FaultInjector(seed=seed, specs=faults)
        manager.establish(scenario.channel_at(0.0), time_s=0.0)
        actions = []
        for i in range(1, rounds + 1):
            t = i * 5e-3
            actions.append(manager.step(scenario.channel_at(t), time_s=t))
        return manager, actions

    def test_survives_total_probe_loss(self):
        # Regression for the crash: ValueError must not escape step().
        _, actions = self.run_rounds(
            (FaultSpec(kind="probe_loss", rate=1.0),)
        )
        assert "measurement_dropped" in actions

    def test_blind_watchdog_retrains_after_streak(self):
        manager, actions = self.run_rounds(
            (FaultSpec(kind="probe_loss", rate=1.0),), rounds=30
        )
        assert "watchdog_retrain" in actions

    def test_feedback_dropout_skips_round(self):
        # The simulator owns the lost report: step never runs, so the
        # manager charges nothing after establish.
        scenario = _mobile_scenario(
            0, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
        )
        simulator = LinkSimulator(
            scenario=scenario,
            manager=make_manager("mmreliable", 0),
            duration_s=0.03,
        )
        simulator.install_fault_injector(
            FaultInjector(seed=0, specs=(FaultSpec("feedback_dropout", 1.0),))
        )
        trace = simulator.run()
        assert [a for _, a in trace.actions] == ["feedback_dropout"] * 5
        established = make_manager("mmreliable", 0)
        established.establish(scenario.channel_at(0.0), time_s=0.0)
        assert simulator.manager.budget.counts == established.budget.counts

    def test_moderate_loss_keeps_maintaining(self):
        manager, actions = self.run_rounds(
            (FaultSpec(kind="probe_loss", rate=0.3),), rounds=30
        )
        # Some rounds are dropped, but the loop keeps doing real work.
        assert "measurement_dropped" in actions
        assert any(a not in ("measurement_dropped", "watchdog_retrain")
                   for a in actions)


class TestLostReport:
    """A lost feedback report reaches every Fig. 18 system alike."""

    @pytest.mark.parametrize(
        "system", ("mmreliable", "reactive", "beamspy", "widebeam", "oracle")
    )
    def test_every_round_lost_keeps_the_t0_weights(self, system):
        simulator = LinkSimulator(
            scenario=_mobile_scenario(
                0, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
            ),
            manager=make_manager(system, 0),
            duration_s=0.1,
        )
        simulator.install_fault_injector(
            FaultInjector(seed=0, specs=(FaultSpec("feedback_dropout", 1.0),))
        )
        trace = simulator.run()
        ticks = simulator._maintenance_boundaries(trace.times_s)
        assert trace.actions == tuple(
            (float(trace.times_s[i]), "feedback_dropout") for i in ticks
        )
        assert len(trace.weight_record) == 1
        assert trace.weight_record[0][0] == 0


class TestNoLiveGain:
    """Heavy probe loss can leave the only unblocked beam with a zero
    healthy gain (its establish probe stayed degenerate); a blockage
    then falls back to that single beam instead of dividing by zero."""

    def test_heavy_probe_loss_run_completes(self):
        from repro.telemetry import TelemetryRecorder, use_recorder

        simulator = LinkSimulator(
            scenario=_mobile_scenario(
                1, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
            ),
            manager=make_manager("mmreliable", 1),
            duration_s=1.0,
        )
        simulator.install_fault_injector(
            FaultInjector(seed=1, specs=(FaultSpec("probe_loss", 0.5),))
        )
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            trace = simulator.run()  # must not raise
        assert len(trace.snr_db) == 1000
        assert np.all(np.isfinite(trace.snr_db))
        assert any(
            e.kind == "fallback_engaged"
            and e.fields.get("reason") == "no_live_gain"
            for e in recorder.events
        )


class TestSimulatorDegradedWindows:
    class _BrokenManager:
        """Establishes fine, then every step raises."""

        class _Sounder:
            class config:
                bandwidth_hz = 400e6

        sounder = _Sounder()
        budget = ProbeBudget()
        training_rounds = 0
        training_windows = ()

        def establish(self, channel, time_s=0.0):
            return None

        def step(self, channel, time_s=0.0):
            raise RuntimeError("control loop is down")

        def link_snr_db(self, channel):
            return 10.0

    def test_step_failure_degrades_instead_of_aborting(self):
        scenario = _mobile_scenario(
            0, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
        )
        simulator = LinkSimulator(
            scenario=scenario,
            manager=self._BrokenManager(),
            duration_s=0.05,
        )
        trace = simulator.run()  # must not raise
        assert trace.degraded_windows
        assert trace.degraded_time_s > 0.0
        assert any(
            action.startswith("degraded:step") for _, action in trace.actions
        )

    def test_healthy_run_has_no_degraded_windows(self):
        scenario = _mobile_scenario(
            0, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
        )
        simulator = LinkSimulator(
            scenario=scenario,
            manager=make_manager("mmreliable", 0),
            duration_s=0.05,
        )
        trace = simulator.run()
        assert trace.degraded_windows == ()
        assert trace.degraded_time_s == 0.0


class TestEnsembleAcceptance:
    """ISSUE acceptance: probe_loss 0.3 completes with zero RunFailures."""

    def test_mmreliable_zero_failures_at_rate_03(self):
        summary = execute_ensemble(
            EnsembleSpec(
                label="mmreliable-chaos",
                simulator_factory=partial(
                    build_link_simulator,
                    partial(
                        _mobile_scenario, speed_mps=1.5,
                        blockage_depth_db=30.0, distance_m=25.0,
                    ),
                    partial(make_manager, "mmreliable"),
                    0.2,
                ),
                seeds=range(4),
                workers=2,
                max_failure_fraction=1.0,
                faults=(FaultSpec(kind="probe_loss", rate=0.3),),
            )
        )
        assert summary.failures == ()
        assert len(summary.metrics) == 4
        # The link degrades in-band rather than binarily dying.
        assert summary.mean_reliability() > 0.5
