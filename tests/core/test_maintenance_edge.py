"""Edge-case tests for the MultiBeamManager (ablation flags, quantizer,
recovery timing, probe accounting)."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, WeightQuantizer, uniform_codebook
from repro.beamtraining import ExhaustiveTrainer
from repro.channel.blockage import BlockageEvent, BlockageSchedule
from repro.core.maintenance import MultiBeamManager
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.phy.reference_signals import ProbeKind
from repro.sim.scenarios import SyntheticScenario, two_path_channel
from repro.telemetry import TelemetryRecorder, use_recorder


ARRAY = UniformLinearArray(num_elements=8)


def link_snr(manager, channel):
    """True link SNR through the manager's live transmit weights."""
    return manager.sounder.link_snr_db(channel, manager.current_weights())


def make_manager(seed=0, **overrides):
    sounder = ChannelSounder(
        config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64), rng=seed
    )
    trainer = ExhaustiveTrainer(
        codebook=uniform_codebook(ARRAY, 33), sounder=sounder
    )
    return MultiBeamManager(
        array=ARRAY, sounder=sounder, trainer=trainer, num_beams=2,
        **overrides,
    )


class TestQuantizerIntegration:
    def test_quantized_weights_unit_norm(self):
        manager = make_manager(
            quantizer=WeightQuantizer(phase_bits=2, amplitude_range_db=27.0)
        )
        channel = two_path_channel(ARRAY)
        manager.establish(channel)
        assert np.linalg.norm(manager.current_weights()) == pytest.approx(1.0)

    def test_coarse_quantizer_costs_under_a_db(self):
        channel = two_path_channel(ARRAY, delta_db=-4.0)
        ideal = make_manager(seed=1)
        coarse = make_manager(
            seed=1,
            quantizer=WeightQuantizer(phase_bits=2, amplitude_range_db=27.0),
        )
        ideal.establish(channel)
        coarse.establish(channel)
        assert link_snr(ideal, channel) - link_snr(coarse, channel) < 1.5


class TestAblationFlags:
    def test_no_tracking_never_refines(self):
        scenario = SyntheticScenario(
            base_channel=two_path_channel(ARRAY),
            angular_rates_rad_s=(np.deg2rad(12.0), np.deg2rad(7.0)),
        )
        manager = make_manager(enable_tracking=False)
        manager.establish(scenario.channel_at(0.0))
        actions = set()
        for t in np.arange(0.005, 0.3, 0.005):
            actions.add(manager.step(scenario.channel_at(float(t)), float(t)))
        assert "tracking_refine" not in actions

    def test_non_constructive_uses_equal_gains(self):
        manager = make_manager(constructive=False)
        manager.establish(two_path_channel(ARRAY, delta_db=-4.0))
        assert manager.multibeam.relative_gains == (1.0 + 0j, 1.0 + 0j)

    def test_no_blockage_response_keeps_beams(self):
        schedule = BlockageSchedule(
            events=(
                BlockageEvent(path_index=0, start_s=0.02, duration_s=0.2,
                              depth_db=26.0),
            )
        )
        scenario = SyntheticScenario(
            base_channel=two_path_channel(ARRAY, delta_db=-4.0),
            blockage=schedule,
        )
        manager = make_manager(enable_blockage_response=False)
        manager.establish(scenario.channel_at(0.0))
        for t in np.arange(0.005, 0.15, 0.005):
            manager.step(scenario.channel_at(float(t)), float(t))
        # Gains never zeroed: both beams still live in the weights.
        assert all(g != 0 for g in manager.multibeam.relative_gains)


class TestProbeAccounting:
    def test_every_step_charges_at_least_one_probe(self):
        manager = make_manager()
        channel = two_path_channel(ARRAY)
        manager.establish(channel)
        before = manager.budget.total_probes(ProbeKind.CSI_RS)
        manager.step(channel, 0.005)
        after = manager.budget.total_probes(ProbeKind.CSI_RS)
        assert after >= before + 1

    def test_training_windows_accumulate_on_retrain(self):
        schedule = BlockageSchedule(
            events=tuple(
                BlockageEvent(path_index=k, start_s=0.02, duration_s=0.1,
                              depth_db=40.0)
                for k in range(2)
            )
        )
        scenario = SyntheticScenario(
            base_channel=two_path_channel(ARRAY), blockage=schedule
        )
        manager = make_manager()
        manager.establish(scenario.channel_at(0.0))
        for t in np.arange(0.005, 0.2, 0.005):
            manager.step(scenario.channel_at(float(t)), float(t))
        assert len(manager.training_windows) == manager.training_rounds
        assert manager.training_rounds >= 2


class TestRecoveryTiming:
    def test_recovery_waits_for_reprobe_interval(self):
        schedule = BlockageSchedule(
            events=(
                BlockageEvent(path_index=0, start_s=0.02, duration_s=0.05,
                              depth_db=26.0),
            )
        )
        scenario = SyntheticScenario(
            base_channel=two_path_channel(ARRAY, delta_db=-4.0),
            blockage=schedule,
        )
        manager = make_manager(reprobe_interval_s=0.1)
        manager.establish(scenario.channel_at(0.0))
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            for t in np.arange(0.005, 0.4, 0.005):
                manager.step(scenario.channel_at(float(t)), float(t))
        # Replay the blocked set from the detector's transition events.
        blocked, blocked_at, recovered_at = set(), None, None
        for event in recorder.events:
            if event.kind == "blockage_onset":
                blocked.add(event.fields["beam"])
                if blocked_at is None:
                    blocked_at = event.time_s
            elif event.kind == "blockage_cleared":
                blocked.discard(event.fields["beam"])
                if not blocked and recovered_at is None:
                    recovered_at = event.time_s
        assert blocked_at is not None
        assert recovered_at is not None
        # The blockage ends at 0.07; the recovery probe runs on the
        # reprobe cadence, so restoration happens at the next 0.1 s
        # boundary after the path returns.
        assert recovered_at >= 0.1

    def test_recovered_link_restores_constructive_snr(self):
        schedule = BlockageSchedule(
            events=(
                BlockageEvent(path_index=0, start_s=0.02, duration_s=0.05,
                              depth_db=26.0),
            )
        )
        scenario = SyntheticScenario(
            base_channel=two_path_channel(ARRAY, delta_db=-4.0),
            blockage=schedule,
        )
        manager = make_manager(reprobe_interval_s=0.1)
        initial_channel = scenario.channel_at(0.0)
        manager.establish(initial_channel)
        initial_snr = link_snr(manager, initial_channel)
        for t in np.arange(0.005, 0.4, 0.005):
            manager.step(scenario.channel_at(float(t)), float(t))
        final = link_snr(manager, scenario.channel_at(0.4))
        assert final == pytest.approx(initial_snr, abs=1.0)
