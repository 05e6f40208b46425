"""Tests for the MultiBeamManager state machine (Fig. 9)."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, uniform_codebook
from repro.beamtraining import ExhaustiveTrainer
from repro.channel.blockage import BlockageEvent, BlockageSchedule
from repro.core.maintenance import MultiBeamManager
from repro.phy.mcs import OUTAGE_SNR_DB
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.phy.reference_signals import ProbeKind
from repro.sim.scenarios import SyntheticScenario, two_path_channel


def link_snr(manager, channel):
    """True link SNR through the manager's live transmit weights."""
    return manager.sounder.link_snr_db(channel, manager.current_weights())


def make_manager(array, seed=0, num_beams=2, bandwidth=100e6):
    config = OfdmConfig(bandwidth_hz=bandwidth, num_subcarriers=64)
    sounder = ChannelSounder(config=config, rng=seed)
    trainer = ExhaustiveTrainer(
        codebook=uniform_codebook(array, 33), sounder=sounder
    )
    return MultiBeamManager(
        array=array, sounder=sounder, trainer=trainer, num_beams=num_beams
    )


@pytest.fixture
def array():
    return UniformLinearArray(num_elements=8)


class TestEstablish:
    def test_creates_multibeam_on_both_paths(self, array):
        channel = two_path_channel(array, delta_db=-5.0)
        manager = make_manager(array)
        multibeam = manager.establish(channel)
        assert multibeam.num_beams == 2
        found = sorted(np.rad2deg(multibeam.angles_rad))
        assert found[0] == pytest.approx(0.0, abs=4.0)
        assert found[1] == pytest.approx(30.0, abs=4.0)

    def test_estimated_gains_near_truth(self, array):
        channel = two_path_channel(array, delta_db=-5.0, sigma_rad=1.0)
        manager = make_manager(array)
        multibeam = manager.establish(channel)
        assert abs(multibeam.relative_gains[1]) == pytest.approx(
            10 ** (-5.0 / 20.0), rel=0.3
        )

    def test_charges_training_and_probes(self, array):
        channel = two_path_channel(array)
        manager = make_manager(array)
        manager.establish(channel)
        assert manager.budget.total_probes(ProbeKind.SSB) == 33
        assert manager.budget.total_probes(ProbeKind.CSI_RS) > 0
        assert len(manager.training_windows) == 1

    def test_multibeam_snr_beats_single_beam(self, array):
        from repro.arrays.steering import single_beam_weights

        channel = two_path_channel(array, delta_db=-3.0)
        manager = make_manager(array)
        manager.establish(channel)
        multi_snr = link_snr(manager, channel)
        single_snr = manager.sounder.link_snr_db(
            channel, single_beam_weights(array, 0.0)
        )
        assert multi_snr > single_snr

    def test_step_before_establish_raises(self, array):
        manager = make_manager(array)
        with pytest.raises(RuntimeError):
            manager.step(two_path_channel(array), 0.0)
        with pytest.raises(RuntimeError):
            manager.current_weights()


class TestStaticMaintenance:
    def test_static_channel_stays_stable(self, array):
        channel = two_path_channel(array, delta_db=-5.0)
        manager = make_manager(array)
        manager.establish(channel)
        initial_snr = link_snr(manager, channel)
        for t in np.arange(0.005, 0.2, 0.005):
            manager.step(channel, float(t))
        assert link_snr(manager, channel) >= initial_snr - 1.0
        assert manager.training_rounds == 1  # never retrained


class TestBlockageResponse:
    def run_with_blockage(self, array, depth_db=26.0):
        base = two_path_channel(array, delta_db=-5.0)
        schedule = BlockageSchedule(
            events=(
                BlockageEvent(path_index=0, start_s=0.05, duration_s=0.2,
                              depth_db=depth_db),
            )
        )
        scenario = SyntheticScenario(base_channel=base, blockage=schedule)
        manager = make_manager(array)
        manager.establish(scenario.channel_at(0.0))
        actions = []
        snrs = []
        for t in np.arange(0.005, 0.4, 0.005):
            channel = scenario.channel_at(float(t))
            actions.append(manager.step(channel, float(t)))
            snrs.append(link_snr(manager, channel))
        return actions, np.asarray(snrs), manager

    def test_detects_and_drops_blocked_beam(self, array):
        actions, _snrs, _manager = self.run_with_blockage(array)
        assert "blockage_drop" in actions

    def test_link_survives_blockage(self, array):
        _actions, snrs, manager = self.run_with_blockage(array)
        # After the drop is handled the link must stay above outage.
        assert np.all(snrs[4:] > OUTAGE_SNR_DB)
        assert manager.training_rounds == 1

    def test_beam_restored_after_blockage(self, array):
        actions, snrs, manager = self.run_with_blockage(array)
        # Recovery probe restores the beam once the blocker leaves
        # (reprobe interval is 100 ms; blockage ends at 250 ms).
        assert not manager._detector.blocked_mask.any()
        # Restored constructive multi-beam: final SNR near initial.
        assert snrs[-1] == pytest.approx(snrs[0], abs=2.0)


class TestFullOutage:
    def test_retrains_when_everything_blocked(self, array):
        base = two_path_channel(array, delta_db=-5.0)
        events = tuple(
            BlockageEvent(path_index=k, start_s=0.05, duration_s=0.1,
                          depth_db=40.0)
            for k in range(2)
        )
        scenario = SyntheticScenario(
            base_channel=base, blockage=BlockageSchedule(events=events)
        )
        manager = make_manager(array)
        manager.establish(scenario.channel_at(0.0))
        for t in np.arange(0.005, 0.25, 0.005):
            manager.step(scenario.channel_at(float(t)), float(t))
        assert manager.training_rounds >= 2


class TestMobilityTracking:
    def test_tracks_translation(self, array):
        base = two_path_channel(array, delta_db=-5.0)
        scenario = SyntheticScenario(
            base_channel=base,
            angular_rates_rad_s=(np.deg2rad(12.0), np.deg2rad(7.0)),
        )
        manager = make_manager(array)
        manager.establish(scenario.channel_at(0.0))
        for t in np.arange(0.005, 1.0, 0.005):
            channel = scenario.channel_at(float(t))
            manager.step(channel, float(t))
        final_channel = scenario.channel_at(1.0)
        # After 12 degrees of LOS drift the tracked multi-beam must still
        # be roughly aligned: its LOS beam within ~3 degrees of truth.
        los_estimate = manager.multibeam.angles_rad[0]
        los_truth = final_channel.aods()[0]
        assert abs(np.rad2deg(los_estimate - los_truth)) < 3.0
        # And without any retraining.
        assert manager.training_rounds == 1

    def test_tracking_preserves_throughput(self, array):
        base = two_path_channel(array, delta_db=-5.0)
        scenario = SyntheticScenario(
            base_channel=base,
            angular_rates_rad_s=(np.deg2rad(12.0), np.deg2rad(7.0)),
        )
        manager = make_manager(array)
        manager.establish(scenario.channel_at(0.0))
        start_snr = link_snr(manager, scenario.channel_at(0.0))
        for t in np.arange(0.005, 1.0, 0.005):
            manager.step(scenario.channel_at(float(t)), float(t))
        end_snr = link_snr(manager, scenario.channel_at(1.0))
        assert end_snr > start_snr - 3.0


class TestValidation:
    def test_bad_configuration(self, array):
        config = OfdmConfig()
        sounder = ChannelSounder(config=config, rng=0)
        with pytest.raises(ValueError):
            MultiBeamManager(
                array=array, sounder=sounder, trainer=None, num_beams=0
            )
        with pytest.raises(ValueError):
            MultiBeamManager(
                array=array, sounder=sounder, trainer=None,
                reprobe_interval_s=0.0,
            )
