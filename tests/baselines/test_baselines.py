"""Tests for the comparison baselines."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, uniform_codebook
from repro.baselines import (
    BeamSpySingleBeam,
    OracleBeam,
    ReactiveSingleBeam,
    WideBeam,
)
from repro.beamtraining import ExhaustiveTrainer
from repro.channel.blockage import BlockageEvent, BlockageSchedule
from repro.phy.mcs import OUTAGE_SNR_DB
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.scenarios import SyntheticScenario, two_path_channel


def link_snr(manager, channel):
    """True link SNR through the manager's live transmit weights."""
    return manager.sounder.link_snr_db(channel, manager.current_weights())


@pytest.fixture
def array():
    return UniformLinearArray(num_elements=8)


def make_sounder(seed=0):
    return ChannelSounder(
        config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64), rng=seed
    )


def make_trainer(array, sounder):
    return ExhaustiveTrainer(
        codebook=uniform_codebook(array, 33), sounder=sounder
    )


def blocked_scenario(array, depth_db=30.0):
    base = two_path_channel(array, delta_db=-5.0)
    schedule = BlockageSchedule(
        events=(
            BlockageEvent(path_index=0, start_s=0.05, duration_s=0.3,
                          depth_db=depth_db),
        )
    )
    return SyntheticScenario(base_channel=base, blockage=schedule)


class TestReactiveSingleBeam:
    def test_establish_points_at_los(self, array):
        sounder = make_sounder()
        manager = ReactiveSingleBeam(
            array=array, sounder=sounder, trainer=make_trainer(array, sounder)
        )
        channel = two_path_channel(array)
        angle = manager.establish(channel)
        assert angle == pytest.approx(0.0, abs=np.deg2rad(4.0))
        assert np.linalg.norm(manager.current_weights()) == pytest.approx(1.0)

    def test_waits_reaction_delay_before_retraining(self, array):
        sounder = make_sounder()
        manager = ReactiveSingleBeam(
            array=array, sounder=sounder,
            trainer=make_trainer(array, sounder), reaction_delay_s=0.1,
        )
        scenario = blocked_scenario(array)
        manager.establish(scenario.channel_at(0.0))
        retrain_time = None
        for t in np.arange(0.005, 0.4, 0.005):
            action = manager.step(scenario.channel_at(float(t)), float(t))
            if action == "retrain":
                retrain_time = t
                break
        # Blockage starts at 0.05; retrain only after ~0.1 s of outage.
        assert retrain_time is not None
        assert retrain_time >= 0.15 - 1e-9

    def test_retrain_recovers_via_reflection(self, array):
        sounder = make_sounder()
        manager = ReactiveSingleBeam(
            array=array, sounder=sounder,
            trainer=make_trainer(array, sounder), reaction_delay_s=0.05,
        )
        scenario = blocked_scenario(array)
        manager.establish(scenario.channel_at(0.0))
        for t in np.arange(0.005, 0.3, 0.005):
            manager.step(scenario.channel_at(float(t)), float(t))
        # Mid-blockage: the retrained beam points at the reflection (30 deg).
        assert manager.beam_angle_rad == pytest.approx(
            np.deg2rad(30.0), abs=np.deg2rad(5.0)
        )

    def test_requires_establish(self, array):
        sounder = make_sounder()
        manager = ReactiveSingleBeam(
            array=array, sounder=sounder, trainer=make_trainer(array, sounder)
        )
        with pytest.raises(RuntimeError):
            manager.current_weights()


class TestBeamSpy:
    def test_profile_switch_without_retraining(self, array):
        sounder = make_sounder()
        manager = BeamSpySingleBeam(
            array=array, sounder=sounder,
            trainer=make_trainer(array, sounder), reaction_delay_s=0.01,
        )
        scenario = blocked_scenario(array)
        manager.establish(scenario.channel_at(0.0))
        actions = []
        for t in np.arange(0.005, 0.2, 0.005):
            actions.append(
                manager.step(scenario.channel_at(float(t)), float(t))
            )
        assert "profile_switch" in actions
        assert manager.training_rounds == 1  # never did a full retrain

    def test_switch_target_is_reflection(self, array):
        sounder = make_sounder()
        manager = BeamSpySingleBeam(
            array=array, sounder=sounder,
            trainer=make_trainer(array, sounder), reaction_delay_s=0.01,
        )
        scenario = blocked_scenario(array)
        manager.establish(scenario.channel_at(0.0))
        for t in np.arange(0.005, 0.2, 0.005):
            manager.step(scenario.channel_at(float(t)), float(t))
        assert manager.beam_angle_rad == pytest.approx(
            np.deg2rad(30.0), abs=np.deg2rad(5.0)
        )

    def test_profile_recorded_at_training(self, array):
        sounder = make_sounder()
        manager = BeamSpySingleBeam(
            array=array, sounder=sounder, trainer=make_trainer(array, sounder)
        )
        manager.establish(two_path_channel(array))
        # At least the two physical paths (a weak sidelobe direction may
        # also qualify for the profile — that is how real BeamSpy works).
        assert len(manager.profile) >= 2
        top_two = sorted(
            np.rad2deg([a for a, _ in manager.profile[:2]])
        )
        assert top_two[0] == pytest.approx(0.0, abs=4.0)
        assert top_two[1] == pytest.approx(30.0, abs=4.0)


class TestWideBeam:
    def test_lower_peak_snr_than_full_aperture(self, array):
        sounder = make_sounder()
        wide = WideBeam(
            array=array, sounder=sounder,
            trainer=make_trainer(array, sounder), active_elements=3,
        )
        narrow = ReactiveSingleBeam(
            array=array, sounder=sounder, trainer=make_trainer(array, sounder)
        )
        channel = two_path_channel(array)
        wide.establish(channel)
        narrow.establish(channel)
        assert link_snr(wide, channel) < link_snr(narrow, channel)

    def test_more_tolerant_to_misalignment(self, array):
        sounder = make_sounder()
        wide = WideBeam(
            array=array, sounder=sounder,
            trainer=make_trainer(array, sounder), active_elements=3,
        )
        narrow = ReactiveSingleBeam(
            array=array, sounder=sounder, trainer=make_trainer(array, sounder)
        )
        channel = two_path_channel(array)
        wide.establish(channel)
        narrow.establish(channel)
        rotated = channel.rotated(np.deg2rad(8.0))
        wide_loss = link_snr(wide, channel) - link_snr(wide, rotated)
        narrow_loss = link_snr(narrow, channel) - link_snr(narrow, rotated)
        assert wide_loss < narrow_loss

    def test_unit_norm_weights(self, array):
        sounder = make_sounder()
        wide = WideBeam(
            array=array, sounder=sounder,
            trainer=make_trainer(array, sounder), active_elements=4,
        )
        wide.establish(two_path_channel(array))
        assert np.linalg.norm(wide.current_weights()) == pytest.approx(1.0)

    def test_validation(self, array):
        sounder = make_sounder()
        with pytest.raises(ValueError):
            WideBeam(
                array=array, sounder=sounder,
                trainer=make_trainer(array, sounder), active_elements=0,
            )


class TestOracle:
    def test_beats_every_single_beam(self, array):
        sounder = make_sounder()
        oracle = OracleBeam(array=array, sounder=sounder)
        channel = two_path_channel(array, delta_db=-3.0)
        oracle.establish(channel)
        from repro.arrays.steering import single_beam_weights

        for angle in np.linspace(-1.0, 1.0, 9):
            single = sounder.link_snr_db(
                channel, single_beam_weights(array, float(angle))
            )
            assert link_snr(oracle, channel) >= single - 1e-9

    def test_tracks_channel_changes_for_free(self, array):
        sounder = make_sounder()
        oracle = OracleBeam(array=array, sounder=sounder)
        channel = two_path_channel(array)
        oracle.establish(channel)
        rotated = channel.rotated(np.deg2rad(10.0))
        oracle.step(rotated, 0.1)
        # After the genie refresh the SNR is restored.
        assert link_snr(oracle, rotated) == pytest.approx(
            link_snr(oracle, rotated), abs=1e-9
        )
        assert oracle.budget.total_probes() == 0
