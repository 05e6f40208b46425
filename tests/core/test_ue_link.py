"""Tests for the directional multi-beam UE link manager (Section 4.4)."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, single_beam_weights
from repro.channel.geometric import GeometricChannel
from repro.channel.paths import Path
from repro.core.ue_link import DirectionalUeLinkManager
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.scenarios import DEFAULT_IMPLEMENTATION_LOSS_DB, _los_gain


GNB = UniformLinearArray(num_elements=8)
UE = UniformLinearArray(num_elements=4)


def directional_channel(distance_m=30.0, delta_db=-4.0, sigma=1.0):
    """Two paths with both AoD and AoA, for a directional UE."""
    gain = _los_gain(distance_m, GNB.carrier_frequency_hz,
                     DEFAULT_IMPLEMENTATION_LOSS_DB)
    relative = 10 ** (delta_db / 20.0) * np.exp(1j * sigma)
    los_delay = distance_m / 3e8
    paths = (
        Path(aod_rad=0.0, gain=gain, delay_s=los_delay, aoa_rad=0.0,
             label="los"),
        Path(aod_rad=np.deg2rad(30.0), gain=gain * relative,
             delay_s=los_delay + 1.2e-9, aoa_rad=np.deg2rad(-25.0),
             label="reflection"),
    )
    return GeometricChannel(tx_array=GNB, paths=paths, rx_array=UE)


def make_manager(seed=0):
    sounder = ChannelSounder(
        config=OfdmConfig(bandwidth_hz=100e6, num_subcarriers=64), rng=seed
    )
    return DirectionalUeLinkManager(
        gnb_array=GNB, ue_array=UE, sounder=sounder, num_beams=2
    )


class TestEstablish:
    def test_builds_both_multibeams(self):
        manager = make_manager()
        channel = directional_channel()
        gnb, ue = manager.establish(channel)
        assert gnb.num_beams == 2
        assert ue.num_beams == 2
        assert gnb.angles_rad == pytest.approx((0.0, np.deg2rad(30.0)))
        assert ue.angles_rad == pytest.approx((0.0, np.deg2rad(-25.0)))

    def test_ue_gains_real_nonnegative(self):
        # The identity: constructive gNB transmission phase-aligns the
        # copies at the UE, so UE gains are real |c|^2.
        manager = make_manager()
        manager.establish(directional_channel())
        for gain in manager.ue_multibeam.relative_gains:
            assert np.imag(gain) == 0.0
            assert np.real(gain) >= 0.0

    def test_directional_ue_beats_omni_ue(self):
        manager = make_manager()
        channel = directional_channel()
        manager.establish(channel)
        directional = manager.link_snr_db(channel)
        tx, _rx = manager.current_weights()
        omni = manager.sounder.link_snr_db(channel, tx, rx_weights=None)
        # A 4-element UE array adds up to 6 dB of aperture.
        assert directional > omni + 3.0

    def test_requires_rx_array(self):
        manager = make_manager()
        channel = directional_channel()
        omni_channel = GeometricChannel(
            tx_array=GNB, paths=channel.paths, rx_array=None
        )
        with pytest.raises(ValueError, match="rx_array"):
            manager.establish(omni_channel)

    def test_step_before_establish(self):
        manager = make_manager()
        with pytest.raises(RuntimeError):
            manager.step(directional_channel(), 0.0)
        with pytest.raises(RuntimeError):
            manager.current_weights()


class TestRealignment:
    def test_recovers_from_translation(self):
        manager = make_manager()
        channel = directional_channel()
        manager.establish(channel)
        aligned = manager.link_snr_db(channel)
        # Translation: both ends' bearings rotate by ~4 degrees (AoD
        # and AoA of each path move by the same magnitude).
        offset = np.deg2rad(4.0)
        moved = channel.rotated([offset, offset], [-offset, -offset])
        degraded = manager.link_snr_db(moved)
        assert degraded < aligned - 1.0
        assert manager.step(moved, 0.1) == "realign"
        recovered = manager.link_snr_db(moved)
        assert recovered > degraded + 1.0
        assert recovered == pytest.approx(aligned, abs=1.5)

    def test_static_link_holds(self):
        manager = make_manager()
        channel = directional_channel()
        manager.establish(channel)
        angles = manager.gnb_multibeam.angles_rad
        assert manager.step(channel, 0.1) == "none"
        assert manager.gnb_multibeam.angles_rad == angles

    def test_probe_budget_charged(self):
        manager = make_manager()
        channel = directional_channel()
        manager.establish(channel)
        before = manager.budget.total_probes()
        offset = np.deg2rad(4.0)
        manager.step(
            channel.rotated([offset, offset], [-offset, -offset]), 0.1
        )
        assert manager.budget.total_probes() > before

    def test_misalignment_estimate_close_to_truth(self):
        manager = make_manager()
        channel = directional_channel()
        manager.establish(channel)
        offset = np.deg2rad(4.0)
        moved = channel.rotated([offset, offset], [-offset, -offset])
        before = np.asarray(manager.gnb_multibeam.angles_rad)
        assert manager.step(moved, 0.1) == "realign"
        # Both gNB beams are counter-rotated by the estimated misalignment.
        shift = np.abs(np.asarray(manager.gnb_multibeam.angles_rad) - before)
        np.testing.assert_allclose(shift, offset, atol=np.deg2rad(1.5))
