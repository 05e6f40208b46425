"""Tests for OFDM channel sounding."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, single_beam_weights
from repro.channel.impairments import CfoSfoModel
from repro.phy.ofdm import ChannelEstimate, ChannelSounder, OfdmConfig
from repro.sim.scenarios import two_path_channel


@pytest.fixture
def array():
    return UniformLinearArray(num_elements=8)


@pytest.fixture
def channel(array):
    return two_path_channel(array)


class TestOfdmConfig:
    def test_grid_matches_subcarriers(self):
        config = OfdmConfig(bandwidth_hz=400e6, num_subcarriers=128)
        grid = config.frequency_grid()
        assert grid.shape == (128,)
        assert abs(grid).max() <= 200e6

    def test_noise_power_matches_bandwidth(self):
        narrow = OfdmConfig(bandwidth_hz=100e6)
        wide = OfdmConfig(bandwidth_hz=400e6)
        assert wide.noise_power_watt == pytest.approx(
            4 * narrow.noise_power_watt
        )

    def test_snr_db_known_value(self):
        config = OfdmConfig(bandwidth_hz=400e6, transmit_power_watt=1.0)
        power = config.noise_power_watt  # channel power equal to noise
        assert config.snr_db(power) == pytest.approx(0.0)

    def test_zero_power_is_minus_inf(self):
        config = OfdmConfig()
        assert config.snr_db(0.0) == -np.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            OfdmConfig(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            OfdmConfig(num_subcarriers=0)
        with pytest.raises(ValueError):
            OfdmConfig(transmit_power_watt=0.0)


class TestChannelSounder:
    def test_estimate_shape(self, array, channel):
        sounder = ChannelSounder(config=OfdmConfig(num_subcarriers=64), rng=0)
        estimate = sounder.sound(channel, single_beam_weights(array, 0.0))
        assert estimate.csi.shape == (64,)
        assert estimate.frequencies_hz.shape == (64,)

    def test_estimate_close_to_truth_at_high_snr(self, array, channel):
        config = OfdmConfig(num_subcarriers=64)
        sounder = ChannelSounder(config=config, rng=0)
        w = single_beam_weights(array, 0.0)
        truth = channel.frequency_response(w, config.frequency_grid())
        estimate = sounder.sound(channel, w)
        error = np.linalg.norm(estimate.csi - truth) / np.linalg.norm(truth)
        assert error < 0.2

    def test_noise_floor_visible_at_zero_signal(self, array, channel):
        config = OfdmConfig(num_subcarriers=256)
        sounder = ChannelSounder(config=config, rng=1)
        # Steer far from both paths: mostly noise.
        w = single_beam_weights(array, np.deg2rad(-60.0))
        estimate = sounder.sound(channel, w)
        noise_var = config.noise_power_watt / config.transmit_power_watt
        assert estimate.mean_power < 100 * noise_var

    def test_cfo_rotation_applied(self, array, channel):
        config = OfdmConfig(num_subcarriers=32)
        clean = ChannelSounder(config=config, rng=2)
        dirty = ChannelSounder(
            config=config, cfo_model=CfoSfoModel(rng=3), rng=2
        )
        w = single_beam_weights(array, 0.0)
        a = clean.sound(channel, w)
        b = dirty.sound(channel, w)
        # Same noise realization, same magnitudes, rotated phases.
        assert np.abs(b.csi) == pytest.approx(np.abs(a.csi))
        assert not np.allclose(np.angle(b.csi), np.angle(a.csi))

    def test_link_snr_in_sane_range(self, array, channel):
        sounder = ChannelSounder(config=OfdmConfig(), rng=4)
        snr = sounder.link_snr_db(channel, single_beam_weights(array, 0.0))
        # 7 m indoor 28 GHz with an 8-element beam: tens of dB.
        assert 15.0 < snr < 45.0

    def test_band_weights_path(self, array, channel):
        config = OfdmConfig(num_subcarriers=16)
        sounder = ChannelSounder(config=config, rng=5)
        w = single_beam_weights(array, 0.0)
        stacked = np.tile(w, (16, 1))
        estimate = sounder.sound_with_band_weights(channel, stacked)
        assert estimate.csi.shape == (16,)

    def test_estimate_power_db(self, array, channel):
        sounder = ChannelSounder(config=OfdmConfig(), rng=6)
        estimate = sounder.sound(channel, single_beam_weights(array, 0.0))
        assert estimate.power_db() == pytest.approx(
            10 * np.log10(estimate.mean_power)
        )


class TestMeanPowerIsNumpyMean:
    """The probe path reduces ``|h|^2`` exactly as ``np.mean`` does."""

    @pytest.mark.parametrize("shape", [(1,), (7,), (64,), (128,), (1000,), (3, 64)])
    def test_mean_power(self, shape):
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
        csi = 1e-5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        csi[..., 0] *= 1e4  # a wide dynamic range exercises the summation order
        estimate = ChannelEstimate(csi=csi, frequencies_hz=np.zeros(shape[-1]))
        expected = float(np.mean(np.abs(csi) ** 2))
        assert estimate.mean_power.hex() == expected.hex()

    @pytest.mark.parametrize("angle_deg", [-50.0, -3.0, 0.0, 12.5, 40.0])
    @pytest.mark.parametrize("num_subcarriers", [16, 64, 128, 255])
    def test_link_snr_db(self, array, channel, angle_deg, num_subcarriers):
        config = OfdmConfig(num_subcarriers=num_subcarriers)
        sounder = ChannelSounder(config=config, rng=0)
        weights = single_beam_weights(array, np.deg2rad(angle_deg))
        response = channel.frequency_response(weights, config.frequency_grid())
        expected = config.snr_db(float(np.mean(np.abs(response) ** 2)))
        assert sounder.link_snr_db(channel, weights).hex() == expected.hex()
