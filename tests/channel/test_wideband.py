"""Tests for wideband CIR helpers."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, single_beam_weights
from repro.channel.geometric import GeometricChannel
from repro.channel.paths import Path
from repro.channel.wideband import (
    cir_from_frequency_response,
    ofdm_frequency_grid,
    per_beam_gains,
    sampled_cir,
    sinc_dictionary,
    stacked_dirichlet_dictionaries,
    stacked_sinc_dictionaries,
)


class TestFrequencyGrid:
    def test_centered(self):
        grid = ofdm_frequency_grid(400e6, 128)
        assert grid[64] == pytest.approx(0.0)
        assert grid[0] == pytest.approx(-200e6)

    def test_spacing(self):
        grid = ofdm_frequency_grid(400e6, 128)
        assert np.diff(grid) == pytest.approx(np.full(127, 400e6 / 128))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ofdm_frequency_grid(-1.0, 8)
        with pytest.raises(ValueError):
            ofdm_frequency_grid(1e6, 0)


class TestSampledCir:
    def test_single_path_on_grid(self):
        bandwidth = 400e6
        delay = 5 / bandwidth  # exactly on tap 5
        cir = sampled_cir([1.0], [delay], bandwidth, 32)
        assert abs(cir[5]) == pytest.approx(1.0)
        # All other taps are sinc zeros.
        others = np.delete(np.abs(cir), 5)
        assert np.max(others) == pytest.approx(0.0, abs=1e-9)

    def test_off_grid_path_spreads(self):
        bandwidth = 400e6
        delay = 5.5 / bandwidth
        cir = sampled_cir([1.0], [delay], bandwidth, 32)
        assert abs(cir[5]) == pytest.approx(2 / np.pi, abs=0.01)
        assert abs(cir[6]) == pytest.approx(2 / np.pi, abs=0.01)

    def test_superposition(self):
        bandwidth = 400e6
        a = sampled_cir([1.0], [2e-9], bandwidth, 16)
        b = sampled_cir([0.5j], [7e-9], bandwidth, 16)
        both = sampled_cir([1.0, 0.5j], [2e-9, 7e-9], bandwidth, 16)
        assert both == pytest.approx(a + b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sampled_cir([1.0, 2.0], [0.0], 400e6, 16)


class TestSincDictionary:
    def test_columns_are_unit_peak(self):
        bandwidth = 400e6
        delays = [0.0, 2 / bandwidth]
        s = sinc_dictionary(delays, bandwidth, 16)
        assert s.shape == (16, 2)
        assert s[0, 0] == pytest.approx(1.0)
        assert s[2, 1] == pytest.approx(1.0)


class TestCirFromFrequencyResponse:
    def test_roundtrip_with_sampled_cir(self):
        bandwidth = 400e6
        n = 64
        freqs = ofdm_frequency_grid(bandwidth, n)
        delay = 8 / bandwidth
        response = np.exp(-2j * np.pi * freqs * delay)
        cir = cir_from_frequency_response(response)
        assert int(np.argmax(np.abs(cir))) == 8
        assert abs(cir[8]) == pytest.approx(1.0, rel=1e-6)

    def test_oversampling_refines_peak(self):
        bandwidth = 400e6
        n = 64
        freqs = ofdm_frequency_grid(bandwidth, n)
        delay = 8.5 / bandwidth
        response = np.exp(-2j * np.pi * freqs * delay)
        cir4 = cir_from_frequency_response(response, oversample=4)
        peak = int(np.argmax(np.abs(cir4)))
        assert peak == 34  # 8.5 taps * 4
        assert abs(cir4[peak]) == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("oversample", [1, 4])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 128])
    def test_half_swap_is_ifftshift(self, n, oversample):
        # The halves are swapped by slicing; the IFFT must see exactly
        # what np.fft.ifftshift handed it, for even and odd lengths.
        rng = np.random.default_rng(n)
        response = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spectrum = np.fft.ifftshift(response)
        if oversample > 1:
            padded = np.zeros(n * oversample, dtype=complex)
            half = n // 2
            padded[:half] = spectrum[:half]
            padded[-(n - half):] = spectrum[half:]
            spectrum = padded
        expected = np.fft.ifft(spectrum) * oversample
        actual = cir_from_frequency_response(response, oversample)
        assert actual.tobytes() == expected.tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cir_from_frequency_response(np.ones((2, 2)))
        with pytest.raises(ValueError):
            cir_from_frequency_response(np.ones(8), oversample=0)


class TestPerBeamGains:
    def test_matches_path_gains(self):
        array = UniformLinearArray(num_elements=8)
        paths = (
            Path(aod_rad=0.0, gain=1e-4),
            Path(aod_rad=0.5, gain=0.5e-4, delay_s=3e-9),
        )
        channel = GeometricChannel(tx_array=array, paths=paths)
        w = single_beam_weights(array, 0.0)
        gains = per_beam_gains(channel, w, [0.0, 0.5])
        alphas = channel.beamformed_path_gains(w)
        assert gains == pytest.approx(alphas)


def _dictionary_inputs():
    rng = np.random.default_rng(20210813)
    delays = rng.uniform(0.0, 80e-9, size=(5, 3))
    delays[0, 0] = 0.0
    delays[1, 1] = 4.0 / 400e6  # exactly 4 taps at B = 400 MHz
    return delays, 400e6, 64


class TestStackedDictionaries:
    """The stacked builders reproduce the per-column formulas."""

    def test_sinc_matches_normalized_sinc_formula(self):
        from repro.utils import normalized_sinc

        delays, bandwidth, taps = _dictionary_inputs()
        sample_times = 1e-9 + np.arange(taps) / bandwidth
        expected = normalized_sinc(
            bandwidth * (sample_times[None, :, None] - delays[:, None, :])
        )
        actual = stacked_sinc_dictionaries(delays, bandwidth, taps, 1e-9)
        np.testing.assert_array_equal(actual, expected)

    def test_dirichlet_matches_per_column_ifft(self):
        delays, bandwidth, taps = _dictionary_inputs()
        actual = stacked_dirichlet_dictionaries(delays, bandwidth, taps)
        freqs = ofdm_frequency_grid(bandwidth, taps)
        for c in range(delays.shape[0]):
            for k in range(delays.shape[1]):
                response = np.exp(-2j * np.pi * freqs * delays[c, k])
                column = cir_from_frequency_response(response)
                np.testing.assert_allclose(
                    actual[c, :, k], column, rtol=1e-12, atol=1e-15
                )

    @pytest.mark.parametrize("taps", [1, 2, 7, 63, 64, 128])
    def test_dirichlet_half_swap_is_ifftshift(self, taps):
        delays, bandwidth, _ = _dictionary_inputs()
        spacing = bandwidth / taps
        freqs = (np.arange(taps) - taps // 2) * spacing
        responses = np.exp(
            -2j * np.pi * freqs[None, :, None] * delays[:, None, :]
        )
        expected = np.fft.ifft(np.fft.ifftshift(responses, axes=1), axis=1)
        actual = stacked_dirichlet_dictionaries(delays, bandwidth, taps)
        assert actual.tobytes() == expected.tobytes()
