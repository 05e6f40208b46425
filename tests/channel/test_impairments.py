"""Tests for CFO/SFO and noise models."""

import numpy as np
import pytest

from repro.channel.impairments import (
    CfoSfoModel,
    awgn_noise_power_watt,
    complex_awgn,
    thermal_noise_dbm,
)


class TestThermalNoise:
    def test_400mhz_noise_floor(self):
        # -174 + 10log10(400e6) + 7 ~= -81 dBm.
        assert thermal_noise_dbm(400e6, noise_figure_db=7.0) == pytest.approx(
            -81.0, abs=0.1
        )

    def test_wider_band_more_noise(self):
        assert thermal_noise_dbm(400e6) > thermal_noise_dbm(100e6)

    def test_watt_conversion(self):
        dbm = thermal_noise_dbm(100e6)
        assert awgn_noise_power_watt(100e6) == pytest.approx(
            10 ** ((dbm - 30) / 10)
        )

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            thermal_noise_dbm(0.0)


class TestComplexAwgn:
    def test_power_matches_request(self):
        noise = complex_awgn(200_000, 2.0, rng=0)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(2.0, rel=0.02)

    def test_circular_symmetry(self):
        noise = complex_awgn(100_000, 1.0, rng=1)
        assert np.mean(noise.real ** 2) == pytest.approx(0.5, rel=0.05)
        assert np.mean(noise.imag ** 2) == pytest.approx(0.5, rel=0.05)

    def test_zero_power(self):
        noise = complex_awgn(10, 0.0, rng=2)
        assert noise == pytest.approx(np.zeros(10))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            complex_awgn(10, -1.0)

    @pytest.mark.parametrize("shape", [128, 7, (64,), (3, 5), (), (0,)])
    @pytest.mark.parametrize("power", [0.0, 3.2e-12, 2.0])
    def test_one_draw_is_the_two_draw_expression(self, shape, power):
        # A twin generator drawing the real and imaginary parts in two
        # calls gives the same bits and ends in the same state.
        ours, twin = np.random.default_rng(17), np.random.default_rng(17)
        noise = complex_awgn(shape, power, ours)
        scale = np.sqrt(power / 2.0)
        expected = twin.normal(0.0, scale, shape) + 1j * twin.normal(
            0.0, scale, shape
        )
        assert type(noise) is type(expected)
        assert np.shape(noise) == np.shape(expected)
        assert np.asarray(noise).tobytes() == np.asarray(expected).tobytes()
        assert ours.bit_generator.state == twin.bit_generator.state
        # The next draw of both streams agrees too.
        assert ours.random() == twin.random()


class TestCfoSfoModel:
    def test_magnitude_preserved(self):
        model = CfoSfoModel(rng=0)
        estimate = np.array([1.0 + 2.0j, 0.5 - 0.5j])
        rotated = model.apply(estimate)
        assert np.abs(rotated) == pytest.approx(np.abs(estimate))

    def test_common_mode_across_subcarriers(self):
        model = CfoSfoModel(rng=1)
        estimate = np.ones(16, dtype=complex)
        rotated = model.apply(estimate)
        # All subcarriers rotated by the same phase.
        phases = np.angle(rotated)
        assert np.max(phases) - np.min(phases) == pytest.approx(0.0, abs=1e-12)

    def test_phase_varies_between_probes(self):
        model = CfoSfoModel(rng=2)
        a = model.apply(np.ones(4, dtype=complex))
        b = model.apply(np.ones(4, dtype=complex))
        assert not np.allclose(np.angle(a[0]), np.angle(b[0]))

    def test_unit_rotation(self):
        model = CfoSfoModel(rng=3)
        assert abs(model.next_rotation()) == pytest.approx(1.0)

    def test_rejects_negative_walk(self):
        with pytest.raises(ValueError):
            CfoSfoModel(phase_walk_std_rad=-0.1)
