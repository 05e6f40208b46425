"""Tests for beam patterns and the tracking pattern inverse."""

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.arrays import (
    UniformLinearArray,
    array_factor,
    beam_pattern_db,
    half_power_beamwidth,
    invert_pattern_offset,
    single_beam_weights,
    ula_power_pattern,
    ula_power_pattern_db,
)
from repro.arrays import patterns as patterns_module
from repro.arrays.patterns import first_null_offset
from repro.utils.units import power_db_to_linear


@pytest.fixture
def array():
    return UniformLinearArray(num_elements=8)


class TestArrayFactor:
    def test_peak_at_steer_angle(self, array):
        steer = np.deg2rad(20.0)
        w = single_beam_weights(array, steer)
        angles = np.linspace(-np.pi / 2, np.pi / 2, 721)
        af = np.abs(array_factor(array, w, angles))
        assert angles[np.argmax(af)] == pytest.approx(steer, abs=np.deg2rad(0.5))

    def test_peak_value_sqrt_n(self, array):
        w = single_beam_weights(array, 0.0)
        assert abs(array_factor(array, w, 0.0)) == pytest.approx(np.sqrt(8))

    def test_matches_analytic_pattern(self, array):
        steer = np.deg2rad(10.0)
        w = single_beam_weights(array, steer)
        offsets = np.linspace(-0.15, 0.15, 41)
        numeric = np.abs(array_factor(array, w, steer + offsets)) ** 2 / 8.0
        analytic = ula_power_pattern(8, offsets, steer_angle_rad=steer)
        assert numeric == pytest.approx(analytic, abs=1e-9)


class TestBeamPatternDb:
    def test_floor_applied(self, array):
        w = single_beam_weights(array, 0.0)
        null = first_null_offset(8)
        db = beam_pattern_db(array, w, np.array([null]), floor_db=-60.0)
        assert db[0] >= -60.0

    def test_peak_db(self, array):
        w = single_beam_weights(array, 0.0)
        db = beam_pattern_db(array, w, np.array([0.0]))
        assert db[0] == pytest.approx(10 * np.log10(8))


class TestUlaPowerPattern:
    def test_peak_normalized(self):
        assert ula_power_pattern(8, 0.0) == pytest.approx(1.0)

    def test_symmetric_at_broadside(self):
        offsets = np.linspace(0, 0.2, 21)
        assert ula_power_pattern(8, offsets) == pytest.approx(
            ula_power_pattern(8, -offsets)
        )

    def test_monotone_on_main_lobe(self):
        null = first_null_offset(8)
        offsets = np.linspace(0, null * 0.98, 50)
        values = ula_power_pattern(8, offsets)
        assert np.all(np.diff(values) < 0)

    def test_null_location(self):
        null = first_null_offset(8)
        assert ula_power_pattern(8, null) == pytest.approx(0.0, abs=1e-12)

    def test_db_version_floor(self):
        null = first_null_offset(8)
        assert ula_power_pattern_db(8, null, floor_db=-70.0) >= -70.0

    def test_larger_array_narrower_lobe(self):
        assert first_null_offset(16) < first_null_offset(8)


class TestHalfPowerBeamwidth:
    def test_8_element_hpbw(self):
        # Classic rule of thumb for N=8, lambda/2: ~12.8 degrees.
        hpbw = half_power_beamwidth(8)
        assert np.rad2deg(hpbw) == pytest.approx(12.8, abs=0.8)

    def test_scales_inversely_with_n(self):
        assert half_power_beamwidth(16) == pytest.approx(
            half_power_beamwidth(8) / 2.0, rel=0.1
        )

    def test_steered_beam_broader(self):
        # Beams steered away from broadside widen (sin projection).
        assert half_power_beamwidth(8, np.deg2rad(40.0)) > half_power_beamwidth(8)


class TestInvertPatternOffset:
    def test_zero_drop_zero_offset(self):
        assert invert_pattern_offset(8, 0.0) == 0.0

    def test_roundtrip(self):
        for offset_deg in (1.0, 3.0, 5.0):
            offset = np.deg2rad(offset_deg)
            drop_db = -10 * np.log10(ula_power_pattern(8, offset))
            recovered = invert_pattern_offset(8, drop_db)
            assert recovered == pytest.approx(offset, abs=1e-6)

    def test_deep_drop_lands_near_null(self):
        null = first_null_offset(8)
        recovered = invert_pattern_offset(8, 60.0)
        assert 0.95 * null < recovered <= null
        # An impossibly deep drop (deeper than the pattern ever goes before
        # the null within float precision) clamps to the null edge.
        assert invert_pattern_offset(8, 400.0) == pytest.approx(null, rel=1e-6)

    def test_rejects_negative_drop(self):
        with pytest.raises(ValueError):
            invert_pattern_offset(8, -1.0)

    def test_steered_beam_roundtrip(self):
        steer = np.deg2rad(25.0)
        offset = np.deg2rad(2.0)
        drop_db = -10 * np.log10(
            ula_power_pattern(8, offset, steer_angle_rad=steer)
        )
        recovered = invert_pattern_offset(8, drop_db, steer_angle_rad=steer)
        assert recovered == pytest.approx(offset, abs=1e-6)

    def test_matches_brentq_over_the_public_pattern_bitwise(self, monkeypatch):
        # The inverse evaluates its own scalar objective; every brentq
        # iterate (its offset and objective value), and so every root,
        # must match one driven through the public ula_power_pattern.
        def recording_brentq(calls):
            def solve(objective, lower, upper):
                def recorded(offset):
                    value = objective(offset)
                    calls.append((offset, float(value)))
                    return value

                return brentq(recorded, lower, upper)

            return solve

        def reference(num_elements, drop_db, steer, spacing, calls):
            target = float(power_db_to_linear(-drop_db))
            null = first_null_offset(num_elements, steer, spacing)

            def objective(offset):
                return (
                    ula_power_pattern(num_elements, offset, steer, spacing)
                    - target
                )

            edge = null * (1.0 - 1e-9)
            if objective(edge) > 0:
                return float(edge), True
            return float(recording_brentq(calls)(objective, 0.0, edge)), False

        actual_calls = []
        monkeypatch.setattr(
            patterns_module, "brentq", recording_brentq(actual_calls)
        )
        rng = np.random.default_rng(20)
        grid = [
            (n, drop, np.deg2rad(steer), spacing)
            for n in (4, 8, 16, 64)
            for steer in (-60.0, -35.0, 0.0, 20.0, 60.0)
            for spacing in (0.4, 0.5, 0.6)
            for drop in (1e-9, 0.5, 3.0, 12.0, 40.0)
        ]
        drawn = [
            (
                int(rng.choice([4, 8, 16, 64])),
                40.0 - float(rng.uniform(0.0, 40.0)),  # (0, 40] dB
                float(np.deg2rad(rng.uniform(-60.0, 60.0))),
                float(rng.choice([0.4, 0.5, 0.6])),
            )
            for _ in range(1000)
        ]
        clamped = 0
        for n, drop, steer, spacing in grid + drawn:
            expected_calls = []
            expected, at_edge = reference(
                n, drop, steer, spacing, expected_calls
            )
            clamped += at_edge
            actual_calls.clear()
            actual = invert_pattern_offset(n, drop, steer, spacing)
            assert actual == expected, (n, drop, steer, spacing)
            assert actual_calls == expected_calls, (n, drop, steer, spacing)
        # Steered toward endfire, small arrays have no null on that side:
        # the edge sits at endfire and deep drops clamp to it.
        assert clamped > 0
