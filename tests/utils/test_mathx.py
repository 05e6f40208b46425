"""Tests for repro.utils.mathx helpers."""

import numpy as np
import pytest

from repro.utils import (
    angle_difference,
    complex_from_polar,
    is_close,
    is_unit_norm,
    normalized_sinc,
    unit_vector,
    wrap_angle,
    wrap_phase,
)


class TestSinc:
    def test_zero_is_one(self):
        assert normalized_sinc(0.0) == pytest.approx(1.0)

    def test_integer_zeros(self):
        assert normalized_sinc(np.array([1.0, 2.0, -3.0])) == pytest.approx(
            [0.0, 0.0, 0.0], abs=1e-12
        )

    def test_half_value(self):
        assert normalized_sinc(0.5) == pytest.approx(2.0 / np.pi)


class TestWrapAngle:
    def test_identity_in_range(self):
        assert wrap_angle(0.3) == pytest.approx(0.3)

    def test_wraps_positive(self):
        assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)

    def test_wraps_negative(self):
        assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)

    def test_array(self):
        out = wrap_angle(np.array([0.0, 2 * np.pi, 3 * np.pi]))
        assert out == pytest.approx([0.0, 0.0, np.pi])


class TestWrapPhase:
    def test_in_range(self):
        assert wrap_phase(1.0) == pytest.approx(1.0)

    def test_negative_wraps_up(self):
        assert wrap_phase(-0.5) == pytest.approx(2 * np.pi - 0.5)

    def test_two_pi_wraps_to_zero(self):
        assert wrap_phase(2 * np.pi) == pytest.approx(0.0)


class TestAngleDifference:
    def test_simple(self):
        assert angle_difference(0.5, 0.2) == pytest.approx(0.3)

    def test_across_wrap(self):
        assert angle_difference(np.pi - 0.1, -np.pi + 0.1) == pytest.approx(-0.2)


class TestUnitVector:
    def test_normalizes(self):
        v = unit_vector(np.array([3.0, 4.0]))
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v == pytest.approx([0.6, 0.8])

    def test_complex(self):
        v = unit_vector(np.array([1j, 1.0]))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            unit_vector(np.zeros(4))


class TestComplexFromPolar:
    def test_basic(self):
        z = complex_from_polar(2.0, np.pi / 2)
        assert z == pytest.approx(2j)

    def test_array(self):
        z = complex_from_polar(np.array([1.0, 2.0]), np.array([0.0, np.pi]))
        assert z == pytest.approx([1.0, -2.0])


class TestIsUnitNorm:
    def test_true_case(self):
        assert is_unit_norm(np.array([1.0, 0.0]))

    def test_false_case(self):
        assert not is_unit_norm(np.array([1.0, 1.0]))

    def test_tolerance(self):
        assert is_unit_norm(np.array([1.0 + 1e-12, 0.0]))


#: Scalars around every branch of np.isclose: signed zeros, infinities,
#: NaN, tiny and huge magnitudes, and values one ulp either side of the
#: exact tolerance boundaries of ``BOUNDARY_TOLERANCES``.
IS_CLOSE_VALUES = (
    0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0, 2.0, 3.0, 0.75, 1.1e-5, 1.0 + 1e-5,
    1.0 - 1e-5, 1e300, -1e300, 5e-324, np.inf, -np.inf, np.nan,
    np.nextafter(3.0, np.inf), np.nextafter(1e-8, 1.0),
    np.nextafter(0.75, 0.0),
)
#: ``(rtol, atol)``: the defaults, each call site's, and tolerances whose
#: boundaries are exact in binary (|3 - 2| == 0.5 + 0.25 * 2).
BOUNDARY_TOLERANCES = ((1e-5, 1e-8), (1e-5, 1e-6), (1e-6, 1e-8), (0.25, 0.5))


class TestIsClose:
    """``is_close`` decides exactly as ``np.isclose`` for two scalars."""

    @pytest.mark.parametrize("rtol, atol", BOUNDARY_TOLERANCES)
    def test_matches_numpy_on_every_pair(self, rtol, atol):
        for x in IS_CLOSE_VALUES:
            for y in IS_CLOSE_VALUES:
                for a, b in ((x, y), (np.float64(x), np.float64(y))):
                    expected = bool(np.isclose(a, b, rtol=rtol, atol=atol))
                    assert is_close(a, b, rtol=rtol, atol=atol) is expected, (
                        x, y, rtol, atol,
                    )

    def test_tolerance_boundary_is_inclusive(self):
        assert is_close(3.0, 2.0, rtol=0.25, atol=0.5)
        assert not is_close(np.nextafter(3.0, np.inf), 2.0, rtol=0.25, atol=0.5)
        assert is_close(1e-8, 0.0)
        assert not is_close(np.nextafter(1e-8, 1.0), 0.0)

    def test_nan_and_inf(self):
        assert not is_close(np.nan, np.nan)
        assert not is_close(np.nan, 1.0) and not is_close(1.0, np.nan)
        assert is_close(np.inf, np.inf) and is_close(-np.inf, -np.inf)
        assert not is_close(np.inf, -np.inf)
        assert not is_close(1e300, np.inf) and not is_close(np.inf, 1e300)
