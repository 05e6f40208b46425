"""Differential fast-vs-reference tests for every registered kernel.

Each compiled kernel's *algorithm* (the undecorated Python function in
``PY_KERNELS``) is compared against the NumPy reference on small inputs,
so the parity contract is checked even in environments without numba.
When numba is importable, the JIT-compiled kernels are additionally
checked against the same references — compilation must not change the
arithmetic.

Tolerances: sinc dictionaries are elementwise identical arithmetic and
must match bitwise; the remaining kernels reassociate float reductions
(or, for dirichlet, use the closed-form sum instead of an IFFT) and are
held to well inside the documented backend tolerance of ``rtol=1e-7``.
"""

import numpy as np
import pytest

from repro.perf import kernels_numpy
from repro.perf.kernels_numba import KERNELS, NUMBA_AVAILABLE, PY_KERNELS

#: Documented cross-backend agreement (DESIGN.md "Compute backends").
BACKEND_RTOL = 1e-7


def _rng():
    return np.random.default_rng(20210813)  # mmReliable's SIGCOMM slot


def _dictionary_inputs():
    rng = _rng()
    delays = rng.uniform(0.0, 80e-9, size=(5, 3))
    # Include exact on-grid delays: the closed-form dirichlet path has a
    # dedicated near-integer branch that must agree with the IFFT.
    delays[0, 0] = 0.0
    delays[1, 1] = 4.0 / 400e6  # exactly 4 taps at B = 400 MHz
    return delays, 400e6, 64


def _batch_inputs():
    rng = _rng()
    steering = (
        rng.standard_normal((4, 3, 8)) + 1j * rng.standard_normal((4, 3, 8))
    )
    rotation = (
        rng.standard_normal((4, 16, 3)) + 1j * rng.standard_normal((4, 16, 3))
    )
    gains = (
        rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    )
    weights = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return steering, rotation, gains, weights


def test_every_kernel_has_a_python_reference_pair():
    assert set(PY_KERNELS) == set(kernels_numpy.KERNELS)
    assert set(KERNELS) == set(kernels_numpy.KERNELS)


class TestPyKernelParity:
    """PY_KERNELS (undecorated loop algorithms) vs the NumPy reference."""

    def test_sinc_dictionaries_bitwise(self):
        delays, bandwidth, taps = _dictionary_inputs()
        reference = kernels_numpy.stacked_sinc_dictionaries(
            delays, bandwidth, taps, 1e-9
        )
        fast = PY_KERNELS["stacked_sinc_dictionaries"](
            delays, bandwidth, taps, 1e-9
        )
        np.testing.assert_array_equal(fast, reference)

    def test_dirichlet_dictionaries(self):
        delays, bandwidth, taps = _dictionary_inputs()
        reference = kernels_numpy.stacked_dirichlet_dictionaries(
            delays, bandwidth, taps
        )
        fast = PY_KERNELS["stacked_dirichlet_dictionaries"](
            delays, bandwidth, taps
        )
        np.testing.assert_allclose(
            fast, reference, rtol=BACKEND_RTOL, atol=1e-12
        )

    def test_dirichlet_on_grid_columns_are_exact(self):
        # An on-grid delay's column is a unit impulse on the matching
        # tap; the closed-form branch must return exactly 1 there.
        delays = np.array([[4.0 / 400e6]])
        fast = PY_KERNELS["stacked_dirichlet_dictionaries"](
            delays, 400e6, 64
        )
        assert fast[0, 4, 0] == 1.0 + 0.0j

    def test_batch_frequency_response(self):
        steering, rotation, gains, weights = _batch_inputs()
        reference = kernels_numpy.batch_frequency_response(
            steering, rotation, gains, weights
        )
        fast = PY_KERNELS["batch_frequency_response"](
            steering, rotation, gains, weights
        )
        np.testing.assert_allclose(fast, reference, rtol=BACKEND_RTOL)

    def test_array_factor(self):
        rng = _rng()
        steering = (
            rng.standard_normal((11, 8)) + 1j * rng.standard_normal((11, 8))
        )
        weights = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        reference = kernels_numpy.array_factor(steering, weights)
        fast = PY_KERNELS["array_factor"](steering, weights)
        np.testing.assert_allclose(fast, reference, rtol=BACKEND_RTOL)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
class TestJitKernelParity:
    """The JIT-compiled kernels vs the NumPy reference (numba only)."""

    def test_sinc_dictionaries_bitwise(self):
        delays, bandwidth, taps = _dictionary_inputs()
        reference = kernels_numpy.stacked_sinc_dictionaries(
            delays, bandwidth, taps, 1e-9
        )
        fast = KERNELS["stacked_sinc_dictionaries"](
            delays, bandwidth, taps, 1e-9
        )
        np.testing.assert_array_equal(fast, reference)

    def test_dirichlet_dictionaries(self):
        delays, bandwidth, taps = _dictionary_inputs()
        reference = kernels_numpy.stacked_dirichlet_dictionaries(
            delays, bandwidth, taps
        )
        fast = KERNELS["stacked_dirichlet_dictionaries"](
            delays, bandwidth, taps
        )
        np.testing.assert_allclose(
            fast, reference, rtol=BACKEND_RTOL, atol=1e-12
        )

    def test_batch_frequency_response(self):
        steering, rotation, gains, weights = _batch_inputs()
        reference = kernels_numpy.batch_frequency_response(
            steering, rotation, gains, weights
        )
        fast = KERNELS["batch_frequency_response"](
            steering, rotation, gains, weights
        )
        np.testing.assert_allclose(fast, reference, rtol=BACKEND_RTOL)

    def test_array_factor(self):
        rng = _rng()
        steering = (
            rng.standard_normal((11, 8)) + 1j * rng.standard_normal((11, 8))
        )
        weights = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        reference = kernels_numpy.array_factor(steering, weights)
        fast = KERNELS["array_factor"](steering, weights)
        np.testing.assert_allclose(fast, reference, rtol=BACKEND_RTOL)


class TestNumpyKernelsMatchPreSeamArithmetic:
    """The reference kernels reproduce the former call-site code bitwise."""

    def test_sinc_matches_normalized_sinc_formula(self):
        from repro.utils import normalized_sinc

        delays, bandwidth, taps = _dictionary_inputs()
        sample_times = 1e-9 + np.arange(taps) / bandwidth
        expected = normalized_sinc(
            bandwidth * (sample_times[None, :, None] - delays[:, None, :])
        )
        actual = kernels_numpy.stacked_sinc_dictionaries(
            delays, bandwidth, taps, 1e-9
        )
        np.testing.assert_array_equal(actual, expected)

    def test_dirichlet_matches_per_column_ifft(self):
        from repro.channel.wideband import (
            cir_from_frequency_response,
            ofdm_frequency_grid,
        )

        delays, bandwidth, taps = _dictionary_inputs()
        actual = kernels_numpy.stacked_dirichlet_dictionaries(
            delays, bandwidth, taps
        )
        freqs = ofdm_frequency_grid(bandwidth, taps)
        for c in range(delays.shape[0]):
            for k in range(delays.shape[1]):
                response = np.exp(-2j * np.pi * freqs * delays[c, k])
                column = cir_from_frequency_response(response)
                np.testing.assert_allclose(
                    actual[c, :, k], column, rtol=1e-12, atol=1e-15
                )
