"""Tests for BeamWeights and WeightQuantizer."""

import numpy as np
import pytest

from repro.arrays import BeamWeights, UniformLinearArray, WeightQuantizer
from repro.arrays.steering import single_beam_weights
from repro.arrays.weights import COMMODITY_QUANTIZER, TESTBED_QUANTIZER


class TestBeamWeights:
    def test_from_vector_normalizes(self):
        beam = BeamWeights.from_vector(np.array([3.0, 4.0], dtype=complex))
        assert np.linalg.norm(beam.vector) == pytest.approx(1.0)

    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            BeamWeights(np.array([1.0, 1.0], dtype=complex))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            BeamWeights.from_vector(np.ones((2, 2), dtype=complex))

    def test_immutable_vector(self):
        beam = BeamWeights.from_vector(np.array([1.0, 1.0j]))
        with pytest.raises(ValueError):
            beam.vector[0] = 0.0

    def test_phases_and_amplitudes(self):
        beam = BeamWeights.from_vector(np.array([1.0, 1.0j]))
        assert beam.phases() == pytest.approx([0.0, np.pi / 2])
        assert beam.amplitudes() == pytest.approx([1 / np.sqrt(2)] * 2)

    def test_num_elements(self):
        beam = BeamWeights.from_vector(np.ones(8, dtype=complex))
        assert beam.num_elements == 8

    def test_array_protocol(self):
        beam = BeamWeights.from_vector(np.ones(4, dtype=complex))
        assert np.asarray(beam).shape == (4,)

    def test_norm_check_decides_as_np_isclose(self):
        # Norms one ulp either side of the 1 +/- 1.1e-5 boundary, exactly
        # 1, and non-finite: accepted exactly when np.isclose says so.
        unit = np.full(4, 0.5)  # norm exactly 1
        tolerance = 1e-6 + 1e-5
        norms = [1.0, np.nan, np.inf]
        for edge in (1.0 + tolerance, 1.0 - tolerance):
            norms += [
                np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)
            ]
        accepted = []
        for norm in norms:
            vector = unit * norm + 0j
            expected = bool(np.isclose(np.linalg.norm(vector), 1.0, atol=1e-6))
            try:
                BeamWeights(vector)
            except ValueError:
                ok = False
            else:
                ok = True
            assert ok is expected, norm
            accepted.append(ok)
        assert True in accepted and False in accepted


class TestWeightQuantizer:
    def test_phase_snapping_levels(self):
        quantizer = WeightQuantizer(phase_bits=2, amplitude_range_db=None)
        phases = np.array([0.1, np.pi / 4 + 0.2, -0.1])
        snapped = quantizer.quantize_phases(phases)
        step = 2 * np.pi / 4
        assert np.allclose(np.mod(snapped, step), 0.0, atol=1e-12) or np.allclose(
            np.mod(snapped, step), step, atol=1e-12
        )

    def test_high_resolution_phase_nearly_exact(self):
        quantizer = WeightQuantizer(phase_bits=10, amplitude_range_db=None)
        phases = np.linspace(-np.pi, np.pi, 17)
        assert quantizer.quantize_phases(phases) == pytest.approx(
            phases, abs=2 * np.pi / 2 ** 10
        )

    def test_amplitude_floor(self):
        quantizer = WeightQuantizer(phase_bits=None, amplitude_range_db=20.0)
        amplitudes = np.array([1.0, 0.001])
        out = quantizer.quantize_amplitudes(amplitudes)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.1)  # clipped to -20 dB of peak

    def test_onoff_amplitude(self):
        quantizer = WeightQuantizer(
            phase_bits=None, amplitude_range_db=40.0, amplitude_bits=1
        )
        out = quantizer.quantize_amplitudes(np.array([1.0, 0.3, 0.005]))
        # 1-bit: either peak level or the floor.
        floor = 10 ** (-40 / 20)
        for value in out:
            assert value == pytest.approx(1.0) or value == pytest.approx(floor)

    def test_apply_preserves_unit_norm(self):
        array = UniformLinearArray(num_elements=8)
        beam = BeamWeights(single_beam_weights(array, 0.35))
        for quantizer in (TESTBED_QUANTIZER, COMMODITY_QUANTIZER):
            quantized = quantizer.apply(beam)
            assert np.linalg.norm(quantized.vector) == pytest.approx(1.0)

    def test_testbed_quantizer_barely_distorts(self):
        array = UniformLinearArray(num_elements=8)
        beam = BeamWeights(single_beam_weights(array, 0.35))
        quantized = TESTBED_QUANTIZER.apply(beam)
        # 6-bit phase control: correlation with the ideal beam stays high.
        correlation = abs(np.vdot(beam.vector, quantized.vector))
        assert correlation > 0.995

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            WeightQuantizer(phase_bits=0)
        with pytest.raises(ValueError):
            WeightQuantizer(amplitude_bits=0)
        with pytest.raises(ValueError):
            WeightQuantizer(amplitude_range_db=-3.0)

    def test_zero_amplitudes_untouched(self):
        quantizer = WeightQuantizer()
        out = quantizer.quantize_amplitudes(np.zeros(4))
        assert out == pytest.approx(np.zeros(4))
