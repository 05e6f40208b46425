"""Tests for blockage detection and power reallocation (Section 4.1)."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray
from repro.core.blockage import BlockageDetector, reallocate_gains
from repro.core.multibeam import MultiBeam


@pytest.fixture
def array():
    return UniformLinearArray(num_elements=8)


class TestBlockageDetector:
    def test_fires_on_fast_drop(self):
        detector = BlockageDetector(num_beams=2, drop_threshold_db=10.0,
                                    window_s=15e-3, confirmations=1)
        detector.update(0.000, [-40.0, -46.0])
        detector.update(0.005, [-40.0, -46.0])
        mask = detector.update(0.010, [-66.0, -46.0])  # 26 dB crash
        assert mask.tolist() == [True, False]

    def test_confirmation_suppresses_single_glitch(self):
        detector = BlockageDetector(num_beams=1, drop_threshold_db=10.0,
                                    window_s=30e-3, confirmations=2)
        detector.update(0.000, [-40.0])
        mask = detector.update(0.005, [-66.0])  # one noisy snapshot
        assert not mask[0]
        mask = detector.update(0.010, [-40.5])  # back to normal
        assert not mask[0]
        # A real blockage persists: two breaches in a row confirm it.
        detector.update(0.015, [-66.0])
        mask = detector.update(0.020, [-66.0])
        assert mask[0]

    def test_ignores_slow_drift(self):
        # Mobility-scale decay: ~0.5 dB per 5 ms never trips the detector.
        detector = BlockageDetector(num_beams=1, drop_threshold_db=10.0,
                                    window_s=15e-3)
        power = -40.0
        for t in np.arange(0.0, 0.2, 0.005):
            mask = detector.update(t, [power])
            power -= 0.5
        assert not mask[0]

    def test_recovery_by_power_return(self):
        detector = BlockageDetector(num_beams=1, drop_threshold_db=10.0,
                                    window_s=15e-3, recovery_margin_db=3.0,
                                    confirmations=1)
        detector.update(0.000, [-40.0])
        detector.update(0.005, [-66.0])
        assert detector.blocked_mask[0]
        mask = detector.update(0.010, [-41.0])
        assert not mask[0]

    def test_inactive_beam_state_frozen(self):
        detector = BlockageDetector(num_beams=2, window_s=15e-3,
                                    confirmations=1)
        detector.update(0.000, [-40.0, -46.0])
        detector.update(0.005, [-66.0, -46.0])
        assert detector.blocked_mask.tolist() == [True, False]
        # Beam 0 dropped from the multi-beam: silent power reading must
        # not change its state.
        mask = detector.update(
            0.010, [-300.0, -46.0], active_mask=[False, True]
        )
        assert mask.tolist() == [True, False]

    def test_mark_recovered(self):
        detector = BlockageDetector(num_beams=2, window_s=15e-3,
                                    confirmations=1)
        detector.update(0.000, [-40.0, -46.0])
        detector.update(0.005, [-66.0, -46.0])
        detector.mark_recovered(0)
        assert detector.blocked_mask.tolist() == [False, False]

    def test_healthy_level_recorded(self):
        detector = BlockageDetector(num_beams=1, window_s=15e-3,
                                    confirmations=1)
        detector.update(0.000, [-40.0])
        detector.update(0.005, [-66.0])
        assert detector.healthy_level_db(0) == pytest.approx(-40.0)

    def test_reset(self):
        detector = BlockageDetector(num_beams=1, window_s=15e-3,
                                    confirmations=1)
        detector.update(0.000, [-40.0])
        detector.update(0.005, [-66.0])
        detector.reset()
        assert not detector.blocked_mask[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockageDetector(num_beams=0)
        with pytest.raises(ValueError):
            BlockageDetector(num_beams=1, drop_threshold_db=0.0)
        detector = BlockageDetector(num_beams=2)
        with pytest.raises(ValueError):
            detector.update(0.0, [-40.0])
        with pytest.raises(ValueError):
            detector.update(0.0, [-40.0, -40.0], active_mask=[True])
        with pytest.raises(IndexError):
            detector.mark_recovered(5)


class TestReallocateGains:
    def make_multibeam(self, array):
        return MultiBeam(
            array=array,
            angles_rad=(0.0, 0.5, -0.4),
            relative_gains=(1.0, 0.5, 0.25j),
        )

    def test_no_blockage_identity(self, array):
        multibeam = self.make_multibeam(array)
        assert reallocate_gains(multibeam, [False, False, False]) is multibeam

    def test_blocked_beam_zeroed(self, array):
        multibeam = self.make_multibeam(array)
        out = reallocate_gains(multibeam, [False, True, False])
        assert out.relative_gains[1] == 0.0
        assert out.relative_gains[0] != 0.0

    def test_power_moves_to_survivors(self, array):
        # Zeroing a beam and renormalizing increases the survivors' share
        # of radiated power along their directions.
        multibeam = MultiBeam(
            array=array, angles_rad=(0.0, 0.5), relative_gains=(1.0, 1.0)
        )
        full = multibeam.weights().vector
        out = reallocate_gains(multibeam, [True, False]).weights().vector
        from repro.arrays.steering import steering_vector

        survivor_gain_full = abs(steering_vector(array, 0.5) @ full)
        survivor_gain_after = abs(steering_vector(array, 0.5) @ out)
        assert survivor_gain_after > survivor_gain_full

    def test_reference_reassigned(self, array):
        multibeam = self.make_multibeam(array)
        out = reallocate_gains(multibeam, [True, False, False])
        # Strongest survivor (index 1) becomes the unit reference.
        assert out.relative_gains[1] == pytest.approx(1.0)

    def test_zero_gain_survivor_raises(self, array):
        # Dividing by the survivor's zero gain would put NaN in the weights.
        multibeam = MultiBeam(
            array=array, angles_rad=(0.0, 0.5), relative_gains=(1.0, 0.0)
        )
        with pytest.raises(RuntimeError, match="carries gain"):
            reallocate_gains(multibeam, [True, False])

    def test_total_blockage_raises(self, array):
        multibeam = self.make_multibeam(array)
        with pytest.raises(RuntimeError, match="outage"):
            reallocate_gains(multibeam, [True, True, True])

    def test_shape_validation(self, array):
        multibeam = self.make_multibeam(array)
        with pytest.raises(ValueError):
            reallocate_gains(multibeam, [True, False])
