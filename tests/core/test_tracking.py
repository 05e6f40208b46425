"""Tests for the proactive mobility tracker (Eqs. 18-20)."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, ula_power_pattern
from repro.core.multibeam import MultiBeam
from repro.core.tracking import BeamTracker, MultiBeamTracker, PowerSmoother


@pytest.fixture
def array():
    return UniformLinearArray(num_elements=8)


class TestPowerSmoother:
    def test_first_sample_passthrough(self):
        smoother = PowerSmoother()
        assert smoother.update(0.0, -40.0) == pytest.approx(-40.0)

    def test_smooths_noise(self):
        rng = np.random.default_rng(0)
        smoother = PowerSmoother(forgetting_factor=0.8, window=8)
        outputs = [
            smoother.update(t, -40.0 + rng.normal(0, 2.0))
            for t in np.arange(0, 0.1, 0.005)
        ]
        # Smoothed variance well below raw sample variance.
        assert np.std(outputs[4:]) < 1.5

    def test_follows_trend(self):
        smoother = PowerSmoother(forgetting_factor=0.5, window=6)
        times = np.arange(0, 0.1, 0.005)
        last = None
        for t in times:
            last = smoother.update(t, -40.0 - 100.0 * t)
        # Tracks a -10 dB/0.1s ramp to within a few dB of the endpoint.
        assert last == pytest.approx(-50.0, abs=4.0)

    def test_reset(self):
        smoother = PowerSmoother()
        smoother.update(0.0, -40.0)
        smoother.reset()
        assert smoother.update(1.0, -60.0) == pytest.approx(-60.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSmoother(forgetting_factor=0.0)
        with pytest.raises(ValueError):
            PowerSmoother(window=2)

    @pytest.mark.parametrize("window", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_is_numpy_polyfit_bitwise(self, window, seed):
        # The inlined fit must give np.polyfit + np.polyval's exact bits
        # on every window fill, including 3..window points.
        rng = np.random.default_rng(seed)
        smoother = PowerSmoother(forgetting_factor=0.7, window=window)
        times = np.cumsum(rng.uniform(1e-3, 1e-2, 3 * window))
        powers = -45.0 + 8.0 * rng.standard_normal(times.size)
        ewma = None
        history = []
        for t, power in zip(times.tolist(), powers.tolist()):
            ewma = power if ewma is None else 0.7 * ewma + (1.0 - 0.7) * power
            history = (history + [(t, ewma)])[-window:]
            ours = smoother.update(t, power)
            if len(history) < 3:
                assert ours == ewma
                continue
            x = np.array([h[0] for h in history])
            y = np.array([h[1] for h in history])
            span = max(x[-1] - x[0], 1e-9)
            coeffs = np.polyfit((x - x[-1]) / span, y, deg=2)
            expected = float(np.polyval(coeffs, 0.0))
            assert ours.hex() == expected.hex()


class TestBeamTracker:
    def test_requires_anchor(self):
        tracker = BeamTracker(num_elements=8, steer_angle_rad=0.0)
        with pytest.raises(RuntimeError):
            tracker.update(0.0, -40.0)

    def test_zero_offset_at_reference(self):
        tracker = BeamTracker(num_elements=8, steer_angle_rad=0.0)
        tracker.anchor(-40.0)
        assert tracker.update(0.0, -40.0) == 0.0

    def test_recovers_known_rotation(self):
        offset_true = np.deg2rad(3.0)
        drop = -10 * np.log10(ula_power_pattern(8, offset_true))
        tracker = BeamTracker(
            num_elements=8, steer_angle_rad=0.0,
            smoother=PowerSmoother(forgetting_factor=1.0),
        )
        tracker.anchor(-40.0)
        estimate = tracker.update(0.0, -40.0 - drop)
        assert estimate == pytest.approx(offset_true, abs=np.deg2rad(0.2))

    def test_paper_accuracy_with_noise(self):
        # Paper Fig. 17b: ~1 degree mean error across 2-8 degree rotations.
        rng = np.random.default_rng(1)
        errors = []
        for offset_deg in (2.0, 4.0, 6.0, 8.0):
            offset_true = np.deg2rad(offset_deg)
            drop = -10 * np.log10(ula_power_pattern(8, offset_true))
            tracker = BeamTracker(num_elements=8, steer_angle_rad=0.0)
            tracker.anchor(-40.0)
            estimate = 0.0
            for i, t in enumerate(np.arange(0, 0.06, 0.005)):
                noisy = -40.0 - drop + rng.normal(0.0, 0.5)
                estimate = tracker.update(t, noisy)
            errors.append(abs(np.rad2deg(estimate) - offset_deg))
        assert np.mean(errors) < 1.5

    def test_blockage_scale_drop_ignored(self):
        tracker = BeamTracker(
            num_elements=8, steer_angle_rad=0.0, max_drop_db=12.0,
            smoother=PowerSmoother(forgetting_factor=1.0),
        )
        tracker.anchor(-40.0)
        assert tracker.update(0.0, -40.0 - 26.0) == 0.0

    def test_power_gain_maps_to_zero(self):
        tracker = BeamTracker(num_elements=8, steer_angle_rad=0.0)
        tracker.anchor(-40.0)
        assert tracker.update(0.0, -35.0) == 0.0


class TestMultiBeamTracker:
    def make(self, array):
        multibeam = MultiBeam(
            array=array,
            angles_rad=(0.0, np.deg2rad(30.0)),
            relative_gains=(1.0, 0.5),
        )
        tracker = MultiBeamTracker.for_multibeam(multibeam)
        return multibeam, tracker

    def test_anchor_then_update(self, array):
        multibeam, tracker = self.make(array)
        tracker.anchor([-40.0, -46.0])
        offsets = tracker.update(0.0, [-40.0, -46.0])
        assert offsets == pytest.approx([0.0, 0.0])

    def test_candidate_multibeams(self, array):
        multibeam, tracker = self.make(array)
        offsets = np.array([0.01, 0.02])
        plus, minus = tracker.candidate_multibeams(multibeam, offsets)
        assert plus.angles_rad[0] == pytest.approx(0.01)
        assert minus.angles_rad[1] == pytest.approx(np.deg2rad(30.0) - 0.02)

    def test_refine_picks_improving_sign(self, array):
        multibeam, tracker = self.make(array)
        tracker.anchor([-40.0, -46.0])
        # Both beams misaligned by +1.5 degrees.
        offset = np.deg2rad(1.5)
        drop = -10 * np.log10(ula_power_pattern(8, offset))

        def snr_probe(candidate):
            # The +offset candidate realigns perfectly -> higher SNR.
            error = abs(candidate.angles_rad[0] - offset)
            return 30.0 - np.rad2deg(error)

        for t in (0.005, 0.01, 0.015):
            refined, probes = tracker.refine(
                multibeam, t, [-40.0 - drop, -46.0 - drop], snr_probe, 25.0
            )
        assert probes >= 1
        assert refined.angles_rad[0] == pytest.approx(offset, abs=np.deg2rad(1.0))

    def test_refine_holds_when_neither_improves(self, array):
        multibeam, tracker = self.make(array)
        tracker.anchor([-40.0, -46.0])

        def snr_probe(candidate):
            return -100.0  # every candidate is terrible

        refined, probes = tracker.refine(
            multibeam, 0.005, [-43.0, -49.0], snr_probe, 25.0
        )
        assert refined is multibeam
        assert probes == 2

    def test_no_probe_when_static(self, array):
        multibeam, tracker = self.make(array)
        tracker.anchor([-40.0, -46.0])
        refined, probes = tracker.refine(
            multibeam, 0.005, [-40.0, -46.0], lambda c: 0.0, 25.0
        )
        assert refined is multibeam
        assert probes == 0

    def test_shape_validation(self, array):
        multibeam, tracker = self.make(array)
        with pytest.raises(ValueError):
            tracker.anchor([-40.0])
        tracker.anchor([-40.0, -46.0])
        with pytest.raises(ValueError):
            tracker.update(0.0, [-40.0])
        with pytest.raises(ValueError):
            tracker.candidate_multibeams(multibeam, np.array([0.1]))
