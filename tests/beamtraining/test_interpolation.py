"""Tests for sub-grid peak interpolation in beam training."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, uniform_codebook
from repro.beamtraining import ExhaustiveTrainer, top_k_directions
from repro.beamtraining.base import BeamTrainingResult, interpolate_peak
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.scenarios import two_path_channel


ARRAY = UniformLinearArray(num_elements=8)


def parabolic_result(true_angle, grid_step=np.deg2rad(3.75)):
    """A synthetic sweep whose dB profile is exactly parabolic."""
    angles = np.arange(-16, 17) * grid_step
    powers_db = -5.0 * ((angles - true_angle) / grid_step) ** 2
    return BeamTrainingResult(
        angles_rad=angles, powers=10 ** (powers_db / 10.0),
        num_probes=angles.size,
    )


class TestInterpolatePeak:
    def test_exact_on_parabola(self):
        true_angle = np.deg2rad(1.3)  # off-grid
        result = parabolic_result(true_angle)
        index = int(np.argmax(result.powers))
        assert interpolate_peak(result, index) == pytest.approx(
            true_angle, abs=1e-9
        )

    def test_on_grid_peak_unchanged(self):
        result = parabolic_result(0.0)
        index = int(np.argmax(result.powers))
        assert interpolate_peak(result, index) == pytest.approx(0.0, abs=1e-12)

    def test_edge_falls_back_to_grid(self):
        result = parabolic_result(0.0)
        assert interpolate_peak(result, 0) == result.angles_rad[0]
        last = result.angles_rad.size - 1
        assert interpolate_peak(result, last) == result.angles_rad[last]

    def test_shift_clamped_to_half_bin(self):
        # A flat-ish top cannot send the estimate beyond half a bin.
        angles = np.array([-1.0, 0.0, 1.0])
        powers = np.array([0.99, 1.0, 0.999999])
        result = BeamTrainingResult(
            angles_rad=angles, powers=powers, num_probes=3
        )
        refined = interpolate_peak(result, 1)
        assert abs(refined) <= 0.5

    def test_index_validation(self):
        result = parabolic_result(0.0)
        with pytest.raises(IndexError):
            interpolate_peak(result, 999)

    def test_uniform_grid_check_decides_as_np_isclose(self, monkeypatch):
        # Equal steps, steps around the rtol=1e-6 tolerance (inside it,
        # one ulp either side of 1 +/- 1e-6, and outside it but inside
        # a looser one) and non-finite angles: the same angle, bit for
        # bit, as with np.isclose(left, right, rtol=1e-6) deciding
        # whether the grid is uniform.
        import repro.beamtraining.base as base

        powers = np.array([0.5, 1.0, 0.8])
        cases = []
        for right in (
            1.0, 1.0 + 5e-7, 1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 2e-6,
            1.0 - 2e-6, 0.5, np.inf, np.nan,
        ):
            for bump in (-1, 0, 1):
                step = right
                for _ in range(abs(bump)):
                    step = np.nextafter(step, np.inf if bump > 0 else 0.0)
                cases.append(np.array([-1.0, 0.0, step]))
        cases.append(np.array([-np.inf, 0.0, np.inf]))
        cases.append(np.array([np.nan, 0.0, 1.0]))

        def refine(angles):
            result = BeamTrainingResult(
                angles_rad=angles, powers=powers, num_probes=3
            )
            return interpolate_peak(result, 1)

        with np.errstate(invalid="ignore"):
            ours = [refine(angles) for angles in cases]
            monkeypatch.setattr(
                base, "is_close",
                lambda x, y, **_: bool(np.isclose(x, y, rtol=1e-6)),
            )
            theirs = [refine(angles) for angles in cases]
        assert [np.float64(v).tobytes() for v in ours] == [
            np.float64(v).tobytes() for v in theirs
        ]
        # Both branches are taken: some grids interpolate, some do not.
        assert any(v == 0.0 for v in ours) and any(v != 0.0 for v in ours)


class TestInterpolatedTopK:
    def test_beats_grid_resolution(self):
        """Interpolation recovers an off-grid LOS better than the grid."""
        true_angle = np.deg2rad(1.7)  # between 33-entry codebook beams
        channel = two_path_channel(
            ARRAY, los_angle_rad=true_angle, delta_db=-20.0
        )
        sounder = ChannelSounder(
            config=OfdmConfig(bandwidth_hz=100e6, num_subcarriers=64), rng=0
        )
        trainer = ExhaustiveTrainer(
            codebook=uniform_codebook(ARRAY, 33), sounder=sounder
        )
        result = trainer.train(channel)
        coarse, _ = top_k_directions(result, 1)
        refined, _ = top_k_directions(result, 1, interpolate=True)
        coarse_error = abs(coarse[0] - true_angle)
        refined_error = abs(refined[0] - true_angle)
        assert refined_error < coarse_error
        assert refined_error < np.deg2rad(1.0)
