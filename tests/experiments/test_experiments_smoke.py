"""Smoke + determinism tests for the experiment harness.

The heavyweight sweeps are exercised by the benchmarks; these tests pin
down that the fast experiments run, return well-formed data, are
deterministic under a fixed seed, and that their reports mention the
paper landmarks they claim to reproduce.
"""

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    fig04_reflectors,
    fig08_delay_array,
    fig11_superres,
    fig14_sensitivity,
    fig15_combining,
    reliability_model,
)


class TestDeterminism:
    def test_fig04_deterministic(self):
        a = fig04_reflectors.run_attenuation_study(30, seed=7)
        b = fig04_reflectors.run_attenuation_study(30, seed=7)
        assert a.indoor_samples_db == pytest.approx(b.indoor_samples_db)

    def test_fig11_deterministic(self):
        a = fig11_superres.run_mse_sweep(num_trials=5, seed=3)
        b = fig11_superres.run_mse_sweep(num_trials=5, seed=3)
        assert a.mse_db == pytest.approx(b.mse_db)

    def test_fig15_gains_deterministic(self):
        a = fig15_combining.run_snr_gains(seed=5, num_trials=4)
        b = fig15_combining.run_snr_gains(seed=5, num_trials=4)
        assert a.gains_db == b.gains_db


class TestReports:
    def test_fig04_report_mentions_paper_values(self):
        report = fig04_reflectors.render(
            {"attenuation": fig04_reflectors.run_attenuation_study(30, seed=0)}
        )
        assert "7.2 dB" in report and "5.0 dB" in report

    def test_fig08_report_lists_all_variants(self):
        report = fig08_delay_array.render(
            {"responses": fig08_delay_array.run_band_responses(num_frequencies=51)}
        )
        assert "delay-optimized" in report
        assert "uncompensated" in report
        assert "single-beam" in report

    def test_fig14_report_mentions_landmark(self):
        report = fig14_sensitivity.render(
            {
                "grid": fig14_sensitivity.run_sensitivity_grid(
                    num_phases=25, num_amplitudes=9
                )
            }
        )
        assert "1.76 dB" in report

    def test_reliability_report_rows(self):
        report = reliability_model.render(
            {
                "analytic": reliability_model.run_analytic_curves(),
                "monte_carlo": reliability_model.run_monte_carlo_check(
                    betas=(0.3,)
                ),
            }
        )
        assert "1 - beta^k" in report


class TestShapes:
    def test_fig04_heatmap_shape(self):
        heatmap = fig04_reflectors.run_motion_heatmap(
            num_times=4, num_angles=11, seed=0
        )
        assert heatmap.shape == (4, 11)

    def test_fig08_series_lengths(self):
        result = fig08_delay_array.run_band_responses(num_frequencies=41)
        for series in result.responses_db.values():
            assert series.shape == result.frequencies_hz.shape

    def test_fig14_grid_shape(self):
        grid = fig14_sensitivity.run_sensitivity_grid(
            num_phases=13, num_amplitudes=5
        )
        assert grid.gain_db.shape == (5, 13)

    def test_ablation_quantization_keys(self):
        losses = ablations.run_quantization_ablation((2, 6))
        assert set(losses) == {2, 6}
        assert losses[6] <= losses[2]

    def test_fig11_sweep_custom_tofs(self):
        sweep = fig11_superres.run_mse_sweep(
            relative_tofs_s=np.array([1e-9, 3e-9]), num_trials=4, seed=0
        )
        assert sweep.mse_db.shape == (2,)
