"""Tests for reliability/throughput metrics (Eq. 1, Fig. 18c)."""

import numpy as np
import pytest

from repro.phy.mcs import NR_MCS_TABLE, OUTAGE_SNR_DB, spectral_efficiency
from repro.sim.metrics import (
    LinkMetrics,
    analytic_multibeam_reliability,
    analytic_single_beam_reliability,
    mean_throughput_bps,
    reliability,
    throughput_reliability_product,
    throughput_series_bps,
)


class TestReliability:
    def test_all_good(self):
        times = np.linspace(0, 1, 100)
        snr = np.full(100, 20.0)
        assert reliability(times, snr) == 1.0

    def test_outage_fraction(self):
        times = np.linspace(0, 1, 100)
        snr = np.full(100, 20.0)
        snr[:25] = 0.0
        assert reliability(times, snr) == pytest.approx(0.75)

    def test_threshold_boundary(self):
        times = np.array([0.0, 1.0])
        snr = np.array([OUTAGE_SNR_DB, OUTAGE_SNR_DB - 0.01])
        assert reliability(times, snr) == pytest.approx(0.5)

    def test_training_windows_count_as_downtime(self):
        times = np.linspace(0, 1, 101)
        snr = np.full(101, 20.0)
        value = reliability(
            times, snr, unavailable_windows=[(0.2, 0.1), (0.5, 0.1)]
        )
        assert value == pytest.approx(0.8, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            reliability(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            reliability(np.array([]), np.array([]))


class TestThroughput:
    def test_series_zero_in_outage(self):
        times = np.array([0.0, 0.5])
        snr = np.array([0.0, 25.0])
        series = throughput_series_bps(times, snr, 400e6)
        assert series[0] == 0.0
        assert series[1] > 0.0

    def test_training_window_zeroes_throughput(self):
        times = np.array([0.0, 0.5])
        snr = np.array([25.0, 25.0])
        series = throughput_series_bps(
            times, snr, 400e6, unavailable_windows=[(0.4, 0.2)]
        )
        assert series[0] > 0.0
        assert series[1] == 0.0

    def test_series_equals_the_scalar_ladder_bitwise(self):
        """The vectorized lookup returns exactly the scalar ladder's
        efficiency at every sample, NaN, infinities and exact switching
        points included."""
        rng = np.random.default_rng(7)
        thresholds = [entry.min_snr_db for entry in NR_MCS_TABLE]
        specials = thresholds + [np.nan, np.inf, -np.inf, -0.0, 1e300]
        bandwidth_hz = 400e6
        for _ in range(200):
            snr = rng.uniform(-10.0, 40.0, 1000)
            snr[rng.choice(1000, 40, replace=False)] = rng.choice(specials, 40)
            times = np.arange(1000) * 1e-3
            expected = (
                np.asarray([spectral_efficiency(value) for value in snr])
                * bandwidth_hz
            )
            got = throughput_series_bps(times, snr, bandwidth_hz)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_mean(self):
        times = np.array([0.0, 1.0])
        snr = np.array([25.0, 0.0])
        mean = mean_throughput_bps(times, snr, 400e6)
        full = mean_throughput_bps(times, np.array([25.0, 25.0]), 400e6)
        assert mean == pytest.approx(full / 2)


class TestProduct:
    def test_product(self):
        assert throughput_reliability_product(1e9, 0.5) == pytest.approx(5e8)

    def test_validation(self):
        with pytest.raises(ValueError):
            throughput_reliability_product(1e9, 1.5)


class TestAnalyticReliability:
    def test_single_beam(self):
        assert analytic_single_beam_reliability(0.3) == pytest.approx(0.7)

    def test_multibeam_beats_single(self):
        # Section 3.1: 1 - beta^k > 1 - beta for k >= 2, beta in (0, 1).
        for beta in (0.1, 0.3, 0.6):
            for k in (2, 3, 4):
                assert analytic_multibeam_reliability(
                    beta, k
                ) > analytic_single_beam_reliability(beta)

    def test_k_one_reduces_to_single(self):
        assert analytic_multibeam_reliability(0.4, 1) == pytest.approx(0.6)

    def test_monotone_in_k(self):
        values = [analytic_multibeam_reliability(0.5, k) for k in range(1, 6)]
        assert np.all(np.diff(values) > 0)

    def test_edge_cases(self):
        assert analytic_multibeam_reliability(0.0, 3) == 1.0
        assert analytic_multibeam_reliability(1.0, 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_multibeam_reliability(1.5, 2)
        with pytest.raises(ValueError):
            analytic_multibeam_reliability(0.5, 0)
        with pytest.raises(ValueError):
            analytic_single_beam_reliability(-0.1)


class TestLinkMetrics:
    def test_from_trace(self):
        times = np.linspace(0, 1, 100)
        snr = np.full(100, 20.0)
        snr[:10] = 0.0
        metrics = LinkMetrics.from_trace(times, snr, 400e6, training_rounds=2)
        assert metrics.reliability == pytest.approx(0.9)
        assert metrics.training_rounds == 2
        assert metrics.product == pytest.approx(
            metrics.mean_throughput_bps * 0.9
        )
        assert metrics.mean_spectral_efficiency == pytest.approx(
            metrics.mean_throughput_bps / 400e6
        )

    def test_handles_minus_inf_snr(self):
        times = np.linspace(0, 1, 10)
        snr = np.full(10, -np.inf)
        metrics = LinkMetrics.from_trace(times, snr, 400e6)
        assert metrics.reliability == 0.0
        assert metrics.mean_throughput_bps == 0.0
