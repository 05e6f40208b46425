"""Bench: Fig. 16 — blockage resilience time series."""

from repro.experiments import fig16_blockage


def test_fig16_walking_blocker(capsys):
    series = fig16_blockage.run_walking_blocker()
    # Paper shape: single-beam LOS blockage costs ~26 dB and outages the
    # link; the multi-beam dips far less and never goes down.
    assert series.single_beam_max_drop_db > 18.0
    assert series.multibeam_max_drop_db < series.single_beam_max_drop_db
    assert series.multibeam_max_drop_db < 15.0
    assert series.single_beam_outage_ms > 100.0
    assert series.multibeam_outage_ms == 0.0
    with capsys.disabled():
        print()
        print(fig16_blockage.report(series))
