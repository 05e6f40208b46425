"""Bench: Fig. 19 (Appendix B) — 28 vs 60 GHz comparison."""

from repro.experiments import fig19_60ghz


def test_fig19_carrier_comparison(capsys):
    comparison = fig19_60ghz.run_carrier_comparison()
    # Paper shape: multi-beam outperforms the single-beam baseline at
    # both carriers (~1.18x), and 28 GHz delivers several times the
    # 60 GHz throughput for the same bandwidth (paper: 4.7x) because of
    # FSPL and O2 absorption.
    assert comparison.multibeam_gain("28GHz") > 1.05
    assert comparison.multibeam_gain("60GHz") > 1.0
    assert comparison.carrier_ratio() > 1.8
    with capsys.disabled():
        print()
        print(fig19_60ghz.report(comparison))
