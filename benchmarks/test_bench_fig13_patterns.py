"""Bench: Fig. 13(d) — multi-beam pattern fidelity on real hardware control."""

import pytest

from repro.experiments import fig13_patterns


def test_fig13d_pattern_fidelity(capsys):
    comparisons = {
        k: fig13_patterns.run_pattern_comparison(num_beams=k) for k in (2, 3)
    }
    for comparison in comparisons.values():
        # Lobes land where the theory puts them...
        for error_deg in comparison.lobe_angle_errors_deg():
            assert error_deg < 0.5
        # ...at the theoretical levels...
        for error_db in comparison.lobe_level_errors_db():
            assert error_db < 0.5
        # ...with sub-dB pattern agreement across the main lobes.
        assert comparison.mainlobe_rmse_db() < 0.5
    # Coarse 2-bit hardware visibly distorts (the contrast that makes
    # 6-bit control worth having).
    coarse = fig13_patterns.run_pattern_comparison(num_beams=2, phase_bits=2)
    assert coarse.mainlobe_rmse_db() > comparisons[2].mainlobe_rmse_db()
    with capsys.disabled():
        print()
        print(fig13_patterns.report(comparisons))
