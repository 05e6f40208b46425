"""Bench: Fig. 4 — reflector-strength measurement study."""

import numpy as np

from repro.experiments import fig04_reflectors


def test_fig04a_attenuation_cdf(capsys):
    study = fig04_reflectors.run_attenuation_study(150, 0)
    # Paper shape: medians near 7.2 dB indoor / 5 dB outdoor, with
    # outdoor reflections relatively stronger (lower attenuation).
    assert 3.0 <= study.indoor_median_db <= 12.0
    assert 2.0 <= study.outdoor_median_db <= 10.0
    assert study.outdoor_median_db <= study.indoor_median_db + 1.0
    # Most reflectors attenuate 1-10 dB.
    for samples in (study.indoor_samples_db, study.outdoor_samples_db):
        fraction_in_band = np.mean((samples >= 0.5) & (samples <= 12.0))
        assert fraction_in_band > 0.8
    with capsys.disabled():
        print()
        print(fig04_reflectors.report(study))


def test_fig04b_motion_heatmap(capsys):
    heatmap = fig04_reflectors.run_motion_heatmap(12, 49, 0)
    assert heatmap.shape == (12, 49)
    # A strong ridge (the LOS) exists at every time step.
    assert np.all(np.max(heatmap, axis=1) > np.median(heatmap, axis=1) + 3)
    # And the ridge moves as the user moves.
    peaks = np.argmax(heatmap, axis=1)
    assert peaks.max() - peaks.min() >= 2
    with capsys.disabled():
        print()
        print(
            "Fig. 4(b) — LOS ridge angle index over time:",
            peaks.tolist(),
        )
