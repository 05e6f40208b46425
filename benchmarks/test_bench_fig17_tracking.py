"""Bench: Fig. 17 — tracking accuracy and throughput payoff."""

import numpy as np

from repro.experiments import fig17_tracking


def test_fig17a_per_beam_power_follows_pattern():
    trace = fig17_tracking.run_per_beam_power_trace()
    # Paper: the smoothed per-beam powers approximate the beam pattern
    # within ~1 dB.
    assert trace.fit_error_db() < 1.5


def test_fig17b_angle_accuracy(capsys):
    errors = fig17_tracking.run_angle_accuracy()
    # Paper: ~1 degree mean estimation error over 2-8 degree rotations.
    assert np.mean(list(errors.values())) < 1.5
    for error in errors.values():
        assert error < 2.0
    with capsys.disabled():
        print()
        print("Fig. 17(b) angle errors:", {k: round(v, 2) for k, v in errors.items()})


def test_fig17c_throughput_timeseries(capsys):
    comparison = fig17_tracking.run_throughput_timeseries()
    # Paper ordering: tracking + constructive combining sustains the
    # highest throughput; tracking alone is lower; no tracking decays.
    assert comparison.mean_mbps("tracking+CC") >= comparison.mean_mbps(
        "tracking-only"
    )
    assert comparison.mean_mbps("tracking-only") > comparison.mean_mbps(
        "no-tracking"
    )
    # No-tracking decays over the run (final << initial); the tracked
    # variants hold.
    no_tracking = comparison.series_mbps["no-tracking"]
    assert comparison.final_mbps("no-tracking") < np.mean(no_tracking[:100])
    tracked = comparison.series_mbps["tracking+CC"]
    assert comparison.final_mbps("tracking+CC") > 0.9 * np.mean(tracked[:100])
    with capsys.disabled():
        print()
        for label in ("no-tracking", "tracking-only", "tracking+CC"):
            print(
                f"Fig. 17(c) {label:<14s} mean "
                f"{comparison.mean_mbps(label):7.1f} Mbps final "
                f"{comparison.final_mbps(label):7.1f} Mbps"
            )
