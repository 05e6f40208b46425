"""Bench: Fig. 14 — sensitivity of multi-beam gain to estimation errors."""

import numpy as np
import pytest

from repro.experiments import fig14_sensitivity


def test_fig14_sensitivity_grid(capsys):
    grid = fig14_sensitivity.run_sensitivity_grid()
    # Paper landmark: peak gain 1.76 dB for the -3 dB / -40 deg channel.
    assert grid.peak_gain_db == pytest.approx(1.76, abs=0.15)
    # Tolerant to phase error: gain stays positive out to ~+/-75 deg.
    tolerance_deg = np.rad2deg(grid.phase_tolerance_rad())
    assert 55.0 <= tolerance_deg <= 95.0
    # A 180-degree phase error is catastrophic (far below single beam).
    assert np.min(grid.gain_db) < -10.0
    # Amplitude tolerance: even a -20 dB under-weighted second beam never
    # drops below the single-beam baseline at the correct phase.
    phase_index = int(
        np.argmin(
            np.abs(
                np.angle(
                    np.exp(
                        1j
                        * (
                            grid.applied_phases_rad
                            - fig14_sensitivity.CHANNEL_SIGMA_RAD
                        )
                    )
                )
            )
        )
    )
    assert np.all(grid.gain_db[:, phase_index] > -0.5)
    with capsys.disabled():
        print()
        print(fig14_sensitivity.render({"grid": grid}))
