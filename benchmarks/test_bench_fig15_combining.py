"""Bench: Fig. 15 — constructive combining accuracy and SNR gains."""

import numpy as np
import pytest

from repro.experiments import fig15_combining


def test_fig15ab_combining_accuracy(capsys):
    accuracy = fig15_combining.run_combining_accuracy()
    # The two-probe estimate lands at the scan optimum (paper: 2.5 rad).
    phase_error = np.angle(
        np.exp(
            1j * (accuracy.estimated_phase_rad - accuracy.best_scan_phase_rad)
        )
    )
    assert abs(np.rad2deg(phase_error)) < 15.0
    # 180-degree error costs ~13 dB.
    assert accuracy.phase_penalty_at_opposite_db == pytest.approx(13.0, abs=3.0)
    # Amplitude estimate inside the paper's plateau (-5..-3 dB).
    assert -6.0 <= accuracy.estimated_amplitude_db <= -2.0
    with capsys.disabled():
        print()
        print(
            fig15_combining.render(
                {
                    "accuracy": accuracy,
                    "stability": fig15_combining.run_phase_stability(),
                    "gains": fig15_combining.run_snr_gains(num_trials=10),
                }
            )
        )


def test_fig15c_phase_stability():
    phases = fig15_combining.run_phase_stability()
    drift = float(np.max(phases) - np.min(phases))
    # Paper: less than 1 rad of per-beam phase drift over 100 MHz.
    assert drift < 1.0


def test_fig15d_snr_gains():
    gains = fig15_combining.run_snr_gains(20, 15)
    # Paper: 2-beam ~1.04 dB, 3-beam ~2.27 dB, oracle ~2.5 dB; 3-beam
    # reaches ~92% of the oracle.  Shape: ordering + fraction.
    assert 0.5 <= gains.gains_db["2-beam"] <= 2.0
    assert gains.gains_db["3-beam"] > gains.gains_db["2-beam"]
    assert gains.gains_db["oracle"] >= gains.gains_db["3-beam"] - 1e-6
    assert gains.fraction_of_oracle("3-beam") > 0.85
