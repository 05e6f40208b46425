"""Fig. 14 — sensitivity of multi-beam SNR gain to estimation errors.

A 2-path channel with relative phase -40 degrees and relative amplitude
-3 dB.  The 2nd beam's applied phase and amplitude sweep over a grid; the
heatmap reports SNR gain (dB) of the resulting 2-beam pattern over the
single-beam baseline.  Paper landmarks: peak gain 1.76 dB at perfect
estimates; gain stays positive within roughly +/-75 degrees of phase
error; a 180-degree phase error costs far more than the potential gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.arrays.steering import single_beam_weights
from repro.core.multibeam import MultiBeam
from repro.experiments.common import TESTBED_ULA
from repro.experiments.registry import ExperimentConfig
from repro.sim.scenarios import two_path_channel
from repro.utils import complex_from_polar, db_to_linear, power_linear_to_db

#: Paper's channel: second path at -3 dB, relative phase -40 degrees.
CHANNEL_DELTA_DB = -3.0
CHANNEL_SIGMA_RAD = np.deg2rad(-40.0)


@dataclass(frozen=True)
class SensitivityGrid:
    applied_phases_rad: np.ndarray
    applied_amplitudes_db: np.ndarray
    #: gain [dB] indexed (amplitude, phase)
    gain_db: np.ndarray

    @property
    def peak_gain_db(self) -> float:
        return float(np.max(self.gain_db))

    def phase_tolerance_rad(self) -> float:
        """Widest phase error (at the true amplitude) with gain >= 0 dB."""
        amp_index = int(
            np.argmin(np.abs(self.applied_amplitudes_db - CHANNEL_DELTA_DB))
        )
        row = self.gain_db[amp_index]
        true_phase = CHANNEL_SIGMA_RAD
        errors = np.abs(
            np.angle(np.exp(1j * (self.applied_phases_rad - true_phase)))
        )
        positive = row >= 0.0
        if not positive.any():
            return 0.0
        return float(np.max(errors[positive]))


def run_sensitivity_grid(
    num_phases: int = 73, num_amplitudes: int = 25
) -> SensitivityGrid:
    array = TESTBED_ULA
    channel = two_path_channel(
        array, delta_db=CHANNEL_DELTA_DB, sigma_rad=CHANNEL_SIGMA_RAD
    )
    w_single = single_beam_weights(array, 0.0)

    def center_power(weights):
        return abs(np.sum(channel.beamformed_path_gains(weights))) ** 2

    single_power = center_power(w_single)
    phases = np.linspace(-np.pi, np.pi, num_phases)
    amplitudes_db = np.linspace(-20.0, 2.0, num_amplitudes)
    gain_db = np.empty((num_amplitudes, num_phases))
    angles = (0.0, np.deg2rad(30.0))
    for i, amp_db in enumerate(amplitudes_db):
        for j, phase in enumerate(phases):
            applied = complex_from_polar(float(db_to_linear(amp_db)), phase)
            multibeam = MultiBeam(
                array=array, angles_rad=angles,
                relative_gains=(1.0, applied),
            )
            power = center_power(multibeam.weights().vector)
            gain_db[i, j] = power_linear_to_db(power / single_power)
    return SensitivityGrid(
        applied_phases_rad=phases,
        applied_amplitudes_db=amplitudes_db,
        gain_db=gain_db,
    )


def run(config: ExperimentConfig) -> Dict[str, Any]:
    return {"grid": run_sensitivity_grid()}


def render(data: Dict[str, Any]) -> str:
    grid = data["grid"]
    tolerance_deg = np.rad2deg(grid.phase_tolerance_rad())
    worst = float(np.min(grid.gain_db))
    lines = [
        "Fig. 14 — 2-beam SNR gain vs applied (phase, amplitude) of beam 2",
        f"  channel: delta = {CHANNEL_DELTA_DB} dB, "
        f"sigma = {np.rad2deg(CHANNEL_SIGMA_RAD):.0f} deg",
        f"  peak gain: {grid.peak_gain_db:5.2f} dB   (paper: 1.76 dB)",
        f"  phase-error tolerance (gain >= 0): +/-{tolerance_deg:5.1f} deg "
        "(paper: ~75 deg)",
        f"  worst-case gain (180 deg error): {worst:6.2f} dB",
    ]
    return "\n".join(lines)
