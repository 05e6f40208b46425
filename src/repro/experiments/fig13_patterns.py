"""Fig. 13(d) — multi-beam pattern fidelity under hardware control.

The paper validates that its phased array generates accurate multi-beam
patterns: the measured pattern matches the theoretical analysis.  Our
"hardware" is the weight quantizer (6-bit phase shifters, 27 dB gain
control, Section 5.1); this experiment synthesizes 2- and 3-lobe
multi-beams, quantizes them, and compares the quantized pattern against
the ideal analytic one — lobe positions, lobe levels, and overall
pattern correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.arrays.patterns import beam_pattern_db
from repro.core.multibeam import MultiBeam
from repro.experiments.common import TESTBED_ULA
from repro.experiments.registry import ExperimentConfig


@dataclass(frozen=True)
class PatternComparison:
    angles_rad: np.ndarray
    ideal_db: np.ndarray
    quantized_db: np.ndarray
    lobe_angles_rad: Tuple[float, ...]

    def lobe_angle_errors_deg(self) -> List[float]:
        """|peak location error| per intended lobe, ideal vs quantized."""
        errors = []
        for lobe in self.lobe_angles_rad:
            window = np.abs(self.angles_rad - lobe) < np.deg2rad(8.0)
            ideal_peak = self.angles_rad[window][
                np.argmax(self.ideal_db[window])
            ]
            quantized_peak = self.angles_rad[window][
                np.argmax(self.quantized_db[window])
            ]
            errors.append(abs(np.rad2deg(quantized_peak - ideal_peak)))
        return errors

    def lobe_level_errors_db(self) -> List[float]:
        """|lobe level error| per intended lobe."""
        errors = []
        for lobe in self.lobe_angles_rad:
            window = np.abs(self.angles_rad - lobe) < np.deg2rad(8.0)
            errors.append(
                abs(
                    float(np.max(self.ideal_db[window]))
                    - float(np.max(self.quantized_db[window]))
                )
            )
        return errors

    def mainlobe_rmse_db(self) -> float:
        """RMS pattern error within the lobes (where power actually goes)."""
        mask = np.zeros(self.angles_rad.shape, dtype=bool)
        for lobe in self.lobe_angles_rad:
            mask |= np.abs(self.angles_rad - lobe) < np.deg2rad(8.0)
        difference = self.ideal_db[mask] - self.quantized_db[mask]
        return float(np.sqrt(np.mean(difference ** 2)))


def run_pattern_comparison(
    num_beams: int = 2, phase_bits: int = 6
) -> PatternComparison:
    """Ideal vs hardware-quantized multi-beam pattern (Fig. 13d)."""
    array = TESTBED_ULA
    if num_beams == 2:
        lobes = (0.0, np.deg2rad(30.0))
        gains = (1.0, 0.6 * np.exp(1j * 1.0))
    elif num_beams == 3:
        lobes = (0.0, np.deg2rad(30.0), np.deg2rad(-25.0))
        gains = (1.0, 0.6 * np.exp(1j * 1.0), 0.4 * np.exp(-0.7j))
    else:
        raise ValueError(f"num_beams must be 2 or 3, got {num_beams!r}")
    multibeam = MultiBeam(
        array=array, angles_rad=lobes, relative_gains=gains
    )
    ideal = multibeam.weights()
    from repro.arrays.weights import WeightQuantizer

    quantizer = WeightQuantizer(
        phase_bits=phase_bits, amplitude_range_db=27.0
    )
    quantized = multibeam.weights(quantizer)
    angles = np.deg2rad(np.linspace(-60.0, 60.0, 961))
    return PatternComparison(
        angles_rad=angles,
        ideal_db=beam_pattern_db(array, ideal.vector, angles),
        quantized_db=beam_pattern_db(array, quantized.vector, angles),
        lobe_angles_rad=lobes,
    )


def run(config: ExperimentConfig) -> Dict[str, Any]:
    return {"patterns": {k: run_pattern_comparison(num_beams=k) for k in (2, 3)}}


def render(data: Dict[str, Any]) -> str:
    lines = [
        "Fig. 13(d) — multi-beam pattern: theory vs 6-bit hardware control"
    ]
    for num_beams, comparison in data["patterns"].items():
        angle_errors = comparison.lobe_angle_errors_deg()
        level_errors = comparison.lobe_level_errors_db()
        lines.append(
            f"  {num_beams}-beam: lobe angle errors "
            + "/".join(f"{e:.2f}" for e in angle_errors)
            + " deg, lobe level errors "
            + "/".join(f"{e:.3f}" for e in level_errors)
            + f" dB, main-lobe RMSE {comparison.mainlobe_rmse_db():.3f} dB"
        )
    lines.append(
        "  paper: 'our phased arrays generate accurate multi-beam patterns'"
    )
    return "\n".join(lines)
