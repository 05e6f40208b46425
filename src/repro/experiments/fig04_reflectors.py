"""Fig. 4 — strength of mmWave multipath.

(a) CDF of the relative attenuation of the strongest reflected path vs
    the direct path, over many random indoor (5-10 m) and outdoor
    (10-80 m) deployments.  Paper medians: 7.2 dB indoor, 5 dB outdoor.
(b) Heatmap of beam-scan power over (time, angle) while the UE moves —
    strong reflectors appear and shift over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.channel.measurement import (
    attenuation_cdf,
    reflector_attenuation_study,
    spatial_power_heatmap,
)
from repro.channel.environment import random_indoor_environment
from repro.channel.mobility import LinearTrajectory
from repro.experiments.common import TESTBED_ULA
from repro.experiments.registry import ExperimentConfig


@dataclass(frozen=True)
class ReflectorStudy:
    indoor_samples_db: np.ndarray
    outdoor_samples_db: np.ndarray

    @property
    def indoor_median_db(self) -> float:
        return float(np.median(self.indoor_samples_db))

    @property
    def outdoor_median_db(self) -> float:
        return float(np.median(self.outdoor_samples_db))

    def cdfs(self):
        return (
            attenuation_cdf(self.indoor_samples_db),
            attenuation_cdf(self.outdoor_samples_db),
        )


def run_attenuation_study(
    num_locations: int = 200, seed: int = 0
) -> ReflectorStudy:
    """Fig. 4(a): the synthetic re-run of the paper's measurement study."""
    return ReflectorStudy(
        indoor_samples_db=reflector_attenuation_study(
            num_locations, scenario="indoor", rng=seed
        ),
        outdoor_samples_db=reflector_attenuation_study(
            num_locations, scenario="outdoor", rng=seed + 1
        ),
    )


def run_motion_heatmap(
    num_times: int = 20, num_angles: int = 61, seed: int = 0
) -> np.ndarray:
    """Fig. 4(b): spatial power heatmap along a moving-UE trace."""
    environment = random_indoor_environment(rng=seed)
    trajectory = LinearTrajectory(
        start_position=(2.0, 6.0), velocity_mps=(1.0, 0.0)
    )
    times = np.linspace(0.0, 2.0, num_times)
    angles = np.deg2rad(np.linspace(-60.0, 60.0, num_angles))
    return spatial_power_heatmap(
        environment, TESTBED_ULA, (3.5, 0.5), trajectory, times, angles
    )


def run(config: ExperimentConfig) -> Dict[str, Any]:
    return {"attenuation": run_attenuation_study()}


def render(data: Dict[str, Any]) -> str:
    study = data["attenuation"]
    lines = [
        "Fig. 4(a) — relative attenuation of strongest reflection (dB)",
        f"  indoor  median: {study.indoor_median_db:5.2f} dB   (paper: 7.2 dB)",
        f"  outdoor median: {study.outdoor_median_db:5.2f} dB   (paper: 5.0 dB)",
        "  CDF percentiles (dB):      p10    p25    p50    p75    p90",
    ]
    for label, samples in (
        ("indoor", study.indoor_samples_db),
        ("outdoor", study.outdoor_samples_db),
    ):
        pct = np.percentile(samples, [10, 25, 50, 75, 90])
        lines.append(
            f"  {label:<8s}             "
            + " ".join(f"{v:6.2f}" for v in pct)
        )
    return "\n".join(lines)
