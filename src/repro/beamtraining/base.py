"""Common beam-training result type, the training ledger, peak picking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

import numpy as np

from repro.phy.reference_signals import ssb_duration_s
from repro.telemetry import EventKind, get_recorder
from repro.utils import is_close, power_db_to_linear


@dataclass(frozen=True)
class BeamTrainingResult:
    """Outcome of one training sweep.

    ``angles_rad``/``powers`` record every probed direction and the measured
    received power ``p = |h|^2`` (linear) — the ``p_1, p_2`` the multi-beam
    probing step reuses for free (Section 3.3).
    """

    angles_rad: np.ndarray
    powers: np.ndarray
    num_probes: int

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles_rad, dtype=float)
        powers = np.asarray(self.powers, dtype=float)
        if angles.shape != powers.shape or angles.ndim != 1:
            raise ValueError(
                f"angles {angles.shape} and powers {powers.shape} must be "
                "matching 1-D arrays"
            )
        if self.num_probes < angles.size and self.num_probes < 1:
            raise ValueError("num_probes must be >= 1")
        object.__setattr__(self, "angles_rad", angles)
        object.__setattr__(self, "powers", powers)
        self.angles_rad.setflags(write=False)
        self.powers.setflags(write=False)

    @property
    def best_angle_rad(self) -> float:
        """Direction of the strongest probed beam."""
        return float(self.angles_rad[int(np.argmax(self.powers))])

    @property
    def best_power(self) -> float:
        return float(np.max(self.powers))

    def power_at(self, angle_rad: float) -> float:
        """Measured power of the probed direction nearest ``angle_rad``."""
        return float(self.powers[int(np.argmin(np.abs(self.angles_rad - angle_rad)))])


def train_and_record(
    manager: Any, channel: Any, time_s: float
) -> BeamTrainingResult:
    """Run ``manager.trainer`` and charge the episode to the manager.

    The one ledger for beam training: the sweep's probes go to
    ``manager.budget``, the round is counted on
    ``manager.training_rounds``, its SSB airtime window (the link carries
    no data during it) is appended to ``manager.training_windows``, and a
    ``beam_retrain`` event records it.
    """
    result = manager.trainer.train(
        channel, budget=manager.budget, time_s=time_s
    )
    manager.training_rounds += 1
    manager.training_windows.append(
        (time_s, result.num_probes * ssb_duration_s(manager.budget.numerology))
    )
    recorder = get_recorder()
    if recorder.enabled:
        recorder.emit(
            EventKind.BEAM_RETRAIN,
            time_s,
            manager=type(manager).__name__,
            num_probes=int(result.num_probes),
            round=manager.training_rounds,
        )
    return result


def interpolate_peak(result: BeamTrainingResult, index: int) -> float:
    """Sub-grid peak angle by quadratic interpolation of log-power.

    A beam sweep samples the (smooth, near-parabolic in dB) main lobe on
    a discrete grid; fitting a parabola through the peak sample and its
    two neighbours recovers the true direction to a fraction of the grid
    spacing.  Falls back to the grid angle at the sweep edges, on
    non-uniform grids, or when the neighbours do not bracket a maximum.
    """
    angles = result.angles_rad
    powers = result.powers
    if not 0 <= index < angles.size:
        raise IndexError(f"index {index} out of range")
    if index == 0 or index == angles.size - 1:
        return float(angles[index])
    left_step = angles[index] - angles[index - 1]
    right_step = angles[index + 1] - angles[index]
    if not is_close(left_step, right_step, rtol=1e-6):
        return float(angles[index])
    floor = max(np.max(powers) * 1e-12, 1e-300)
    y = np.log10(np.maximum(powers[index - 1: index + 2], floor))
    denominator = y[0] - 2 * y[1] + y[2]
    if denominator >= 0:
        return float(angles[index])  # not a local maximum in dB
    shift = 0.5 * (y[0] - y[2]) / denominator
    shift = float(np.clip(shift, -0.5, 0.5))
    return float(angles[index] + shift * left_step)


def top_k_directions(
    result: BeamTrainingResult,
    k: int,
    min_separation_rad: float = np.deg2rad(10.0),
    min_relative_power_db: float = 25.0,
    interpolate: bool = False,
) -> Tuple[List[float], List[float]]:
    """The ``k`` strongest well-separated directions from a sweep.

    Greedy non-maximum suppression: repeatedly take the strongest remaining
    direction, discard everything within ``min_separation_rad`` of it.
    Directions more than ``min_relative_power_db`` below the strongest are
    never selected (they are noise, not viable paths) — typical mmWave
    environments yield only 2-3 viable beams (Section 1).

    With ``interpolate=True`` each selected angle is refined to sub-grid
    accuracy via :func:`interpolate_peak`.

    Returns ``(angles, powers)``, strongest first; may return fewer than
    ``k`` entries.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    angles = result.angles_rad.copy()
    powers = result.powers.copy()
    floor = result.best_power * float(
        power_db_to_linear(-min_relative_power_db)
    )
    chosen_angles: List[float] = []
    chosen_powers: List[float] = []
    available = np.ones(angles.size, dtype=bool)
    while len(chosen_angles) < k and available.any():
        idx = int(np.argmax(np.where(available, powers, -np.inf)))
        if powers[idx] < floor:
            break
        if interpolate:
            chosen_angles.append(interpolate_peak(result, idx))
        else:
            chosen_angles.append(float(angles[idx]))
        chosen_powers.append(float(powers[idx]))
        available &= np.abs(angles - angles[idx]) >= min_separation_rad
    return chosen_angles, chosen_powers
