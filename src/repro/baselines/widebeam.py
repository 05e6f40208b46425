"""Wide-beam baseline.

A sector beam wide enough to tolerate user motion without tracking: fewer
active elements spread the main lobe, trading peak gain (and therefore
SNR/throughput) for angular robustness.  This is the "widebeam" baseline
whose reliability tops out around 0.5 in Fig. 18(b): it avoids
misalignment outages but its lower SNR sits much closer to the outage
threshold, so blockage still takes it down and its throughput never
reaches the directional systems'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.beamtraining.base import train_and_record
from repro.channel.geometric import GeometricChannel
from repro.phy.mcs import OUTAGE_SNR_DB
from repro.phy.ofdm import ChannelSounder
from repro.phy.reference_signals import ProbeBudget


@dataclass
class WideBeam:
    """A static widened sector beam pointed at the trained direction."""

    array: UniformLinearArray
    sounder: ChannelSounder
    trainer: object
    #: Elements kept active; fewer elements -> wider (and weaker) beam.
    active_elements: int = 4
    budget: ProbeBudget = field(default_factory=ProbeBudget)

    beam_angle_rad: Optional[float] = field(default=None, init=False)
    training_rounds: int = field(default=0, init=False)
    training_windows: List[Tuple[float, float]] = field(
        default_factory=list, init=False
    )
    _bad_streak: int = field(default=0, init=False)
    outage_patience: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.active_elements <= self.array.num_elements:
            raise ValueError(
                f"active_elements must be in [1, {self.array.num_elements}], "
                f"got {self.active_elements!r}"
            )

    def establish(self, channel: GeometricChannel, time_s: float = 0.0) -> float:
        result = train_and_record(self, channel, time_s)
        self.beam_angle_rad = result.best_angle_rad
        self._bad_streak = 0
        return self.beam_angle_rad

    def current_weights(self) -> np.ndarray:
        if self.beam_angle_rad is None:
            raise RuntimeError("call establish() first")
        weights = np.zeros(self.array.num_elements, dtype=complex)
        n = np.arange(self.active_elements)
        weights[: self.active_elements] = np.exp(
            2j
            * np.pi
            * self.array.spacing_wavelengths
            * n
            * np.sin(self.beam_angle_rad)
        )
        return weights / np.sqrt(self.active_elements)

    def step(self, channel: GeometricChannel, time_s: float) -> str:
        """Mostly static; retrains only after a sustained outage."""
        snr_db = self.sounder.link_snr_db(channel, self.current_weights())
        if snr_db < OUTAGE_SNR_DB:
            self._bad_streak += 1
        else:
            self._bad_streak = 0
        if self._bad_streak >= self.outage_patience:
            self.establish(channel, time_s=time_s)
            return "retrain"
        return "none"
