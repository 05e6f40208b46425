"""BeamSpy-style single-beam baseline.

BeamSpy (Sur et al., NSDI'16) avoids a full re-scan on blockage by
exploiting the *spatial channel profile* captured at training time: when
the serving beam degrades, it switches directly to the best alternate
direction recorded in the profile.  It is still a single-beam system — it
reacts after the drop, loses the switching time, and if the stored
alternate is stale (the user moved) it must fall back to training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.arrays.steering import single_beam_weights
from repro.beamtraining.base import top_k_directions, train_and_record
from repro.channel.geometric import GeometricChannel
from repro.phy.mcs import OUTAGE_SNR_DB
from repro.phy.ofdm import ChannelSounder
from repro.phy.reference_signals import ProbeBudget, ProbeKind


@dataclass
class BeamSpySingleBeam:
    """Single beam with profile-based blockage fallback."""

    array: UniformLinearArray
    sounder: ChannelSounder
    trainer: object
    #: How many alternate directions the spatial profile retains.
    profile_size: int = 3
    min_separation_rad: float = np.deg2rad(10.0)
    #: Outage-detection latency before the profile fallback fires.  Much
    #: shorter than full beam-failure recovery (that is BeamSpy's selling
    #: point) but still reactive — the drop must be observed first.
    reaction_delay_s: float = 20e-3
    budget: ProbeBudget = field(default_factory=ProbeBudget)
    _outage_since: object = field(default=None, init=False)

    beam_angle_rad: Optional[float] = field(default=None, init=False)
    profile: List[Tuple[float, float]] = field(default_factory=list, init=False)
    training_rounds: int = field(default=0, init=False)
    training_windows: List[Tuple[float, float]] = field(
        default_factory=list, init=False
    )

    def establish(self, channel: GeometricChannel, time_s: float = 0.0) -> float:
        """Train, keep the spatial profile, serve on the strongest beam."""
        result = train_and_record(self, channel, time_s)
        angles, powers = top_k_directions(
            result, self.profile_size, self.min_separation_rad
        )
        self.profile = list(zip(angles, powers))
        self.beam_angle_rad = angles[0]
        self._outage_since = None
        return self.beam_angle_rad

    def current_weights(self) -> np.ndarray:
        if self.beam_angle_rad is None:
            raise RuntimeError("call establish() first")
        return single_beam_weights(self.array, self.beam_angle_rad)

    def step(self, channel: GeometricChannel, time_s: float) -> str:
        """Serve; on outage, hop through the stored profile, then retrain."""
        snr_db = self.sounder.link_snr_db(channel, self.current_weights())
        if snr_db >= OUTAGE_SNR_DB:
            self._outage_since = None
            return "none"
        if self._outage_since is None:
            self._outage_since = time_s
        if time_s - self._outage_since < self.reaction_delay_s:
            return "outage_wait"
        # Blocked: try the stored alternates in decreasing trained power.
        for angle, _power in sorted(self.profile, key=lambda ap: -ap[1]):
            if angle == self.beam_angle_rad:
                continue
            self.budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=1)
            candidate = single_beam_weights(self.array, angle)
            estimate = self.sounder.sound(channel, candidate, time_s=time_s)
            candidate_snr = self.sounder.config.snr_db(estimate.mean_power)
            if candidate_snr >= OUTAGE_SNR_DB:
                self.beam_angle_rad = angle
                self._outage_since = None
                return "profile_switch"
        # Profile exhausted (stale after mobility): full retrain.
        self.establish(channel, time_s=time_s)
        return "retrain"
