"""Reactive single-beam baseline.

The conventional mmWave link: one directional beam toward the strongest
trained direction, no proactive maintenance.  When the SNR collapses below
the outage threshold the baseline *reacts* with a fresh (fast,
logarithmic-probe) beam-training sweep — during which the link carries no
data.  This is the "Reactive baseline" of Fig. 18, modelled on fast
beam-alignment systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.arrays.steering import single_beam_weights
from repro.beamtraining.base import train_and_record
from repro.channel.geometric import GeometricChannel
from repro.phy.mcs import OUTAGE_SNR_DB
from repro.phy.ofdm import ChannelSounder
from repro.phy.reference_signals import ProbeBudget


@dataclass
class ReactiveSingleBeam:
    """Single beam + reactive re-training on outage.

    ``reaction_delay_s`` models the end-to-end latency of real beam-failure
    recovery — outage declaration timers, waiting for the next SSB training
    opportunity, and the RACH exchange — which in deployed NR systems adds
    up to on the order of 100 ms.  The reactive system is what it is
    *because* this delay exists: it cannot act before the outage has been
    detected and the recovery machinery has spun up.
    """

    array: UniformLinearArray
    sounder: ChannelSounder
    trainer: object
    #: Detection + recovery latency before re-training begins.
    reaction_delay_s: float = 100e-3
    budget: ProbeBudget = field(default_factory=ProbeBudget)

    beam_angle_rad: Optional[float] = field(default=None, init=False)
    training_rounds: int = field(default=0, init=False)
    training_windows: List[Tuple[float, float]] = field(
        default_factory=list, init=False
    )
    _outage_since: Optional[float] = field(default=None, init=False)

    def establish(self, channel: GeometricChannel, time_s: float = 0.0) -> float:
        """Train and point the single beam at the strongest direction."""
        result = train_and_record(self, channel, time_s)
        self.beam_angle_rad = result.best_angle_rad
        self._outage_since = None
        return self.beam_angle_rad

    def current_weights(self) -> np.ndarray:
        if self.beam_angle_rad is None:
            raise RuntimeError("call establish() first")
        return single_beam_weights(self.array, self.beam_angle_rad)

    def step(self, channel: GeometricChannel, time_s: float) -> str:
        """Observe the link; retrain only after outage + recovery latency."""
        snr_db = self.sounder.link_snr_db(channel, self.current_weights())
        if snr_db >= OUTAGE_SNR_DB:
            self._outage_since = None
            return "none"
        if self._outage_since is None:
            self._outage_since = time_s
        if time_s - self._outage_since >= self.reaction_delay_s:
            self.establish(channel, time_s=time_s)
            return "retrain"
        return "outage_wait"
