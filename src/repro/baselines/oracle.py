"""Oracle (genie) MRT baseline.

The channel-dependent beam the paper calls the "oracle": per-antenna
maximum-ratio transmission ``h* / ||h||`` computed from perfect channel
knowledge, refreshed every step with no probing cost.  Physically this
requires per-element channel estimation whose overhead scales with the
array size (ACO-style, ~5N probes) — which is exactly why mmReliable's
3-beam approximation at fixed overhead is the interesting result
(Fig. 15d: 3 beams reach ~92% of oracle SNR gain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.channel.geometric import GeometricChannel
from repro.core.multibeam import optimal_mrt_weights
from repro.phy.ofdm import ChannelSounder
from repro.phy.reference_signals import ProbeBudget


@dataclass
class OracleBeam:
    """Genie MRT beamforming with zero probing overhead."""

    array: UniformLinearArray
    sounder: ChannelSounder
    budget: ProbeBudget = field(default_factory=ProbeBudget)

    _weights: Optional[np.ndarray] = field(default=None, init=False)
    training_rounds: int = field(default=0, init=False)
    training_windows: List[Tuple[float, float]] = field(
        default_factory=list, init=False
    )

    def establish(self, channel: GeometricChannel, time_s: float = 0.0) -> None:
        self._weights = optimal_mrt_weights(channel)

    def current_weights(self) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("call establish() first")
        return self._weights

    def step(self, channel: GeometricChannel, time_s: float) -> str:
        """Refresh the genie weights against the instantaneous channel."""
        self._weights = optimal_mrt_weights(channel)
        return "genie_refresh"
