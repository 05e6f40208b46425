"""Outer-loop link adaptation (OLLA) over the NR MCS ladder.

The throughput mapping in :mod:`repro.phy.mcs` assumes the transmitter
knows the SNR exactly.  Real systems select the MCS from noisy CQI and
correct the residual bias with an outer loop: every ACK nudges the SNR
margin down a little, every NACK pushes it up a lot, with the step ratio
pinned to the target block error rate — the classic OLLA controller.
This module adds that loop plus a logistic block-error model so link
simulations can carry realistic HARQ feedback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.phy.mcs import McsEntry, select_mcs
from repro.utils import ensure_rng

#: Slope of the per-MCS BLER waterfall [1/dB]; mmWave OFDM link-level
#: curves fall roughly a decade per dB around the switching point.
DEFAULT_BLER_SLOPE = 2.0


def block_error_probability(
    snr_db: float, entry: McsEntry, slope: float = DEFAULT_BLER_SLOPE
) -> float:
    """Logistic BLER waterfall for one MCS.

    Calibrated so that at the table's switching SNR the BLER is ~10%
    (the standard CQI target), collapsing quickly above it.
    """
    if slope <= 0:
        raise ValueError(f"slope must be positive, got {slope!r}")
    # Place the 50% point just below the switching SNR so that
    # BLER(min_snr) ~= 0.1 for the default slope.
    midpoint = entry.min_snr_db - np.log(9.0) / slope
    return float(1.0 / (1.0 + np.exp(slope * (snr_db - midpoint))))


@dataclass
class OuterLoopLinkAdaptation:
    """ACK/NACK-driven SNR-margin controller.

    Parameters
    ----------
    target_bler:
        Long-run block error rate the loop converges to.
    step_up_db:
        Margin increase on NACK; the ACK step is scaled by
        ``target / (1 - target)`` so the equilibrium sits at the target.
    max_margin_db:
        Clamp on the margin magnitude (guards against feedback outages).
    """

    target_bler: float = 0.1
    step_up_db: float = 0.5
    max_margin_db: float = 10.0
    margin_db: float = field(default=0.0, init=False)
    acks: int = field(default=0, init=False)
    nacks: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.target_bler < 1.0:
            raise ValueError(
                f"target_bler must be in (0, 1), got {self.target_bler!r}"
            )
        if self.step_up_db <= 0:
            raise ValueError("step_up_db must be positive")

    @property
    def step_down_db(self) -> float:
        return self.step_up_db * self.target_bler / (1.0 - self.target_bler)

    def select(self, reported_snr_db: float) -> Optional[McsEntry]:
        """MCS for the margin-corrected SNR (None = stay silent)."""
        return select_mcs(reported_snr_db - self.margin_db)

    def feedback(self, ack: bool) -> None:
        """Fold in one HARQ outcome."""
        if ack:
            self.acks += 1
            self.margin_db -= self.step_down_db
        else:
            self.nacks += 1
            self.margin_db += self.step_up_db
        self.margin_db = float(
            np.clip(self.margin_db, -self.max_margin_db, self.max_margin_db)
        )

    @property
    def measured_bler(self) -> float:
        total = self.acks + self.nacks
        return self.nacks / total if total else 0.0


def simulate_olla(
    true_snr_db: float,
    cqi_bias_db: float = 0.0,
    cqi_noise_db: float = 1.0,
    num_blocks: int = 4000,
    target_bler: float = 0.1,
    rng=None,
) -> OuterLoopLinkAdaptation:
    """Run the OLLA loop against a link with biased, noisy CQI.

    ``cqi_bias_db`` models a systematically optimistic (positive) or
    pessimistic (negative) channel report — exactly what the outer loop
    exists to absorb.  Returns the converged controller (inspect
    ``measured_bler`` and ``margin_db``).
    """
    rng = ensure_rng(rng)
    loop = OuterLoopLinkAdaptation(target_bler=target_bler)
    for _ in range(num_blocks):
        reported = true_snr_db + cqi_bias_db + rng.normal(0.0, cqi_noise_db)
        entry = loop.select(reported)
        if entry is None:
            continue  # outage: no transmission, no feedback
        bler = block_error_probability(true_snr_db, entry)
        loop.feedback(ack=bool(rng.random() > bler))
    return loop
