"""Multi-gNB handover (paper Fig. 9: "...or perform a handover").

When every path to the serving gNB is blocked, no beamforming trick can
save the link; the Fig. 9 flow chart's last resort is a handover to
another base station (the related work reaches for UBig-style handovers
and mmChoir joint transmission).  :class:`MultiGnbManager` wraps one
:class:`~repro.core.maintenance.MultiBeamManager` per candidate gNB,
serves on one of them, and switches when the serving link dies while a
candidate is healthy.  The handover itself costs real airtime
(RACH + context transfer), charged as an unavailability window, and a
hysteresis margin prevents ping-pong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.channel.geometric import GeometricChannel
from repro.core.maintenance import MultiBeamManager
from repro.phy.mcs import OUTAGE_SNR_DB
from repro.phy.reference_signals import ProbeKind

#: Typical NR inter-gNB handover interruption (RACH + path switch).
DEFAULT_HANDOVER_LATENCY_S = 30e-3


@dataclass
class MultiGnbManager:
    """Serve on one gNB; hand over when its every path is gone.

    Parameters
    ----------
    managers:
        One beam manager per candidate gNB (each owns its own array and
        sounder).
    handover_latency_s:
        Link interruption charged per handover.
    hysteresis_db:
        A candidate must beat the serving link by this margin (or the
        serving link must be in outage) before a handover fires.
    candidate_check_interval_s:
        How often the idle candidates are measured (each check costs one
        CSI-RS on that gNB).
    """

    managers: Sequence[MultiBeamManager]
    handover_latency_s: float = DEFAULT_HANDOVER_LATENCY_S
    hysteresis_db: float = 6.0
    candidate_check_interval_s: float = 50e-3

    serving_index: int = field(default=0, init=False)
    handover_count: int = field(default=0, init=False)
    #: (start_s, duration_s) windows during which the link carried no
    #: data because of a handover; merged with training windows for
    #: reliability accounting.
    handover_windows: List[Tuple[float, float]] = field(
        default_factory=list, init=False
    )
    _last_candidate_check_s: float = field(default=-np.inf, init=False)

    def __post_init__(self) -> None:
        self.managers = list(self.managers)
        if len(self.managers) < 2:
            raise ValueError("need at least two gNBs for handover")
        if self.handover_latency_s < 0:
            raise ValueError("handover_latency_s must be >= 0")
        if self.hysteresis_db < 0:
            raise ValueError("hysteresis_db must be >= 0")

    @property
    def serving(self) -> MultiBeamManager:
        return self.managers[self.serving_index]

    @property
    def training_windows(self) -> List[Tuple[float, float]]:
        """Serving-side training plus handover interruptions."""
        windows = list(self.handover_windows)
        for manager in self.managers:
            windows.extend(manager.training_windows)
        return windows

    @property
    def training_rounds(self) -> int:
        return sum(m.training_rounds for m in self.managers)

    @property
    def sounder(self):
        return self.serving.sounder

    @property
    def budget(self):
        return self.serving.budget

    # ------------------------------------------------------------------
    def establish(
        self, channels: Sequence[GeometricChannel], time_s: float = 0.0
    ) -> None:
        """Establish on every gNB; serve on the strongest."""
        if len(channels) != len(self.managers):
            raise ValueError(
                f"{len(channels)} channels for {len(self.managers)} gNBs"
            )
        snrs = []
        for manager, channel in zip(self.managers, channels):
            manager.establish(channel, time_s=time_s)
            weights = manager.current_weights()
            snrs.append(manager.sounder.link_snr_db(channel, weights))
        self.serving_index = int(np.argmax(snrs))

    def current_weights(self) -> np.ndarray:
        return self.serving.current_weights()

    def link_snr_db(self, channels: Sequence[GeometricChannel]) -> float:
        """SNR of the serving link against its own channel."""
        return self.sounder.link_snr_db(
            channels[self.serving_index], self.current_weights()
        )

    def step(self, channels: Sequence[GeometricChannel], time_s: float) -> str:
        """Maintain the serving link; hand over if it cannot be saved."""
        if len(channels) != len(self.managers):
            raise ValueError(
                f"{len(channels)} channels for {len(self.managers)} gNBs"
            )
        action = self.serving.step(channels[self.serving_index], time_s)
        snr_db = self.link_snr_db(channels)

        check_due = (
            time_s - self._last_candidate_check_s
            >= self.candidate_check_interval_s
        )
        in_outage = snr_db < OUTAGE_SNR_DB
        if not (in_outage or check_due):
            return action

        self._last_candidate_check_s = time_s
        best_index, best_snr = self.serving_index, snr_db
        for index, (manager, channel) in enumerate(
            zip(self.managers, channels)
        ):
            if index == self.serving_index:
                continue
            candidate_snr = manager.sounder.link_snr_db(
                channel, manager.current_weights()
            )
            manager.budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=1)
            if candidate_snr > best_snr:
                best_index, best_snr = index, candidate_snr
        should_switch = best_index != self.serving_index and (
            in_outage or best_snr >= snr_db + self.hysteresis_db
        )
        if not should_switch:
            return action
        self.serving_index = best_index
        self.handover_count += 1
        self.handover_windows.append((time_s, self.handover_latency_s))
        return "handover"
