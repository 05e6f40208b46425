"""Per-beam blockage detection and power reallocation (paper Section 4.1).

Blockage and mobility both reduce per-beam power but at very different
rates: a human blocker costs ~10 dB within 10 OFDM symbols, while mobility
drains power over tens of milliseconds.  The detector therefore classifies
on the *rate of change* of per-beam amplitude.  On detection, the blocked
beam's power is re-purposed to the surviving beams by dropping it from the
multi-beam (the constructive renormalization does the reallocation); when
the path returns, the beam is restored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.multibeam import MultiBeam
from repro.telemetry import EventKind, get_recorder


@dataclass
class BlockageDetector:
    """Classifies per-beam power drops as blockage by their slope.

    Parameters
    ----------
    drop_threshold_db:
        Power loss that must accumulate within the detection window to
        declare blockage (paper empirics: ~10 dB).
    window_s:
        Detection window.  10 OFDM symbols is ~90 us in the waveform; the
        window must span at least two maintenance observations, so its
        default assumes the 5 ms CSI-RS cadence.
    recovery_margin_db:
        A blocked beam is declared recovered once its power climbs back to
        within this margin of its pre-blockage level.
    """

    num_beams: int
    drop_threshold_db: float = 10.0
    window_s: float = 15e-3
    recovery_margin_db: float = 3.0
    #: Consecutive breaching observations required to declare blockage —
    #: a single noisy super-resolution snapshot must not drop a beam.
    confirmations: int = 2
    _history: List[List[Tuple[float, float]]] = field(init=False, repr=False)
    _pre_blockage_db: Dict[int, float] = field(init=False, repr=False)
    _blocked: np.ndarray = field(init=False, repr=False)
    _breach_streak: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_beams < 1:
            raise ValueError(f"num_beams must be >= 1, got {self.num_beams!r}")
        if self.drop_threshold_db <= 0:
            raise ValueError("drop_threshold_db must be positive")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.confirmations < 1:
            raise ValueError("confirmations must be >= 1")
        self._history = [[] for _ in range(self.num_beams)]
        self._pre_blockage_db = {}
        self._blocked = np.zeros(self.num_beams, dtype=bool)
        self._breach_streak = np.zeros(self.num_beams, dtype=int)

    @property
    def blocked_mask(self) -> np.ndarray:
        """Boolean per-beam blockage state (copy)."""
        return self._blocked.copy()

    @property
    def breach_pending(self) -> bool:
        """True while a drop awaits confirmation on any beam.

        Callers that act on per-beam power (the mobility tracker) should
        hold off during this window: the drop may be a blockage about to
        be classified, and steering against it would chase a phantom
        rotation.
        """
        return bool(np.any(self._breach_streak > 0))

    def update(
        self,
        time_s: float,
        per_beam_power_db: Sequence[float],
        active_mask: Optional[Sequence[bool]] = None,
    ) -> np.ndarray:
        """Fold in one per-beam power snapshot; returns the blocked mask.

        ``active_mask`` marks beams that actually carried power this round;
        a dropped beam produces no observation, so its state is frozen
        until the manager probes it explicitly and calls
        :meth:`mark_recovered`.
        """
        if len(per_beam_power_db) != self.num_beams:
            raise ValueError(
                f"expected {self.num_beams} powers, got {len(per_beam_power_db)}"
            )
        if active_mask is not None and len(active_mask) != self.num_beams:
            raise ValueError(
                f"expected {self.num_beams} active flags, got {len(active_mask)}"
            )
        for k, power_db in enumerate(per_beam_power_db):
            if active_mask is not None and not active_mask[k]:
                continue
            history = self._history[k]
            history.append((float(time_s), float(power_db)))
            while history and history[0][0] < time_s - self.window_s:
                history.pop(0)
            window_max = max(p for _, p in history)
            if not self._blocked[k]:
                drop = window_max - float(power_db)
                if drop >= self.drop_threshold_db:
                    self._breach_streak[k] += 1
                else:
                    self._breach_streak[k] = 0
                if self._breach_streak[k] >= self.confirmations:
                    self._blocked[k] = True
                    self._breach_streak[k] = 0
                    # Remember the healthy level from the window start.
                    self._pre_blockage_db[k] = window_max
                    recorder = get_recorder()
                    if recorder.enabled:
                        recorder.emit(
                            EventKind.BLOCKAGE_ONSET,
                            time_s,
                            beam=k,
                            power_db=float(power_db),
                            healthy_db=float(window_max),
                        )
            else:
                reference = self._pre_blockage_db.get(k, window_max)
                if float(power_db) >= reference - self.recovery_margin_db:
                    self._blocked[k] = False
                    self._pre_blockage_db.pop(k, None)
                    recorder = get_recorder()
                    if recorder.enabled:
                        recorder.emit(
                            EventKind.BLOCKAGE_CLEARED,
                            time_s,
                            beam=k,
                            power_db=float(power_db),
                            via="power_recovery",
                        )
        return self.blocked_mask

    def mark_recovered(
        self, beam_index: int, time_s: Optional[float] = None
    ) -> None:
        """Externally clear a beam's blocked state (after a recovery probe).

        ``time_s`` stamps the ``blockage_cleared`` telemetry event; when
        omitted the recovery is applied silently (no event).
        """
        if not 0 <= beam_index < self.num_beams:
            raise IndexError(f"beam index {beam_index} out of range")
        was_blocked = bool(self._blocked[beam_index])
        self._blocked[beam_index] = False
        self._pre_blockage_db.pop(beam_index, None)
        self._history[beam_index].clear()
        self._breach_streak[beam_index] = 0
        if was_blocked and time_s is not None:
            recorder = get_recorder()
            if recorder.enabled:
                recorder.emit(
                    EventKind.BLOCKAGE_CLEARED,
                    time_s,
                    beam=beam_index,
                    via="recovery_probe",
                )

    def healthy_level_db(self, beam_index: int) -> Optional[float]:
        """The pre-blockage power of a blocked beam, if known."""
        return self._pre_blockage_db.get(beam_index)

    def reset(self) -> None:
        """Clear all state (after beam training)."""
        self._history = [[] for _ in range(self.num_beams)]
        self._pre_blockage_db.clear()
        self._blocked[:] = False
        self._breach_streak[:] = 0


def reallocate_gains(
    multibeam: MultiBeam, blocked_mask: Sequence[bool]
) -> MultiBeam:
    """Re-purpose power from blocked beams onto the survivors.

    Zeroing a blocked beam's relative gain and renormalizing (which the
    weight synthesis does automatically) shifts its share of the total
    radiated power to the surviving lobes.  Raises if every beam is
    blocked, or if no unblocked beam carries gain (e.g. its probe stayed
    degenerate) — either way no live beam is left to re-reference on,
    and the caller must fall back or escalate to beam training.
    """
    mask = np.asarray(blocked_mask, dtype=bool)
    if mask.shape != (multibeam.num_beams,):
        raise ValueError(
            f"expected mask of shape ({multibeam.num_beams},), got {mask.shape}"
        )
    if not mask.any():
        return multibeam
    if mask.all():
        raise RuntimeError(
            "all beams blocked: full outage, escalate to beam training"
        )
    gains = np.asarray(multibeam.relative_gains, dtype=complex)
    gains = np.where(mask, 0.0, gains)
    # Re-reference on the strongest survivor so downstream probing keeps a
    # live reference beam.
    strongest = int(np.argmax(np.abs(gains)))
    if gains[strongest] == 0.0:
        raise RuntimeError(
            "no unblocked beam carries gain: nothing to re-reference on"
        )
    gains = gains / gains[strongest]
    return multibeam.with_relative_gains(tuple(gains))
