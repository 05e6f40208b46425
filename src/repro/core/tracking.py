"""Proactive per-beam mobility tracking (paper Section 4.2, Eqs. 18-20).

User motion rotates every beam of a multi-beam off its path by some
``varphi_k(t)``.  The tracker recovers each ``varphi_k`` from per-beam
*power* alone: the received per-beam power follows the transmit beam
pattern, so the drop relative to the aligned state,

    P_k(t) - P_k(0) = G_T(phi_k + varphi_k) - G_T(phi_k)   [dB],

inverts through the known ULA pattern to ``|varphi_k|``.  The pattern is
symmetric, so the sign is ambiguous; one extra reference-signal probe
tests the ``+`` hypothesis and falls back to ``-`` if the SNR did not
improve.

Raw per-beam powers from the super-resolver are noisy; following the paper
the tracker smooths them with an exponential forgetting factor plus a
quadratic polynomial fit before inversion (Section 6.1, "Accurate per-beam
power estimation").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.patterns import invert_pattern_offset
from repro.core.multibeam import MultiBeam
from repro.telemetry import EventKind, get_recorder


@dataclass
class PowerSmoother:
    """Forgetting-factor average + quadratic fit over a sliding window."""

    forgetting_factor: float = 0.7
    window: int = 8
    _ewma: Optional[float] = field(default=None, init=False, repr=False)
    _times: Deque[float] = field(default_factory=deque, init=False, repr=False)
    _values: Deque[float] = field(default_factory=deque, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise ValueError(
                f"forgetting_factor must be in (0, 1], got {self.forgetting_factor!r}"
            )
        if self.window < 3:
            raise ValueError(f"window must be >= 3, got {self.window!r}")

    def update(self, time_s: float, power_db: float) -> float:
        """Fold in one measurement and return the smoothed power [dB]."""
        if self._ewma is None:
            self._ewma = float(power_db)
        else:
            f = self.forgetting_factor
            self._ewma = f * self._ewma + (1.0 - f) * float(power_db)
        self._times.append(float(time_s))
        self._values.append(self._ewma)
        while len(self._times) > self.window:
            self._times.popleft()
            self._values.popleft()
        if len(self._times) < 3:
            return self._ewma
        times = np.asarray(self._times)
        values = np.asarray(self._values)
        # Quadratic fit needs a conditioned abscissa; center and scale.
        t0 = times[-1]
        span = max(times[-1] - times[0], 1e-9)
        coeffs = np.polyfit((times - t0) / span, values, deg=2)
        return float(np.polyval(coeffs, 0.0))

    def reset(self) -> None:
        """Forget all history (after a re-anchor or beam training)."""
        self._ewma = None
        self._times.clear()
        self._values.clear()


@dataclass
class BeamTracker:
    """Tracks one beam's angular deviation from its per-beam power.

    ``max_drop_db`` bounds what the tracker will attribute to mobility: a
    drop deeper than the invertible main-lobe range cannot be explained by
    within-lobe motion (it is blockage, or the beam fell off the lobe
    entirely) and maps to "no tracking action" — the blockage detector and
    the retrain fallback own those regimes.
    """

    num_elements: int
    steer_angle_rad: float
    spacing_wavelengths: float = 0.5
    reference_power_db: Optional[float] = None
    max_drop_db: float = 12.0
    smoother: PowerSmoother = field(default_factory=PowerSmoother)

    def anchor(self, power_db: float) -> None:
        """Record the aligned-state power ``P_k(0)`` and clear history."""
        self.reference_power_db = float(power_db)
        self.smoother.reset()

    def update(self, time_s: float, power_db: float) -> float:
        """Fold in one per-beam power sample; returns ``|varphi|`` [rad].

        Requires :meth:`anchor` to have been called.  A measurement above
        the anchor (alignment improved or noise) maps to zero offset.
        """
        if self.reference_power_db is None:
            raise RuntimeError("call anchor() before update()")
        smoothed = self.smoother.update(time_s, power_db)
        drop_db = self.reference_power_db - smoothed
        if drop_db <= 0 or drop_db > self.max_drop_db:
            return 0.0
        return invert_pattern_offset(
            self.num_elements,
            drop_db,
            steer_angle_rad=self.steer_angle_rad,
            spacing_wavelengths=self.spacing_wavelengths,
        )


@dataclass
class MultiBeamTracker:
    """Joint tracker for every beam of a multi-beam.

    Produces the two candidate refined multi-beams (``+`` and ``-`` offset
    hypotheses) and resolves the ambiguity with a single SNR probe, as in
    the paper: "mmReliable tries one of the two possibilities ... in the
    hope that it improves the SNR".
    """

    trackers: List[BeamTracker]

    @classmethod
    def for_multibeam(
        cls,
        multibeam: MultiBeam,
        forgetting_factor: float = 0.7,
        window: int = 8,
    ) -> "MultiBeamTracker":
        return cls(
            trackers=[
                BeamTracker(
                    num_elements=multibeam.array.num_elements,
                    steer_angle_rad=angle,
                    spacing_wavelengths=multibeam.array.spacing_wavelengths,
                    smoother=PowerSmoother(
                        forgetting_factor=forgetting_factor, window=window
                    ),
                )
                for angle in multibeam.angles_rad
            ]
        )

    @property
    def num_beams(self) -> int:
        return len(self.trackers)

    def anchor(self, per_beam_power_db: Sequence[float]) -> None:
        """Anchor every beam at its aligned-state power."""
        if len(per_beam_power_db) != self.num_beams:
            raise ValueError(
                f"expected {self.num_beams} powers, got {len(per_beam_power_db)}"
            )
        for tracker, power in zip(self.trackers, per_beam_power_db):
            tracker.anchor(float(power))

    def update(
        self, time_s: float, per_beam_power_db: Sequence[float]
    ) -> np.ndarray:
        """Per-beam ``|varphi_k|`` estimates from one power snapshot."""
        if len(per_beam_power_db) != self.num_beams:
            raise ValueError(
                f"expected {self.num_beams} powers, got {len(per_beam_power_db)}"
            )
        return np.asarray(
            [
                tracker.update(time_s, float(power))
                for tracker, power in zip(self.trackers, per_beam_power_db)
            ]
        )

    def candidate_multibeams(
        self, multibeam: MultiBeam, offsets_rad: np.ndarray
    ) -> Tuple[MultiBeam, MultiBeam]:
        """The ``+`` and ``-`` offset hypotheses as refined multi-beams."""
        offsets = np.asarray(offsets_rad, dtype=float)
        if offsets.shape != (self.num_beams,):
            raise ValueError(
                f"expected {self.num_beams} offsets, got shape {offsets.shape}"
            )
        angles = np.asarray(multibeam.angles_rad)
        plus = multibeam.with_angles(angles + offsets)
        minus = multibeam.with_angles(angles - offsets)
        return plus, minus

    def refine(
        self,
        multibeam: MultiBeam,
        time_s: float,
        per_beam_power_db: Sequence[float],
        snr_probe: Callable[[MultiBeam], float],
        current_snr_db: float,
        min_offset_rad: float = np.deg2rad(0.2),
    ) -> Tuple[MultiBeam, int]:
        """One tracking round: estimate offsets, resolve sign, realign.

        ``snr_probe`` evaluates a candidate multi-beam's SNR with one
        reference signal.  Returns the refined multi-beam and the number
        of probes spent (0 when the estimated motion is negligible).

        After a realignment the trackers re-anchor on the next snapshot
        (the caller should feed the post-realignment per-beam powers to
        :meth:`anchor`).
        """
        offsets = self.update(time_s, per_beam_power_db)
        if np.all(offsets < min_offset_rad):
            return multibeam, 0
        plus, minus = self.candidate_multibeams(multibeam, offsets)
        plus_snr = snr_probe(plus)
        if plus_snr >= current_snr_db:
            self._emit_update(time_s, offsets, "+", plus_snr, current_snr_db)
            return plus, 1
        minus_snr = snr_probe(minus)
        if minus_snr >= current_snr_db:
            self._emit_update(time_s, offsets, "-", minus_snr, current_snr_db)
            return minus, 2
        # Neither hypothesis helps: the drop was not mobility (e.g. a deep
        # fade or the smoothing lagging a blockage edge) — hold position.
        return multibeam, 2

    @staticmethod
    def _emit_update(
        time_s: float,
        offsets_rad: np.ndarray,
        sign: str,
        refined_snr_db: float,
        previous_snr_db: float,
    ) -> None:
        recorder = get_recorder()
        if not recorder.enabled:
            return
        recorder.emit(
            EventKind.TRACKING_UPDATE,
            time_s,
            offsets_deg=[float(np.rad2deg(o)) for o in offsets_rad],
            sign=sign,
            snr_db=float(refined_snr_db),
            previous_snr_db=float(previous_snr_db),
        )
