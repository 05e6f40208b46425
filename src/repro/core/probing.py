"""Two-probe estimation of per-beam relative amplitude and phase.

CFO/SFO make the *phase* of successive channel estimates unreliable, so
mmReliable estimates the relative channel ``h_k / h_1`` of each beam from
received *power* alone (Section 3.3).  With ``p_1 = |h_1|^2`` and
``p_2 = |h_2|^2`` known from beam training, two extra probes through the
equal-split patterns ``w(phi_1, phi_2, 1, 0)`` and ``w(phi_1, phi_2, 1,
pi/2)`` measure

    p_3 = |h_1 + h_2|^2,       p_4 = |h_1 + j h_2|^2,

from which (taking ``h_1`` real-positive as the phase reference)

    h_2 / h_1 = [ (p_3 - p_1 - p_2)  +  j (p_1 + p_2 - p_4) ] / (2 p_1).

Each additional beam of a K-beam multi-beam costs two more probes, so the
total is ``2 (K - 1)`` CSI-RS probes — independent of array size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.arrays.steering import single_beam_weights
from repro.channel.geometric import GeometricChannel
from repro.core.multibeam import equal_split_probe_weights
from repro.phy.ofdm import ChannelSounder
from repro.phy.reference_signals import ProbeBudget, ProbeKind, csi_rs_duration_s
from repro.telemetry import EventKind, get_recorder

#: Retry backoff never grows past this many CSI-RS durations.
_MAX_BACKOFF_PROBES = 8


def _measurement_ok(power: np.ndarray) -> bool:
    """Whether one measured per-subcarrier power vector is usable.

    A probe that never arrived (zeroed CSI) or a numerically poisoned one
    (NaN/inf) is degenerate; genuine deep fades still carry receiver
    noise, so an exactly-zero measurement always means a lost probe.
    """
    power = np.asarray(power, dtype=float)
    return bool(np.all(np.isfinite(power)) and np.max(power) > 0.0)


def two_probe_ratio(p1, p2, p3, p4):
    """Relative channel ``h_2 / h_1`` from the four power measurements.

    All inputs may be scalars or per-subcarrier arrays; the result matches
    their shape.  Powers must be non-negative and ``p1`` strictly positive
    (the reference beam must be alive).
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    p3 = np.asarray(p3, dtype=float)
    p4 = np.asarray(p4, dtype=float)
    if np.any(p1 <= 0):
        raise ValueError("reference beam power p1 must be strictly positive")
    if np.any(p2 < 0) or np.any(p3 < 0) or np.any(p4 < 0):
        raise ValueError("powers must be non-negative")
    real = (p3 - p1 - p2) / (2.0 * p1)
    imag = (p1 + p2 - p4) / (2.0 * p1)
    return real + 1j * imag


def wideband_relative_gain(
    ratio_per_subcarrier: np.ndarray, p1_per_subcarrier: np.ndarray
) -> complex:
    """Collapse per-subcarrier ratios into one ``delta e^{j sigma}`` (Eq. 14).

    With ``h_1(f) = sqrt(p_1(f))`` as the per-subcarrier reference, the
    SNR-optimal joint estimate ``<h_1, h_2> / ||h_1||^2`` reduces to the
    ``p_1``-weighted average of the per-subcarrier ratios.
    """
    ratio = np.asarray(ratio_per_subcarrier, dtype=complex)
    p1 = np.asarray(p1_per_subcarrier, dtype=float)
    if ratio.shape != p1.shape:
        raise ValueError(
            f"ratio {ratio.shape} and p1 {p1.shape} must have equal shape"
        )
    total = np.sum(p1)
    if total <= 0:
        raise ValueError("reference powers sum to zero")
    return complex(np.sum(p1 * ratio) / total)


@dataclass(frozen=True)
class RelativeGainEstimate:
    """Result of one probing round."""

    angles_rad: Tuple[float, ...]
    relative_gains: Tuple[complex, ...]
    num_probes: int

    @property
    def deltas(self) -> np.ndarray:
        """Per-beam relative amplitudes ``delta_k`` (reference first, = 1)."""
        return np.abs(np.asarray(self.relative_gains))

    @property
    def sigmas_rad(self) -> np.ndarray:
        """Per-beam relative phases ``sigma_k``."""
        return np.angle(np.asarray(self.relative_gains))


@dataclass(frozen=True)
class ProbeOutcome:
    """A probing round plus per-beam validity flags.

    ``estimate`` always has one gain per requested beam; beams whose
    measurements stayed degenerate through every retry carry gain 0
    (they contribute nothing to the multi-beam) and ``valid[k] = False``.
    ``valid[0]`` is the reference beam itself — when it is False the
    whole round is unusable and every gain but the nominal reference is
    zeroed.
    """

    estimate: RelativeGainEstimate
    valid: Tuple[bool, ...]
    retries: int = 0

    @property
    def degraded(self) -> bool:
        """True when any beam's estimate had to be flagged invalid."""
        return not all(self.valid)


@dataclass
class ProbeController:
    """Runs the two-probe estimation protocol over a sounder.

    The controller transmits physically realizable unit-norm probe
    patterns; because the transmitter knows the normalization it applied,
    measured powers are rescaled by ``norm**2`` before entering the
    estimator (the estimator's equations assume un-normalized beam sums).
    """

    array: UniformLinearArray
    sounder: ChannelSounder

    def measure_reference_powers(
        self,
        channel: GeometricChannel,
        angles_rad: Sequence[float],
        budget: Optional[ProbeBudget] = None,
        time_s: float = 0.0,
        rx_weights: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Per-subcarrier power of each single beam (``p_k(f)``).

        In deployment these come for free from the beam-training sweep;
        the method exists for experiments that start from known angles.
        """
        weights = [
            single_beam_weights(self.array, float(angle))
            for angle in angles_rad
        ]
        estimates = self.sounder.sound_many(
            channel, weights, rx_weights=rx_weights, time_s=time_s
        )
        powers = [np.abs(estimate.csi) ** 2 for estimate in estimates]
        if budget is not None:
            budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=len(powers))
        return powers

    def _measure_single_beam(
        self,
        channel: GeometricChannel,
        angle_rad: float,
        budget: Optional[ProbeBudget],
        time_s: float,
        rx_weights: Optional[np.ndarray],
    ) -> np.ndarray:
        """One single-beam power measurement, charged to the budget."""
        weights = single_beam_weights(self.array, float(angle_rad))
        estimate = self.sounder.sound(
            channel, weights, rx_weights=rx_weights, time_s=time_s
        )
        if budget is not None:
            budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=1)
        return np.abs(estimate.csi) ** 2

    def _measure_probe_pair(
        self,
        channel: GeometricChannel,
        pair: Tuple[float, float],
        budget: Optional[ProbeBudget],
        time_s: float,
        rx_weights: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The two equal-split probes ``p_3, p_4`` for one beam pair."""
        probes = [
            equal_split_probe_weights(self.array, pair, (0.0, phase))
            for phase in (0.0, np.pi / 2.0)
        ]
        estimates = self.sounder.sound_many(
            channel,
            [weights for weights, _ in probes],
            rx_weights=rx_weights,
            time_s=time_s,
        )
        measured = [
            np.abs(estimate.csi) ** 2 * norm ** 2
            for estimate, (_, norm) in zip(estimates, probes)
        ]
        if budget is not None:
            budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=2)
        return measured[0], measured[1]

    @staticmethod
    def _backoff_s(attempt: int) -> float:
        """Capped exponential backoff before the ``attempt``-th retry."""
        return csi_rs_duration_s() * min(2 ** attempt, _MAX_BACKOFF_PROBES)

    def probe_relative_gains(
        self,
        channel: GeometricChannel,
        angles_rad: Sequence[float],
        reference_powers: Optional[Sequence[np.ndarray]] = None,
        budget: Optional[ProbeBudget] = None,
        time_s: float = 0.0,
        rx_weights: Optional[np.ndarray] = None,
        max_retries: int = 2,
    ) -> ProbeOutcome:
        """Estimate ``h_k / h_1`` with validation, retries, and flags.

        Degenerate measurements (lost probes, zeroed or non-finite CSI)
        are retried up to ``max_retries`` times with capped exponential
        backoff, every retry charged to the budget.  Beams that stay
        degenerate are *flagged* (``valid[k] = False``, gain 0) instead
        of raising, so a fully blocked reference beam degrades the
        estimate rather than killing the run.  Structural misuse (no
        angles, mismatched reference powers) still raises ``ValueError``.
        """
        angles = [float(a) for a in angles_rad]
        if len(angles) < 1:
            raise ValueError("need at least one beam angle")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        recorder = get_recorder()
        probes_used = 0
        retries_used = 0
        if reference_powers is None:
            reference_powers = self.measure_reference_powers(
                channel, angles, budget=budget, time_s=time_s,
                rx_weights=rx_weights,
            )
            probes_used += len(angles)
        if len(reference_powers) != len(angles):
            raise ValueError(
                f"{len(reference_powers)} reference powers for "
                f"{len(angles)} angles"
            )
        # Validate the single-beam reference powers, retrying each
        # degenerate one individually within the budget.
        powers: List[np.ndarray] = [
            np.asarray(power, dtype=float) for power in reference_powers
        ]
        power_ok: List[bool] = []
        for k, power in enumerate(powers):
            ok = _measurement_ok(power)
            attempt = 0
            while not ok and attempt < max_retries:
                retry_time = time_s + self._backoff_s(attempt)
                if recorder.enabled:
                    recorder.emit(
                        EventKind.PROBE_RETRY, retry_time,
                        stage="reference", beam=k, attempt=attempt + 1,
                    )
                powers[k] = self._measure_single_beam(
                    channel, angles[k], budget, retry_time, rx_weights
                )
                probes_used += 1
                retries_used += 1
                attempt += 1
                ok = _measurement_ok(powers[k])
            power_ok.append(ok)

        p1 = powers[0]
        reference_ok = power_ok[0]
        gains: List[complex] = [1.0 + 0.0j]
        valid: List[bool] = [reference_ok]
        for k in range(1, len(angles)):
            pk = powers[k]
            pair = (angles[0], angles[k])
            p3, p4 = self._measure_probe_pair(
                channel, pair, budget, time_s, rx_weights
            )
            probes_used += 2
            attempt = 0
            while (
                reference_ok
                and not (_measurement_ok(p3) and _measurement_ok(p4))
                and attempt < max_retries
            ):
                retry_time = time_s + self._backoff_s(attempt)
                if recorder.enabled:
                    recorder.emit(
                        EventKind.PROBE_RETRY, retry_time,
                        stage="pair", beam=k, attempt=attempt + 1,
                    )
                p3, p4 = self._measure_probe_pair(
                    channel, pair, budget, retry_time, rx_weights
                )
                probes_used += 2
                retries_used += 1
                attempt += 1
            usable = (
                reference_ok
                and power_ok[k]
                and _measurement_ok(p3)
                and _measurement_ok(p4)
            )
            if not usable:
                gains.append(0.0 + 0.0j)
                valid.append(False)
                continue
            safe_p1 = np.maximum(p1, np.max(p1) * 1e-6)
            try:
                ratio = two_probe_ratio(safe_p1, pk, p3, p4)
                gain = wideband_relative_gain(ratio, safe_p1)
            except ValueError:
                gain = None
            if gain is None or not np.isfinite(gain):
                gains.append(0.0 + 0.0j)
                valid.append(False)
            else:
                gains.append(gain)
                valid.append(True)
        estimate = RelativeGainEstimate(
            angles_rad=tuple(angles),
            relative_gains=tuple(gains),
            num_probes=probes_used,
        )
        return ProbeOutcome(
            estimate=estimate, valid=tuple(valid), retries=retries_used
        )

    def estimate_relative_gains(
        self,
        channel: GeometricChannel,
        angles_rad: Sequence[float],
        reference_powers: Optional[Sequence[np.ndarray]] = None,
        budget: Optional[ProbeBudget] = None,
        time_s: float = 0.0,
        rx_weights: Optional[np.ndarray] = None,
    ) -> RelativeGainEstimate:
        """Estimate ``h_k / h_1`` for every non-reference beam.

        ``reference_powers`` are the per-subcarrier single-beam powers from
        training; if omitted they are measured first (charging extra
        probes).  Each non-reference beam costs exactly two more probes.

        This is the flag-dropping convenience wrapper around
        :meth:`probe_relative_gains`; degenerate measurements yield
        zeroed gains instead of raising.
        """
        return self.probe_relative_gains(
            channel,
            angles_rad,
            reference_powers=reference_powers,
            budget=budget,
            time_s=time_s,
            rx_weights=rx_weights,
            max_retries=0,
        ).estimate
