"""Reliability and throughput metrics (paper Section 3.1, Eq. 1).

Reliability is the fraction of an observation interval during which the
link is available for communication.  Two things make it unavailable: SNR
below the outage threshold, and airtime consumed by procedures like beam
training.  Both are counted here, exactly as the paper defines them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.phy.mcs import NR_MCS_TABLE, OUTAGE_SNR_DB, select_mcs_indices

#: Spectral efficiency per ``NR_MCS_TABLE`` entry, then 0.0 for outage
#: (index ``-1`` from :func:`select_mcs_indices`).
_EFFICIENCIES = np.array(
    [entry.spectral_efficiency for entry in NR_MCS_TABLE] + [0.0]
)


def _unavailable_mask(
    times_s: np.ndarray, windows: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Samples falling inside any (start, duration) unavailability window."""
    mask = np.zeros(times_s.shape, dtype=bool)
    for start, duration in windows:
        mask |= (times_s >= start) & (times_s < start + duration)
    return mask


def reliability(
    times_s: np.ndarray,
    snr_db: np.ndarray,
    outage_threshold_db: float = OUTAGE_SNR_DB,
    unavailable_windows: Sequence[Tuple[float, float]] = (),
) -> float:
    """Fraction of samples where the link carries data (Eq. 1)."""
    times = np.asarray(times_s, dtype=float)
    snr = np.asarray(snr_db, dtype=float)
    if times.shape != snr.shape or times.ndim != 1:
        raise ValueError("times_s and snr_db must be matching 1-D arrays")
    if times.size == 0:
        raise ValueError("empty series")
    down = (snr < outage_threshold_db) | _unavailable_mask(
        times, unavailable_windows
    )
    return float(1.0 - down.mean())


def throughput_series_bps(
    times_s: np.ndarray,
    snr_db: np.ndarray,
    bandwidth_hz: float,
    unavailable_windows: Sequence[Tuple[float, float]] = (),
) -> np.ndarray:
    """Instantaneous throughput [bit/s] at each sample (0 when unavailable)."""
    times = np.asarray(times_s, dtype=float)
    snr = np.asarray(snr_db, dtype=float)
    efficiency = _EFFICIENCIES[select_mcs_indices(snr)]
    efficiency[_unavailable_mask(times, unavailable_windows)] = 0.0
    return efficiency * bandwidth_hz


def mean_throughput_bps(
    times_s: np.ndarray,
    snr_db: np.ndarray,
    bandwidth_hz: float,
    unavailable_windows: Sequence[Tuple[float, float]] = (),
) -> float:
    """Time-average throughput [bit/s]."""
    return float(
        np.mean(
            throughput_series_bps(
                times_s, snr_db, bandwidth_hz, unavailable_windows
            )
        )
    )


def throughput_reliability_product(
    mean_throughput: float, reliability_value: float
) -> float:
    """The paper's combined figure of merit (Fig. 18c)."""
    if not 0.0 <= reliability_value <= 1.0:
        raise ValueError(
            f"reliability must be in [0, 1], got {reliability_value!r}"
        )
    return mean_throughput * reliability_value


def analytic_single_beam_reliability(beta: float) -> float:
    """``1 - beta`` for blockage probability ``beta`` (Section 3.1)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta!r}")
    return 1.0 - beta


def analytic_multibeam_reliability(beta: float, num_beams: int) -> float:
    """``1 - beta^k`` under independent per-beam blockage (Section 3.1)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta!r}")
    if num_beams < 1:
        raise ValueError(f"num_beams must be >= 1, got {num_beams!r}")
    return 1.0 - beta ** num_beams


@dataclass(frozen=True)
class LinkMetrics:
    """Summary of one simulated link run."""

    reliability: float
    mean_throughput_bps: float
    mean_spectral_efficiency: float
    mean_snr_db: float
    product: float
    training_rounds: int
    probe_airtime_s: float

    @classmethod
    def from_trace(
        cls,
        times_s: np.ndarray,
        snr_db: np.ndarray,
        bandwidth_hz: float,
        unavailable_windows: Sequence[Tuple[float, float]] = (),
        training_rounds: int = 0,
        probe_airtime_s: float = 0.0,
        outage_threshold_db: float = OUTAGE_SNR_DB,
    ) -> "LinkMetrics":
        rel = reliability(
            times_s, snr_db, outage_threshold_db, unavailable_windows
        )
        throughput = mean_throughput_bps(
            times_s, snr_db, bandwidth_hz, unavailable_windows
        )
        finite = np.asarray(snr_db, dtype=float)
        finite = finite[np.isfinite(finite)]
        return cls(
            reliability=rel,
            mean_throughput_bps=throughput,
            mean_spectral_efficiency=throughput / bandwidth_hz,
            mean_snr_db=float(finite.mean()) if finite.size else -np.inf,
            product=throughput_reliability_product(throughput, rel),
            training_rounds=training_rounds,
            probe_airtime_s=probe_airtime_s,
        )
