"""Wideband helpers: OFDM frequency grids, CIRs, and per-beam gains.

The receiver sees the band-limited channel impulse response of Eq. (22):
each path contributes a sinc pulse centered at its time of flight,

    h_eff[n] = sum_k alpha_k sinc(B (n Ts - tau_k)),

which is what the super-resolution estimator of Section 4.3 decomposes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.geometric import GeometricChannel
from repro.utils import normalized_sinc

__all__ = [
    "ofdm_frequency_grid",
    "sampled_cir",
    "sinc_dictionary",
    "stacked_sinc_dictionaries",
    "dirichlet_dictionary",
    "stacked_dirichlet_dictionaries",
    "cir_from_frequency_response",
    "per_beam_gains",
]


def ofdm_frequency_grid(
    bandwidth_hz: float, num_subcarriers: int
) -> np.ndarray:
    """Baseband subcarrier center frequencies, centered on 0 Hz.

    Matches an OFDM system whose occupied band spans
    ``[-bandwidth/2, +bandwidth/2)``.
    """
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz!r}")
    if num_subcarriers < 1:
        raise ValueError(
            f"num_subcarriers must be >= 1, got {num_subcarriers!r}"
        )
    spacing = bandwidth_hz / num_subcarriers
    index = np.arange(num_subcarriers) - num_subcarriers // 2
    return index * spacing


def sampled_cir(
    alphas: Sequence[complex],
    delays_s: Sequence[float],
    bandwidth_hz: float,
    num_taps: int,
    start_time_s: float = 0.0,
) -> np.ndarray:
    """Band-limited sampled CIR (Eq. 22).

    Samples the sum of sinc pulses at rate ``bandwidth_hz`` starting from
    ``start_time_s``.  Tap ``n`` sits at time ``start_time_s + n / B``.
    """
    alphas = np.asarray(alphas, dtype=complex)
    delays = np.asarray(delays_s, dtype=float)
    if alphas.shape != delays.shape:
        raise ValueError(
            f"alphas {alphas.shape} and delays {delays.shape} must match"
        )
    sample_times = start_time_s + np.arange(num_taps) / bandwidth_hz
    # (num_taps, num_paths) sinc matrix, then weight by alphas.
    pulse = normalized_sinc(
        bandwidth_hz * (sample_times[:, None] - delays[None, :])
    )
    return pulse @ alphas


def sinc_dictionary(
    candidate_delays_s: Sequence[float],
    bandwidth_hz: float,
    num_taps: int,
    start_time_s: float = 0.0,
) -> np.ndarray:
    """The ``S`` matrix of Eq. (23): one sinc column per candidate ToF."""
    delays = np.asarray(candidate_delays_s, dtype=float)
    sample_times = start_time_s + np.arange(num_taps) / bandwidth_hz
    return normalized_sinc(
        bandwidth_hz * (sample_times[:, None] - delays[None, :])
    )


def stacked_sinc_dictionaries(
    candidate_delays_s: np.ndarray,
    bandwidth_hz: float,
    num_taps: int,
    start_time_s: float = 0.0,
) -> np.ndarray:
    """Sinc dictionaries for ``(C, K)`` candidate delay sets, shape ``(C, F, K)``.

    Column ``(c, :, k)`` samples ``sinc(B (t_n - tau_{c,k}))`` on the tap
    grid ``t_n = start_time_s + n / B`` (paper Eq. 22/23).
    Tolerance-identical to stacking ``C`` :func:`sinc_dictionary` calls
    (the arithmetic is elementwise, so in practice bitwise-identical).
    """
    delays = np.asarray(candidate_delays_s, dtype=float)
    if delays.ndim != 2:
        raise ValueError(f"delays must be 2-D (C, K), got {delays.shape}")
    bandwidth_hz = float(bandwidth_hz)
    start_time_s = float(start_time_s)
    sample_times = start_time_s + np.arange(int(num_taps)) / bandwidth_hz
    return np.sinc(
        bandwidth_hz * (sample_times[None, :, None] - delays[:, None, :])
    )


def dirichlet_dictionary(
    candidate_delays_s: Sequence[float],
    bandwidth_hz: float,
    num_taps: int,
) -> np.ndarray:
    """Exact DFT-kernel dictionary for CIRs obtained by IFFT.

    :func:`cir_from_frequency_response` interpolates with the *periodic*
    Dirichlet kernel of the finite centered subcarrier grid, which differs
    from the ideal sinc in its tails for off-grid delays.  Fitting an
    IFFT-derived CIR against this dictionary is therefore exact; use
    :func:`sinc_dictionary` when modelling an ideal band-limited receiver
    (Eq. 22) instead.

    Every column comes from one batched IFFT.
    """
    delays = np.asarray(candidate_delays_s, dtype=float)
    return stacked_dirichlet_dictionaries(
        delays.ravel()[None, :], bandwidth_hz, num_taps
    )[0]


def stacked_dirichlet_dictionaries(
    candidate_delays_s: np.ndarray,
    bandwidth_hz: float,
    num_taps: int,
) -> np.ndarray:
    """Dirichlet dictionaries for ``(C, K)`` delay sets, shape ``(C, F, K)``.

    Each column is the IFFT of the delay's phase ramp over the centered
    subcarrier grid — the periodic interpolation kernel of a finite-band
    OFDM receiver.  One batched IFFT over the tap axis replaces ``C * K``
    single-column builds and is tolerance-identical to them (same
    per-column FFT).
    """
    delays = np.asarray(candidate_delays_s, dtype=float)
    if delays.ndim != 2:
        raise ValueError(f"delays must be 2-D (C, K), got {delays.shape}")
    if num_taps < 1:
        raise ValueError(f"num_taps must be >= 1, got {num_taps!r}")
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz!r}")
    num_taps = int(num_taps)
    spacing = float(bandwidth_hz) / num_taps
    freqs = (np.arange(num_taps) - num_taps // 2) * spacing
    responses = np.exp(
        -2j * np.pi * freqs[None, :, None] * delays[:, None, :]
    )
    spectra = np.fft.ifftshift(responses, axes=1)
    return np.fft.ifft(spectra, axis=1)


def cir_from_frequency_response(
    response: np.ndarray, oversample: int = 1
) -> np.ndarray:
    """Convert a per-subcarrier response ``y(f)`` to a sampled CIR.

    Inverse-DFTs the frequency response (centered grid -> ifftshift first).
    ``oversample > 1`` zero-pads in frequency for a finer time grid, which
    is how the testbed visualizes the two overlapping sincs in Fig. 11(b).
    """
    response = np.asarray(response, dtype=complex)
    if response.ndim != 1:
        raise ValueError(f"response must be 1-D, got shape {response.shape}")
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample!r}")
    n = response.shape[0]
    spectrum = np.fft.ifftshift(response)
    if oversample > 1:
        padded = np.zeros(n * oversample, dtype=complex)
        half = n // 2
        padded[:half] = spectrum[:half]
        padded[-(n - half):] = spectrum[half:]
        spectrum = padded
    return np.fft.ifft(spectrum) * oversample


def per_beam_gains(
    channel: GeometricChannel,
    tx_weights: np.ndarray,
    beam_angles_rad: Sequence[float],
    rx_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """End-to-end complex gain of each constituent beam of a multi-beam.

    For each beam angle, returns the ``alpha_k`` contributed by the channel
    path nearest that angle (the quantity the super-resolution estimator
    recovers from the CIR).  This is the *ground truth* used in tests and
    benchmarks.
    """
    alphas = channel.beamformed_path_gains(tx_weights, rx_weights)
    aods = channel.aods()
    angles = np.asarray(list(beam_angles_rad), dtype=float)
    # Nearest path per beam angle; argmin keeps the first of exact ties,
    # matching the former per-angle loop.
    nearest = np.argmin(np.abs(aods[None, :] - angles[:, None]), axis=1)
    return alphas[nearest].astype(complex)
