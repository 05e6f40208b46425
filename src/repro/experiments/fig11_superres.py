"""Fig. 11 — efficiency of the super-resolution algorithm.

(a) MSE of the per-beam power estimate vs the relative ToF between the
    two beams, including values well below the 2.5 ns resolution of a
    400 MHz system.  The paper shows low MSE even at sub-resolution
    spacings, degrading gracefully as the spacing shrinks.
(b) Recovery of two overlapping pulses from one combined CIR (the 6 m
    link with a 30-degree reflector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.channel.wideband import cir_from_frequency_response, ofdm_frequency_grid
from repro.core.superres import SuperResolver
from repro.experiments.registry import ExperimentConfig
from repro.utils import db_to_linear, ensure_rng, power_linear_to_db


@dataclass(frozen=True)
class SuperResSweep:
    relative_tofs_s: np.ndarray
    mse_db: np.ndarray
    resolution_s: float


def _noisy_cir(
    alphas, delays_s, bandwidth_hz, num_taps, noise_std, rng
) -> np.ndarray:
    """CIR via the OFDM pipeline: frequency response + noise, then IFFT."""
    freqs = ofdm_frequency_grid(bandwidth_hz, num_taps)
    response = np.zeros(num_taps, dtype=complex)
    for alpha, delay in zip(alphas, delays_s):
        response += alpha * np.exp(-2j * np.pi * freqs * delay)
    noise = noise_std * (
        rng.normal(size=num_taps) + 1j * rng.normal(size=num_taps)
    ) / np.sqrt(2)
    return cir_from_frequency_response(response + noise)


def run_mse_sweep(
    relative_tofs_s=None,
    bandwidth_hz: float = 400e6,
    num_taps: int = 64,
    num_trials: int = 40,
    snr_db: float = 25.0,
    seed: int = 0,
) -> SuperResSweep:
    """Fig. 11(a): per-beam power MSE vs relative ToF."""
    if relative_tofs_s is None:
        relative_tofs_s = np.array(
            [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 5.0]
        ) * 1e-9
    rng = ensure_rng(seed)
    base_delay = 20e-9
    alphas_true = np.array([1.0, 0.5 * np.exp(0.9j)])
    powers_true = np.abs(alphas_true) ** 2
    noise_std = float(db_to_linear(-snr_db))
    mse = np.empty(len(relative_tofs_s))
    for i, tof in enumerate(relative_tofs_s):
        resolver = SuperResolver(
            bandwidth_hz=bandwidth_hz,
            relative_delays_s=np.array([0.0, tof]),
        )
        errors = []
        for _ in range(num_trials):
            cir = _noisy_cir(
                alphas_true,
                [base_delay, base_delay + tof],
                bandwidth_hz,
                num_taps,
                noise_std,
                rng,
            )
            estimate = resolver.estimate(cir).per_beam_power()
            errors.append(np.mean((estimate - powers_true) ** 2))
        mse[i] = float(np.mean(errors))
    return SuperResSweep(
        relative_tofs_s=np.asarray(relative_tofs_s),
        mse_db=power_linear_to_db(mse),
        resolution_s=1.0 / bandwidth_hz,
    )


@dataclass(frozen=True)
class TwoSincDecomposition:
    cir: np.ndarray
    recovered_alphas: np.ndarray
    true_alphas: np.ndarray
    recovered_delays_s: np.ndarray


def run_two_sinc_recovery(
    bandwidth_hz: float = 400e6, seed: int = 1
) -> TwoSincDecomposition:
    """Fig. 11(b): split the measured combined CIR into its two pulses.

    Mirrors the testbed geometry: 6 m link (20 ns ToF) with a reflector at
    30 degrees adding ~1.8 ns of excess delay.
    """
    rng = ensure_rng(seed)
    alphas_true = np.array([1.0, 0.45 * np.exp(-0.6j)])
    delays = [20e-9, 21.8e-9]
    cir = _noisy_cir(
        alphas_true, delays, bandwidth_hz, 64, float(db_to_linear(-30.0)), rng
    )
    resolver = SuperResolver(
        bandwidth_hz=bandwidth_hz, relative_delays_s=np.array([0.0, 1.8e-9])
    )
    result = resolver.estimate(cir)
    return TwoSincDecomposition(
        cir=cir,
        recovered_alphas=result.alphas,
        true_alphas=alphas_true,
        recovered_delays_s=result.delays_s,
    )


def run(config: ExperimentConfig) -> Dict[str, Any]:
    return {
        "mse_sweep": run_mse_sweep(),
        "two_sinc": run_two_sinc_recovery(),
    }


def render(data: Dict[str, Any]) -> str:
    sweep, recovery = data["mse_sweep"], data["two_sinc"]
    lines = [
        "Fig. 11(a) — per-beam power MSE vs relative ToF "
        f"(resolution {sweep.resolution_s * 1e9:.1f} ns)",
        "   rel ToF (ns)   MSE (dB)",
    ]
    for tof, mse in zip(sweep.relative_tofs_s, sweep.mse_db):
        marker = "  <- below resolution" if tof < sweep.resolution_s else ""
        lines.append(f"   {tof * 1e9:10.2f}   {mse:8.2f}{marker}")
    lines.append("")
    lines.append("Fig. 11(b) — two-pulse recovery from a combined CIR")
    for k in range(2):
        lines.append(
            f"   pulse {k}: |alpha| true {abs(recovery.true_alphas[k]):.3f} "
            f"recovered {abs(recovery.recovered_alphas[k]):.3f}"
        )
    return "\n".join(lines)
