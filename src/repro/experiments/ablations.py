"""Ablations of mmReliable's design choices (DESIGN.md index).

1. **Magnitude-only vs complex probing under CFO** — the paper's central
   estimation argument (Section 3.3): per-probe phase offsets destroy a
   complex-ratio estimator while the |h|^2-based two-probe method holds.
2. **Weight quantization** — 2-bit to 8-bit phase shifters vs multi-beam
   SNR fidelity (Section 5.1 claims 2-bit suffices for coherent
   multi-beams).
3. **Number of beams** — SNR gain and probing overhead vs K (why the
   paper stops at 3).
4. **Super-resolution regularization** — per-beam power MSE vs lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.arrays import WeightQuantizer
from repro.arrays.steering import single_beam_weights
from repro.channel.impairments import CfoSfoModel
from repro.channel.wideband import cir_from_frequency_response, ofdm_frequency_grid
from repro.core.multibeam import multibeam_from_channel
from repro.core.probing import ProbeController
from repro.core.superres import SuperResolver
from repro.experiments.common import (
    NARROW_BAND,
    TESTBED_ULA,
    make_sounder,
)
from repro.experiments.registry import ExperimentConfig
from repro.phy.reference_signals import multibeam_maintenance_time_s
from repro.sim.scenarios import three_path_channel, two_path_channel
from repro.utils import db_to_linear, ensure_rng, power_linear_to_db


# ----------------------------------------------------------------------
# 1. magnitude-only vs complex probing under CFO
# ----------------------------------------------------------------------

def _complex_ratio_estimate(sounder, channel, angles):
    """The naive estimator: complex ratio of two single-beam soundings.

    Exactly what CFO breaks — each probe carries an independent unknown
    phase rotation, so the ratio's phase is garbage.
    """
    array = TESTBED_ULA
    h = []
    for angle in angles:
        estimate = sounder.sound(
            channel, single_beam_weights(array, float(angle))
        )
        h.append(np.mean(estimate.csi))
    return h[1] / h[0]


def run_cfo_ablation(num_trials: int = 20, seed: int = 0) -> Dict[str, float]:
    """Mean |phase error| [deg] of each estimator, with and without CFO."""
    array = TESTBED_ULA
    channel = two_path_channel(array, delta_db=-4.0, sigma_rad=1.2)
    angles = [p.aod_rad for p in channel.paths]
    truth = channel.gains()[1] / channel.gains()[0]
    rng = ensure_rng(seed)
    errors: Dict[str, list] = {
        "complex-ratio/clean": [],
        "complex-ratio/cfo": [],
        "two-probe/cfo": [],
    }
    for trial in range(num_trials):
        base_seed = int(rng.integers(1 << 31))
        clean = make_sounder(base_seed, NARROW_BAND)
        dirty = make_sounder(
            base_seed, NARROW_BAND, cfo_model=CfoSfoModel(rng=base_seed + 1)
        )
        controller = ProbeController(array=array, sounder=dirty)
        estimate = controller.estimate_relative_gains(channel, angles)
        for label, value in (
            ("complex-ratio/clean", _complex_ratio_estimate(clean, channel, angles)),
            ("complex-ratio/cfo", _complex_ratio_estimate(dirty, channel, angles)),
            ("two-probe/cfo", estimate.relative_gains[1]),
        ):
            errors[label].append(
                abs(np.rad2deg(np.angle(value / truth)))
            )
    return {label: float(np.mean(v)) for label, v in errors.items()}


# ----------------------------------------------------------------------
# 2. quantization
# ----------------------------------------------------------------------

def run_quantization_ablation(
    phase_bits_values=(2, 3, 4, 6, 8), seed: int = 1
) -> Dict[int, float]:
    """Multi-beam SNR loss [dB] vs ideal weights, per phase resolution."""
    array = TESTBED_ULA
    channel = two_path_channel(array, delta_db=-3.0, sigma_rad=0.9)
    multibeam = multibeam_from_channel(channel, 2)

    def center_power(weights):
        return abs(np.sum(channel.beamformed_path_gains(weights))) ** 2

    ideal = center_power(multibeam.weights().vector)
    losses: Dict[int, float] = {}
    for bits in phase_bits_values:
        quantizer = WeightQuantizer(
            phase_bits=bits, amplitude_range_db=27.0
        )
        quantized = center_power(multibeam.weights(quantizer).vector)
        losses[bits] = float(power_linear_to_db(ideal / quantized))
    return losses


# ----------------------------------------------------------------------
# 3. number of beams
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BeamCountTradeoff:
    num_beams: np.ndarray
    snr_gain_db: np.ndarray
    overhead_ms: np.ndarray


def run_beam_count_ablation(max_beams: int = 4, seed: int = 2) -> BeamCountTradeoff:
    """SNR gain saturates with K while probing overhead keeps growing."""
    array = TESTBED_ULA
    channel = three_path_channel(
        array,
        angles_rad=(0.0, np.deg2rad(30.0), np.deg2rad(-25.0), np.deg2rad(48.0)),
        deltas_db=(0.0, -4.0, -7.0, -12.0),
        sigmas_rad=(0.0, 1.0, -2.0, 0.7),
        excess_delays_s=(0.0, 1.2e-9, 2.2e-9, 3.4e-9),
    )

    def center_power(weights):
        return abs(np.sum(channel.beamformed_path_gains(weights))) ** 2

    single = center_power(single_beam_weights(array, 0.0))
    ks = np.arange(1, max_beams + 1)
    gains = np.empty(len(ks))
    overheads = np.empty(len(ks))
    for i, k in enumerate(ks):
        multibeam = multibeam_from_channel(channel, int(k))
        gains[i] = power_linear_to_db(
            center_power(multibeam.weights().vector) / single
        )
        overheads[i] = multibeam_maintenance_time_s(int(k)) * 1e3
    return BeamCountTradeoff(
        num_beams=ks, snr_gain_db=gains, overhead_ms=overheads
    )


# ----------------------------------------------------------------------
# 4. super-resolution regularization
# ----------------------------------------------------------------------

def run_regularization_ablation(
    lambdas=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1),
    num_trials: int = 20,
    snr_db: float = 20.0,
    seed: int = 3,
) -> Dict[float, float]:
    """Per-beam power MSE (dB) vs ridge lambda at moderate noise."""
    bandwidth = 400e6
    num_taps = 64
    rng = ensure_rng(seed)
    alphas_true = np.array([1.0, 0.5 * np.exp(0.9j)])
    powers_true = np.abs(alphas_true) ** 2
    delays = [20e-9, 21.2e-9]
    noise_std = float(db_to_linear(-snr_db))
    freqs = ofdm_frequency_grid(bandwidth, num_taps)
    results: Dict[float, float] = {}
    for lam in lambdas:
        errors = []
        for _ in range(num_trials):
            response = sum(
                a * np.exp(-2j * np.pi * freqs * d)
                for a, d in zip(alphas_true, delays)
            )
            noise = noise_std * (
                rng.normal(size=num_taps) + 1j * rng.normal(size=num_taps)
            ) / np.sqrt(2)
            cir = cir_from_frequency_response(response + noise)
            resolver = SuperResolver(
                bandwidth_hz=bandwidth,
                relative_delays_s=np.array([0.0, 1.2e-9]),
                regularization=lam,
            )
            powers = resolver.estimate(cir).per_beam_power()
            errors.append(np.mean((powers - powers_true) ** 2))
        results[lam] = float(power_linear_to_db(np.mean(errors)))
    return results


# ----------------------------------------------------------------------
# 5. reprobe cadence under carrier-phase drift
# ----------------------------------------------------------------------

def _reprobe_cell(cell: tuple) -> float:
    """One (drift, interval) grid cell (module-level: picklable)."""
    from repro.experiments.common import make_manager
    from repro.sim.link import LinkSimulator
    from repro.sim.scenarios import SyntheticScenario

    drift, interval, duration_s, seed = cell
    scenario = SyntheticScenario(
        base_channel=two_path_channel(TESTBED_ULA, delta_db=-3.0),
        phase_drift_rad_s=(0.0, float(drift)),
    )
    manager = make_manager(
        "mmreliable", seed, reprobe_interval_s=float(interval)
    )
    simulator = LinkSimulator(
        scenario=scenario, manager=manager, duration_s=duration_s
    )
    trace = simulator.run()
    return float(np.mean(trace.snr_db))


def run_reprobe_ablation(
    reprobe_intervals_s=(10e-3, 25e-3, 100e-3),
    phase_drifts_rad_s=(0.0, 30.0),
    duration_s: float = 0.5,
    seed: int = 4,
    workers: int = 1,
) -> Dict[float, Dict[float, float]]:
    """Mean SNR [dB] vs reprobe interval, with and without phase drift.

    User motion rotates each path's carrier phase (a centimetre of extra
    path length at 28 GHz is half a turn), so the constructive gains go
    stale between refreshes.  Quasi-static channels are insensitive to
    the reprobe cadence; drifting channels reward the paper's cheap
    (2-probe-per-beam) frequent refresh.  The grid cells are independent
    simulations and fan out over ``workers`` processes.  Returns
    ``{drift: {interval: mean_snr_db}}``.
    """
    from repro.sim.executor import parallel_map

    cells = [
        (float(drift), float(interval), duration_s, seed)
        for drift in phase_drifts_rad_s
        for interval in reprobe_intervals_s
    ]
    mean_snrs = parallel_map(
        _reprobe_cell, cells, workers=workers, label="reprobe-ablation"
    )
    results: Dict[float, Dict[float, float]] = {}
    for (drift, interval, _, _), snr in zip(cells, mean_snrs):
        results.setdefault(drift, {})[interval] = snr
    return results


def run(config: ExperimentConfig) -> Dict[str, Any]:
    return {
        "cfo": run_cfo_ablation(),
        "quantization": run_quantization_ablation(),
        "beam_count": run_beam_count_ablation(),
        "regularization": run_regularization_ablation(),
        "reprobe": run_reprobe_ablation(workers=config.workers),
    }


def render(data: Dict[str, Any]) -> str:
    lines = ["Ablation 1 — probing under CFO (mean |phase error|, deg)"]
    for label, error in data["cfo"].items():
        lines.append(f"  {label:<22s} {error:7.2f} deg")
    lines.append("Ablation 2 — phase quantization (multi-beam SNR loss, dB)")
    for bits, loss in data["quantization"].items():
        lines.append(f"  {bits}-bit phase: {loss:6.3f} dB")
    lines.append("Ablation 3 — number of beams (gain saturates, cost grows)")
    beams = data["beam_count"]
    for k, gain, overhead in zip(
        beams.num_beams, beams.snr_gain_db, beams.overhead_ms
    ):
        lines.append(
            f"  K={k}: SNR gain {gain:5.2f} dB, overhead {overhead:5.2f} ms"
        )
    lines.append("Ablation 4 — superres ridge lambda (power MSE, dB)")
    for lam, mse in data["regularization"].items():
        lines.append(f"  lambda={lam:8.0e}: MSE {mse:7.2f} dB")
    lines.append(
        "Ablation 5 — reprobe cadence under carrier-phase drift "
        "(mean SNR, dB)"
    )
    for drift, row in data["reprobe"].items():
        cells = "  ".join(
            f"{interval * 1e3:.0f}ms: {snr:5.2f}"
            for interval, snr in row.items()
        )
        lines.append(f"  drift {drift:5.1f} rad/s -> {cells}")
    return "\n".join(lines)
