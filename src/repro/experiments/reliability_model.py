"""Section 3.1 — the analytic reliability model, checked against simulation.

Analytic: a single beam has reliability ``1 - beta`` under blockage
probability ``beta``; a k-beam multi-beam with independent per-beam
blockage has ``1 - beta^k``.  The simulated counterpart draws independent
per-path blockage processes with duty cycle ``beta`` and measures the
fraction of time at least one beam survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.experiments.registry import ExperimentConfig
from repro.sim.metrics import (
    analytic_multibeam_reliability,
    analytic_single_beam_reliability,
)
from repro.utils import ensure_rng


@dataclass(frozen=True)
class ReliabilityCurves:
    betas: np.ndarray
    #: label -> reliability values aligned with betas
    curves: Dict[str, np.ndarray]


def run_analytic_curves(num_points: int = 21, max_k: int = 4) -> ReliabilityCurves:
    betas = np.linspace(0.0, 1.0, num_points)
    curves = {
        "single-beam": np.array(
            [analytic_single_beam_reliability(b) for b in betas]
        )
    }
    for k in range(2, max_k + 1):
        curves[f"{k}-beam"] = np.array(
            [analytic_multibeam_reliability(b, k) for b in betas]
        )
    return ReliabilityCurves(betas=betas, curves=curves)


def simulate_independent_blockage(
    beta: float,
    num_beams: int,
    num_slots: int = 20_000,
    rng=None,
) -> float:
    """Monte-Carlo check of the 1 - beta^k model.

    Each slot independently blocks each beam with probability ``beta``;
    the link is up if any beam survives.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta!r}")
    rng = ensure_rng(rng)
    blocked = rng.random((num_slots, num_beams)) < beta
    return float(1.0 - blocked.all(axis=1).mean())


def run_monte_carlo_check(
    betas=(0.1, 0.3, 0.5, 0.7), max_k: int = 3, seed: int = 0
) -> Dict[float, Dict[int, float]]:
    results: Dict[float, Dict[int, float]] = {}
    rng = ensure_rng(seed)
    for beta in betas:
        results[beta] = {
            k: simulate_independent_blockage(beta, k, rng=rng)
            for k in range(1, max_k + 1)
        }
    return results


def run(config: ExperimentConfig) -> Dict[str, Any]:
    return {
        "analytic": run_analytic_curves(),
        "monte_carlo": run_monte_carlo_check(),
    }


def render(data: Dict[str, Any]) -> str:
    lines = ["Section 3.1 — reliability model 1 - beta^k"]
    lines.append("  beta    analytic(k=1,2,3)        simulated(k=1,2,3)")
    for beta, row in data["monte_carlo"].items():
        analytic = [
            analytic_multibeam_reliability(beta, k) for k in sorted(row)
        ]
        simulated = [row[k] for k in sorted(row)]
        lines.append(
            f"  {beta:4.2f}  "
            + " ".join(f"{v:6.3f}" for v in analytic)
            + "   "
            + " ".join(f"{v:6.3f}" for v in simulated)
        )
    return "\n".join(lines)
