"""Appendix B / Fig. 19 — 28 GHz vs 60 GHz constructive multi-beam.

A ray-traced 10 m link with a concrete reflector at 60 degrees (the
Wireless Insite scenario), evaluated at both carriers with 10% blockage
on the direct path:

* multi-beam beats the single-beam baseline by a similar factor at both
  carriers (paper: ~1.18x throughput gain);
* for the same bandwidth, 28 GHz delivers far more absolute throughput
  at range because 60 GHz pays higher FSPL plus the oxygen-absorption
  line (paper: 4.7x).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict

import numpy as np

from repro.arrays import UniformLinearArray
from repro.channel.blockage import BlockageEvent, BlockageSchedule
from repro.channel.environment import Environment, Reflector
from repro.channel.mobility import StaticPose
from repro.experiments.common import make_manager
from repro.experiments.registry import ExperimentConfig
from repro.sim.executor import EnsembleSpec, execute_ensemble
from repro.sim.link import build_link_simulator
from repro.sim.scenarios import GeometricScenario


@dataclass(frozen=True)
class CarrierComparison:
    #: carrier label -> {"single": Mbps, "multibeam": Mbps}
    throughput_mbps: Dict[str, Dict[str, float]]

    def multibeam_gain(self, carrier: str) -> float:
        row = self.throughput_mbps[carrier]
        return row["multibeam"] / max(row["single"], 1e-9)

    def carrier_ratio(self) -> float:
        """28 GHz over 60 GHz multi-beam throughput (same bandwidth)."""
        return (
            self.throughput_mbps["28GHz"]["multibeam"]
            / max(self.throughput_mbps["60GHz"]["multibeam"], 1e-9)
        )


def _scenario(carrier_hz: float, blockage_fraction: float, seed: int):
    """The Appendix B geometry: 10 m link, concrete wall at ~60 degrees."""
    # Wall placed so its specular point sits at ~60 degrees from the
    # gNB boresight (which points at the UE).
    wall = Reflector(start=(2.0, 4.0), end=(12.0, 4.0), material="concrete")
    environment = Environment(
        reflectors=(wall,), carrier_frequency_hz=carrier_hz,
        name="appendix-b",
    )
    rng = np.random.default_rng(seed)
    duration = 1.0
    block = duration * blockage_fraction
    start = float(rng.uniform(0.0, duration - block))
    schedule = BlockageSchedule(
        events=(
            BlockageEvent(
                path_index=0, start_s=start, duration_s=block, depth_db=26.0
            ),
        )
    )
    return GeometricScenario(
        environment=environment,
        array=UniformLinearArray(
            num_elements=8, carrier_frequency_hz=carrier_hz
        ),
        tx_position=(0.0, 0.0),
        trajectory=StaticPose(position=(10.0, 0.5), orientation_rad=np.pi),
        tx_boresight_rad=float(np.arctan2(0.5, 10.0)),
        blockage=schedule,
        # Keep the 28 GHz link in the paper's low-margin operating regime;
        # the 60 GHz link then sits near the outage threshold, where the
        # extra FSPL + O2 absorption translates into a large rate gap.
        extra_loss_db=21.0,
    )


def run_carrier_comparison(
    blockage_fraction: float = 0.1,
    seeds=range(4),
    bandwidth_hz: float = 100e6,
    workers: int = 1,
    faults: tuple = (),
) -> CarrierComparison:
    """mmReliable vs the BeamSpy single-beam baseline at both carriers.

    One ensemble per (carrier, system); a seed-run that raises aborts
    the comparison (``max_failure_fraction=0``).
    """
    results: Dict[str, Dict[str, float]] = {}
    for label, carrier in (("28GHz", 28e9), ("60GHz", 60e9)):
        array = UniformLinearArray(
            num_elements=8, carrier_frequency_hz=carrier
        )
        results[label] = {}
        for column, kind in (
            ("single", "beamspy"), ("multibeam", "mmreliable-static"),
        ):
            summary = execute_ensemble(
                EnsembleSpec(
                    label=f"{kind}@{label}",
                    simulator_factory=partial(
                        build_link_simulator,
                        partial(_scenario, carrier, blockage_fraction),
                        partial(
                            make_manager, kind, array=array,
                            bandwidth_hz=bandwidth_hz,
                        ),
                        1.0,
                    ),
                    seeds=tuple(seeds),
                    workers=workers,
                    max_failure_fraction=0.0,
                    faults=tuple(faults),
                )
            )
            results[label][column] = float(
                np.mean([m.mean_throughput_bps / 1e6 for m in summary.metrics])
            )
    return CarrierComparison(throughput_mbps=results)


def run(config: ExperimentConfig) -> Dict[str, Any]:
    return {
        "carriers": run_carrier_comparison(
            seeds=config.seed_range(4), workers=config.workers,
            faults=config.faults,
        )
    }


def render(data: Dict[str, Any]) -> str:
    comparison = data["carriers"]
    lines = ["Fig. 19 (Appendix B) — 28 vs 60 GHz, 10% blockage"]
    for carrier in ("28GHz", "60GHz"):
        row = comparison.throughput_mbps[carrier]
        lines.append(
            f"  {carrier}: single {row['single']:7.1f} Mbps, "
            f"multi-beam {row['multibeam']:7.1f} Mbps "
            f"(gain {comparison.multibeam_gain(carrier):4.2f}x; "
            "paper: ~1.18x)"
        )
    lines.append(
        f"  28 GHz / 60 GHz multi-beam throughput: "
        f"{comparison.carrier_ratio():4.2f}x (paper: 4.7x for equal "
        "bandwidth at range)"
    )
    return "\n".join(lines)
