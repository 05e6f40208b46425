"""Robustness sweep: the end-to-end comparison on stochastic channels.

Fig. 18 uses hand-built two-path scenarios; this experiment re-runs the
mmReliable-vs-baselines comparison over random clustered channels drawn
from the 3GPP-flavoured generator (``repro.channel.clusters``) — many
random cluster placements, strengths, and delays — to show the paper's
conclusions do not depend on the scripted geometry.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Sequence

import numpy as np

from repro.channel.blockage import random_blockage_schedule
from repro.channel.clusters import (
    INDOOR_CLUSTERS,
    ClusterProfile,
    generate_clustered_channel,
)
from repro.experiments.common import TESTBED_ULA, compare_systems
from repro.experiments.registry import ExperimentConfig
from repro.sim.executor import EnsembleSummary
from repro.sim.scenarios import SyntheticScenario


def clustered_scenario(
    seed: int,
    profile: ClusterProfile = INDOOR_CLUSTERS,
    distance_m: float = 15.0,
    speed_mps: float = 1.5,
    blockage_events: int = 2,
) -> SyntheticScenario:
    """One random clustered channel with mobility drift and blockage.

    The LOS departure angle sweeps at ``v / d``; each cluster drifts at a
    random fraction of that (reflection geometry scales the image
    distance).  Blockage targets the LOS (path index 0).
    """
    rng = np.random.default_rng(seed)
    channel = generate_clustered_channel(
        TESTBED_ULA, profile, distance_m=distance_m, rng=rng
    )
    los_rate = speed_mps / distance_m
    rates = [los_rate]
    cluster_rates = {}
    for path in channel.paths[1:]:
        key = path.label.split(":")[0]
        if key not in cluster_rates:
            cluster_rates[key] = los_rate * float(rng.uniform(0.3, 0.9))
        rates.append(cluster_rates[key])
    schedule = random_blockage_schedule(
        num_paths=channel.num_paths,
        num_events=blockage_events,
        depth_db=30.0,
        block_strongest_only=True,
        rng=seed + 5000,
    )
    return SyntheticScenario(
        base_channel=channel,
        angular_rates_rad_s=tuple(rates),
        blockage=schedule,
        name=f"clustered-{profile.name}-{seed}",
    )


def run_clustered_ensembles(
    seeds: Sequence[int] = range(12),
    profile: ClusterProfile = INDOOR_CLUSTERS,
    duration_s: float = 1.0,
    workers: int = 1,
    faults: tuple = (),
) -> Dict[str, EnsembleSummary]:
    """mmReliable vs baselines over random clustered channels.

    Every system faces each seed's one channel draw; ``workers`` fans
    the seed-runs out over the ensemble executor's process pool, and the
    per-seed metrics are identical either way.
    """
    return compare_systems(
        ("mmreliable", "reactive", "beamspy", "oracle"),
        partial(clustered_scenario, profile=profile),
        duration_s,
        seeds,
        workers=workers,
        faults=faults,
    )


def run(config: ExperimentConfig) -> Dict[str, Any]:
    return {
        "clustered": run_clustered_ensembles(
            seeds=config.seed_range(12), workers=config.workers,
            faults=config.faults,
        )
    }


def render(data: Dict[str, Any]) -> str:
    summaries = data["clustered"]
    lines = [
        "Robustness — end-to-end comparison on random clustered channels",
        "(3GPP-flavoured generator; mobility + LOS blockage per run)",
    ]
    for summary in summaries.values():
        lines.append("  " + summary.describe())
    gain = (
        summaries["mmreliable"].mean_product()
        / summaries["reactive"].mean_product()
    )
    lines.append(
        f"  T x R product gain over reactive: {gain:4.2f}x "
        "(hand-built scenarios: see fig18)"
    )
    return "\n".join(lines)
