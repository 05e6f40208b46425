"""Fig. 18 — end-to-end comparison against baselines.

(a) Static link with 0/1/2 blockers near the beams: mmReliable (without
    tracking) loses only a few percent of throughput; single-beam
    baselines crater when their one beam is hit.
(b) Reliability under combined mobility + blockage: mmReliable median
    ~1.0, reactive ~0.65, widebeam ~0.5 in the paper; the reproduction
    preserves the ordering and the near-1.0 mmReliable median.
(c) Throughput-reliability scatter and the T x R product ratio
    (paper: 2.3x over the best reactive baseline).
(d) Probing overhead vs array size: flat ~0.4/0.6 ms for mmReliable,
    growing with N for 5G NR beam scanning.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Sequence

import numpy as np

from repro.channel.blockage import (
    BlockageEvent,
    BlockageSchedule,
    random_blockage_schedule,
)
from repro.experiments.common import TESTBED_ULA, make_manager
from repro.phy.reference_signals import (
    beam_training_time_s,
    multibeam_maintenance_time_s,
)
from repro.sim.executor import EnsembleSpec, EnsembleSummary, execute_ensemble
from repro.sim.link import LinkSimulator, build_link_simulator
from repro.sim.scenarios import indoor_two_path_scenario
from repro.utils.rng import named_substream


# ----------------------------------------------------------------------
# (a) static link with blockers
# ----------------------------------------------------------------------

def run_static_blockers(
    num_blockers_values: Sequence[int] = (0, 1, 2),
    seeds: Sequence[int] = range(5),
    duration_s: float = 1.0,
) -> Dict[str, Dict[int, float]]:
    """Mean throughput [Mbps] per system per blocker count (Fig. 18a)."""
    systems = ("mmreliable-static", "beamspy", "reactive")
    results: Dict[str, Dict[int, float]] = {s: {} for s in systems}
    for num_blockers in num_blockers_values:
        for system in systems:
            throughputs = []
            for seed in seeds:
                if num_blockers == 0:
                    schedule = BlockageSchedule(events=())
                else:
                    # Each blocker occludes one beam during its own window
                    # (the paper's walkers cross the beams at different
                    # times; simultaneous full blockage is unrecoverable
                    # for every system and tests nothing).
                    rng = named_substream(seed, "fig18.blockage_windows")
                    events = []
                    for b in range(num_blockers):
                        window = 0.9 / num_blockers
                        duration = float(rng.uniform(0.15, 0.25))
                        start = 0.05 + b * window + float(
                            rng.uniform(0.0, max(window - duration - 0.05, 0.01))
                        )
                        events.append(
                            BlockageEvent(
                                path_index=b % 2,
                                start_s=start,
                                duration_s=duration,
                                depth_db=26.0,
                            )
                        )
                    schedule = BlockageSchedule(events=tuple(events))
                scenario = indoor_two_path_scenario(
                    TESTBED_ULA, translation_speed_mps=0.0,
                    blockage=schedule, delta_db=-4.0,
                )
                simulator = LinkSimulator(
                    scenario=scenario,
                    manager=make_manager(system, seed),
                    duration_s=duration_s,
                )
                metrics = simulator.run().metrics()
                throughputs.append(metrics.mean_throughput_bps / 1e6)
            results[system][num_blockers] = float(np.mean(throughputs))
    return results


# ----------------------------------------------------------------------
# (b)(c) mobile links with blockage: reliability and T x R
# ----------------------------------------------------------------------

def _mobile_scenario(
    seed: int,
    speed_mps: float,
    blockage_depth_db: float,
    distance_m: float,
):
    """One seed's mobility + blockage scenario (module-level: picklable)."""
    schedule = random_blockage_schedule(
        num_paths=2,
        num_events=2,
        depth_db=blockage_depth_db,
        rng=9000 + seed,
        block_strongest_only=True,
    )
    return indoor_two_path_scenario(
        TESTBED_ULA, translation_speed_mps=speed_mps,
        blockage=schedule, delta_db=-4.0, distance_m=distance_m,
    )


def run_mobile_ensembles(
    seeds: Sequence[int] = range(20),
    duration_s: float = 1.0,
    speed_mps: float = 1.5,
    blockage_depth_db: float = 30.0,
    distance_m: float = 25.0,
    workers: int = 1,
    faults: tuple = (),
) -> Dict[str, EnsembleSummary]:
    """The paper's combined mobility + blockage workload (Fig. 18b/c).

    The link distance puts the single-beam SNR ~9 dB above the outage
    threshold — the paper's operating regime (~1-1.5 b/s/Hz average
    spectral efficiency), where blockage means outage for a single beam
    and the widebeam's gain deficit is ruinous.  ``workers`` fans the
    seed-runs out over the ensemble executor's process pool.
    """
    systems = ("mmreliable", "reactive", "beamspy", "widebeam", "oracle")
    summaries = {}
    for system in systems:
        summaries[system] = execute_ensemble(
            EnsembleSpec(
                label=system,
                simulator_factory=partial(
                    build_link_simulator,
                    partial(
                        _mobile_scenario,
                        speed_mps=speed_mps,
                        blockage_depth_db=blockage_depth_db,
                        distance_m=distance_m,
                    ),
                    partial(make_manager, system),
                    duration_s,
                ),
                seeds=tuple(seeds),
                workers=workers,
                faults=tuple(faults),
            )
        )
    return summaries


def product_improvement(
    summaries: Dict[str, EnsembleSummary], over: str = "reactive"
) -> float:
    """T x R product ratio of mmReliable over a baseline (paper: 2.3x)."""
    return summaries["mmreliable"].mean_product() / summaries[over].mean_product()


# ----------------------------------------------------------------------
# (d) probing overhead
# ----------------------------------------------------------------------

def run_probing_overhead(
    antenna_counts: Sequence[int] = (8, 16, 32, 64),
) -> Dict[str, Dict[int, float]]:
    """Probing airtime [ms] per refresh, vs array size (Fig. 18d)."""
    table: Dict[str, Dict[int, float]] = {
        "5G NR (log scan)": {},
        "mmReliable 2-beam": {},
        "mmReliable 3-beam": {},
    }
    for n in antenna_counts:
        table["5G NR (log scan)"][n] = beam_training_time_s(n) * 1e3
        table["mmReliable 2-beam"][n] = multibeam_maintenance_time_s(2) * 1e3
        table["mmReliable 3-beam"][n] = multibeam_maintenance_time_s(3) * 1e3
    return table


def report(
    static: Dict[str, Dict[int, float]],
    summaries: Dict[str, EnsembleSummary],
    overhead: Dict[str, Dict[int, float]],
) -> str:
    lines = ["Fig. 18(a) — static link, mean throughput (Mbps) vs blockers"]
    blocker_counts = sorted(next(iter(static.values())).keys())
    header = "  system              " + "".join(
        f"  {n} blk" for n in blocker_counts
    )
    lines.append(header)
    for system, row in static.items():
        cells = "".join(f" {row[n]:6.0f}" for n in blocker_counts)
        drop = 100 * (1 - row[max(blocker_counts)] / row[0])
        lines.append(f"  {system:<18s} {cells}   (drop {drop:4.1f}%)")
    lines.append("")
    lines.append("Fig. 18(b)(c) — mobile + blockage ensembles")
    for system, summary in summaries.items():
        lines.append("  " + summary.describe())
    ratio_reactive = product_improvement(summaries, "reactive")
    ratio_beamspy = product_improvement(summaries, "beamspy")
    lines.append(
        f"  T x R product gain over reactive: {ratio_reactive:4.2f}x, "
        f"over beamspy: {ratio_beamspy:4.2f}x (paper: 2.3x over best "
        "reactive baseline)"
    )
    lines.append("")
    lines.append("Fig. 18(d) — probing overhead per refresh (ms)")
    counts = sorted(next(iter(overhead.values())).keys())
    lines.append(
        "  scheme               " + "".join(f"  N={n:<4d}" for n in counts)
    )
    for scheme, row in overhead.items():
        cells = "".join(f"  {row[n]:6.2f}" for n in counts)
        lines.append(f"  {scheme:<20s}{cells}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(
        report(
            run_static_blockers(),
            run_mobile_ensembles(seeds=range(10)),
            run_probing_overhead(),
        )
    )
