"""Chaos sweep: reliability vs injected fault rate.

The paper's claim is that the constructive multi-beam keeps the link
*reliable*; this experiment stresses the claim with the fault-injection
subsystem (:mod:`repro.faults`).  For each fault rate, mmReliable and
the reactive baseline run over the same seeds' scenarios, each link
under its own injector of that rate; the curve of mean reliability vs rate shows
graceful degradation, and the ``failures`` column shows that every run
*completes* — faults surface as flagged outcomes, fallbacks, and
telemetry events, never as :class:`~repro.sim.executor.RunFailure`\\ s.

The scenario reuses Fig. 18's mobility + blockage workload so the fault
axis composes with the paper's own stress (a blocked beam *and* a lost
probe must both be survivable).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Sequence

from repro.experiments.common import compare_systems, format_series
from repro.experiments.fig18_end2end import _mobile_scenario
from repro.experiments.registry import ExperimentConfig
from repro.faults import FaultKind, FaultSpec

#: The default fault-rate axis (0.0 doubles as the no-chaos reference).
DEFAULT_RATES = (0.0, 0.1, 0.2, 0.3)

#: Systems compared: the paper's protagonist and its reactive baseline.
SYSTEMS = ("mmreliable", "reactive")


def run_fault_rate_sweep(
    rates: Sequence[float] = DEFAULT_RATES,
    seeds: Sequence[int] = range(6),
    duration_s: float = 0.5,
    workers: int = 1,
    kind: str = FaultKind.PROBE_LOSS,
) -> Dict[str, Any]:
    """Reliability/throughput vs fault rate for mmReliable vs reactive.

    ``max_failure_fraction=1.0`` turns any crash into *data* rather than
    an :class:`EnsembleError` — the whole point is counting how many
    runs fail outright vs degrade gracefully at each rate.
    """
    scenario_factory = partial(
        _mobile_scenario, speed_mps=1.5, blockage_depth_db=30.0,
        distance_m=25.0,
    )
    curves: Dict[str, list] = {system: [] for system in SYSTEMS}
    for rate in rates:
        summaries = compare_systems(
            SYSTEMS,
            scenario_factory,
            duration_s,
            seeds,
            workers=workers,
            faults=(FaultSpec(kind=kind, rate=float(rate)),),
            max_failure_fraction=1.0,
            label_suffix=f"@{kind}={rate:.2f}",
        )
        for system, summary in summaries.items():
            curves[system].append(
                {
                    "rate": float(rate),
                    "reliability": summary.mean_reliability(),
                    "throughput_mbps": summary.mean_throughput_bps() / 1e6,
                    "failed_runs": len(summary.failures),
                    "completed_runs": len(summary.metrics),
                }
            )
    return {
        "kind": kind,
        "rates": [float(rate) for rate in rates],
        "num_seeds": len(tuple(seeds)),
        "curves": curves,
    }


def run(config: ExperimentConfig) -> Dict[str, Any]:
    """The sweep over the first configured fault's kind (default
    ``probe_loss``); the sweep sets its own rates."""
    kind = config.faults[0].kind if config.faults else FaultKind.PROBE_LOSS
    return {
        "sweep": run_fault_rate_sweep(
            seeds=config.seed_range(6), workers=config.workers, kind=kind
        )
    }


def render(data: Dict[str, Any]) -> str:
    """Render the reliability-vs-fault-rate curves as a text report."""
    sweep = data["sweep"]
    kind = sweep["kind"]
    lines = [
        f"Fault tolerance — reliability vs injected '{kind}' rate",
        f"({sweep['num_seeds']} seeds per point; every fault decision is "
        "seed-deterministic)",
        "",
        "  rate    mmReliable rel (fail)    reactive rel (fail)",
    ]
    mm_points = {p["rate"]: p for p in sweep["curves"]["mmreliable"]}
    re_points = {p["rate"]: p for p in sweep["curves"]["reactive"]}
    for rate in sweep["rates"]:
        mm = mm_points[rate]
        re = re_points[rate]
        lines.append(
            f"  {rate:4.2f}    {mm['reliability']:.3f} ({mm['failed_runs']}"
            f"/{mm['failed_runs'] + mm['completed_runs']})"
            f"            {re['reliability']:.3f} ({re['failed_runs']}"
            f"/{re['failed_runs'] + re['completed_runs']})"
        )
    lines.append("")
    for system in SYSTEMS:
        points = sweep["curves"][system]
        lines.append(
            format_series(
                f"{system} reliability",
                [p["rate"] for p in points],
                [p["reliability"] for p in points],
                unit_x="fault rate",
                unit_y="reliability",
            )
        )
    total_failures = sum(
        p["failed_runs"] for points in sweep["curves"].values() for p in points
    )
    if total_failures == 0:
        lines.append(
            "All runs completed: degradation stayed in-band (flagged probe "
            "outcomes, single-beam fallbacks, watchdog retrains) with zero "
            "RunFailures."
        )
    else:
        lines.append(f"{total_failures} run(s) failed outright under chaos.")
    return "\n".join(lines)
