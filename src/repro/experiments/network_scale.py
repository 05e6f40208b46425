"""Network-scale evaluation: throughput/reliability CDFs vs user count.

Scales the mmReliable-vs-single-beam comparison from one link to a
multi-cell network (:mod:`repro.network`): for each user count, every
seed places users across the cells, schedules probe/data slots against
shared per-cell budgets, folds inter-cell interference into the SINR,
and reports the per-user delivered-throughput and reliability
distributions.  Multi-beam's advantage compounds at network scale — its
flat CSI-RS maintenance cost frees probe budget, and blockage outages
that would idle a single-beam user's slots keep the multi-beam user's
airtime productive.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.experiments.registry import ExperimentConfig
from repro.network import build_network_simulator
from repro.sim.executor import EnsembleSpec, EnsembleSummary, execute_ensemble
from repro.sim.spec import ScenarioSpec, get_scenario_spec

#: Manager kinds compared at every scale: the paper's system vs the
#: strongest single-beam baseline.
SYSTEMS = ("mmreliable", "reactive")

#: User counts swept when the scenario spec does not pin one.
DEFAULT_USER_COUNTS = (2, 4, 8)


def run_user_scaling(
    seeds: Sequence[int] = range(4),
    user_counts: Sequence[int] = DEFAULT_USER_COUNTS,
    spec: Optional[ScenarioSpec] = None,
    workers: int = 1,
    faults: tuple = (),
) -> Dict[str, Dict[int, EnsembleSummary]]:
    """Ensembles over (system, user count) on one base scenario spec.

    ``spec`` fixes the cell layout and clocks (default: the registered
    ``dual-cell`` spec); each sweep point overrides its user count and
    manager kind.  Per-seed runs go through the ordinary ensemble
    executor via ``simulator_factory`` — the failure budget, fault
    campaigns, and telemetry merging all apply to network runs unchanged.
    """
    base = spec if spec is not None else get_scenario_spec("dual-cell")
    results: Dict[str, Dict[int, EnsembleSummary]] = {}
    for system in SYSTEMS:
        results[system] = {}
        for users in user_counts:
            scenario = replace(
                base,
                name=f"{base.name}-{system}-u{users}",
                users=int(users),
                manager_kind=system,
            ).to_network_scenario()
            results[system][int(users)] = execute_ensemble(
                EnsembleSpec(
                    label=f"{system}/u{users}",
                    simulator_factory=partial(
                        build_network_simulator, scenario
                    ),
                    seeds=tuple(seeds),
                    workers=workers,
                    faults=tuple(faults),
                )
            )
    return results


def user_cdf(summaries: Dict[int, EnsembleSummary], attribute: str) -> dict:
    """Pooled per-user distribution for one system across user counts.

    ``attribute`` is ``"throughput"`` or ``"reliability"``.  Each
    ensemble's runs contribute every user's value, so the CDF reflects
    individual users, not per-run means.
    """
    pools = {}
    for users, summary in summaries.items():
        values = []
        for metrics in summary.metrics:
            if attribute == "throughput":
                values.extend(metrics.throughput_values_bps())
            elif attribute == "reliability":
                values.extend(metrics.reliability_values())
            else:
                raise ValueError(f"unknown attribute {attribute!r}")
        pools[users] = np.sort(np.asarray(values))
    return pools


def run(config: ExperimentConfig) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    if config.scenario is not None:
        kwargs["spec"] = config.scenario
        if config.scenario.users > 1:
            # A pinned user count replaces the default sweep.
            kwargs["user_counts"] = (config.scenario.users,)
    return {
        "scaling": run_user_scaling(
            seeds=config.seed_range(4), workers=config.workers,
            faults=config.faults, **kwargs,
        )
    }


def render(data: Dict[str, Any]) -> str:
    results = data["scaling"]
    lines = [
        "Network scale — cell throughput and reliability vs user count",
        "(multi-cell scheduler, shared probe budgets, inter-cell "
        "interference)",
    ]
    user_counts = sorted(next(iter(results.values())))
    header = "  {:<12s}".format("system") + "".join(
        f"  {f'U={u}':>18s}" for u in user_counts
    )
    lines.append(header + "   (median user tput / mean reliability)")
    for system, by_users in results.items():
        cells = []
        for users in user_counts:
            tput = user_cdf({users: by_users[users]}, "throughput")[users]
            rel = user_cdf({users: by_users[users]}, "reliability")[users]
            cells.append(
                f"  {np.median(tput) / 1e6:8.1f}M/{np.mean(rel):5.3f}"
            )
        lines.append(
            "  {:<12s}".format(system)
            + "".join(f"{cell:>20s}" for cell in cells)
        )
    for users in user_counts:
        mm = results["mmreliable"][users]
        sb = results["reactive"][users]
        gain = mm.mean_product() / sb.mean_product() if sb.mean_product() else float("inf")
        lines.append(
            f"  U={users}: multi-beam T x R gain over single-beam "
            f"{gain:4.2f}x"
        )
    return "\n".join(lines)
