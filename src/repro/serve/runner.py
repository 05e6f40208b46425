"""Job execution bridge: a JobSpec in, a JSON-safe result payload out.

Jobs execute on the existing machinery — ``kind="experiment"`` goes
through the experiment registry (and from there through the ensemble
executor where the experiment has one), ``kind="ensemble"`` builds a
micro link ensemble directly on :func:`execute_ensemble`.  The micro
path exists so load tests and health probes can push many cheap jobs
through the *real* pipeline (process pool, fault injection, failure
budget) without paying for a full figure reproduction per job.

Everything here is synchronous and runs on a server worker thread; the
asyncio layer never blocks on it.  Module-level factories keep the
ensemble specs picklable for ``workers > 1``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict

from repro.serve.jobs import JobSpec

__all__ = ["execute_job"]

#: Per-run duration floor: keeps micro jobs from rounding to zero work.
_MIN_DURATION_S = 1e-3


def _micro_scenario(duration_s: float, seed: int) -> object:
    from repro.arrays import UniformLinearArray
    from repro.channel.blockage import random_blockage_schedule
    from repro.sim.scenarios import indoor_two_path_scenario

    return indoor_two_path_scenario(
        UniformLinearArray(num_elements=8),
        blockage=random_blockage_schedule(
            num_paths=2,
            observation_s=duration_s,
            min_duration_s=0.1 * duration_s,
            max_duration_s=0.5 * duration_s,
            rng=seed,
        ),
    )


def _micro_manager(seed: int) -> object:
    from repro.experiments.common import make_manager

    return make_manager("mmreliable", seed)


def _run_ensemble_job(spec: JobSpec) -> Dict[str, Any]:
    from repro.sim.executor import EnsembleSpec, execute_ensemble
    from repro.sim.export import to_jsonable
    from repro.sim.link import build_link_simulator

    duration_s = max(_MIN_DURATION_S, spec.duration_s)
    seeds = spec.seeds if spec.seeds is not None else 2
    ensemble = EnsembleSpec(
        label="serve-ensemble",
        simulator_factory=partial(
            build_link_simulator,
            partial(_micro_scenario, duration_s),
            _micro_manager,
            duration_s,
        ),
        seeds=range(seeds),
        workers=spec.workers,
        faults=spec.faults,
    )
    summary = execute_ensemble(ensemble)
    return {
        "kind": "ensemble",
        "runs": len(summary.metrics),
        "failures": len(summary.failures),
        "median_reliability": summary.median_reliability(),
        "mean_throughput_bps": summary.mean_throughput_bps(),
        "stats": to_jsonable(summary.stats),
    }


def _run_experiment_job(spec: JobSpec) -> Dict[str, Any]:
    from repro.experiments.registry import ExperimentConfig, get_experiment
    from repro.sim.export import to_jsonable

    experiment = get_experiment(spec.experiment)
    config = ExperimentConfig(
        seeds=spec.seeds,
        workers=spec.workers,
        faults=spec.faults,
        scenario=spec.scenario,
    )
    result = experiment.run(config)
    return {
        "kind": "experiment",
        "experiment": result.identifier,
        "title": result.title,
        "elapsed_s": result.elapsed_s,
        "report": experiment.render(result),
        "data": to_jsonable(result.data),
    }


def execute_job(spec: JobSpec) -> Dict[str, Any]:
    """Run one job to completion; raises on failure (the server fails
    the job with that error)."""
    if spec.kind == "ensemble":
        return _run_ensemble_job(spec)
    return _run_experiment_job(spec)
