"""Which public calls the traced run wraps, and the per-layer metrics.

Each layer is named after the ``repro`` module that owns it.  The
wrapped calls are the ones the benchmark's workloads reach through the
library's kept API; nothing here selects a backend or a fast path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from tracer import FAILED, TraceReport, Tracer
from workloads import percentile_ms

SAMPLE_CLOCK = "phy.sample_clock"
MAINTENANCE = "core.maintenance"

#: Layers in call order, outermost first (the order of the printed table).
LAYERS = (
    "serve.runner",
    "serve.journal",
    "sim.executor",
    "network.scheduler",
    "network.interference",
    "sim.link",
    "channel",
    SAMPLE_CLOCK,
    MAINTENANCE,
    "beamtraining",
    "core.probing",
    "phy.sound",
    "core.superres",
    "core.tracking",
    "arrays.patterns",
)


def _add(counters: Dict[str, float], name: str, amount: float = 1.0) -> None:
    counters[name] = counters.get(name, 0.0) + amount


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


def _count_ensemble(counters, args, kwargs, result, parent) -> None:
    if result is FAILED:
        _add(counters, "sim.executor.errors")
        return
    stats = result.stats
    _add(counters, "sim.executor.runs", stats.total_runs)
    _add(counters, "sim.executor.failures", stats.failed_runs)
    _add(counters, "sim.executor.retries", stats.total_retries)


def _count_samples(counters, args, kwargs, result, parent) -> None:
    # The scalar path may be reached from the batched one; count once.
    if parent is not None and parent.startswith(SAMPLE_CLOCK + "."):
        return
    channels = _arg(args, kwargs, 1, "channels")
    _add(counters, "phy.sample_clock.samples", len(channels))


def _count_sample(counters, args, kwargs, result, parent) -> None:
    if parent is not None and parent.startswith(SAMPLE_CLOCK + "."):
        return
    _add(counters, "phy.sample_clock.samples")


def _count_probe(counters, args, kwargs, result, parent) -> None:
    _add(counters, "phy.sound.probes")


def _count_probes(counters, args, kwargs, result, parent) -> None:
    if result is not FAILED:
        _add(counters, "phy.sound.probes", len(result))


def _count_step(counters, args, kwargs, result, parent) -> None:
    _add(counters, "core.maintenance.steps")


def _count_establish(counters, args, kwargs, result, parent) -> None:
    _add(counters, "core.maintenance.establishes")
    if parent is not None and parent.startswith(MAINTENANCE + ".") and (
        parent.endswith(".step")
    ):
        _add(counters, "core.maintenance.retrains")


def _count_superres(counters, args, kwargs, result, parent) -> None:
    if result is not FAILED and np.all(np.isfinite(result.alphas)):
        _add(counters, "core.superres.valid")


def _count_refine(counters, args, kwargs, result, parent) -> None:
    if result is FAILED:
        return
    refined, probes = result
    _add(counters, "core.tracking.probes", probes)
    if refined is not _arg(args, kwargs, 1, "multibeam"):
        _add(counters, "core.tracking.refined")


def _count_gain_probe(counters, args, kwargs, result, parent) -> None:
    if result is not FAILED:
        _add(counters, "core.probing.retries", result.retries)


def _count_plan(counters, args, kwargs, result, parent) -> None:
    if result is not FAILED:
        _add(counters, "network.scheduler.denied", result.probe_slots_denied)
        _add(counters, "network.scheduler.granted", result.num_probe_slots)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls on ``tracer``."""
    # Import every module that binds a traced function by name first, so
    # the tracer finds and patches those bindings too.
    import repro.experiments.fig18_end2end  # noqa: F401
    import repro.serve.server  # noqa: F401
    from repro.arrays.patterns import invert_pattern_offset
    from repro.baselines import (
        BeamSpySingleBeam,
        OracleBeam,
        ReactiveSingleBeam,
        WideBeam,
    )
    from repro.beamtraining import (
        CompressiveTrainer,
        ExhaustiveTrainer,
        HierarchicalTrainer,
    )
    from repro.channel.batch import ChannelBatch
    from repro.core.maintenance import MultiBeamManager
    from repro.core.probing import ProbeController
    from repro.core.superres import SuperResolver
    from repro.core.tracking import MultiBeamTracker
    from repro.network.interference import InterferenceModel
    from repro.network.scheduler import SlotScheduler
    from repro.phy.ofdm import ChannelSounder
    from repro.serve.journal import JobJournal
    from repro.serve.runner import execute_job
    from repro.sim.executor import execute_ensemble
    from repro.sim.link import LinkSimulator
    from repro.sim.scenarios import GeometricScenario, SyntheticScenario

    tracer.function(execute_job, "serve.runner")
    tracer.method(JobJournal, "append", "serve.journal", keep_durations=True)
    tracer.method(JobJournal, "replay", "serve.journal")
    tracer.function(execute_ensemble, "sim.executor", _count_ensemble)
    tracer.method(SlotScheduler, "plan_cell", "network.scheduler", _count_plan)
    tracer.method(InterferenceModel, "penalties_db", "network.interference")
    tracer.method(LinkSimulator, "run", "sim.link")
    for scenario in (SyntheticScenario, GeometricScenario):
        tracer.method(scenario, "channel_at", "channel")
    tracer.method(SyntheticScenario, "channel_batch", "channel")
    tracer.method(ChannelBatch, "precompute", "channel")
    tracer.method(ChannelSounder, "link_snr_db_batch", SAMPLE_CLOCK, _count_samples)
    tracer.method(ChannelSounder, "link_snr_db", SAMPLE_CLOCK, _count_sample)
    tracer.method(ChannelSounder, "sound", "phy.sound", _count_probe)
    tracer.method(ChannelSounder, "sound_many", "phy.sound", _count_probes)
    for manager in (
        MultiBeamManager, ReactiveSingleBeam, BeamSpySingleBeam, WideBeam,
        OracleBeam,
    ):
        tracer.method(manager, "step", MAINTENANCE, _count_step)
    tracer.method(MultiBeamManager, "establish", MAINTENANCE, _count_establish)
    for trainer in (ExhaustiveTrainer, HierarchicalTrainer, CompressiveTrainer):
        tracer.method(trainer, "train", "beamtraining")
    tracer.method(SuperResolver, "estimate", "core.superres", _count_superres)
    tracer.method(MultiBeamTracker, "refine", "core.tracking", _count_refine)
    tracer.function(invert_pattern_offset, "arrays.patterns")
    tracer.method(
        ProbeController, "probe_relative_gains", "core.probing",
        _count_gain_probe,
    )
    tracer.method(ProbeController, "measure_reference_powers", "core.probing")


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(
    report: TraceReport, extra: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Every per-layer number of one traced window, by metric name.

    ``extra`` carries the numbers a workload measures itself (cache
    statistics, queue waits from job histories, serve dedup counters).
    """
    r = report
    step_ops = [op for op in r.ops_of(MAINTENANCE) if op.endswith(".step")]
    establish = r.op(f"{MAINTENANCE}.MultiBeamManager.establish")
    appends = r.op("serve.journal.JobJournal.append")
    superres_calls = r.calls("core.superres")
    tracking_calls = r.calls("core.tracking")
    granted = r.counter("network.scheduler.granted")
    denied = r.counter("network.scheduler.denied")
    metrics: Dict[str, float] = {
        "sim.executor.runs": r.counter("sim.executor.runs"),
        "sim.executor.failures": r.counter("sim.executor.failures"),
        "sim.executor.retries": r.counter("sim.executor.retries"),
        "sim.link.runs": r.calls("sim.link"),
        "channel.calls": r.calls("channel"),
        "phy.sample_clock.samples": r.counter("phy.sample_clock.samples"),
        "phy.sound.probes": r.counter("phy.sound.probes"),
        "core.maintenance.steps": r.counter("core.maintenance.steps"),
        "core.maintenance.step_self_s": sum(
            r.op(op)["self_s"] for op in step_ops
        ),
        "core.maintenance.establishes": r.counter(
            "core.maintenance.establishes"
        ),
        "core.maintenance.establish_s": establish["total_s"],
        "core.maintenance.retrains": r.counter("core.maintenance.retrains"),
        "beamtraining.calls": r.calls("beamtraining"),
        "core.superres.calls": superres_calls,
        "core.superres.valid_ratio": _ratio(
            r.counter("core.superres.valid"), superres_calls
        ),
        "core.tracking.calls": tracking_calls,
        "core.tracking.probes": r.counter("core.tracking.probes"),
        "core.tracking.refine_ratio": _ratio(
            r.counter("core.tracking.refined"), tracking_calls
        ),
        "arrays.patterns.calls": r.calls("arrays.patterns"),
        "core.probing.calls": r.calls("core.probing"),
        "core.probing.retries": r.counter("core.probing.retries"),
        "network.scheduler.calls": r.calls("network.scheduler"),
        "network.scheduler.probe_slots_denied": denied,
        "network.scheduler.probe_grant_ratio": _ratio(granted, granted + denied),
        "network.interference.calls": r.calls("network.interference"),
        "serve.journal.appends": appends["calls"],
        "serve.journal.replay_s": r.op("serve.journal.JobJournal.replay")["total_s"],
        "serve.journal.append_p50_ms": (
            percentile_ms(appends["durations"], 50) if appends["calls"] else 0.0
        ),
        "serve.journal.append_p95_ms": (
            percentile_ms(appends["durations"], 95) if appends["calls"] else 0.0
        ),
        "serve.runner.executions": r.calls("serve.runner"),
        # Measured by serve-mix from its job records and server stats.
        "serve.queue.wait_p50_ms": 0.0,
        "serve.queue.wait_p95_ms": 0.0,
        "serve.queue.max_depth": 0,
        "serve.queue.shed": 0,
        "serve.runner.dedup_ratio": 0.0,
        "serve.runner.retries": 0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = r.self_s(layer)
        metrics[f"{layer}.busy_s"] = r.busy_s(layer)
    metrics.update(extra or {})
    return metrics
