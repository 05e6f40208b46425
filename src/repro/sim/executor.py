"""Parallel ensemble execution engine.

The paper's headline evaluation (Fig. 18) aggregates ~100 randomized
1-second runs per system.  Each run is independent — the scenario and
manager are rebuilt from the seed — so the ensemble is embarrassingly
parallel.  This module fans seed-runs out over a
:class:`concurrent.futures.ProcessPoolExecutor` while preserving the
serial path's exact per-seed results:

* **Determinism** — every run derives all randomness from its seed, and
  results are collected in seed order, so ``workers=4`` produces metrics
  bitwise identical to ``workers=1``.
* **Fault tolerance** — a seed whose simulation raises is recorded as a
  structured :class:`RunFailure` (seed, exception, traceback) instead of
  killing the whole ensemble, and so is every seed a dead pool worker's
  broken pool held (the seeds not yet submitted run on a fresh pool);
  the ensemble itself errors only once the
  failed fraction exceeds :attr:`EnsembleSpec.max_failure_fraction`.
* **Fallback** — ``workers=1``, single-seed ensembles, and factories
  that cannot be pickled (closures, lambdas) run on a deterministic
  in-process serial path.
* **Stats** — per-run wall times, worker utilization, and run counts are
  surfaced on :attr:`EnsembleSummary.stats` for throughput tracking.
"""

from __future__ import annotations

import pickle
import time
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults import (
    FaultInjector,
    FaultSpec,
    FaultTarget,
    InjectedWorkerCrash,
)
from repro.sim.metrics import LinkMetrics
from repro.telemetry import (
    Event,
    TelemetryRecorder,
    TelemetrySummary,
    get_recorder,
    set_recorder,
)

__all__ = [
    "EnsembleError",
    "EnsembleSpec",
    "EnsembleSummary",
    "ExecutorStats",
    "RunFailure",
    "execute_ensemble",
    "parallel_map",
]


# ----------------------------------------------------------------------
# structured results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunFailure:
    """One seed-run that raised instead of producing metrics.

    ``kind`` classifies the failure: ``"error"`` (the simulation raised)
    or ``"crash"`` (the worker process died or injected chaos killed it).
    """

    seed: int
    error: str
    traceback: str
    elapsed_s: float
    kind: str = "error"

    def __str__(self) -> str:
        return f"seed {self.seed}: {self.error}"


@dataclass(frozen=True)
class ExecutorStats:
    """Execution statistics for one ensemble.

    ``workers`` is the number of workers *actually used* — the pool is
    never wider than the seed count, and the serial backend always uses
    one — so :attr:`utilization` reflects real pool occupancy.
    ``run_times_s`` holds one wall time per seed, failed runs included.
    """

    backend: str
    workers: int
    total_runs: int
    failed_runs: int
    wall_time_s: float
    run_times_s: Tuple[float, ...]
    #: Always 0: every seed runs exactly once.  Kept for stats readers.
    total_retries: int = 0

    @property
    def completed_runs(self) -> int:
        return self.total_runs - self.failed_runs

    @property
    def busy_time_s(self) -> float:
        """Summed per-run wall time (the serial-equivalent cost)."""
        return float(sum(self.run_times_s))

    @property
    def mean_run_time_s(self) -> float:
        if not self.run_times_s:
            return 0.0
        return self.busy_time_s / len(self.run_times_s)

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool kept busy over the wall time."""
        capacity = self.workers * self.wall_time_s
        if capacity <= 0.0:
            return 0.0
        return min(1.0, self.busy_time_s / capacity)

    @property
    def runs_per_second(self) -> float:
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.total_runs / self.wall_time_s

    def describe(self) -> str:
        return (
            f"{self.backend} x{self.workers}: {self.completed_runs}"
            f"/{self.total_runs} runs in {self.wall_time_s:.2f} s "
            f"({self.runs_per_second:.1f} runs/s, "
            f"utilization {self.utilization:.0%})"
        )


@dataclass(frozen=True)
class EnsembleSummary:
    """Distribution summary over an ensemble of runs."""

    label: str
    metrics: tuple
    failures: Tuple[RunFailure, ...] = ()
    stats: Optional[ExecutorStats] = None
    #: Digest of the successful seed-runs' events in seed order
    #: (``None`` when no recorder was active for the ensemble).
    telemetry: Optional[TelemetrySummary] = None

    def __post_init__(self) -> None:
        if not self.metrics:
            raise ValueError("empty ensemble")

    def _values(self, attribute: str) -> np.ndarray:
        return np.asarray([getattr(m, attribute) for m in self.metrics])

    def median_reliability(self) -> float:
        return float(np.median(self._values("reliability")))

    def mean_reliability(self) -> float:
        return float(np.mean(self._values("reliability")))

    def mean_throughput_bps(self) -> float:
        return float(np.mean(self._values("mean_throughput_bps")))

    def std_throughput_bps(self) -> float:
        return float(np.std(self._values("mean_throughput_bps")))

    def mean_spectral_efficiency(self) -> float:
        return float(np.mean(self._values("mean_spectral_efficiency")))

    def std_reliability(self) -> float:
        return float(np.std(self._values("reliability")))

    def mean_product(self) -> float:
        return float(np.mean(self._values("product")))

    def reliability_values(self) -> np.ndarray:
        return self._values("reliability")

    def throughput_values(self) -> np.ndarray:
        return self._values("mean_throughput_bps")

    def describe(self) -> str:
        """One printable row, in the shape the paper's tables report."""
        line = (
            f"{self.label:<24s} reliability(med)={self.median_reliability():.3f} "
            f"throughput={self.mean_throughput_bps() / 1e6:8.1f} Mbps "
            f"spectral-eff={self.mean_spectral_efficiency():.2f} b/s/Hz "
            f"TxR={self.mean_product() / 1e6:8.1f}"
        )
        if self.failures:
            line += f" [{len(self.failures)} failed run(s)]"
        return line


# ----------------------------------------------------------------------
# ensemble specification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to run one ensemble: a simulator per seed.

    ``simulator_factory(seed)`` builds the whole run — anything whose
    ``run()`` returns a trace with a ``metrics()`` method and which
    implements the :class:`repro.faults.FaultTarget` protocol.  Link
    ensembles pass ``partial(build_link_simulator, scenario_factory,
    manager_factory, duration_s)`` (see :mod:`repro.sim.link`); network
    ensembles pass ``partial(build_network_simulator, scenario)``.  For
    ``workers > 1`` the factory must be picklable (module-level
    functions or :func:`functools.partial` over them); a factory that
    cannot be pickled falls back to the serial path with a warning.
    """

    label: str
    simulator_factory: Callable[[int], object]
    seeds: Tuple[int, ...] = ()
    workers: int = 1
    max_failure_fraction: float = 0.5
    #: Fault-injection campaign applied inside every run (a
    #: :class:`repro.faults.FaultInjector` is built per seed).  Empty
    #: means no injector at all; all-zero rates are bitwise identical
    #: to that.
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "seeds", tuple(int(seed) for seed in self.seeds)
        )
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if not 0.0 <= self.max_failure_fraction <= 1.0:
            raise ValueError(
                "max_failure_fraction must be in [0, 1], got "
                f"{self.max_failure_fraction!r}"
            )
        faults = tuple(self.faults)
        for spec in faults:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"faults must be FaultSpec instances, got {spec!r}")
        object.__setattr__(self, "faults", faults)


class EnsembleError(RuntimeError):
    """Raised when an ensemble exceeds its failure budget."""

    def __init__(self, label: str, failures: Tuple[RunFailure, ...],
                 total_runs: int) -> None:
        self.label = label
        self.failures = failures
        self.total_runs = total_runs
        detail = "; ".join(str(f) for f in failures[:3])
        if len(failures) > 3:
            detail += f"; ... ({len(failures) - 3} more)"
        super().__init__(
            f"ensemble {label!r}: {len(failures)}/{total_runs} runs "
            f"failed ({detail})"
        )


# ----------------------------------------------------------------------
# execution machinery
# ----------------------------------------------------------------------

def _is_picklable(payload: object) -> bool:
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def _run_one_seed(payload: tuple) -> tuple:
    """Run one seed end to end; never raises for per-run errors.

    Module-level so the process pool can pickle it by reference.  The
    traceback is captured inside the worker, where the frames still
    exist, and shipped back as a string.  When telemetry is requested, a
    recorder scoped to ``"<label>/seed<n>"`` is installed for the run and
    its events ship back as plain picklable data.

    When the payload carries fault specs, a :class:`FaultInjector` keyed
    by the seed is built first: executor chaos (slow run, injected
    worker crash) applies before the simulation, and the injector is
    installed on the simulator for in-run faults.
    """
    seed, label, simulator_factory, collect_telemetry, faults = payload
    started = time.perf_counter()
    recorder = (
        TelemetryRecorder(scope=f"{label}/seed{int(seed)}")
        if collect_telemetry
        else None
    )
    previous_recorder = None
    if recorder is not None:
        previous_recorder = set_recorder(recorder)
    try:
        injector = None
        if faults:
            injector = FaultInjector(seed=int(seed), specs=faults)
            delay_s = injector.chaos_delay_s()
            if delay_s > 0.0:
                time.sleep(delay_s)
            if injector.chaos_crash():
                raise InjectedWorkerCrash(
                    f"injected worker crash (seed {int(seed)})"
                )
        simulator: FaultTarget = simulator_factory(int(seed))
        if injector is not None:
            simulator.install_fault_injector(injector)
        metrics = simulator.run().metrics()
    except Exception as error:  # per-seed fault tolerance
        return (
            "failure",
            RunFailure(
                seed=int(seed),
                error=repr(error),
                traceback=traceback.format_exc(),
                elapsed_s=time.perf_counter() - started,
                kind="crash" if isinstance(error, InjectedWorkerCrash) else "error",
            ),
        )
    finally:
        if recorder is not None:
            set_recorder(previous_recorder)
    run_events = None if recorder is None else tuple(recorder.events)
    return (
        "success",
        int(seed),
        metrics,
        time.perf_counter() - started,
        run_events,
    )


def _resolve_backend(spec: EnsembleSpec) -> str:
    if spec.workers <= 1 or len(spec.seeds) <= 1:
        return "serial"
    if not _is_picklable(spec.simulator_factory):
        warnings.warn(
            f"ensemble {spec.label!r}: simulator_factory is not picklable "
            "(closure/lambda?); falling back to serial execution. "
            "Use module-level functions or functools.partial to enable "
            f"workers={spec.workers}.",
            RuntimeWarning,
            stacklevel=3,
        )
        return "serial"
    return "process"


def _crash(seed: int, error: str) -> tuple:
    return (
        "failure",
        RunFailure(
            seed=int(seed), error=error, traceback="", elapsed_s=0.0,
            kind="crash",
        ),
    )


def _run_process_batch(
    items: Sequence[Tuple[int, tuple]],
    workers: int,
) -> Dict[int, tuple]:
    """Run ``(index, payload)`` items on a process pool.

    Returns one outcome per index.  The pool holds at most ``workers``
    seeds at once.  When a worker dies, the broken pool fails every seed
    it held: each is a ``crash`` failure, and nothing re-runs it here or
    in the caller.  The seeds not yet submitted run on a fresh pool.  A
    ``KeyboardInterrupt`` cancels all queued work and *waits* for the
    pool to drain before re-raising, so no orphaned workers survive.
    """
    results: Dict[int, tuple] = {}
    queue = list(items)
    while queue:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            held: Dict[object, Tuple[int, tuple]] = {}
            broken = False
            try:
                while held or (queue and not broken):
                    while queue and not broken and len(held) < workers:
                        try:
                            future = pool.submit(_run_one_seed, queue[0][1])
                        except BrokenProcessPool:
                            broken = True
                        else:
                            held[future] = queue.pop(0)
                    done, _ = wait(held, return_when=FIRST_COMPLETED)
                    for future in done:
                        index, payload = held.pop(future)
                        try:
                            results[index] = future.result()
                        except (KeyboardInterrupt, SystemExit):
                            raise
                        except BaseException as error:
                            # A broken pool (a worker died) or an
                            # exception that came back unpicklable.
                            broken |= isinstance(error, BrokenProcessPool)
                            results[index] = _crash(payload[0], repr(error))
            except (KeyboardInterrupt, SystemExit):
                pool.shutdown(wait=True, cancel_futures=True)
                raise
    return results


def execute_ensemble(spec: EnsembleSpec) -> EnsembleSummary:
    """Run every seed of ``spec`` once and summarize the distribution.

    Seeds run in parallel when ``spec.workers > 1`` (process pool), with
    results collected in seed order so the output is independent of the
    backend.  A seed-run that raises becomes a :class:`RunFailure`;
    nothing re-runs it, because a run is a pure function of its seed and
    would only replay the same failure.  When a pool worker dies, the
    seeds its pool held are ``crash`` failures and the rest run on a
    fresh pool.  Raises
    :class:`EnsembleError` when the failed fraction exceeds
    ``spec.max_failure_fraction`` or no run succeeded.
    """
    backend = _resolve_backend(spec)
    parent_recorder = get_recorder()
    collect_telemetry = parent_recorder.enabled
    actual_workers = (
        min(spec.workers, len(spec.seeds)) if backend == "process" else 1
    )
    started = time.perf_counter()

    items = [
        (
            index,
            (seed, spec.label, spec.simulator_factory, collect_telemetry,
             spec.faults),
        )
        for index, seed in enumerate(spec.seeds)
    ]
    if backend == "process":
        results = _run_process_batch(items, actual_workers)
    else:
        results = {index: _run_one_seed(payload) for index, payload in items}
    wall_time_s = time.perf_counter() - started

    metrics: List[LinkMetrics] = []
    run_events: List[Event] = []
    failures: List[RunFailure] = []
    run_times: List[float] = []
    for index in range(len(items)):
        outcome = results[index]
        if outcome[0] == "success":
            _, _, run_metrics, elapsed_s, events = outcome
            metrics.append(run_metrics)
            run_times.append(elapsed_s)
            if events is not None:
                run_events.extend(events)
        else:
            failures.append(outcome[1])
            run_times.append(outcome[1].elapsed_s)
    if collect_telemetry:
        # Per-seed logs flow back into the caller's trace, in seed order.
        parent_recorder.absorb(run_events)

    total = len(spec.seeds)
    fraction = len(failures) / total
    if not metrics or fraction > spec.max_failure_fraction:
        raise EnsembleError(spec.label, tuple(failures), total)

    stats = ExecutorStats(
        backend=backend,
        workers=actual_workers,
        total_runs=total,
        failed_runs=len(failures),
        wall_time_s=wall_time_s,
        run_times_s=tuple(run_times),
    )
    return EnsembleSummary(
        label=spec.label,
        metrics=tuple(metrics),
        failures=tuple(failures),
        stats=stats,
        telemetry=(
            TelemetrySummary.from_events(run_events)
            if collect_telemetry
            else None
        ),
    )


def parallel_map(
    function: Callable,
    items: Sequence,
    workers: int = 1,
    label: str = "parallel_map",
) -> list:
    """Ordered map over a process pool, with a deterministic serial path.

    The generic sibling of :func:`execute_ensemble` for experiment grids
    that are not seed ensembles (e.g. ablation cells).  Exceptions
    propagate — grid cells are not expendable the way ensemble seeds
    are.  Falls back to serial when ``workers <= 1``, for short inputs,
    or when ``function``/``items`` cannot be pickled.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        if _is_picklable((function, items)):
            with ProcessPoolExecutor(
                max_workers=min(workers, len(items))
            ) as pool:
                return list(pool.map(function, items, chunksize=1))
        warnings.warn(
            f"{label}: function or items are not picklable; "
            "falling back to serial execution.",
            RuntimeWarning,
            stacklevel=2,
        )
    return [function(item) for item in items]
