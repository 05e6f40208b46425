"""The time-stepped link simulator.

Drives any beam manager (mmReliable's :class:`MultiBeamManager` or a
baseline) over a scenario:

* the **sample clock** (default 1 ms) records the true link SNR through
  the manager's current weights — the ground truth for metrics;
* the **maintenance clock** (default one CSI-RS opportunity every 5 ms)
  invokes the manager's ``step`` so it can observe and react.

The beam-manager contract
-------------------------
A manager provides ``establish(channel, time_s)``, ``step(channel,
time_s)`` returning the action the round took as a string (``"none"``
when it did nothing), ``current_weights()`` or its own
``link_snr_db(channel)``, and the attributes ``sounder``, ``budget`` (a
:class:`~repro.phy.reference_signals.ProbeBudget`), ``training_rounds``
and ``training_windows``.  The simulator records every action but
``"none"`` on the trace; everything else a round measured or decided is
recorded only in the telemetry event stream.  Training windows are
charged as link-unavailable time, so reactive baselines pay for their
re-scans exactly as in the paper.  Under a scoped fault injector
(:func:`repro.faults.use_injector`), the simulator asks it once per
maintenance round whether the round's report was lost; a lost report
records ``feedback_dropout`` instead of calling ``step``, for every
manager alike.

Weight spans
------------
Weights only change at establish/step.  The simulator keeps one
**weight record** per link (:attr:`SimulationTrace.weight_record`): the
sample index at which each new ``manager.current_weights()`` vector
takes effect (kept by reference, so a manager must not modify a vector
it handed out), or ``None`` while the link is not established.  Each span
of constant weights is evaluated when it closes, with one
``sounder.link_snr_db_batch`` call per ``MAX_BATCH_SAMPLES``-aligned
chunk piece; ``None`` spans read ``-inf``.  With a telemetry recorder
installed (so ``mcs_switch`` events keep their place) or a scenario
without ``channel_batch`` (whose stacked per-sample channels may be
ragged), evaluation also stops at every segment end, which moves
neither the values nor the record.  Managers that define their own
``link_snr_db`` (a receive beam, several gNBs) are sampled one sample
at a time and keep no record.  A run keeps the latest ``(t, channel)``
it read, so where samples read ``channel_at`` (such managers, and
scenarios without ``channel_batch``) a maintenance tick's channel also
serves the first sample of its segment: one channel per instant.

Against a plain per-sample loop (the test oracle
``tests/sim/link_oracle.py``) the batched math agrees to floating-point
tolerance (see ``repro.channel.batch``), and maintenance timing, RNG
draw order, telemetry event order, and establish/step error handling
agree exactly.  A batched evaluation that raises fails the run.

Maintenance ticks are derived from an integer tick counter (the
threshold is always ``tick * maintenance_period_s``), not by repeatedly
adding the period, so long runs cannot drift off the sample grid through
float accumulation.

Comparisons
-----------
The paper's figures compare systems that face the same mobility and
blockage.  :class:`LinkComparison` is one seed of such a comparison: it
builds the seed's scenario once and runs each system's
:class:`LinkSimulator` over one :func:`~repro.sim.scenarios.memoize_channels`
memo of it in turn, so each channel is computed once per seed rather
than once per system.  Each system's link is otherwise the run it would
be alone (:func:`build_link_simulator`): its own manager, its own fault
injector and its own telemetry scope, so its trace and events are
bitwise the standalone run's.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults import FaultInjector, get_injector, use_injector
from repro.phy.mcs import NR_MCS_TABLE, select_mcs_indices
from repro.sim.metrics import LinkMetrics
from repro.sim.scenarios import memoize_channels
from repro.telemetry import (
    EventKind,
    TelemetryRecorder,
    get_recorder,
    use_recorder,
)

#: Upper bound on samples evaluated by one batched SNR call, which keeps
#: the intermediate ``(T, F, L)`` rotation tensor's footprint bounded.
MAX_BATCH_SAMPLES = 4096


@dataclass(frozen=True)
class SimulationTrace:
    """Everything one simulated run recorded."""

    times_s: np.ndarray
    snr_db: np.ndarray
    actions: Tuple[Tuple[float, str], ...]
    training_windows: Tuple[Tuple[float, float], ...]
    training_rounds: int
    probe_airtime_s: float
    bandwidth_hz: float
    #: ``(start_s, end_s)`` intervals during which the control loop was
    #: broken (establish/step raised) and the simulator carried on with
    #: whatever weights it had.  Empty on a healthy run.
    degraded_windows: Tuple[Tuple[float, float], ...] = ()
    #: ``(start sample index, transmit weights or None)`` per span of
    #: constant weights, in order; ``None`` while not established.
    weight_record: Tuple[Tuple[int, Optional[np.ndarray]], ...] = ()

    def weights_at(self, index: int) -> Optional[np.ndarray]:
        """Transmit weights in effect at sample ``index`` (or ``None``)."""
        starts = [start for start, _ in self.weight_record]
        span = bisect.bisect_right(starts, int(index)) - 1
        return self.weight_record[span][1] if span >= 0 else None

    @property
    def degraded_time_s(self) -> float:
        """Total time spent in degraded (control-loop-down) intervals."""
        return float(sum(end - start for start, end in self.degraded_windows))

    def metrics(self, outage_threshold_db: Optional[float] = None) -> LinkMetrics:
        """Summarize the trace into the paper's metrics."""
        kwargs = {}
        if outage_threshold_db is not None:
            kwargs["outage_threshold_db"] = outage_threshold_db
        return LinkMetrics.from_trace(
            self.times_s,
            self.snr_db,
            self.bandwidth_hz,
            unavailable_windows=self.training_windows,
            training_rounds=self.training_rounds,
            probe_airtime_s=self.probe_airtime_s,
            **kwargs,
        )


def build_link_simulator(
    scenario_factory: Callable[[int], object],
    manager_factory: Callable[[int], object],
    duration_s: float,
    seed: int,
) -> "LinkSimulator":
    """Module-level simulator factory for link ensemble specs.

    ``functools.partial(build_link_simulator, scenario_factory,
    manager_factory, duration_s)`` is picklable whenever both factories
    are, so link ensembles can use the executor's process pool.  The
    scenario is built before the manager, and both receive the seed.
    """
    scenario = scenario_factory(int(seed))
    return LinkSimulator(
        scenario=scenario,
        manager=manager_factory(int(seed)),
        duration_s=duration_s,
    )


@dataclass
class LinkSimulator:
    """Runs one manager over one scenario."""

    scenario: object  # anything exposing channel_at(time_s)
    manager: Any  # the beam-manager contract (module docstring)
    duration_s: float = 1.0
    sample_period_s: float = 1e-3
    maintenance_period_s: float = 5e-3

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.maintenance_period_s < self.sample_period_s:
            raise ValueError(
                "maintenance_period_s must be >= sample_period_s"
            )

    def run(self) -> SimulationTrace:
        """Establish at t=0, then sample and maintain until the horizon.

        A control-loop failure (establish or step raising) degrades the
        run instead of aborting it: the interval is recorded on
        ``degraded_windows``, the link reads as down (or coasts on its
        last weights), and establishment is re-attempted at every
        maintenance opportunity until it succeeds.
        """
        times = np.arange(0.0, self.duration_s, self.sample_period_s)
        snr = np.empty(times.shape)
        actions: List[Tuple[float, str]] = []
        degraded: List[Tuple[float, float]] = []
        degraded_since: Optional[float] = None

        recorder = get_recorder()
        tracing = recorder.enabled
        if tracing:
            recorder.begin_run(type(self.manager).__name__, time_s=0.0)
        injector = get_injector()
        last_mcs: Optional[int] = None

        def enter_degraded(time_s: float, stage: str, error: Exception) -> None:
            nonlocal degraded_since
            if degraded_since is not None:
                return
            degraded_since = time_s
            actions.append((time_s, f"degraded:{stage}"))
            if tracing:
                recorder.emit(
                    EventKind.FALLBACK_ENGAGED,
                    time_s,
                    fallback="simulator_degraded",
                    stage=stage,
                    error=repr(error),
                )

        def exit_degraded(time_s: float) -> None:
            nonlocal degraded_since
            if degraded_since is None:
                return
            degraded.append((degraded_since, time_s))
            degraded_since = None

        # The latest (t, channel): a tick's channel is read again by the
        # segment's per-sample evaluation, which starts at the tick.
        latest: Optional[Tuple[float, Any]] = None

        def channel_at(t: float) -> Any:
            nonlocal latest
            if latest is None or latest[0] != t:
                latest = (t, self.scenario.channel_at(t))
            return latest[1]

        established = False
        initial = channel_at(0.0)
        try:
            self.manager.establish(initial, time_s=0.0)
            established = True
        except Exception as error:
            enter_degraded(0.0, "establish", error)

        def maintain(index: int) -> None:
            nonlocal established
            t = float(times[index])
            channel = channel_at(t)
            try:
                if not established:
                    self.manager.establish(channel, time_s=t)
                    established = True
                elif injector is not None and injector.feedback_dropped(t):
                    # The round's SNR/CQI report never arrived: hold every
                    # decision (acting on a missing report would be guessing).
                    actions.append((t, "feedback_dropout"))
                else:
                    action = self.manager.step(channel, time_s=t)
                    if action != "none":
                        actions.append((t, action))
            except Exception as error:
                enter_degraded(
                    t, "step" if established else "establish", error
                )
            else:
                exit_degraded(t)

        def trace_mcs(start: int, end: int) -> None:
            nonlocal last_mcs
            indices = select_mcs_indices(snr[start:end])
            previous = -1 if last_mcs is None else last_mcs
            changed = np.flatnonzero(
                np.concatenate(
                    ([indices[0] != previous], indices[1:] != indices[:-1])
                )
            )
            for offset in changed:
                index = int(indices[offset])
                entry = None if index < 0 else NR_MCS_TABLE[index]
                recorder.emit(
                    EventKind.MCS_SWITCH,
                    float(times[start + offset]),
                    mcs=-1 if entry is None else entry.index,
                    modulation=(
                        "outage" if entry is None else entry.modulation
                    ),
                    snr_db=float(snr[start + offset]),
                )
            tail = int(indices[-1])
            last_mcs = None if tail < 0 else tail

        per_sample = hasattr(self.manager, "link_snr_db")
        flush_each_segment = tracing or not hasattr(
            self.scenario, "channel_batch"
        )
        record: List[Tuple[int, Optional[np.ndarray]]] = []
        evaluated = 0  # snr[:evaluated] is filled
        chunk_cache: dict = {}

        def flush(end: int) -> None:
            nonlocal evaluated
            if evaluated < end:
                self._span_snr(
                    times, snr, evaluated, end, record[-1][1], chunk_cache,
                    channel_at,
                )
                evaluated = end

        def open_span(index: int) -> None:
            weights = self.manager.current_weights() if established else None
            current = record[-1][1] if record else None
            if record and (weights is current or (
                weights is not None and current is not None
                and np.array_equal(weights, current)
            )):
                return
            flush(index)
            record.append((index, weights))

        boundaries = self._maintenance_boundaries(times)
        starts = [0] + boundaries
        ends = boundaries + [times.shape[0]]
        for segment, (start, end) in enumerate(zip(starts, ends)):
            if segment > 0:
                maintain(start)
            if per_sample and established:
                self._sample_snr(times, snr, start, end, channel_at)
            elif per_sample:
                snr[start:end] = -np.inf
            else:
                open_span(start)
                if flush_each_segment:
                    flush(end)
            if tracing:
                trace_mcs(start, end)
        if not per_sample:
            flush(times.shape[0])

        exit_degraded(float(self.duration_s))
        probe_airtime = self.manager.budget.airtime_s()
        if tracing:
            recorder.end_run(
                float(self.duration_s),
                samples=len(times),
                actions=len(actions),
                mean_snr_db=float(np.mean(snr)) if len(snr) else 0.0,
                probe_airtime_s=float(probe_airtime),
            )
        return SimulationTrace(
            times_s=times,
            snr_db=snr,
            actions=tuple(actions),
            training_windows=tuple(self.manager.training_windows),
            training_rounds=self.manager.training_rounds,
            probe_airtime_s=probe_airtime,
            bandwidth_hz=self.manager.sounder.config.bandwidth_hz,
            degraded_windows=tuple(degraded),
            weight_record=tuple(record),
        )

    def _maintenance_boundaries(self, times: np.ndarray) -> List[int]:
        """Sample indices at which maintenance fires, in order.

        Reproduces the per-sample rule exactly: tick ``k`` fires at the
        first not-yet-consumed sample whose time reaches ``k * period``;
        at most one tick fires per sample.
        """
        boundaries: List[int] = []
        tick = 1
        while True:
            threshold = tick * self.maintenance_period_s
            index = int(np.searchsorted(times, threshold, side="left"))
            if boundaries and index <= boundaries[-1]:
                index = boundaries[-1] + 1
            if index >= times.shape[0]:
                return boundaries
            boundaries.append(index)
            tick += 1

    def _span_snr(
        self,
        times: np.ndarray,
        snr: np.ndarray,
        start: int,
        end: int,
        weights: Optional[np.ndarray],
        chunk_cache: dict,
        channel_at: Callable[[float], Any],
    ) -> None:
        """Fill ``snr[start:end]`` through constant transmit ``weights``.

        Channel parameters (and the weight-independent response tensors)
        are built once per chunk and shared across the spans inside it
        as slice views.  A scenario without ``channel_batch`` is read
        sample by sample through ``channel_at``.
        """
        if weights is None:
            snr[start:end] = -np.inf
            return
        sounder = self.manager.sounder
        batched_scenario = hasattr(self.scenario, "channel_batch")
        position = start
        while position < end:
            chunk = position // MAX_BATCH_SAMPLES
            chunk_lo = chunk * MAX_BATCH_SAMPLES
            chunk_hi = min(chunk_lo + MAX_BATCH_SAMPLES, times.shape[0])
            sub_end = min(end, chunk_hi)
            if batched_scenario:
                if chunk not in chunk_cache:
                    # Spans consume chunks in time order; older chunks
                    # are never revisited, so keep only one.
                    chunk_cache.clear()
                    batch = self.scenario.channel_batch(
                        times[chunk_lo:chunk_hi]
                    )
                    batch.precompute(sounder.config.frequency_grid())
                    chunk_cache[chunk] = batch
                channels = chunk_cache[chunk].sliced(
                    position - chunk_lo, sub_end - chunk_lo
                )
            else:
                channels = [
                    channel_at(float(t)) for t in times[position:sub_end]
                ]
            snr[position:sub_end] = sounder.link_snr_db_batch(
                channels, weights
            )
            position = sub_end

    def _sample_snr(
        self,
        times: np.ndarray,
        snr: np.ndarray,
        start: int,
        end: int,
        channel_at: Callable[[float], Any],
    ) -> None:
        """Fill ``snr[start:end]`` with one ``link_snr_db`` call per sample.

        A failing ``link_snr_db`` reads as ``-inf``; a failing
        ``channel_at`` propagates.
        """
        for index in range(start, end):
            channel = channel_at(float(times[index]))
            try:
                snr[index] = self.manager.link_snr_db(channel)
            except Exception:
                snr[index] = -np.inf


def build_link_comparison(
    scenario_factory: Callable[[int], object],
    systems: Sequence[Tuple[str, Callable[[int], object]]],
    duration_s: float,
    seed: int,
) -> "LinkComparison":
    """Module-level seed-run factory for comparison ensemble specs.

    ``systems`` is ``((label, manager_factory), ...)``.
    ``functools.partial(build_link_comparison, scenario_factory, systems,
    duration_s)`` is picklable whenever the factories are, so
    comparisons can use the executor's process pool.  The scenario is
    built here; each manager is built when its system's turn comes.
    """
    return LinkComparison(
        scenario=scenario_factory(int(seed)),
        systems=tuple(systems),
        duration_s=duration_s,
        seed=int(seed),
    )


@dataclass(frozen=True)
class ComparisonTrace:
    """Each compared system's trace of one seed, in system order."""

    traces: Tuple[SimulationTrace, ...]

    def metrics(self) -> Tuple[LinkMetrics, ...]:
        """Each system's :class:`LinkMetrics`, in system order."""
        return tuple(trace.metrics() for trace in self.traces)


@dataclass
class LinkComparison:
    """Runs every compared system's link over one seed's scenario.

    Implements the executor's simulator contract (``run()`` returning a
    trace with ``metrics()``), like
    :class:`~repro.network.simulator.NetworkSimulator`.
    """

    scenario: object
    systems: Tuple[Tuple[str, Callable[[int], object]], ...]
    duration_s: float = 1.0
    seed: int = 0

    def run(self) -> ComparisonTrace:
        """Run the systems in order over one memo of the seed's channels.

        Under a scoped fault injector each system's link runs under its
        own ``FaultInjector(seed, specs)`` with the same campaign:
        injector streams are stateful (one draw per probe or round), so
        each system draws the fault schedule it would draw alone.  Under
        an enabled recorder each system records into its own recorder
        scoped ``"<label>/seed<n>"``, whose events are then absorbed
        into the active one, so every run label reads as it would in a
        one-system ensemble labelled ``label``.
        """
        channels = memoize_channels(self.scenario)
        outer = get_recorder()
        campaign = get_injector()
        traces: List[SimulationTrace] = []
        for label, manager_factory in self.systems:
            recorder = (
                TelemetryRecorder(scope=f"{label}/seed{self.seed}")
                if outer.enabled
                else outer
            )
            injector = (
                None
                if campaign is None
                else FaultInjector(seed=campaign.seed, specs=campaign.specs)
            )
            with use_recorder(recorder), use_injector(injector):
                traces.append(
                    LinkSimulator(
                        scenario=channels,
                        manager=manager_factory(self.seed),
                        duration_s=self.duration_s,
                    ).run()
                )
            if outer.enabled:
                outer.absorb(recorder.events)
        return ComparisonTrace(traces=tuple(traces))
