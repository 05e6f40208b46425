"""Per-sample reference run of the link simulator (test-only oracle).

The library ships one sample clock: :meth:`LinkSimulator.run` keeps a
weight record per link and evaluates each span of constant transmit
weights in one batched call per chunk piece.  This is the loop it
replaced — one ``channel_at`` and one scalar SNR evaluation per sample
(``sounder.link_snr_db`` through ``current_weights()``, or the manager's
own ``link_snr_db`` when it has one), maintenance fired inline on that
same channel whenever the sample time reaches the next tick — kept here
so differential tests can pin the shipped clock against it.  It builds
its weight record sample by sample, reading ``current_weights()`` at
every established sample.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.faults import get_injector
from repro.phy.mcs import NR_MCS_TABLE, select_mcs_indices
from repro.sim.link import LinkSimulator, SimulationTrace
from repro.telemetry import EventKind, get_recorder


def run_per_sample(simulator: LinkSimulator) -> SimulationTrace:
    """Run ``simulator`` one sample at a time; same contract as ``run``."""
    scenario = simulator.scenario
    manager = simulator.manager
    times = np.arange(0.0, simulator.duration_s, simulator.sample_period_s)
    snr = np.empty(times.shape)
    actions: List[Tuple[float, str]] = []
    degraded: List[Tuple[float, float]] = []
    degraded_since: Optional[float] = None

    recorder = get_recorder()
    tracing = recorder.enabled
    if tracing:
        recorder.begin_run(type(manager).__name__, time_s=0.0)
    last_mcs: Optional[int] = None
    own_link = hasattr(manager, "link_snr_db")
    record: List[Tuple[int, Optional[np.ndarray]]] = []

    def note_weights(index: int, weights: Optional[np.ndarray]) -> None:
        if record:
            current = record[-1][1]
            if weights is current or (
                weights is not None
                and current is not None
                and np.array_equal(weights, current)
            ):
                return
        record.append((index, weights))

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

    established = False
    initial = scenario.channel_at(0.0)
    try:
        manager.establish(initial, time_s=0.0)
        established = True
    except Exception as error:
        enter_degraded(0.0, "establish", error)

    injector = get_injector()

    def maintain(t: float, channel) -> None:
        nonlocal established
        try:
            if not established:
                manager.establish(channel, time_s=t)
                established = True
            elif injector is not None and injector.feedback_dropped(t):
                actions.append((t, "feedback_dropout"))
            else:
                action = manager.step(channel, time_s=t)
                if action != "none":
                    actions.append((t, action))
        except Exception as error:
            enter_degraded(t, "step" if established else "establish", error)
        else:
            exit_degraded(t)

    def trace_mcs(index: int) -> None:
        nonlocal last_mcs
        mcs = int(select_mcs_indices(snr[index:index + 1])[0])
        previous = -1 if last_mcs is None else last_mcs
        if mcs != previous:
            entry = None if mcs < 0 else NR_MCS_TABLE[mcs]
            recorder.emit(
                EventKind.MCS_SWITCH,
                float(times[index]),
                mcs=-1 if entry is None else entry.index,
                modulation="outage" if entry is None else entry.modulation,
                snr_db=float(snr[index]),
            )
        last_mcs = None if mcs < 0 else mcs

    tick = 1
    for i, t in enumerate(times):
        channel = scenario.channel_at(float(t))
        if t >= tick * simulator.maintenance_period_s:
            maintain(float(t), channel)
            tick += 1
        if not established:
            if not own_link:
                note_weights(i, None)
            snr[i] = -np.inf
        elif own_link:
            try:
                snr[i] = manager.link_snr_db(channel)
            except Exception:
                snr[i] = -np.inf
        else:
            weights = manager.current_weights()
            note_weights(i, weights)
            snr[i] = manager.sounder.link_snr_db(channel, weights)
        if tracing:
            trace_mcs(i)

    exit_degraded(float(simulator.duration_s))
    probe_airtime = manager.budget.airtime_s()
    if tracing:
        recorder.end_run(
            float(simulator.duration_s),
            samples=len(times),
            actions=len(actions),
            mean_snr_db=float(np.mean(snr)) if len(snr) else 0.0,
            probe_airtime_s=float(probe_airtime),
        )
    return SimulationTrace(
        times_s=times,
        snr_db=snr,
        actions=tuple(actions),
        training_windows=tuple(manager.training_windows),
        training_rounds=manager.training_rounds,
        probe_airtime_s=probe_airtime,
        bandwidth_hz=manager.sounder.config.bandwidth_hz,
        degraded_windows=tuple(degraded),
        weight_record=tuple(record),
    )
