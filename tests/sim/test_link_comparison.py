"""One scenario per seed: a comparison seed-run against standalone links.

``LinkComparison`` builds a seed's scenario once and runs every compared
system's link over one channel memo of it.  Each system's trace, metrics
and telemetry events must be bitwise the run that system makes alone
(``build_link_simulator``, its own fault injector, a recorder scoped to
its label), and the seed's channels must be computed once per tick and
once per sample-clock chunk however many systems read them.
"""

import gc
import weakref
from functools import partial

import numpy as np
import pytest

from repro.arrays import UniformLinearArray
from repro.experiments import fig19_60ghz
from repro.experiments.common import make_manager
from repro.experiments.fig18_end2end import _mobile_scenario
from repro.faults import FaultInjector, FaultSpec, use_injector
from repro.sim.link import (
    MAX_BATCH_SAMPLES,
    LinkSimulator,
    build_link_comparison,
    build_link_simulator,
)
from repro.sim.scenarios import memoize_channels
from repro.telemetry import TelemetryRecorder, event_to_jsonable, use_recorder

#: Fig. 18b/c's systems and mobility + blockage scenario.
SYSTEMS = ("mmreliable", "reactive", "beamspy", "widebeam", "oracle")
MOBILE = partial(
    _mobile_scenario, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
)
FAULTS = (
    FaultSpec("probe_loss", 0.2),
    FaultSpec("feedback_dropout", 0.2),
    FaultSpec("stuck_elements", 0.1),
)


def fig18_systems():
    return tuple((kind, partial(make_manager, kind)) for kind in SYSTEMS)


def fig19_systems():
    array = UniformLinearArray(num_elements=8, carrier_frequency_hz=28e9)
    return tuple(
        (
            f"{kind}@28GHz",
            partial(make_manager, kind, array=array, bandwidth_hz=100e6),
        )
        for kind in ("beamspy", "mmreliable-static")
    )


def campaign(seed, faults):
    """Scope the seed-run's injector the way the executor does."""
    return use_injector(FaultInjector(seed, faults) if faults else None)


def standalone(scenario_factory, manager_factory, duration_s, seed, faults):
    simulator = build_link_simulator(
        scenario_factory, manager_factory, duration_s, seed
    )
    with campaign(seed, faults):
        return simulator.run()


def compared(scenario_factory, systems, duration_s, seed, faults):
    comparison = build_link_comparison(
        scenario_factory, systems, duration_s, seed
    )
    with campaign(seed, faults):
        return comparison.run()


def assert_same_trace(ours, theirs):
    assert np.array_equal(ours.times_s, theirs.times_s)
    assert ours.snr_db.tobytes() == theirs.snr_db.tobytes()
    assert ours.actions == theirs.actions
    assert ours.training_windows == theirs.training_windows
    assert ours.training_rounds == theirs.training_rounds
    assert ours.degraded_windows == theirs.degraded_windows
    assert ours.probe_airtime_s == theirs.probe_airtime_s
    assert len(ours.weight_record) == len(theirs.weight_record)
    for (start, weights), (other_start, other) in zip(
        ours.weight_record, theirs.weight_record
    ):
        assert start == other_start
        if weights is None or other is None:
            assert weights is None and other is None
        else:
            assert weights.tobytes() == other.tobytes()
    assert ours.metrics() == theirs.metrics()


class TestMatchesStandalone:
    @pytest.mark.parametrize("faults", [(), FAULTS], ids=["clean", "faulted"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fig18_systems(self, seed, faults):
        systems = fig18_systems()
        trace = compared(MOBILE, systems, 1.0, seed, faults)
        assert len(trace.traces) == len(systems)
        for (_, manager_factory), ours in zip(systems, trace.traces):
            theirs = standalone(MOBILE, manager_factory, 1.0, seed, faults)
            assert_same_trace(ours, theirs)
        assert trace.metrics() == tuple(t.metrics() for t in trace.traces)

    def test_geometric_scenario_without_channel_batch(self):
        scenario_factory = partial(fig19_60ghz._scenario, 28e9, 0.1)
        assert not hasattr(scenario_factory(0), "channel_batch")
        systems = fig19_systems()
        trace = compared(scenario_factory, systems, 0.5, 0, ())
        for (_, manager_factory), ours in zip(systems, trace.traces):
            theirs = standalone(scenario_factory, manager_factory, 0.5, 0, ())
            assert_same_trace(ours, theirs)

    def test_events_match_a_standalone_run_in_the_same_scope(self):
        seed = 1
        systems = fig18_systems()
        with use_recorder(TelemetryRecorder(scope="comparison")) as outer:
            compared(MOBILE, systems, 0.5, seed, FAULTS)
        for label, manager_factory in systems:
            alone = TelemetryRecorder(scope=f"{label}/seed{seed}")
            with use_recorder(alone):
                standalone(MOBILE, manager_factory, 0.5, seed, FAULTS)
            ours = [
                event_to_jsonable(event) for event in outer.events
                if event.run.startswith(f"{label}/")
            ]
            assert ours == [event_to_jsonable(e) for e in alone.events]
            assert ours[0]["run"].startswith(f"{label}/seed{seed}:")
        # Nothing is recorded outside the systems' own scopes.
        assert all(event.run.split("/")[0] in SYSTEMS for event in outer.events)


class ChannelCounter:
    """Delegates ``channel_at`` to a real scenario and records each time."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.channel_times = []

    @property
    def channel_at_calls(self):
        return len(self.channel_times)

    def channel_at(self, time_s):
        self.channel_times.append(time_s)
        return self.scenario.channel_at(time_s)


class CountingScenario(ChannelCounter):
    """A :class:`ChannelCounter` that also counts ``channel_batch``."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.channel_batch_calls = 0

    def channel_batch(self, times_s):
        self.channel_batch_calls += 1
        return self.scenario.channel_batch(times_s)


class TestChannelsComputedOnce:
    @pytest.mark.parametrize("count", [1, 5])
    def test_once_per_tick_and_chunk_whatever_the_system_count(self, count):
        duration_s = 4.5  # 900 maintenance instants, two sample chunks
        assert duration_s * 1e3 > MAX_BATCH_SAMPLES
        alone = CountingScenario(MOBILE(0))
        LinkSimulator(
            scenario=alone, manager=make_manager("oracle", 0),
            duration_s=duration_s,
        ).run()
        assert (alone.channel_at_calls, alone.channel_batch_calls) == (900, 2)
        shared = CountingScenario(MOBILE(0))
        build_link_comparison(
            lambda seed: shared, fig18_systems()[-count:], duration_s, 0
        ).run()
        assert shared.channel_at_calls == alone.channel_at_calls
        assert shared.channel_batch_calls == alone.channel_batch_calls

    def test_a_standalone_link_computes_each_instant_once(self):
        # Over a scenario without channel_batch every sample reads a
        # channel; the tick's channel also serves the segment's first
        # sample, and t=0 serves both establish and the first sample.
        scenario = ChannelCounter(fig19_60ghz._scenario(28e9, 0.1, 0))
        assert not hasattr(scenario.scenario, "channel_batch")
        (_, manager_factory), _ = fig19_systems()
        simulator = LinkSimulator(
            scenario=scenario, manager=manager_factory(0), duration_s=1.0
        )
        trace = simulator.run()
        assert scenario.channel_at_calls == 1000
        assert sorted(set(scenario.channel_times)) == trace.times_s.tolist()
        # Every sample reads what a freshly computed channel gives.
        fresh = fig19_60ghz._scenario(28e9, 0.1, 0)
        sounder = simulator.manager.sounder
        for index, t in enumerate(trace.times_s.tolist()):
            weights = trace.weights_at(index)
            expected = (
                -np.inf if weights is None
                else sounder.link_snr_db_batch([fresh.channel_at(t)], weights)[0]
            )
            assert trace.snr_db[index].hex() == float(expected).hex()

    def test_shared_batch_is_precomputed_once(self, monkeypatch):
        from repro.channel import batch as batch_module

        built = []
        original = batch_module.steering_vector

        def counting(array, angles):
            built.append(np.shape(angles))
            return original(array, angles)

        monkeypatch.setattr(batch_module, "steering_vector", counting)
        build_link_comparison(MOBILE, fig18_systems(), 0.2, 0).run()
        assert len(built) == 1

    def test_a_scenario_without_batches_gets_a_memo_without_batches(self):
        scenario = fig19_60ghz._scenario(28e9, 0.1, 0)
        assert not hasattr(memoize_channels(scenario), "channel_batch")
        assert hasattr(memoize_channels(MOBILE(0)), "channel_batch")

    def test_the_memo_dies_with_its_seed_run(self):
        # No reference cycle: dropping the seed-run frees its scenario
        # (and the memo over it) without a garbage collection.
        comparison = build_link_comparison(MOBILE, fig18_systems(), 0.1, 0)
        scenario = weakref.ref(comparison.scenario)
        gc.collect()
        gc.disable()
        try:
            trace = comparison.run()
            del comparison
            assert scenario() is None
        finally:
            gc.enable()
        assert len(trace.traces) == len(SYSTEMS)
