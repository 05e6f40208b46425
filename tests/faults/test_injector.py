"""Tests for the deterministic fault injector and its thread-scoped slot."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultSpec,
    InjectedWorkerCrash,
    get_injector,
    use_injector,
)
from repro.telemetry import TelemetryRecorder, use_recorder


def make_injector(*specs, seed=7):
    return FaultInjector(seed=seed, specs=specs)


def sample_csi(rng_seed=0, n=32):
    rng = np.random.default_rng(rng_seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def recording():
    """Scope a fresh recorder: fault events are the injector's only log."""
    return use_recorder(TelemetryRecorder())


def fired(recorder):
    """``(time_s, kind)`` of every ``fault_injected`` event, in order."""
    return [
        (event.time_s, event.fields["fault"])
        for event in recorder.events
        if event.kind == "fault_injected"
    ]


class TestConstruction:
    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_injector(
                FaultSpec(kind="probe_loss", rate=0.1),
                FaultSpec(kind="probe_loss", rate=0.2),
            )

    def test_non_spec_rejected(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultInjector(seed=0, specs=("probe_loss:0.1",))

    def test_rate_lookup(self):
        injector = make_injector(FaultSpec(kind="stale_csi", rate=0.3))
        assert injector.rate("stale_csi") == 0.3
        assert injector.rate("probe_loss") == 0.0


class TestZeroRateIsInert:
    """rate=0.0 must be bitwise identical to having no injector at all."""

    def test_filter_probe_passthrough(self):
        injector = make_injector(FaultSpec(kind="probe_loss", rate=0.0))
        csi = sample_csi()
        with recording() as recorder:
            out = injector.filter_probe(csi, time_s=0.0)
        np.testing.assert_array_equal(out, csi)
        assert fired(recorder) == []

    def test_no_rng_streams_materialize(self):
        injector = make_injector(
            FaultSpec(kind="probe_loss", rate=0.0),
            FaultSpec(kind="stuck_elements", rate=0.0),
        )
        injector.filter_probe(sample_csi())
        injector.apply_element_faults(np.ones(8, dtype=complex))
        injector.feedback_dropped()
        injector.chaos_delay_s()
        assert injector._rngs == {}

    def test_element_faults_return_same_object(self):
        injector = make_injector()
        weights = np.ones(8, dtype=complex)
        assert injector.apply_element_faults(weights) is weights


class TestDeterminism:
    SPECS = (
        FaultSpec(kind="probe_loss", rate=0.3),
        FaultSpec(kind="probe_corruption", rate=0.2),
    )

    def _schedule(self, seed, specs=SPECS, rounds=50):
        injector = FaultInjector(seed=seed, specs=specs)
        with recording() as recorder:
            for i in range(rounds):
                injector.filter_probe(sample_csi(i), time_s=i * 1e-3)
        return fired(recorder)

    def test_same_seed_same_schedule(self):
        assert self._schedule(seed=11) == self._schedule(seed=11)

    def test_different_seed_different_schedule(self):
        assert self._schedule(seed=11) != self._schedule(seed=12)

    def test_kind_streams_are_independent(self):
        # Adding a second kind must not shift the first kind's schedule.
        alone = self._schedule(5, (FaultSpec(kind="probe_loss", rate=0.3),))
        paired = self._schedule(5)
        losses = lambda log: [t for t, kind in log if kind == "probe_loss"]
        assert losses(alone) == losses(paired)


class TestProbeFaults:
    def test_loss_zeroes_csi(self):
        injector = make_injector(FaultSpec(kind="probe_loss", rate=1.0))
        with recording() as recorder:
            out = injector.filter_probe(sample_csi(), time_s=0.5)
        np.testing.assert_array_equal(out, np.zeros_like(out))
        assert fired(recorder) == [(0.5, "probe_loss")]

    def test_stale_serves_cached_snapshot(self):
        injector = make_injector(FaultSpec(kind="stale_csi", rate=1.0))
        first = sample_csi(0)
        second = sample_csi(1)
        with recording() as recorder:
            # No cache yet: the first snapshot passes through clean.
            out1 = injector.filter_probe(first, time_s=0.0)
            np.testing.assert_array_equal(out1, first)
            # The second sounding gets the stale copy of the first.
            out2 = injector.filter_probe(second, time_s=1e-3)
            np.testing.assert_array_equal(out2, first)
        assert fired(recorder) == [(1e-3, "stale_csi")]

    def test_corruption_scales_power(self):
        injector = make_injector(
            FaultSpec(kind="probe_corruption", rate=1.0,
                      params={"sigma_db": 6.0})
        )
        csi = sample_csi()
        out = injector.filter_probe(csi, time_s=0.0)
        # Pure per-snapshot scaling: same shape, proportional values.
        assert out.shape == csi.shape
        ratio = np.abs(out) / np.abs(csi)
        np.testing.assert_allclose(ratio, ratio[0])
        assert not np.allclose(out, csi)

    def test_loss_beats_corruption(self):
        injector = make_injector(
            FaultSpec(kind="probe_loss", rate=1.0),
            FaultSpec(kind="probe_corruption", rate=1.0),
        )
        out = injector.filter_probe(sample_csi(), time_s=0.0)
        np.testing.assert_array_equal(out, np.zeros_like(out))


class TestElementFaults:
    def test_all_stuck_at_value(self):
        injector = make_injector(
            FaultSpec(kind="stuck_elements", rate=1.0, params={"value": 0.0})
        )
        weights = np.ones(8, dtype=complex) / np.sqrt(8)
        out = injector.apply_element_faults(weights)
        np.testing.assert_array_equal(out, np.zeros(8))
        # Input untouched (defensive copy).
        assert np.all(weights != 0)

    def test_mask_is_stable_across_calls(self):
        injector = make_injector(FaultSpec(kind="stuck_elements", rate=0.5))
        weights = np.ones(16, dtype=complex)
        first = injector.apply_element_faults(weights)
        second = injector.apply_element_faults(weights)
        np.testing.assert_array_equal(first, second)

    def test_recorded_once(self):
        injector = make_injector(FaultSpec(kind="stuck_elements", rate=1.0))
        with recording() as recorder:
            for _ in range(3):
                injector.apply_element_faults(np.ones(8, dtype=complex))
        assert fired(recorder) == [(0.0, "stuck_elements")]


class TestControlPlaneFaults:
    def test_feedback_dropout(self):
        always = make_injector(FaultSpec(kind="feedback_dropout", rate=1.0))
        never = make_injector(FaultSpec(kind="feedback_dropout", rate=0.0))
        with recording() as recorder:
            assert always.feedback_dropped(time_s=0.1)
            assert not never.feedback_dropped(time_s=0.1)
        assert fired(recorder) == [(0.1, "feedback_dropout")]


class TestChaosFaults:
    def test_crash_fires_at_rate_one(self):
        injector = make_injector(FaultSpec(kind="worker_crash", rate=1.0))
        assert injector.chaos_crash()

    def test_slow_run_delay_param(self):
        injector = make_injector(
            FaultSpec(kind="slow_run", rate=1.0, params={"delay_s": 0.05})
        )
        assert injector.chaos_delay_s() == 0.05
        assert make_injector().chaos_delay_s() == 0.0

    def test_draws_cached_per_injector(self):
        injector = make_injector(FaultSpec(kind="worker_crash", rate=0.5))
        assert injector.chaos_crash() == injector.chaos_crash()

    def test_chaos_is_keyed_by_seed(self):
        # Chaos streams are keyed (salt, seed, kind) like every other
        # kind: a seed's crash decision never changes, and at rate 0.5
        # it varies across seeds.
        spec = FaultSpec(kind="worker_crash", rate=0.5)
        draws = [
            FaultInjector(seed=seed, specs=(spec,)).chaos_crash()
            for seed in range(16)
        ]
        assert set(draws) == {True, False}
        assert draws == [
            FaultInjector(seed=seed, specs=(spec,)).chaos_crash()
            for seed in range(16)
        ]

    def test_crash_event_names_no_attempt(self):
        injector = make_injector(FaultSpec(kind="worker_crash", rate=1.0))
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            assert injector.chaos_crash()
        (event,) = recorder.events
        assert event.fields == {"fault": "worker_crash"}

    def test_attempt_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="attempt"):
            FaultInjector(seed=3, specs=(), attempt=1)

    def test_injected_crash_is_runtime_error(self):
        assert issubclass(InjectedWorkerCrash, RuntimeError)


class TestTelemetry:
    def test_fault_events_and_counter(self):
        injector = make_injector(FaultSpec(kind="probe_loss", rate=1.0))
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            injector.filter_probe(sample_csi(), time_s=0.25)
        events = [e for e in recorder.events if e.kind == "fault_injected"]
        assert len(events) == 1
        assert events[0].fields["fault"] == "probe_loss"
        assert events[0].time_s == 0.25


def mobile_link_factory(seed, duration_s=0.1):
    """A short Fig. 18b/c mmReliable link seed-run (picklable partial)."""
    from repro.experiments.common import make_manager
    from repro.experiments.fig18_end2end import _mobile_scenario
    from repro.sim.link import build_link_simulator

    return build_link_simulator(
        partial(
            _mobile_scenario, speed_mps=1.5, blockage_depth_db=30.0,
            distance_m=25.0,
        ),
        partial(make_manager, "mmreliable"),
        duration_s,
        seed,
    )


def traced_run(seed, specs, barrier=None):
    """Run the seed's link under a fresh campaign (``None``: no injector).

    Returns the trace and the events.  With a ``barrier``, the run starts
    only once every party has scoped its own campaign, so concurrent
    runs overlap.
    """
    injector = None if specs is None else FaultInjector(seed, specs)
    with use_injector(injector), recording() as recorder:
        if barrier is not None:
            barrier.wait()
        trace = mobile_link_factory(seed).run()
    return trace, [(e.kind, e.time_s, e.fields) for e in recorder.events]


class TestSlot:
    """The active injector is thread-scoped, like the telemetry recorder."""

    def test_empty_outside_any_scope(self):
        assert get_injector() is None

    def test_scope_restores_the_previous_injector(self):
        outer = make_injector(FaultSpec(kind="probe_loss", rate=1.0))
        inner = make_injector(FaultSpec(kind="stale_csi", rate=1.0))
        with use_injector(outer):
            with use_injector(inner):
                assert get_injector() is inner
            with use_injector(None):
                assert get_injector() is None
            assert get_injector() is outer
        assert get_injector() is None

    def test_scope_restores_after_a_raise(self):
        injector = make_injector(FaultSpec(kind="worker_crash", rate=1.0))
        with pytest.raises(InjectedWorkerCrash):
            with use_injector(injector):
                raise InjectedWorkerCrash("inside the scope")
        assert get_injector() is None

    def test_sounder_reads_the_scoped_injector(self):
        from repro.arrays import UniformLinearArray
        from repro.phy.ofdm import ChannelSounder, OfdmConfig
        from repro.sim.scenarios import two_path_channel

        array = UniformLinearArray(num_elements=8)
        channel = two_path_channel(array)
        weights = np.ones(8, dtype=complex) / np.sqrt(8)
        sounder = ChannelSounder(config=OfdmConfig(num_subcarriers=64), rng=0)
        assert np.any(sounder.sound(channel, weights).csi != 0)
        with use_injector(make_injector(FaultSpec("probe_loss", 1.0))):
            lost = sounder.sound(channel, weights).csi
        np.testing.assert_array_equal(lost, np.zeros_like(lost))
        assert np.any(sounder.sound(channel, weights).csi != 0)

    def test_threads_scope_their_own_campaigns(self):
        # The serve layer runs jobs on worker threads: concurrent runs
        # under different campaigns (one under none) must each equal the
        # same run made alone on one thread.
        campaigns = (
            (FaultSpec("probe_loss", 0.3),),
            (FaultSpec("feedback_dropout", 0.3),
             FaultSpec("stuck_elements", 0.25)),
            None,
        )
        alone = [traced_run(0, specs) for specs in campaigns]
        assert len({repr(events) for _, events in alone}) == len(campaigns)
        barrier = threading.Barrier(len(campaigns), timeout=60)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(campaigns)) as pool:
                futures = [
                    pool.submit(traced_run, 0, specs, barrier)
                    for specs in campaigns
                ]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for (trace, events), (alone_trace, alone_events) in zip(
            results, alone
        ):
            assert trace.snr_db.tobytes() == alone_trace.snr_db.tobytes()
            assert trace.actions == alone_trace.actions
            assert events == alone_events
        assert get_injector() is None

    def test_serial_ensemble_scopes_each_seed(self):
        # Seed 1 crashes at this rate; its injector must not outlive its
        # run, and every surviving seed reads exactly its own campaign.
        from repro.sim.executor import EnsembleSpec, execute_ensemble

        faults = (
            FaultSpec("worker_crash", 0.3),
            FaultSpec("probe_loss", 0.3),
        )

        def ensemble(seeds):
            return execute_ensemble(
                EnsembleSpec(
                    label="slot",
                    simulator_factory=mobile_link_factory,
                    seeds=seeds,
                    max_failure_fraction=1.0,
                    faults=faults,
                )
            )

        summary = ensemble(range(4))
        assert get_injector() is None
        crashed = {failure.seed for failure in summary.failures}
        assert crashed == {1}
        assert all(f.kind == "crash" for f in summary.failures)
        survivors = [seed for seed in range(4) if seed not in crashed]
        assert summary.metrics == tuple(
            ensemble((seed,)).metrics[0] for seed in survivors
        )
