"""Tests for the deterministic fault injector."""

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    InjectedWorkerCrash,
)


def make_injector(*specs, seed=7):
    return FaultInjector(seed=seed, specs=specs)


def sample_csi(rng_seed=0, n=32):
    rng = np.random.default_rng(rng_seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


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

    def test_enabled_reflects_rates(self):
        assert not make_injector().enabled
        assert not make_injector(FaultSpec(kind="probe_loss", rate=0.0)).enabled
        assert make_injector(FaultSpec(kind="probe_loss", rate=0.1)).enabled

    def test_rate_lookup(self):
        injector = make_injector(FaultSpec(kind="stale_csi", rate=0.3))
        assert injector.rate("stale_csi") == 0.3
        assert injector.rate("probe_loss") == 0.0


class TestZeroRateIsInert:
    """rate=0.0 must be bitwise identical to having no injector at all."""

    def test_filter_probe_passthrough(self):
        injector = make_injector(FaultSpec(kind="probe_loss", rate=0.0))
        csi = sample_csi()
        out = injector.filter_probe(csi, time_s=0.0)
        np.testing.assert_array_equal(out, csi)
        assert injector.injected == []

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

    def _schedule(self, seed, rounds=50):
        injector = FaultInjector(seed=seed, specs=self.SPECS)
        for i in range(rounds):
            injector.filter_probe(sample_csi(i), time_s=i * 1e-3)
        return list(injector.injected)

    def test_same_seed_same_schedule(self):
        assert self._schedule(seed=11) == self._schedule(seed=11)

    def test_different_seed_different_schedule(self):
        assert self._schedule(seed=11) != self._schedule(seed=12)

    def test_kind_streams_are_independent(self):
        # Adding a second kind must not shift the first kind's schedule.
        alone = FaultInjector(
            seed=5, specs=(FaultSpec(kind="probe_loss", rate=0.3),)
        )
        paired = FaultInjector(seed=5, specs=self.SPECS)
        for i in range(50):
            alone.filter_probe(sample_csi(i), time_s=i * 1e-3)
            paired.filter_probe(sample_csi(i), time_s=i * 1e-3)
        losses = lambda log: [t for t, kind in log if kind == "probe_loss"]
        assert losses(alone.injected) == losses(paired.injected)


class TestProbeFaults:
    def test_loss_zeroes_csi(self):
        injector = make_injector(FaultSpec(kind="probe_loss", rate=1.0))
        out = injector.filter_probe(sample_csi(), time_s=0.5)
        np.testing.assert_array_equal(out, np.zeros_like(out))
        assert injector.injected == [(0.5, "probe_loss")]

    def test_stale_serves_cached_snapshot(self):
        injector = make_injector(FaultSpec(kind="stale_csi", rate=1.0))
        first = sample_csi(0)
        second = sample_csi(1)
        # No cache yet: the first snapshot passes through clean.
        out1 = injector.filter_probe(first, time_s=0.0)
        np.testing.assert_array_equal(out1, first)
        # The second sounding gets the stale copy of the first.
        out2 = injector.filter_probe(second, time_s=1e-3)
        np.testing.assert_array_equal(out2, first)
        assert ("stale_csi" in {kind for _, kind in injector.injected})

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
        for _ in range(3):
            injector.apply_element_faults(np.ones(8, dtype=complex))
        stuck = [kind for _, kind in injector.injected
                 if kind == "stuck_elements"]
        assert stuck == ["stuck_elements"]


class TestControlPlaneFaults:
    def test_feedback_dropout(self):
        always = make_injector(FaultSpec(kind="feedback_dropout", rate=1.0))
        never = make_injector(FaultSpec(kind="feedback_dropout", rate=0.0))
        assert always.feedback_dropped(time_s=0.1)
        assert not never.feedback_dropped(time_s=0.1)
        assert always.injected == [(0.1, "feedback_dropout")]


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
        from repro.telemetry import TelemetryRecorder, use_recorder

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
        from repro.telemetry import TelemetryRecorder, use_recorder

        injector = make_injector(FaultSpec(kind="probe_loss", rate=1.0))
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            injector.filter_probe(sample_csi(), time_s=0.25)
        events = [e for e in recorder.events if e.kind == "fault_injected"]
        assert len(events) == 1
        assert events[0].fields["fault"] == "probe_loss"
        assert events[0].time_s == 0.25

    def test_silent_without_recorder(self):
        injector = make_injector(FaultSpec(kind="probe_loss", rate=1.0))
        injector.filter_probe(sample_csi(), time_s=0.0)
        assert injector.injected  # log kept even when telemetry is off


def install_on_link(kind):
    """A link simulator over ``kind`` with a fresh injector installed."""
    from repro.experiments.common import make_manager
    from repro.sim.link import LinkSimulator
    from repro.sim.scenarios import indoor_two_path_scenario

    manager = make_manager(kind, seed=0)
    simulator = LinkSimulator(
        scenario=indoor_two_path_scenario(manager.array), manager=manager
    )
    injector = make_injector(FaultSpec(kind="probe_loss", rate=0.5))
    simulator.install_fault_injector(injector)
    return simulator, injector


class TestInstall:
    def test_wires_sounder_and_manager(self):
        # Probe faults ride the manager's sounder; the simulator keeps
        # the control-plane hook, so the manager carries none itself.
        simulator, injector = install_on_link("mmreliable")
        assert simulator.manager.sounder.fault_injector is injector
        assert simulator.fault_injector is injector
        assert not hasattr(simulator.manager, "fault_injector")

    def test_baseline_without_hooks_is_fine(self):
        # A baseline needs no hook of its own to get every fault kind.
        simulator, injector = install_on_link("oracle")
        assert simulator.manager.sounder.fault_injector is injector
        assert simulator.fault_injector is injector

    def test_link_simulator_is_a_fault_target(self):
        from repro.faults import FaultTarget

        simulator, injector = install_on_link("mmreliable")
        assert isinstance(simulator, FaultTarget)
        assert simulator.fault_injector is injector
