"""Network simulator end-to-end: determinism, metrics, executor reuse."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.experiments.common import make_manager
from repro.network import (
    NetworkScenario,
    NetworkSimulator,
    build_network_simulator,
    row_of_cells,
)
from repro.sim.executor import EnsembleSpec, execute_ensemble
from repro.sim.link import LinkSimulator


def small_scenario(num_cells=2, num_users=4, duration_s=0.05):
    return NetworkScenario(
        cells=row_of_cells(num_cells),
        num_users=num_users,
        duration_s=duration_s,
    )


class TestRun:
    def test_smoke_and_shapes(self):
        scenario = small_scenario()
        trace = NetworkSimulator(scenario=scenario, seed=1).run()
        assert len(trace.user_traces) == 4
        assert len(trace.plans) == 2
        assert trace.penalties_db.shape == (
            4, trace.epoch_times_s.shape[0]
        )
        metrics = trace.metrics()
        assert metrics.num_users == 4
        assert 0.0 <= metrics.reliability <= 1.0
        assert metrics.cell_throughput_bps >= metrics.mean_throughput_bps
        assert metrics.product <= metrics.mean_throughput_bps

    def test_same_seed_bitwise_repeatable(self):
        scenario = small_scenario()
        first = NetworkSimulator(scenario=scenario, seed=7).run()
        second = NetworkSimulator(scenario=scenario, seed=7).run()
        for a, b in zip(first.user_traces, second.user_traces):
            np.testing.assert_array_equal(a.snr_db, b.snr_db)
        np.testing.assert_array_equal(
            first.penalties_db, second.penalties_db
        )

    def test_different_seeds_differ(self):
        scenario = small_scenario()
        first = NetworkSimulator(scenario=scenario, seed=0).run()
        second = NetworkSimulator(scenario=scenario, seed=1).run()
        assert any(
            not np.array_equal(a.snr_db, b.snr_db)
            for a, b in zip(first.user_traces, second.user_traces)
        )

    def test_growing_users_preserves_existing_placement(self):
        scenario = small_scenario(num_users=3)
        bigger = replace(scenario, num_users=6)
        small_batch = scenario.user_batch(9)
        big_batch = bigger.user_batch(9)
        np.testing.assert_array_equal(
            small_batch.positions_m, big_batch.positions_m[:3]
        )

    def test_attach_detach_events(self):
        from repro.telemetry import TelemetryRecorder, use_recorder

        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            NetworkSimulator(scenario=small_scenario(), seed=0).run()
        attaches = [
            e for e in recorder.events if e.kind == "user_attach"
        ]
        detaches = [
            e for e in recorder.events if e.kind == "user_detach"
        ]
        assert len(attaches) == 4
        assert len(detaches) == 4
        assert {e.fields["user"] for e in attaches} == set(range(4))


class TestMetricsAggregation:
    def test_user_values_back_the_aggregates(self):
        metrics = NetworkSimulator(
            scenario=small_scenario(), seed=3
        ).run().metrics()
        tputs = metrics.throughput_values_bps()
        rels = metrics.reliability_values()
        assert tputs.shape == (4,)
        assert metrics.mean_throughput_bps == pytest.approx(tputs.mean())
        assert metrics.cell_throughput_bps == pytest.approx(tputs.sum())
        assert metrics.reliability == pytest.approx(rels.mean())
        assert metrics.fairness > 0.9

    def test_ensemble_summary_compatible_attributes(self):
        metrics = NetworkSimulator(
            scenario=small_scenario(), seed=3
        ).run().metrics()
        for attribute in (
            "reliability",
            "mean_throughput_bps",
            "mean_spectral_efficiency",
            "mean_snr_db",
            "product",
            "training_rounds",
            "probe_airtime_s",
        ):
            assert np.isfinite(float(getattr(metrics, attribute)))


class TestExecutorReuse:
    def test_network_ensemble_through_executor(self):
        scenario = small_scenario(num_users=2)
        summary = execute_ensemble(
            EnsembleSpec(
                label="network",
                simulator_factory=partial(
                    build_network_simulator, scenario
                ),
                seeds=(0, 1, 2),
            )
        )
        assert len(summary.metrics) == 3
        assert summary.mean_reliability() > 0.0

    def test_parallel_matches_serial(self):
        scenario = small_scenario(num_users=2, duration_s=0.03)
        spec = EnsembleSpec(
            label="network",
            simulator_factory=partial(build_network_simulator, scenario),
            seeds=(0, 1, 2, 3),
        )
        serial = execute_ensemble(spec)
        parallel = execute_ensemble(replace(spec, workers=2))
        assert serial.throughput_values().tolist() == (
            parallel.throughput_values().tolist()
        )

    def test_fault_target_protocol(self):
        from repro.faults import FaultInjector, FaultSpec, FaultTarget

        simulator = NetworkSimulator(scenario=small_scenario(), seed=0)
        assert isinstance(simulator, FaultTarget)
        injector = FaultInjector(
            seed=0, specs=(FaultSpec(kind="probe_loss", rate=1.0),)
        )
        simulator.install_fault_injector(injector)
        simulator.run()
        # Probe faults actually fired inside the per-user links.
        assert any(kind == "probe_loss" for _, kind in injector.injected)


class TestSingleLinkDifferential:
    """A 1x1 network must be bitwise identical to LinkSimulator."""

    def test_trace_and_metrics_bitwise_identical(self):
        seed = 2
        network = NetworkScenario(
            cells=row_of_cells(1), num_users=1, duration_s=0.2
        )
        batch = network.user_batch(seed)
        link_trace = LinkSimulator(
            scenario=network.link_scenario(seed, batch, 0),
            manager=network.build_manager(seed, batch, 0),
            duration_s=network.duration_s,
            sample_period_s=network.sample_period_s,
            maintenance_period_s=network.maintenance_period_s,
        ).run()
        assert link_trace.actions  # the control loop acted
        net_trace = NetworkSimulator(scenario=network, seed=seed).run()
        user_trace = net_trace.user_traces[0]
        np.testing.assert_array_equal(link_trace.snr_db, user_trace.snr_db)
        np.testing.assert_array_equal(
            link_trace.times_s, user_trace.times_s
        )
        assert link_trace.actions == user_trace.actions
        assert link_trace.training_windows == user_trace.training_windows

        link_metrics = link_trace.metrics()
        net_metrics = net_trace.metrics()
        assert net_metrics.users[0].slot_share == 1.0
        for attribute in (
            "reliability",
            "mean_throughput_bps",
            "mean_spectral_efficiency",
            "mean_snr_db",
            "product",
        ):
            assert getattr(link_metrics, attribute) == getattr(
                net_metrics, attribute
            )
        assert link_metrics.training_rounds == net_metrics.training_rounds
        assert link_metrics.probe_airtime_s == net_metrics.probe_airtime_s


#: Every kind ``repro.experiments.common.make_manager`` builds.
MANAGER_KINDS = (
    "mmreliable", "mmreliable-static", "mmreliable-nocc",
    "mmreliable-notrack-nocc", "reactive", "beamspy", "widebeam", "oracle",
)


class TestManagerKinds:
    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_every_make_manager_kind_builds(self, kind):
        scenario = NetworkScenario(
            cells=row_of_cells(1, bandwidth_hz=100e6),
            num_users=1,
            manager_kind=kind,
            duration_s=0.02,
        )
        manager = scenario.build_manager(0, scenario.user_batch(0), 0)
        assert type(manager) is type(make_manager(kind, 0))
        assert manager.sounder.config.bandwidth_hz == 100e6
        trace = NetworkSimulator(scenario=scenario, seed=0).run()
        assert 0.0 <= trace.metrics().reliability <= 1.0


class TestScenarioValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError, match="at least one cell"):
            NetworkScenario(cells=(), num_users=1)
        with pytest.raises(ValueError, match="num_users"):
            NetworkScenario(cells=row_of_cells(1), num_users=0)
        with pytest.raises(ValueError, match="probe_slot_budget"):
            NetworkScenario(
                cells=row_of_cells(1), num_users=1, probe_slot_budget=0
            )
        with pytest.raises(ValueError, match="unknown manager kind"):
            scenario = NetworkScenario(
                cells=row_of_cells(1),
                num_users=1,
                manager_kind="nonsense",
            )
            batch = scenario.user_batch(0)
            scenario.build_manager(0, batch, 0)
