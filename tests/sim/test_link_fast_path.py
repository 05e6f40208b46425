"""Differential tests: the weight-span sample clock vs the per-sample oracle.

The contract (DESIGN.md, "Performance architecture"): the simulator must
reproduce the per-sample reference run (``link_oracle``) exactly up to
the documented BLAS-contraction tolerance — same maintenance instants,
same actions, same telemetry event stream, same weight record, same SNR
trace to 1e-9.  Managers that evaluate their own link (``link_snr_db``)
must match it bitwise.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import link_oracle as oracle
from repro.arrays.steering import single_beam_weights
from repro.channel.blockage import random_blockage_schedule
from repro.experiments.common import TESTBED_ULA, make_manager
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.phy.reference_signals import ProbeBudget
from repro.sim.link import MAX_BATCH_SAMPLES, LinkSimulator
from repro.sim.scenarios import SyntheticScenario, indoor_two_path_scenario
from repro.telemetry import TelemetryRecorder, use_recorder

# The directional-UE manager and channel of the integration suite (which
# imports its arrays and channel from the core suite).
_TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_TESTS / "integration"), str(_TESTS / "core")]
import test_directional_ue_sim as directional_ue  # noqa: E402

SYSTEMS = ("mmreliable", "reactive", "beamspy", "widebeam", "oracle")


def make_scenario(seed: int):
    schedule = random_blockage_schedule(
        num_paths=2,
        num_events=2,
        depth_db=30.0,
        rng=9000 + seed,
        block_strongest_only=True,
    )
    return indoor_two_path_scenario(
        TESTBED_ULA,
        translation_speed_mps=1.5,
        blockage=schedule,
        delta_db=-4.0,
        distance_m=25.0,
    )


def make_simulator(system: str, seed: int, duration_s: float = 0.2):
    return LinkSimulator(
        scenario=make_scenario(seed),
        manager=make_manager(system, seed=seed),
        duration_s=duration_s,
    )


def run_both(system: str, seed: int):
    """The shipped run and the per-sample oracle's, on fresh managers."""
    return (
        make_simulator(system, seed).run(),
        oracle.run_per_sample(make_simulator(system, seed)),
    )


class TestFastMatchesNaive:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_trace_equivalence(self, system):
        fast, naive = run_both(system, seed=3)
        np.testing.assert_array_equal(fast.times_s, naive.times_s)
        # -inf (outage / degraded) samples must agree exactly.
        np.testing.assert_array_equal(
            np.isneginf(fast.snr_db), np.isneginf(naive.snr_db)
        )
        finite = np.isfinite(naive.snr_db)
        np.testing.assert_allclose(
            fast.snr_db[finite], naive.snr_db[finite], rtol=1e-9
        )
        assert fast.actions == naive.actions
        assert fast.training_windows == naive.training_windows
        assert fast.training_rounds == naive.training_rounds
        assert fast.probe_airtime_s == naive.probe_airtime_s
        assert fast.degraded_windows == naive.degraded_windows

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seed_sweep_mmreliable(self, seed):
        fast, naive = run_both("mmreliable", seed=seed)
        np.testing.assert_allclose(
            np.nan_to_num(fast.snr_db, neginf=-1e9),
            np.nan_to_num(naive.snr_db, neginf=-1e9),
            rtol=1e-9,
            atol=1e-9,
        )
        assert fast.actions == naive.actions

    def test_telemetry_event_stream_identical(self):
        def traced(run):
            with use_recorder(TelemetryRecorder()) as recorder:
                run(make_simulator("mmreliable", seed=5))
                return list(recorder.events)

        fast_events = traced(LinkSimulator.run)
        naive_events = traced(oracle.run_per_sample)
        assert len(fast_events) == len(naive_events)
        for ours, theirs in zip(fast_events, naive_events):
            assert ours.kind == theirs.kind
            assert ours.time_s == theirs.time_s
            for key, value in theirs.fields.items():
                if isinstance(value, float):
                    # dB/gain fields pass through the batched contractions,
                    # which match the naive path to the last ulp only.
                    assert ours.fields[key] == pytest.approx(
                        value, rel=1e-9, abs=1e-9
                    )
                else:
                    assert ours.fields[key] == value

    def test_scenario_without_channel_batch_still_fast(self):
        scenario = make_scenario(2)

        class ShimScenario:
            """Only the plain channel_at protocol (compatibility shim)."""

            def channel_at(self, time_s):
                return scenario.channel_at(time_s)

        fast = LinkSimulator(
            scenario=ShimScenario(),
            manager=make_manager("oracle", seed=2),
            duration_s=0.1,
        ).run()
        naive = oracle.run_per_sample(
            LinkSimulator(
                scenario=scenario,
                manager=make_manager("oracle", seed=2),
                duration_s=0.1,
            )
        )
        np.testing.assert_allclose(fast.snr_db, naive.snr_db, rtol=1e-9)


class TestMaintenanceClock:
    def test_boundaries_match_naive_rule(self):
        simulator = LinkSimulator(
            scenario=make_scenario(0),
            manager=make_manager("oracle", seed=0),
            duration_s=1.0,
            sample_period_s=1e-3,
            maintenance_period_s=5e-3,
        )
        times = np.arange(0.0, 1.0, 1e-3)
        boundaries = simulator._maintenance_boundaries(times)

        expected = []
        tick = 1
        for i, t in enumerate(times):
            if t >= tick * 5e-3:
                expected.append(i)
                tick += 1
        assert boundaries == expected

    def test_no_float_accumulation_drift(self):
        # With the legacy next += period accumulation, 10k periods of
        # 1e-3 drift off the sample grid; the integer-tick rule cannot.
        simulator = LinkSimulator(
            scenario=make_scenario(0),
            manager=make_manager("oracle", seed=0),
            duration_s=10.0,
            sample_period_s=1e-3,
            maintenance_period_s=1e-3,
        )
        times = np.arange(0.0, 10.0, 1e-3)
        boundaries = simulator._maintenance_boundaries(times)
        # Every sample after t=0 is a maintenance opportunity.
        assert boundaries == list(range(1, times.shape[0]))

    def test_commensurate_periods_fire_once_per_period(self):
        simulator = LinkSimulator(
            scenario=make_scenario(0),
            manager=make_manager("oracle", seed=0),
            duration_s=0.5,
            sample_period_s=1e-3,
            maintenance_period_s=7e-3,
        )
        times = np.arange(0.0, 0.5, 1e-3)
        boundaries = simulator._maintenance_boundaries(times)
        assert len(boundaries) == len(set(boundaries))
        deltas = np.diff(times[boundaries])
        assert np.all(deltas >= 6e-3)


class TestBatchedManagerSnr:
    """The sounder's batched evaluator through each system's weights."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_link_snr_db_batch_matches_loop(self, system):
        scenario = make_scenario(1)
        manager = make_manager(system, seed=1)
        manager.establish(scenario.channel_at(0.0), time_s=0.0)
        weights = manager.current_weights()
        times = np.arange(0.0, 0.05, 1e-3)
        channels = [scenario.channel_at(float(t)) for t in times]
        batched = manager.sounder.link_snr_db_batch(channels, weights)
        looped = np.array(
            [manager.sounder.link_snr_db(c, weights) for c in channels]
        )
        np.testing.assert_allclose(batched, looped, rtol=1e-9)

    def test_link_snr_db_batch_accepts_channel_batch(self):
        scenario = make_scenario(1)
        manager = make_manager("mmreliable", seed=1)
        manager.establish(scenario.channel_at(0.0), time_s=0.0)
        weights = manager.current_weights()
        times = np.arange(0.0, 0.05, 1e-3)
        batch = scenario.channel_batch(times)
        batched = manager.sounder.link_snr_db_batch(batch, weights)
        looped = np.array(
            [
                manager.sounder.link_snr_db(
                    scenario.channel_at(float(t)), weights
                )
                for t in times
            ]
        )
        np.testing.assert_allclose(batched, looped, rtol=1e-9)


def count_batch_calls(manager):
    """Log the sample count of every ``link_snr_db_batch`` call."""
    sounder = manager.sounder
    original = sounder.link_snr_db_batch
    calls = []

    def counting(channels, tx_weights):
        calls.append(len(channels))
        return original(channels, tx_weights)

    sounder.link_snr_db_batch = counting
    return calls


class FixedBeam:
    """A manager whose transmit weights never change after establish."""

    def __init__(self, seed):
        self.sounder = ChannelSounder(
            config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
            rng=seed,
        )
        self.weights = single_beam_weights(TESTBED_ULA, 0.1)
        self.budget = ProbeBudget()
        self.training_rounds = 0
        self.training_windows = []

    def establish(self, channel, time_s=0.0):
        return None

    def step(self, channel, time_s):
        return "none"

    def current_weights(self):
        return self.weights


def segment_count(simulator, trace):
    return len(simulator._maintenance_boundaries(trace.times_s)) + 1


class TestWeightSpans:
    """One batched call per span of constant weights per chunk piece."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_one_batched_call_per_span(self, system):
        simulator = make_simulator(system, seed=3, duration_s=1.0)
        calls = count_batch_calls(simulator.manager)
        trace = simulator.run()
        starts = [start for start, _ in trace.weight_record]
        assert starts[0] == 0
        assert calls == list(np.diff(starts + [len(trace.times_s)]))
        if system == "oracle":
            # Genie weights are refreshed at every maintenance tick.
            assert len(calls) == segment_count(simulator, trace)
        else:
            assert len(calls) < segment_count(simulator, trace)

    def test_record_matches_per_sample_oracle(self):
        fast, naive = run_both("mmreliable", seed=3)
        assert [s for s, _ in fast.weight_record] == [
            s for s, _ in naive.weight_record
        ]
        for (_, ours), (_, theirs) in zip(
            fast.weight_record, naive.weight_record
        ):
            np.testing.assert_array_equal(ours, theirs)

    def test_long_span_splits_at_the_chunk_boundary(self):
        def run(recorder=None):
            simulator = LinkSimulator(
                scenario=make_scenario(0), manager=FixedBeam(0), duration_s=5.0
            )
            calls = count_batch_calls(simulator.manager)
            if recorder is None:
                return simulator.run(), calls, simulator
            with use_recorder(recorder):
                return simulator.run(), calls, simulator

        whole, calls, _ = run()
        samples = len(whole.times_s)
        assert samples > MAX_BATCH_SAMPLES
        assert len(whole.weight_record) == 1
        assert calls == [MAX_BATCH_SAMPLES, samples - MAX_BATCH_SAMPLES]
        # A recorder forces per-segment evaluation: same bits.
        per_segment, segment_calls, simulator = run(TelemetryRecorder())
        assert len(segment_calls) >= segment_count(simulator, whole)
        np.testing.assert_array_equal(whole.snr_db, per_segment.snr_db)


class TestEnsembleWorkers:
    def test_worker_counts_agree(self):
        from repro.experiments.fig18_end2end import run_mobile_ensembles

        serial = run_mobile_ensembles(
            seeds=range(2), duration_s=0.1, workers=1
        )
        parallel = run_mobile_ensembles(
            seeds=range(2), duration_s=0.1, workers=2
        )
        assert list(serial) == list(parallel) == list(SYSTEMS)
        for system in SYSTEMS:
            assert serial[system].metrics == parallel[system].metrics
            assert len(serial[system].metrics) == 2


class BatchCountingScenario:
    """A scenario that offers ``channel_batch`` and counts the calls."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.batches = 0

    def channel_at(self, time_s):
        return self.scenario.channel_at(time_s)

    def channel_batch(self, times_s):
        self.batches += 1
        return self.scenario.channel_batch(times_s)


class TestUnbatchedManagerMatchesOracle:
    """A manager that evaluates its own link (``link_snr_db``) is sampled
    one sample at a time inside each segment and keeps no weight record:
    bitwise the per-sample oracle's run."""

    def run_directional(self, run):
        rate = np.deg2rad(5.0)
        scenario = BatchCountingScenario(
            SyntheticScenario(
                base_channel=directional_ue.directional_channel(),
                angular_rates_rad_s=(rate, rate),
                aoa_rates_rad_s=(-rate, -rate),
            )
        )
        simulator = LinkSimulator(
            scenario=scenario,
            manager=directional_ue.make_manager(0),
            duration_s=0.4,
            maintenance_period_s=10e-3,
        )
        with use_recorder(TelemetryRecorder()) as recorder:
            trace = run(simulator)
            events = list(recorder.events)
        return trace, events, scenario.batches

    def test_directional_ue_run_is_bitwise_the_oracle(self):
        trace, events, batches = self.run_directional(LinkSimulator.run)
        expected, expected_events, _ = self.run_directional(
            oracle.run_per_sample
        )
        assert hasattr(directional_ue.DirectionalUeLinkManager, "link_snr_db")
        assert trace.weight_record == ()
        assert batches == 0
        np.testing.assert_array_equal(trace.times_s, expected.times_s)
        np.testing.assert_array_equal(trace.snr_db, expected.snr_db)
        assert trace.actions == expected.actions
        assert trace.degraded_windows == expected.degraded_windows
        assert len(events) > 2
        assert [
            (e.kind, e.time_s, e.fields) for e in events
        ] == [(e.kind, e.time_s, e.fields) for e in expected_events]
