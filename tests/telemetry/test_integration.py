"""End-to-end telemetry: instrumented simulator runs and the CLI.

Covers the acceptance contract: a traced run emits the taxonomy's load-
bearing kinds with monotone sim-time per run, tracing never perturbs the
simulated numbers, and the JSONL trace survives a round trip into the
timeline renderer.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import UniformLinearArray, uniform_codebook
from repro.baselines import ReactiveSingleBeam
from repro.beamtraining import ExhaustiveTrainer
from repro.core.maintenance import MultiBeamManager
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.link import LinkSimulator
from repro.telemetry import (
    EventKind,
    TelemetryRecorder,
    TelemetrySummary,
    read_events_jsonl,
    render_timeline,
    use_recorder,
    write_events_jsonl,
)

ARRAY = UniformLinearArray(num_elements=8)


def assert_same_record(ours, theirs):
    """Two traces hold the same weight record, bitwise."""
    assert [start for start, _ in ours.weight_record] == [
        start for start, _ in theirs.weight_record
    ]
    assert ours.weight_record
    for (_, a), (_, b) in zip(ours.weight_record, theirs.weight_record):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)


def make_sim(seed=0, duration=0.1, manager_cls=MultiBeamManager):
    from repro.sim.scenarios import indoor_two_path_scenario

    sounder = ChannelSounder(
        config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
        rng=seed,
    )
    trainer = ExhaustiveTrainer(
        codebook=uniform_codebook(ARRAY, 17), sounder=sounder
    )
    if manager_cls is MultiBeamManager:
        manager = MultiBeamManager(
            array=ARRAY, sounder=sounder, trainer=trainer, num_beams=2
        )
    else:
        manager = manager_cls(array=ARRAY, sounder=sounder, trainer=trainer)
    scenario = indoor_two_path_scenario(ARRAY)
    return LinkSimulator(
        scenario=scenario, manager=manager, duration_s=duration
    )


class TestInstrumentedRun:
    def test_expected_kinds_present(self):
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            make_sim().run()
        kinds = recorder.events.kinds()
        assert kinds[EventKind.RUN_START] == 1
        assert kinds[EventKind.RUN_END] == 1
        assert kinds[EventKind.PROBE_TX] > 0
        assert kinds[EventKind.BEAM_RETRAIN] >= 1
        assert kinds[EventKind.PER_BEAM_POWER_ESTIMATE] > 0
        assert kinds[EventKind.MCS_SWITCH] >= 1

    def test_run_label_names_the_manager(self):
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            make_sim().run()
            make_sim(manager_cls=ReactiveSingleBeam).run()
        assert recorder.events.runs() == (
            "MultiBeamManager#0", "ReactiveSingleBeam#1"
        )

    def test_tracing_does_not_perturb_results(self):
        plain = make_sim(seed=1).run()
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            traced = make_sim(seed=1).run()
        np.testing.assert_array_equal(plain.snr_db, traced.snr_db)
        assert plain.actions == traced.actions
        assert plain.training_rounds == traced.training_rounds
        assert plain.probe_airtime_s == traced.probe_airtime_s
        assert_same_record(plain, traced)

        # A recorder makes the simulator evaluate every segment as it
        # ends instead of every weight span as it closes: the numbers
        # and the weight record must not notice.
        from functools import partial

        from repro.experiments.common import make_manager
        from repro.experiments.fig18_end2end import _mobile_scenario
        from repro.network import NetworkScenario, NetworkSimulator, row_of_cells
        from repro.sim.link import build_link_simulator

        scenario = partial(
            _mobile_scenario, speed_mps=1.5, blockage_depth_db=30.0,
            distance_m=25.0,
        )
        for system in ("mmreliable", "reactive", "beamspy", "widebeam", "oracle"):
            build = partial(
                build_link_simulator, scenario, partial(make_manager, system),
                1.0, 3,
            )
            plain = build().run()
            with use_recorder(TelemetryRecorder()):
                traced = build().run()
            np.testing.assert_array_equal(plain.snr_db, traced.snr_db)
            assert plain.actions == traced.actions
            assert_same_record(plain, traced)

        network = NetworkScenario(
            cells=row_of_cells(2), num_users=4, duration_s=0.05
        )
        plain = NetworkSimulator(scenario=network, seed=1).run()
        with use_recorder(TelemetryRecorder()):
            traced = NetworkSimulator(scenario=network, seed=1).run()
        np.testing.assert_array_equal(plain.penalties_db, traced.penalties_db)
        for ours, theirs in zip(plain.user_traces, traced.user_traces):
            np.testing.assert_array_equal(ours.snr_db, theirs.snr_db)
            assert ours.actions == theirs.actions
            assert_same_record(ours, theirs)

    def test_untraced_run_records_nothing(self):
        recorder = TelemetryRecorder()
        make_sim().run()  # recorder never installed
        assert len(recorder.events) == 0

    def test_run_end_carries_sample_count(self):
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            make_sim().run()
        (run_end,) = recorder.events.filter(kind=EventKind.RUN_END)
        assert run_end.fields["samples"] == 100


class TestEventOrdering:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_sim_time_monotone_within_each_run(self, seed):
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            make_sim(seed=seed, duration=0.05).run()
        for run, log in recorder.events.by_run().items():
            times = [event.time_s for event in log]
            assert times == sorted(times), f"run {run} out of order"
            assert log[0].kind == EventKind.RUN_START
            assert log[-1].kind == EventKind.RUN_END


class TestTraceRoundTrip:
    def test_simulated_trace_survives_jsonl_and_renders(self):
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            make_sim().run()
        buffer = io.StringIO()
        count = write_events_jsonl(recorder.events, buffer)
        assert count == len(recorder.events)
        buffer.seek(0)
        parsed = read_events_jsonl(buffer)
        assert len(parsed) == count
        assert parsed.kinds() == recorder.events.kinds()
        text = render_timeline(parsed, limit=5)
        assert "MultiBeamManager#0" in text
        assert "probe_tx" in text


class TestExperimentAttach:
    def test_result_carries_summary_when_requested(self):
        from repro.experiments.registry import (
            ExperimentConfig,
            get_experiment,
        )

        experiment = get_experiment("fig16")
        with use_recorder(TelemetryRecorder()):
            result = experiment.run(ExperimentConfig())
        assert result.telemetry is not None
        assert result.telemetry.count(EventKind.BLOCKAGE_ONSET) > 0
        assert result.telemetry.count(EventKind.PROBE_TX) > 0

    def test_result_skips_summary_by_default(self):
        from repro.experiments.registry import get_experiment

        result = get_experiment("fig04").run()
        assert result.telemetry is None

    def test_two_runs_under_one_recorder_yield_equal_telemetry(self):
        # Each result digests only its own slice of the shared stream.
        from repro.experiments.registry import get_experiment

        experiment = get_experiment("fig16")
        with use_recorder(TelemetryRecorder()):
            first = experiment.run()
            second = experiment.run()
        assert first.telemetry is not None
        assert first.telemetry.count(EventKind.RUN_START) == 2
        assert second.telemetry == first.telemetry


class TestCli:
    def test_run_trace_then_render(self, tmp_path):
        from repro.cli import command_run, command_trace

        trace_path = tmp_path / "t.jsonl"
        out = io.StringIO()
        assert command_run("fig16", trace_path=str(trace_path), out=out) == 0
        assert "telemetry events" in out.getvalue()
        assert trace_path.exists()

        with open(trace_path, encoding="utf-8") as stream:
            events = read_events_jsonl(stream)
        kinds = events.kinds()
        for kind in (
            EventKind.PROBE_TX,
            EventKind.BLOCKAGE_ONSET,
            EventKind.BEAM_RETRAIN,
            EventKind.MCS_SWITCH,
        ):
            assert kinds[kind] > 0, kind

        rendered = io.StringIO()
        assert command_trace(str(trace_path), out=rendered) == 0
        assert "== run" in rendered.getvalue()

        filtered = io.StringIO()
        assert command_trace(
            str(trace_path), kind="blockage_onset", limit=2, out=filtered
        ) == 0
        assert "blockage_onset" in filtered.getvalue()

    def test_trace_file_summary_matches_live_recorder(self, tmp_path):
        import dataclasses
        import json

        from repro.cli import command_run

        trace_path = tmp_path / "t.jsonl"
        json_path = tmp_path / "r.json"
        assert command_run(
            "fig16",
            json_path=str(json_path),
            trace_path=str(trace_path),
            out=io.StringIO(),
        ) == 0
        with open(trace_path, encoding="utf-8") as stream:
            from_file = TelemetrySummary.from_events(read_events_jsonl(stream))
        live = json.loads(json_path.read_text())["telemetry"]
        assert live["num_events"] > 0
        assert dataclasses.asdict(from_file) == live

    def test_trace_missing_file_errors(self):
        from repro.cli import command_trace

        out = io.StringIO()
        assert command_trace("/nonexistent/x.jsonl", out=out) == 2
        assert "error" in out.getvalue()

    def test_parser_accepts_trace_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        run_args = parser.parse_args(
            ["run", "fig16", "--trace", "out.jsonl"]
        )
        assert run_args.trace_path == "out.jsonl"
        trace_args = parser.parse_args(
            ["trace", "out.jsonl", "--kind", "probe_tx", "--limit", "3"]
        )
        assert trace_args.trace_file == "out.jsonl"
        assert trace_args.kind == "probe_tx"
        assert trace_args.limit == 3
