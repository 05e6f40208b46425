"""Unit tests for the telemetry digest."""

import pickle

from repro.telemetry import TelemetryRecorder, TelemetrySummary


def _recorder(scope=""):
    recorder = TelemetryRecorder(scope=scope)
    recorder.begin_run("X", time_s=0.0)
    recorder.emit("probe_tx", 0.1, count=1)
    recorder.end_run(1.0)
    return recorder


def _summary():
    return _recorder().summary()


class TestFromRecorder:
    def test_counts_events_and_runs(self):
        summary = _summary()
        assert summary.num_events == 3  # run_start, probe_tx, run_end
        assert summary.num_runs == 1
        assert summary.count("probe_tx") == 1

    def test_picklable(self):
        summary = _summary()
        assert pickle.loads(pickle.dumps(summary)) == summary


class TestFromEvents:
    def test_concatenated_streams_sum_counts_and_runs(self):
        events = list(_recorder("a/seed0").events) + list(
            _recorder("a/seed1").events
        )
        summary = TelemetrySummary.from_events(events)
        assert summary.num_events == 6
        assert summary.num_runs == 2
        assert summary.count("probe_tx") == 2

    def test_empty_stream_is_empty(self):
        summary = TelemetrySummary.from_events([])
        assert summary == TelemetrySummary()
        assert summary.num_events == 0


class TestDescribe:
    def test_empty(self):
        assert "no events" in TelemetrySummary().describe()

    def test_populated(self):
        text = _summary().describe()
        assert "3 events" in text
        assert "probe_tx=1" in text

    def test_top_kinds_ranked(self):
        summary = _summary()
        ranked = summary.top_kinds(limit=2)
        assert len(ranked) == 2
        assert ranked[0][1] >= ranked[1][1]
