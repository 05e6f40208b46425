"""Unit tests for the recorder and the current-recorder slot."""

from repro.telemetry import (
    NULL_RECORDER,
    Event,
    TelemetryRecorder,
    get_recorder,
    set_recorder,
    use_recorder,
)


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.emit("probe_tx", 0.0, count=1)
        assert NULL_RECORDER.begin_run("x") == ""
        NULL_RECORDER.end_run(1.0)
        # Nothing above raised and nothing was stored anywhere.

    def test_is_the_default(self):
        assert get_recorder() is NULL_RECORDER


class TestCurrentSlot:
    def test_use_recorder_scopes_and_restores(self):
        recorder = TelemetryRecorder()
        assert get_recorder() is NULL_RECORDER
        with use_recorder(recorder) as active:
            assert active is recorder
            assert get_recorder() is recorder
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_exception(self):
        try:
            with use_recorder(TelemetryRecorder()):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_none_installs_null(self):
        previous = set_recorder(None)
        try:
            assert get_recorder() is NULL_RECORDER
        finally:
            set_recorder(previous)


class TestTelemetryRecorder:
    def test_emit_records_current_run(self):
        recorder = TelemetryRecorder()
        recorder.emit("probe_tx", 0.25, count=2)
        event = recorder.events[0]
        assert event == Event(
            time_s=0.25, kind="probe_tx", run="", fields={"count": 2}
        )

    def test_run_scoping_and_sequence(self):
        recorder = TelemetryRecorder()
        first = recorder.begin_run("Oracle", time_s=0.0)
        assert first == "Oracle#0"
        recorder.emit("mcs_switch", 0.1, mcs=5)
        recorder.end_run(1.0, samples=10)
        second = recorder.begin_run("Oracle", time_s=0.0)
        assert second == "Oracle#1"
        runs = [event.run for event in recorder.events]
        assert runs == ["Oracle#0", "Oracle#0", "Oracle#0", "Oracle#1"]
        assert recorder.events[0].kind == "run_start"
        assert recorder.events[2].kind == "run_end"

    def test_scope_prefixes_run_labels(self):
        recorder = TelemetryRecorder(scope="fig16/seed3")
        label = recorder.begin_run("MultiBeamManager")
        assert label == "fig16/seed3:MultiBeamManager#0"
        recorder.end_run(1.0)
        assert recorder.current_run == "fig16/seed3"

    def test_absorb_folds_in_foreign_events(self):
        recorder = TelemetryRecorder()
        foreign = (
            Event(time_s=0.0, kind="run_start", run="w/seed0:X#0"),
            Event(time_s=1.0, kind="run_end", run="w/seed0:X#0"),
        )
        recorder.absorb(foreign)
        assert len(recorder.events) == 2
        assert recorder.events[1].run == "w/seed0:X#0"

    def test_mark_and_since_summary(self):
        recorder = TelemetryRecorder()
        recorder.emit("probe_tx", 0.0)
        mark = recorder.mark()
        recorder.emit("mcs_switch", 0.1)
        summary = recorder.summary(since=mark)
        assert summary.num_events == 1
        assert summary.count("mcs_switch") == 1
        assert summary.count("probe_tx") == 0
