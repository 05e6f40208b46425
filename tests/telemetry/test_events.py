"""Unit tests for the event model and the event log."""

import pickle

import pytest

from repro.telemetry import Event, EventKind, EventLog, KNOWN_KINDS


class TestEventKind:
    def test_taxonomy_is_stable(self):
        assert EventKind.PROBE_TX == "probe_tx"
        assert EventKind.BLOCKAGE_ONSET == "blockage_onset"
        assert EventKind.BLOCKAGE_CLEARED == "blockage_cleared"
        assert EventKind.BEAM_RETRAIN == "beam_retrain"
        assert EventKind.TRACKING_UPDATE == "tracking_update"
        assert EventKind.MCS_SWITCH == "mcs_switch"
        assert EventKind.PER_BEAM_POWER_ESTIMATE == "per_beam_power_estimate"
        assert EventKind.RUN_START == "run_start"
        assert EventKind.RUN_END == "run_end"

    def test_all_lists_every_kind(self):
        kinds = EventKind.all()
        assert set(kinds) == set(KNOWN_KINDS)
        assert len(kinds) == 21
        assert len(set(kinds)) == len(kinds)


class TestEvent:
    def test_round_trips_through_dict(self):
        event = Event(
            time_s=0.005,
            kind=EventKind.PROBE_TX,
            run="fig16#0",
            fields={"probe": "ssb", "count": 3},
        )
        assert Event.from_dict(event.to_dict()) == event

    def test_dict_form_is_flat(self):
        event = Event(time_s=1.0, kind="probe_tx", fields={"count": 2})
        payload = event.to_dict()
        assert payload == {
            "time_s": 1.0, "kind": "probe_tx", "run": "", "count": 2
        }

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Event(time_s=0.0, kind="")

    def test_picklable(self):
        event = Event(time_s=0.1, kind="mcs_switch", fields={"mcs": 7})
        assert pickle.loads(pickle.dumps(event)) == event


class TestEventLog:
    def _log(self):
        log = EventLog()
        log.append(Event(time_s=0.0, kind="run_start", run="a#0"))
        log.append(Event(time_s=0.1, kind="probe_tx", run="a#0"))
        log.append(Event(time_s=0.0, kind="run_start", run="b#1"))
        log.append(Event(time_s=0.2, kind="probe_tx", run="b#1"))
        log.append(Event(time_s=0.3, kind="run_end", run="a#0"))
        return log

    def test_len_iter_getitem(self):
        log = self._log()
        assert len(log) == 5
        assert list(log)[0].kind == "run_start"
        assert log[1].kind == "probe_tx"
        assert [e.kind for e in log[1:3]] == ["probe_tx", "run_start"]

    def test_filter_by_kind_and_run(self):
        log = self._log()
        assert len(log.filter(kind="probe_tx")) == 2
        assert len(log.filter(run="a#0")) == 3
        assert len(log.filter(kind="probe_tx", run="b#1")) == 1

    def test_kinds_counts_in_first_seen_order(self):
        assert self._log().kinds() == {
            "run_start": 2, "probe_tx": 2, "run_end": 1
        }

    def test_runs_and_by_run(self):
        log = self._log()
        assert log.runs() == ("a#0", "b#1")
        groups = log.by_run()
        assert len(groups["a#0"]) == 3
        assert len(groups["b#1"]) == 2
