"""Link-event tracing for the reproduction.

The event stream is the one telemetry record:

* an **event bus** — typed, simulation-time-stamped :class:`Event`
  records (``probe_tx``, ``blockage_onset``, ``beam_retrain``,
  ``mcs_switch``, ...) collected on an :class:`EventLog`, free when
  telemetry is disabled (the :class:`NullRecorder` backs every
  instrumentation site by default);
* **exporters** — JSONL trace files, the :class:`TelemetrySummary`
  digest (event counts by kind and run, derived from the events alone),
  and a human-readable timeline renderer.

Per-layer wall time is not recorded here; the repository benchmark
(``perfbench/``) measures it from outside ``src/``.

Quickstart::

    from repro.telemetry import TelemetryRecorder, use_recorder

    with use_recorder(TelemetryRecorder()) as recorder:
        LinkSimulator(scenario=..., manager=...).run()
    print(recorder.summary().describe())

or from the CLI: ``repro run fig16 --trace out.jsonl`` then
``repro trace out.jsonl``.
"""

from repro.telemetry.events import Event, EventKind, EventLog, KNOWN_KINDS
from repro.telemetry.export import (
    event_to_jsonable,
    read_events_jsonl,
    render_timeline,
    write_events_jsonl,
)
from repro.telemetry.recorder import (
    NULL_RECORDER,
    NullRecorder,
    RecorderLike,
    TelemetryRecorder,
    get_recorder,
    set_recorder,
    use_recorder,
)
from repro.telemetry.summary import TelemetrySummary

__all__ = [
    "Event",
    "EventKind",
    "EventLog",
    "KNOWN_KINDS",
    "NULL_RECORDER",
    "NullRecorder",
    "RecorderLike",
    "TelemetryRecorder",
    "TelemetrySummary",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "event_to_jsonable",
    "read_events_jsonl",
    "render_timeline",
    "write_events_jsonl",
]
