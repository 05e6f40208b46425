"""The telemetry recorder and the thread-scoped current-recorder slot.

Instrumented hot paths (`sim.link`, `core.maintenance`, the baselines,
...) fetch the active recorder with :func:`get_recorder` and bail out on
``recorder.enabled`` — with telemetry off that is one thread-local lookup
and one attribute check, so the simulator's numeric behaviour and its
wall time are untouched.  Enabling telemetry is scoped::

    with use_recorder(TelemetryRecorder()) as recorder:
        LinkSimulator(...).run()
    print(recorder.summary().describe())

Each thread has its own slot, so serve-layer jobs on worker threads
never see each other's recorders; the executor scopes a recorder around
each seed-run (inside a pool worker too) and ships the captured events
back to the parent as plain data.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Protocol

from repro.telemetry.events import Event, EventKind, EventLog
from repro.telemetry.summary import TelemetrySummary


class RecorderLike(Protocol):
    """The structural interface instrumentation sites program against.

    Both :class:`TelemetryRecorder` and :class:`NullRecorder` satisfy it;
    callers must branch on ``enabled`` before doing any work whose only
    purpose is feeding telemetry.
    """

    @property
    def enabled(self) -> bool: ...

    def emit(self, kind: str, time_s: float, **fields: object) -> None: ...

    def begin_run(self, label: str, time_s: float = 0.0) -> str: ...

    def end_run(self, time_s: float, **fields: object) -> None: ...


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    A single module-level instance backs every disabled code path, so
    "telemetry off" costs one attribute check per instrumentation site.
    """

    __slots__ = ()
    enabled = False

    def emit(self, kind: str, time_s: float, **fields: object) -> None:
        pass

    def begin_run(self, label: str, time_s: float = 0.0) -> str:
        return ""

    def end_run(self, time_s: float, **fields: object) -> None:
        pass


NULL_RECORDER = NullRecorder()


class TelemetryRecorder:
    """Collects events into an :class:`EventLog`.

    ``scope`` prefixes every run label this recorder opens (the ensemble
    executor scopes each worker recorder to ``"<label>/seed<n>"``), so
    merged traces stay attributable.
    """

    enabled = True

    def __init__(self, scope: str = "") -> None:
        self.scope = scope
        self.events = EventLog()
        self._run_sequence: Iterator[int] = itertools.count()
        self._current_run = scope

    @property
    def current_run(self) -> str:
        return self._current_run

    def emit(self, kind: str, time_s: float, **fields: object) -> None:
        """Record one event at simulation time ``time_s``."""
        self.events.append(
            Event(
                time_s=float(time_s),
                kind=kind,
                run=self._current_run,
                fields=fields,
            )
        )

    def begin_run(self, label: str, time_s: float = 0.0) -> str:
        """Open a run scope and emit its ``run_start`` event.

        Returns the full run label (unique within this recorder); all
        events emitted until :meth:`end_run` carry it.
        """
        sequence = next(self._run_sequence)
        name = f"{label}#{sequence}"
        self._current_run = f"{self.scope}:{name}" if self.scope else name
        self.emit(EventKind.RUN_START, time_s, label=label)
        return self._current_run

    def end_run(self, time_s: float, **fields: object) -> None:
        """Emit ``run_end`` and fall back to the recorder's base scope."""
        self.emit(EventKind.RUN_END, time_s, **fields)
        self._current_run = self.scope

    def absorb(self, events: Iterable[Event]) -> None:
        """Fold in events recorded elsewhere (e.g. by a pool worker)."""
        self.events.extend(events)

    def mark(self) -> int:
        """The current event count (for since-mark summaries)."""
        return len(self.events)

    def summary(self, since: int = 0) -> TelemetrySummary:
        """A :class:`TelemetrySummary` of the events after mark ``since``."""
        return TelemetrySummary.from_events(self.events[since:])


# The active recorder is thread-scoped: the serve layer runs jobs on
# worker threads, and a process-wide slot would let one job's
# use_recorder() clobber another's mid-flight.  Single-threaded callers
# see the old behavior unchanged, and process-pool ensemble workers each
# install their own recorder inside _run_one_seed.
_ACTIVE = threading.local()


def get_recorder() -> RecorderLike:
    """The active recorder on this thread (the null recorder by default)."""
    return getattr(_ACTIVE, "recorder", NULL_RECORDER)


def set_recorder(recorder: Optional[RecorderLike]) -> RecorderLike:
    """Install ``recorder`` (or the null recorder for ``None``).

    Returns the previously installed recorder so callers can restore it;
    prefer :func:`use_recorder` which does so automatically.
    """
    previous = getattr(_ACTIVE, "recorder", NULL_RECORDER)
    _ACTIVE.recorder = NULL_RECORDER if recorder is None else recorder
    return previous


@contextmanager
def use_recorder(recorder: RecorderLike) -> Iterator[RecorderLike]:
    """Scope ``recorder`` as the active recorder for a ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
