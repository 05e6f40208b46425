"""Structured link events with simulation-time timestamps.

Everything the maintenance machinery *does* — probes fired, per-beam
powers estimated, blockages detected and cleared, beams re-trained,
tracking realignments, MCS switches — becomes an :class:`Event` on an
:class:`EventLog`.  Events carry the *simulation* clock, not the wall
clock, so a trace lines up exactly with the SNR time series the
simulator records and with the paper's Fig. 16-18 timelines.

Events are plain picklable data: process-pool workers ship their logs
back to the parent through the ensemble executor unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
    overload,
)


class EventKind:
    """The event taxonomy (string constants, stable across versions)."""

    #: One or more reference-signal probes hit the air (SSB or CSI-RS).
    PROBE_TX = "probe_tx"
    #: Super-resolved per-beam powers from one maintenance sounding.
    PER_BEAM_POWER_ESTIMATE = "per_beam_power_estimate"
    #: A beam's power collapsed at blockage speed; it was dropped.
    BLOCKAGE_ONSET = "blockage_onset"
    #: A dropped beam's path returned; the beam was restored.
    BLOCKAGE_CLEARED = "blockage_cleared"
    #: A full beam-training episode (establishment or outage fallback).
    BEAM_RETRAIN = "beam_retrain"
    #: The mobility tracker realigned the multi-beam.
    TRACKING_UPDATE = "tracking_update"
    #: The link's decodable MCS changed between samples.
    MCS_SWITCH = "mcs_switch"
    #: One simulated run began / ended.
    RUN_START = "run_start"
    RUN_END = "run_end"
    #: A fault injector fired (probe loss, stuck elements, chaos, ...).
    FAULT_INJECTED = "fault_injected"
    #: A degenerate probe measurement was retried within the budget.
    PROBE_RETRY = "probe_retry"
    #: A consumer dropped to a degraded mode instead of failing.
    FALLBACK_ENGAGED = "fallback_engaged"
    #: The tracking-divergence watchdog forced a full retrain.
    WATCHDOG_TRIP = "watchdog_trip"
    #: A cell's slot plan was drawn up (network engine, per cell).
    SLOT_SCHEDULED = "slot_scheduled"
    #: Inter-cell interference was recomputed at an epoch boundary.
    INTERFERENCE_UPDATE = "interference_update"
    #: A user attached to / detached from a serving cell.
    USER_ATTACH = "user_attach"
    USER_DETACH = "user_detach"
    #: The job server accepted (or coalesced) a submission.
    JOB_SUBMITTED = "job_submitted"
    #: A job execution attempt began on a serving worker.
    JOB_STARTED = "job_started"
    #: A job (or un-admitted arrival) was shed under overload.
    JOB_SHED = "job_shed"
    #: A job reached a terminal state (succeeded or failed).
    JOB_COMPLETED = "job_completed"

    @classmethod
    def all(cls) -> Tuple[str, ...]:
        return tuple(
            value
            for name, value in vars(cls).items()
            if not name.startswith("_") and isinstance(value, str)
        )


#: Every kind the subsystem itself emits, for validation/filters.
KNOWN_KINDS: Tuple[str, ...] = EventKind.all()


@dataclass(frozen=True)
class Event:
    """One timestamped link event.

    ``time_s`` is simulation time within the run named by ``run``;
    ``fields`` holds the kind-specific payload (plain scalars, lists of
    scalars, or strings — anything JSON-serializable and picklable).
    """

    time_s: float
    kind: str
    run: str = ""
    fields: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("event kind must be non-empty")

    def to_dict(self) -> Dict[str, object]:
        """Flat dict form (stable key order) for JSONL export."""
        payload: Dict[str, object] = {
            "time_s": float(self.time_s),
            "kind": self.kind,
            "run": self.run,
        }
        payload.update(self.fields)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Event":
        """Inverse of :meth:`to_dict` (unknown keys become fields)."""
        reserved = {"time_s", "kind", "run"}
        return cls(
            time_s=float(payload["time_s"]),
            kind=str(payload["kind"]),
            run=str(payload.get("run", "")),
            fields={
                key: value
                for key, value in payload.items()
                if key not in reserved
            },
        )


class EventLog:
    """An append-only, iterable sequence of events."""

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._events: List[Event] = list(events)

    def append(self, event: Event) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @overload
    def __getitem__(self, index: int) -> Event: ...

    @overload
    def __getitem__(self, index: slice) -> List[Event]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Event, List[Event]]:
        return self._events[index]

    def filter(
        self, kind: Optional[str] = None, run: Optional[str] = None
    ) -> "EventLog":
        """Events matching the given kind and/or run."""
        return EventLog(
            event
            for event in self._events
            if (kind is None or event.kind == kind)
            and (run is None or event.run == run)
        )

    def kinds(self) -> Dict[str, int]:
        """Event counts by kind, in first-seen order."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def runs(self) -> Tuple[str, ...]:
        """Distinct run labels, in first-seen order."""
        seen: Dict[str, None] = {}
        for event in self._events:
            seen.setdefault(event.run)
        return tuple(seen)

    def by_run(self) -> Dict[str, "EventLog"]:
        """Events grouped by run label, preserving order."""
        groups: Dict[str, EventLog] = {}
        for event in self._events:
            groups.setdefault(event.run, EventLog()).append(event)
        return groups
