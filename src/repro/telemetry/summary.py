"""Aggregated telemetry: what happened, and how often.

A :class:`TelemetrySummary` is the picklable digest of an event stream:
the event count, the number of distinct runs, and event counts by kind.
It is built by :meth:`TelemetrySummary.from_events` alone, so a summary
always agrees with the events it digests — a live recorder's window, a
JSONL trace read back from disk, or the executor's per-seed worker
events concatenated in seed order (``EnsembleSummary.telemetry``).
Experiment runs attach theirs to ``ExperimentResult.telemetry``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set, Tuple

from repro.telemetry.events import Event


@dataclass(frozen=True)
class TelemetrySummary:
    """Digest of one event stream."""

    num_events: int = 0
    num_runs: int = 0
    event_counts: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "TelemetrySummary":
        """Count ``events`` by kind and by distinct run label."""
        counts: Dict[str, int] = {}
        runs: Set[str] = set()
        num_events = 0
        for event in events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
            runs.add(event.run)
            num_events += 1
        return cls(
            num_events=num_events, num_runs=len(runs), event_counts=counts
        )

    def count(self, kind: str) -> int:
        """Events of one kind."""
        return self.event_counts.get(kind, 0)

    def top_kinds(self, limit: int = 8) -> Tuple[Tuple[str, int], ...]:
        """The most frequent event kinds, descending."""
        ranked = sorted(
            self.event_counts.items(), key=lambda item: (-item[1], item[0])
        )
        return tuple(ranked[:limit])

    def describe(self) -> str:
        """One printable line (CLI and report output)."""
        if not self.num_events:
            return "telemetry: no events recorded"
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in self.top_kinds()
        )
        return (
            f"telemetry: {self.num_events} events across "
            f"{self.num_runs} run(s) [{kinds}]"
        )
