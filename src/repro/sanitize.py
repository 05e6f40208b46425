"""Runtime concurrency sanitizer — the dynamic counterpart of RL501/RL505.

The static analyzer (``tools/repro_lint``) proves what it can about
event-loop hygiene and shared-state races; this module catches what it
can't: blocking that only happens under real load, or that static
analysis cannot resolve.  It is **off by default** and costs nothing
when off — every probe is gated on :func:`enabled`, which reads
``REPRO_SANITIZE=1`` from the environment.

:class:`LoopLagMonitor` is a daemon heartbeat thread that posts a
timestamp onto the event loop with ``call_soon_threadsafe`` and measures
how long the loop took to service it.  A lag above
:data:`DEFAULT_THRESHOLD_S` seconds means *something blocked the loop* —
exactly the defect class RL501/RL505 flags statically — and files a
``loop_blocked`` report.

Reports accumulate in a process-wide, lock-guarded list.  The serve
layer starts a monitor in :meth:`JobServer.start`, folds
:func:`report_counts` into its stats payload, and the CI chaos-load
smoke (``REPRO_SANITIZE=1 scripts/load_test.py --smoke``) fails on any
report — so a regression that re-introduces loop blocking is caught
even if the static rules miss it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

__all__ = [
    "DEFAULT_THRESHOLD_S",
    "ENV_VAR",
    "LoopLagMonitor",
    "SanitizeReport",
    "clear_reports",
    "enabled",
    "record",
    "report_counts",
    "reports",
]

#: Environment switch; any of ``1/true/on/yes`` (case-insensitive) enables.
ENV_VAR = "REPRO_SANITIZE"

#: Seconds of event-loop unresponsiveness that counts as blocking.
DEFAULT_THRESHOLD_S = 0.25

_TRUTHY = frozenset({"1", "true", "on", "yes"})


def enabled() -> bool:
    """Whether the sanitizer is switched on for this process."""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


@dataclass(frozen=True)
class SanitizeReport:
    """One detected violation."""

    kind: str
    detail: str
    time_s: float

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "detail": self.detail, "t": self.time_s}


# Reports are appended from the heartbeat thread, the event loop, and
# test threads concurrently; every access goes through _REPORTS_LOCK.
_REPORTS: List[SanitizeReport] = []
_REPORTS_LOCK = threading.Lock()


def record(kind: str, detail: str) -> SanitizeReport:
    """File one violation report (thread-safe)."""
    report = SanitizeReport(
        kind=kind, detail=detail, time_s=time.monotonic()
    )
    with _REPORTS_LOCK:
        _REPORTS.append(report)
    return report


def reports() -> List[SanitizeReport]:
    """A point-in-time copy of every filed report."""
    with _REPORTS_LOCK:
        return list(_REPORTS)


def report_counts() -> Dict[str, int]:
    """Report tally per kind (empty when nothing fired)."""
    counts: Dict[str, int] = {}
    with _REPORTS_LOCK:
        for report in _REPORTS:
            counts[report.kind] = counts.get(report.kind, 0) + 1
    return counts


def clear_reports() -> None:
    """Drop all filed reports (test isolation)."""
    with _REPORTS_LOCK:
        _REPORTS.clear()


class LoopLagMonitor:
    """Heartbeat thread that detects a blocked asyncio event loop.

    Every ``interval_s`` the daemon thread stamps ``time.monotonic()``
    and schedules a callback on the target loop via
    ``call_soon_threadsafe``.  The callback measures the scheduling
    latency; anything above the threshold means the loop spent that
    long unable to run ready callbacks — i.e. a coroutine performed
    blocking work on-loop — and files a ``loop_blocked`` report.

    The monitor itself adds one trivial callback per interval and is
    safe to leave running for a process's whole lifetime.
    """

    def __init__(
        self,
        loop: "asyncio.AbstractEventLoop",
        threshold: float = DEFAULT_THRESHOLD_S,
        interval_s: float = 0.05,
        source: str = "",
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s!r}")
        self.loop = loop
        self.threshold = float(threshold)
        self.interval_s = float(interval_s)
        self.source = source
        self.beats = 0
        self.max_lag_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "LoopLagMonitor":
        if self._thread is not None:
            raise RuntimeError("monitor already started")
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-sanitize{'-' + self.source if self.source else ''}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- heartbeat thread side -----------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            sent_s = time.monotonic()
            try:
                self.loop.call_soon_threadsafe(self._measure, sent_s)
            except RuntimeError:
                # The loop closed under us; nothing left to watch.
                break

    # -- event-loop side -----------------------------------------------

    def _measure(self, sent_s: float) -> None:
        lag_s = time.monotonic() - sent_s
        self.beats += 1
        if lag_s > self.max_lag_s:
            self.max_lag_s = lag_s
        if lag_s > self.threshold:
            where = f" [{self.source}]" if self.source else ""
            record(
                "loop_blocked",
                f"event loop{where} unresponsive for {lag_s:.3f}s "
                f"(threshold {self.threshold:.3f}s): a coroutine is doing "
                f"blocking work on-loop",
            )
