"""Bounded priority queue with admission control and graceful shedding.

The multi-beam link survives a blockage because redundancy is budgeted
*before* the blocker arrives; the serving layer survives overload the
same way — by deciding, at admission time, which work it will not do.
The policy, cheapest rejection first:

1. **Soft shedding** — above ``shed_threshold`` occupancy, arrivals in
   every class below :data:`PROTECTED_PRIORITY` (everything but
   ``interactive``) are rejected immediately with a structured
   :class:`~repro.serve.jobs.ServiceOverload`.  Rejecting an un-queued
   job costs one hash and one JSON line; rejecting it later costs a
   queue slot, journal traffic, and a worker slot.
2. **Eviction** — when the queue is *full* and a strictly more urgent
   job arrives, the worst queued job (lowest class, newest arrival) is
   shed to make room.  The evicted job gets a terminal ``shed`` state,
   not silence.
3. **Hard rejection** — when the queue is full and nothing on it is
   less urgent than the arrival, the arrival is rejected.

FIFO order is preserved within a priority class, so shedding never
reorders the work it keeps.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Tuple

from repro.serve.jobs import PRIORITIES, JobRecord, ServiceOverload

__all__ = ["AdmissionQueue", "PROTECTED_PRIORITY"]

#: The worst class still admitted during soft shedding.
PROTECTED_PRIORITY = "interactive"


def _rank(priority: str) -> int:
    return PRIORITIES.index(priority)


class AdmissionQueue:
    """Synchronous queue core (the server wraps it with asyncio).

    Parameters
    ----------
    maxsize:
        Hard queue bound; admission beyond it requires an eviction.
    shed_threshold:
        Occupancy fraction in ``(0, 1]`` at which soft shedding of
        classes below :data:`PROTECTED_PRIORITY` begins.
    """

    def __init__(self, maxsize: int = 64, shed_threshold: float = 0.75) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize!r}")
        if not 0.0 < shed_threshold <= 1.0:
            raise ValueError(
                f"shed_threshold must be in (0, 1], got {shed_threshold!r}"
            )
        self.maxsize = int(maxsize)
        self.shed_threshold = float(shed_threshold)
        self._sequence = itertools.count()
        #: Min-heap of (priority_rank, seq, record); lazily pruned of
        #: entries whose record was evicted.
        self._heap: List[Tuple[int, int, JobRecord]] = []
        self._evicted: set = set()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[JobRecord]:
        """Queued records, in dequeue order (for inspection only)."""
        for rank, seq, record in sorted(self._heap):
            if id(record) not in self._evicted:
                yield record

    @property
    def occupancy(self) -> float:
        return self._live / self.maxsize

    def _push(self, record: JobRecord) -> None:
        heapq.heappush(
            self._heap,
            (_rank(record.spec.priority), next(self._sequence), record),
        )
        self._live += 1

    def _evict_worst_below(self, rank: int) -> Optional[JobRecord]:
        """Shed the least urgent, newest queued record worse than rank."""
        worst: Optional[Tuple[int, int, JobRecord]] = None
        for entry in self._heap:
            if id(entry[2]) in self._evicted:
                continue
            if entry[0] <= rank:
                continue
            if worst is None or (entry[0], entry[1]) > (worst[0], worst[1]):
                worst = entry
        if worst is None:
            return None
        self._evicted.add(id(worst[2]))
        self._live -= 1
        return worst[2]

    def offer(self, record: JobRecord) -> Optional[JobRecord]:
        """Admit ``record`` or raise :class:`ServiceOverload`.

        Returns the job *evicted* to make room, if any, so the caller
        can journal its shed transition and notify its submitters.
        """
        rank = _rank(record.spec.priority)
        if (
            self._live < self.maxsize
            and self.occupancy >= self.shed_threshold
            and rank > _rank(PROTECTED_PRIORITY)
        ):
            raise ServiceOverload(
                reason=(
                    f"queue at {self.occupancy:.0%} occupancy; shedding "
                    f"{record.spec.priority!r} arrivals"
                ),
                queue_depth=self._live,
                queue_limit=self.maxsize,
            )
        evicted: Optional[JobRecord] = None
        if self._live >= self.maxsize:
            evicted = self._evict_worst_below(rank)
            if evicted is None:
                raise ServiceOverload(
                    reason=(
                        "queue full and no queued job is less urgent than "
                        f"a {record.spec.priority!r} arrival"
                    ),
                    queue_depth=self._live,
                    queue_limit=self.maxsize,
                )
        self._push(record)
        return evicted

    def requeue(self, record: JobRecord) -> None:
        """Put a replayed job back, bypassing admission control.

        A job resumed from the journal is not new load — it was already
        admitted and its capacity accounted for — so it must never be
        shed at this gate (it can still lose an eviction fight to a more
        urgent arrival).
        """
        self._push(record)

    def pop(self) -> Optional[JobRecord]:
        """The most urgent queued record, or ``None`` when empty."""
        while self._heap:
            _rank_, _seq, record = heapq.heappop(self._heap)
            if id(record) in self._evicted:
                self._evicted.discard(id(record))
                continue
            self._live -= 1
            return record
        return None
