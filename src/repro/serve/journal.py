"""Persistent job journal: crash-safe JSONL log of every job transition.

The journal is the server's source of truth.  Every accepted submission
and every lifecycle transition appends exactly one JSON line, flushed
(and optionally fsynced) before the server acts on it, so a ``kill -9``
at any instant loses at most a transition that had not yet been
acknowledged.  On restart, :meth:`JobJournal.replay` folds the log back
into :class:`~repro.serve.jobs.JobRecord`s through
:meth:`~repro.serve.jobs.JobRecord.apply`, the fold the live server
commits every transition through:

* jobs whose last op is terminal (``done`` / ``shed``) are kept for
  result serving and idempotent resubmission;
* jobs that were ``pending`` are re-queued in submission order;
* jobs that were ``running`` when the process died are re-queued too —
  the execution may not have finished, so the server re-runs them
  (at-least-once execution, exactly-once *terminal state*).

A torn final line (the crash happened mid-write, so the line has no
newline) is dropped rather than poisoning the replay, and the first
append of the next session cuts it off the file before writing.  An
append that cannot reach the file (full disk, ``EIO``, permissions)
raises :class:`JournalFailure`, and so does every later append on the
same journal: no op can land after one that was lost.

Op vocabulary (one JSON object per line)::

    {"op": "submit", "id": ..., "key": ..., "t": ..., "job": {...}}
    {"op": "coalesce", "id": ..., "t": ...}
    {"op": "start", "id": ..., "attempt": n, "t": ...}
    {"op": "done", "id": ..., "state": "succeeded"|"failed", ..., "t": ...}
    {"op": "shed", "id": ..., "reason": ..., "t": ...}

Older servers also wrote ``{"op": "retry", ...}`` when they re-queued a
failed job for another attempt.  Replay still folds one into
``pending``, so a journal that ended mid-backoff resumes the job once.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.serve.jobs import JobRecord, JobSpec, JobState

__all__ = ["JobJournal", "JournalFailure", "replay_journal"]

_OPS = ("submit", "coalesce", "start", "done", "shed")


def _cut_torn_tail(path: str) -> None:
    """Cut a file that does not end in a newline back to its last one.

    Replay drops such a torn final line; appending after it would glue
    the next op onto the same physical line and corrupt the journal.
    """
    try:
        stream = open(path, "rb+")
    except FileNotFoundError:
        return
    with stream:
        size = stream.seek(0, os.SEEK_END)
        if size == 0:
            return
        stream.seek(size - 1)
        if stream.read(1) == b"\n":
            return
        stream.seek(0)
        stream.truncate(stream.read().rfind(b"\n") + 1)
        os.fsync(stream.fileno())


class JournalFailure(RuntimeError):
    """An append did not reach the journal; the journal takes no more."""


class JobJournal:
    """Append-only JSONL journal with crash-safe replay.

    Parameters
    ----------
    path:
        Journal file; created (with parent directories) on first append.
    sync:
        fsync after every append.  Leave on for real serving; tests and
        micro-benchmarks may disable it to measure pure queue overhead.
    """

    def __init__(self, path: str, sync: bool = True) -> None:
        self.path = str(path)
        self.sync = bool(sync)
        self._stream: Optional[TextIO] = None
        self._failure: Optional[JournalFailure] = None

    # ------------------------------------------------------------------
    # writing

    def _ensure_open(self) -> TextIO:
        if self._stream is None or self._stream.closed:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            _cut_torn_tail(self.path)
            self._stream = open(self.path, "a", encoding="utf-8")
        return self._stream

    def append(self, op: str, **fields: Any) -> None:
        """Durably append one op line; raises :class:`JournalFailure`
        when it cannot, and on every append after such a failure."""
        if op not in _OPS:
            raise ValueError(
                f"unknown journal op {op!r}; expected one of {', '.join(_OPS)}"
            )
        if self._failure is not None:
            raise JournalFailure(
                f"{self.path}: no appends after a failed one ({self._failure})"
            )
        record: Dict[str, Any] = {"op": op}
        record.update(fields)
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            stream = self._ensure_open()
            stream.write(line)
            stream.flush()
            if self.sync:
                os.fsync(stream.fileno())
        except OSError as error:
            self._failure = JournalFailure(
                f"cannot append to {self.path}: {error}"
            )
            raise self._failure from error

    def close(self) -> None:
        if self._stream is not None and not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # replay

    def read_ops(self) -> List[Dict[str, Any]]:
        """Every complete op line, tolerating a torn final line."""
        if not os.path.exists(self.path):
            return []
        ops: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as stream:
            lines = stream.readlines()
        for index, line in enumerate(lines):
            text = line.strip()
            if not text:
                continue
            if not line.endswith("\n"):
                # Torn tail from a crash mid-append: the op never fully
                # reached the file, so it was never acknowledged.
                break
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                raise ValueError(
                    f"{self.path}:{index + 1}: corrupt journal line"
                )
            if not isinstance(payload, dict) or "op" not in payload:
                raise ValueError(
                    f"{self.path}:{index + 1}: journal line missing op"
                )
            ops.append(payload)
        return ops

    def replay(self) -> Tuple[Dict[str, JobRecord], List[str]]:
        """Fold the log into records.

        Returns ``(records, resumable)`` where ``records`` maps job id to
        its reconstructed :class:`JobRecord` and ``resumable`` lists the
        ids that must be re-queued (last state pending *or* running), in
        original submission order.
        """
        records: Dict[str, JobRecord] = {}
        for payload in self.read_ops():
            job_id = str(payload.get("id", ""))
            if payload["op"] == "submit":
                job = dict(payload["job"])
                # Older journals may carry keys the job spec has lost:
                # "backend" (a compute backend to serve it),
                # "deadline_s" (a bound on the server's retry loop) and
                # "ensemble_retries" (the executor's seed-run retries).
                # None was part of the job key, so dropping them replays
                # the same job; new submissions naming them are still
                # rejected.
                job.pop("backend", None)
                job.pop("deadline_s", None)
                job.pop("ensemble_retries", None)
                records[job_id] = JobRecord(
                    job_id=job_id,
                    key=str(payload["key"]),
                    spec=JobSpec.from_dict(job),
                    submitted_at_s=float(payload.get("t", 0.0)),
                )
            elif job_id in records:
                records[job_id].apply(payload)
            else:
                raise ValueError(
                    f"{self.path}: op {payload['op']!r} for unknown job "
                    f"{job_id!r}"
                )
        resumable = [
            job_id for job_id, record in records.items() if not record.terminal
        ]
        # A job that died mid-run resumes as pending.
        for job_id in resumable:
            records[job_id].state = JobState.PENDING
        return records, resumable


def replay_journal(path: str) -> Tuple[Dict[str, JobRecord], List[str]]:
    """One-shot :meth:`JobJournal.replay` without keeping a writer open."""
    return JobJournal(path, sync=False).replay()
