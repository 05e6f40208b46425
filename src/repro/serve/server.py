"""The asyncio job server: accept, queue, execute, shed, stream.

One event loop owns all bookkeeping (queue, records, journal order);
job execution happens on a thread pool via ``run_in_executor`` (and
from there on the ensemble executor's process pool), so a slow or
crashing job never blocks admission.  Journal appends — each one a
flush + fsync — run on a dedicated single-thread executor so the disk
never stalls the event loop either: in-memory state transitions are
applied *before* the append is awaited (late arrivals always observe
consistent records), appends retire in submission order (one journal
thread, FIFO), and acknowledgements are only sent once the fsync has
returned.  The reliability ledger:

* **Durability** — every transition is journaled (flushed + fsynced)
  *before* the server acknowledges it; a ``kill -9`` at any instant is
  recovered by :meth:`JobServer.start`'s journal replay.  Execution is
  at-least-once, the terminal state exactly-once.  An append that fails
  stops the server: the submitter gets a ``journal_failed`` error, and
  replay on restart rebuilds every state the journal holds.
* **Coalescing** — submissions are keyed on the content hash of the
  result-determining spec fields (:func:`repro.serve.jobs.job_key`);
  a duplicate of a pending/running job joins that execution, and a
  duplicate of a *succeeded* job is served straight from the record.
* **One retry owner per failure** — journal replay re-runs jobs a
  server crash interrupted, and the ensemble executor absorbs a broken
  process pool; every other failure is a terminal ``failed`` carrying
  its error.  Nothing re-runs a job or a seed-run that raised: each run
  is a pure function of its seed and would repeat the same error.
* **Backpressure** — admission control and priority-aware shedding
  live in :class:`repro.serve.queue.AdmissionQueue`; rejected arrivals
  get a structured overload payload, evicted jobs a terminal ``shed``
  state, and both show up on the telemetry bus.

Wire protocol (newline-delimited JSON over TCP, one request per line)::

    {"op": "submit", "job": {...}}   -> {"ok": true, "id": ..., ...}
    {"op": "status", "id": ...}      -> {"ok": true, "job": {...}}
    {"op": "result", "id": ...}      -> {"ok": true, "job": {...}}
    {"op": "wait", "id": ...}        -> {"event": ...}* then {"ok": true, "job": {...}}
    {"op": "stats"}                  -> {"ok": true, "stats": {...}}
    {"op": "ping"}                   -> {"ok": true}
    {"op": "shutdown"}               -> {"ok": true}  (server drains and exits)
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro import sanitize
from repro.serve.jobs import (
    JobRecord,
    JobSpec,
    JobState,
    ServiceOverload,
    job_key,
)
from repro.serve.journal import JobJournal, JournalFailure
from repro.serve.queue import AdmissionQueue
from repro.serve.runner import execute_job
from repro.telemetry import EventKind, get_recorder

__all__ = ["JobServer", "ServerStats"]


class ServerStats:
    """Monotonic serving counters (JSON-safe snapshot via to_dict).

    ``retries`` always reads 0: nothing re-runs a failed job or
    seed-run.  The key stays so existing stats readers keep working.
    """

    __slots__ = (
        "submitted", "coalesced", "cached", "completed", "failed",
        "shed", "overloads", "retries", "executions",
    )

    def __init__(self) -> None:
        self.submitted = 0
        self.coalesced = 0
        self.cached = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.overloads = 0
        self.retries = 0
        self.executions = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class JobServer:
    """A fault-tolerant job server over the experiment/ensemble runners.

    Parameters
    ----------
    journal_path:
        JSONL journal location; replayed on :meth:`start`.
    host, port:
        TCP bind address.  ``port=0`` binds an ephemeral port; read
        :attr:`port` after :meth:`start`.
    job_workers:
        Concurrent executions.  ``0`` accepts-but-never-runs, which is
        the hook restart/replay tests use to freeze a queue.
    queue_limit, shed_threshold:
        Admission-control knobs (see :class:`AdmissionQueue`).
    journal_sync:
        fsync every journal append (leave on outside benchmarks).
    """

    def __init__(
        self,
        journal_path: str,
        host: str = "127.0.0.1",
        port: int = 0,
        job_workers: int = 2,
        queue_limit: int = 64,
        shed_threshold: float = 0.75,
        journal_sync: bool = True,
    ) -> None:
        if job_workers < 0:
            raise ValueError(f"job_workers must be >= 0, got {job_workers!r}")
        self.host = host
        self.port = int(port)
        self.job_workers = int(job_workers)
        self.queue = AdmissionQueue(
            maxsize=queue_limit, shed_threshold=shed_threshold
        )
        self.journal = JobJournal(journal_path, sync=journal_sync)
        self.records: Dict[str, JobRecord] = {}
        self.stats = ServerStats()
        self._active: Dict[str, str] = {}     # key -> non-terminal job id
        self._succeeded: Dict[str, str] = {}  # key -> succeeded job id
        self._sequence = 0
        self._started_monotonic = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: List["asyncio.Task[None]"] = []
        self._wakeup: Optional[asyncio.Condition] = None
        self._subscribers: Dict[
            str, List["asyncio.Queue[Optional[Dict[str, object]]]"]
        ] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._journal_executor: Optional[ThreadPoolExecutor] = None
        self._sanitizer: Optional[sanitize.LoopLagMonitor] = None
        self._stopping = False
        self._stopped = asyncio.Event()
        #: The failed journal append that stopped the server, if any.
        self.journal_failure: Optional[JournalFailure] = None
        self._failure_stop: Optional["asyncio.Future[None]"] = None

    # ------------------------------------------------------------------
    # clocks and bookkeeping helpers

    def now(self) -> float:
        """Seconds since the server started (monotonic)."""
        return time.monotonic() - self._started_monotonic

    def _next_id(self) -> str:
        self._sequence += 1
        return f"job-{self._sequence:06d}"

    def emit(self, kind: str, **fields: object) -> None:
        """Put one serving event on the telemetry bus (when enabled)."""
        recorder = get_recorder()
        if recorder.enabled:
            recorder.emit(kind, self.now(), **fields)

    def _notify(self, record: JobRecord, event: str, **extra: object) -> None:
        payload: Dict[str, object] = {
            "event": event,
            "id": record.job_id,
            "state": record.state,
            "attempts": record.attempts,
            "t": self.now(),
        }
        payload.update(extra)
        for queue in self._subscribers.get(record.job_id, ()):
            queue.put_nowait(payload)
        if record.terminal:
            for queue in self._subscribers.pop(record.job_id, ()):
                queue.put_nowait(None)  # sentinel: stream closed

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Replay the journal, bind the socket, start the workers."""
        self._started_monotonic = time.monotonic()
        self._wakeup = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.job_workers),
            thread_name_prefix="repro-serve",
        )
        # Exactly one journal thread: appends retire in the order the
        # event loop submitted them, which is the transition order.
        self._journal_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-journal"
        )
        if sanitize.enabled():
            # Runtime counterpart of the RL5xx lint family: a heartbeat
            # thread that reports whenever this loop stops responding.
            self._sanitizer = sanitize.LoopLagMonitor(
                asyncio.get_running_loop(), source="serve"
            ).start()
        records, resumable = await asyncio.to_thread(self.journal.replay)
        self.records = records
        for job_id, record in records.items():
            number = job_id.rsplit("-", 1)[-1]
            if number.isdigit():
                self._sequence = max(self._sequence, int(number))
            if record.state == JobState.SUCCEEDED:
                self._succeeded.setdefault(record.key, job_id)
        for job_id in resumable:
            record = records[job_id]
            self._active[record.key] = job_id
            self.queue.requeue(record)
        try:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port
            )
        except OSError:
            await self.stop()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [
            asyncio.create_task(self._worker_loop(index))
            for index in range(self.job_workers)
        ]
        if resumable:
            async with self._wakeup:
                self._wakeup.notify_all()

    async def stop(self) -> None:
        """Stop accepting, cancel workers, drain and close the journal."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        if self._executor is not None:
            await asyncio.to_thread(
                self._executor.shutdown, wait=True, cancel_futures=True
            )
        if self._journal_executor is not None:
            # Drain queued appends (each a flush+fsync) before closing.
            await asyncio.to_thread(self._journal_executor.shutdown, wait=True)
        await asyncio.to_thread(self.journal.close)
        if self._sanitizer is not None:
            await asyncio.to_thread(self._sanitizer.stop)
            self._sanitizer = None
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # journal path

    async def _journal_append(self, op: str, **fields: object) -> None:
        """Append one journal entry off-loop (ordered, fsynced).

        The append runs on the single journal thread, so entries hit the
        file in the order the event loop issued them.  Callers apply
        their in-memory transition *before* awaiting this and only send
        acknowledgements afterwards: late-arriving requests observe
        consistent state, and nothing is acked before the fsync.

        The append is shielded: cancelling the caller (``stop()``
        cancelling a worker) must not cancel an append still queued
        behind another fsync, or the transition it records would be
        lost.  ``stop()`` drains the journal thread before closing.

        A failed append stops the server and re-raises the
        :class:`JournalFailure` to the caller, which sends no
        acknowledgement.  The journal takes no later append, so what it
        holds stays replayable.
        """
        assert self._journal_executor is not None
        loop = asyncio.get_running_loop()
        try:
            # Unbounded on purpose: the journal thread cannot be
            # interrupted mid-fsync, so a timeout would free nothing; it
            # would only kill the awaiting worker while the append
            # still lands.
            await asyncio.shield(
                loop.run_in_executor(
                    self._journal_executor,
                    functools.partial(self.journal.append, op, **fields),
                )
            )
        except JournalFailure as failure:
            if self.journal_failure is None:
                self.journal_failure = failure
                self._failure_stop = asyncio.ensure_future(self.stop())
            raise

    # ------------------------------------------------------------------
    # submission path

    async def _shed(self, record: JobRecord, reason: str) -> None:
        """Move an admitted job to its terminal ``shed`` state."""
        time_s = self.now()
        record.error = reason
        record.transition(JobState.SHED, time_s)
        self._active.pop(record.key, None)
        self.stats.shed += 1
        await self._journal_append(
            "shed", id=record.job_id, reason=reason, t=time_s
        )
        self.emit(
            EventKind.JOB_SHED,
            job_id=record.job_id,
            priority=record.spec.priority,
            reason=reason,
        )
        self._notify(record, "shed", reason=reason)

    async def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Admit one submission; returns the wire response payload."""
        try:
            return await self._admit(payload)
        except JournalFailure as failure:
            return {
                "ok": False, "error": "journal_failed", "reason": str(failure),
            }

    async def _admit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            spec = JobSpec.from_dict(payload)
        except (TypeError, ValueError, KeyError) as error:
            return {"ok": False, "error": "bad_request", "reason": str(error)}
        if spec.kind == "experiment":
            # Checked here, not in JobSpec, so a journal that already
            # holds an unknown id still replays; imported here, as in
            # repro.serve.runner, so start-up loads no experiment module.
            from repro.experiments.registry import get_experiment

            try:
                get_experiment(spec.experiment)
            except KeyError as error:
                return {
                    "ok": False, "error": "bad_request",
                    "reason": error.args[0],
                }
        key = job_key(spec)
        active_id = self._active.get(key)
        if active_id is not None:
            record = self.records[active_id]
            record.submissions += 1
            self.stats.coalesced += 1
            await self._journal_append("coalesce", id=active_id, t=self.now())
            self.emit(
                EventKind.JOB_SUBMITTED,
                job_id=active_id,
                coalesced=True,
                priority=spec.priority,
            )
            return {
                "ok": True, "id": active_id, "state": record.state,
                "coalesced": True,
            }
        done_id = self._succeeded.get(key)
        if done_id is not None:
            record = self.records[done_id]
            self.stats.cached += 1
            return {
                "ok": True, "id": done_id, "state": record.state,
                "coalesced": False, "cached": True,
            }
        record = JobRecord(
            job_id=self._next_id(),
            key=key,
            spec=spec,
            submitted_at_s=self.now(),
        )
        try:
            evicted = self.queue.offer(record)
        except ServiceOverload as overload:
            self.stats.overloads += 1
            self.emit(
                EventKind.JOB_SHED,
                job_id="",
                priority=spec.priority,
                reason=overload.reason,
                scope="admission",
            )
            response = {"ok": False}
            response.update(overload.to_dict())
            return response
        self.records[record.job_id] = record
        self._active[key] = record.job_id
        self.stats.submitted += 1
        await self._journal_append(
            "submit",
            id=record.job_id,
            key=key,
            t=record.submitted_at_s,
            job=spec.to_dict(),
        )
        self.emit(
            EventKind.JOB_SUBMITTED,
            job_id=record.job_id,
            coalesced=False,
            priority=spec.priority,
        )
        if evicted is not None:
            await self._shed(evicted, reason="evicted by higher-priority arrival")
        assert self._wakeup is not None
        async with self._wakeup:
            self._wakeup.notify()
        return {
            "ok": True, "id": record.job_id, "state": record.state,
            "coalesced": False,
        }

    # ------------------------------------------------------------------
    # execution path

    async def _worker_loop(self, index: int) -> None:
        assert self._wakeup is not None
        while True:
            async with self._wakeup:
                # stop() sets the flag before cancelling this task;
                # checking it before every wait keeps a worker woken
                # after stop() from taking another job.
                while len(self.queue) == 0 and not self._stopping:
                    await self._wakeup.wait()
                if self._stopping:
                    return
                record = self.queue.pop()
            if record is None or record.terminal:
                continue
            try:
                await self._execute(record)
            except JournalFailure:
                return  # the server is stopping; replay resumes the job

    async def _execute(self, record: JobRecord) -> None:
        loop = asyncio.get_running_loop()
        record.attempts += 1
        time_s = self.now()
        record.transition(JobState.RUNNING, time_s)
        self.stats.executions += 1
        await self._journal_append(
            "start", id=record.job_id, attempt=record.attempts, t=time_s
        )
        self.emit(
            EventKind.JOB_STARTED,
            job_id=record.job_id,
            attempt=record.attempts,
        )
        self._notify(record, "started")
        try:
            # Unbounded on purpose: a pool thread cannot be interrupted,
            # so a timeout here would free neither the thread nor its
            # slot, only discard the run's eventual result.
            result = await loop.run_in_executor(
                self._executor, execute_job, record.spec
            )
        except Exception as error:
            await self._handle_failure(record, error)
        else:
            time_s = self.now()
            record.result = result
            record.transition(JobState.SUCCEEDED, time_s)
            self._active.pop(record.key, None)
            self._succeeded.setdefault(record.key, record.job_id)
            self.stats.completed += 1
            await self._journal_append(
                "done",
                id=record.job_id,
                state=JobState.SUCCEEDED,
                result=result,
                t=time_s,
            )
            self.emit(
                EventKind.JOB_COMPLETED,
                job_id=record.job_id,
                state=JobState.SUCCEEDED,
                attempts=record.attempts,
            )
            self._notify(record, "completed")

    async def _handle_failure(self, record: JobRecord, error: Exception) -> None:
        """Fail the job terminally with ``error`` (no job-level retry).

        A client that suspects a transient host fault resubmits; failed
        keys are never cached, so the resubmission executes.
        """
        time_s = self.now()
        message = f"{type(error).__name__}: {error}"
        record.error = message
        record.transition(JobState.FAILED, time_s)
        self._active.pop(record.key, None)
        self.stats.failed += 1
        await self._journal_append(
            "done",
            id=record.job_id,
            state=JobState.FAILED,
            error=message,
            t=time_s,
        )
        self.emit(
            EventKind.JOB_COMPLETED,
            job_id=record.job_id,
            state=JobState.FAILED,
            attempts=record.attempts,
        )
        self._notify(record, "failed", error=message)

    # ------------------------------------------------------------------
    # wire protocol

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line.decode("utf-8"))
                except json.JSONDecodeError:
                    await self._send(
                        writer,
                        {"ok": False, "error": "bad_request",
                         "reason": "request is not valid JSON"},
                    )
                    continue
                stop_after = await self._dispatch(request, writer)
                if stop_after:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()

    async def _dispatch(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one request; returns True when the connection should
        close (shutdown)."""
        op = request.get("op")
        if op == "ping":
            await self._send(writer, {"ok": True})
        elif op == "submit":
            job = request.get("job")
            if not isinstance(job, dict):
                await self._send(
                    writer,
                    {"ok": False, "error": "bad_request",
                     "reason": 'submit needs a "job" object'},
                )
            else:
                await self._send(writer, await self.submit(job))
        elif op in ("status", "result"):
            record = self.records.get(str(request.get("id", "")))
            if record is None:
                await self._send(
                    writer,
                    {"ok": False, "error": "not_found",
                     "reason": f"unknown job {request.get('id')!r}"},
                )
            else:
                await self._send(
                    writer, {"ok": True, "job": record.to_dict()}
                )
        elif op == "wait":
            await self._handle_wait(request, writer)
        elif op == "stats":
            await self._send(writer, {"ok": True, "stats": self.snapshot()})
        elif op == "shutdown":
            await self._send(writer, {"ok": True})
            asyncio.get_running_loop().call_soon(
                lambda: asyncio.ensure_future(self.stop())
            )
            return True
        else:
            await self._send(
                writer,
                {"ok": False, "error": "bad_request",
                 "reason": f"unknown op {op!r}"},
            )
        return False

    async def _handle_wait(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job_id = str(request.get("id", ""))
        record = self.records.get(job_id)
        if record is None:
            await self._send(
                writer,
                {"ok": False, "error": "not_found",
                 "reason": f"unknown job {job_id!r}"},
            )
            return
        if record.terminal:
            await self._send(writer, {"ok": True, "job": record.to_dict()})
            return
        queue: "asyncio.Queue[Optional[Dict[str, object]]]" = asyncio.Queue()
        self._subscribers.setdefault(job_id, []).append(queue)
        while True:
            event = await queue.get()
            if event is None:
                break
            await self._send(writer, event)
        await self._send(writer, {"ok": True, "job": record.to_dict()})

    # ------------------------------------------------------------------
    # introspection

    def snapshot(self) -> Dict[str, Any]:
        """Stats payload served to clients and the load harness."""
        uptime_s = self.now()
        completed = self.stats.completed
        payload: Dict[str, Any] = {
            "uptime_s": uptime_s,
            "queue_depth": len(self.queue),
            "queue_limit": self.queue.maxsize,
            "running": sum(
                1
                for record in self.records.values()
                if record.state == JobState.RUNNING
            ),
            "jobs_per_second": completed / uptime_s if uptime_s > 0 else 0.0,
        }
        payload.update(self.stats.to_dict())
        if sanitize.enabled():
            payload["sanitize"] = sanitize.report_counts()
        return payload
