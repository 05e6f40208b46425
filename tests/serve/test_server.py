"""Job server integration: lifecycle, coalescing, terminal failures,
shedding, journal replay, the wire protocol, and the blocking client.

pytest-asyncio is not a dependency, so every async test drives its own
loop through ``asyncio.run``; the blocking-client tests run the server
on a background thread's loop instead.
"""

import asyncio
import errno
import json
import os
import threading
import time

import pytest

import repro.serve.server
import repro.sim.executor
from repro.serve import (
    JobClient,
    JobServer,
    JournalFailure,
    ServerError,
    replay_journal,
)
from repro.telemetry import EventKind, TelemetryRecorder, use_recorder

#: A micro job cheap enough to run hundreds of times in the suite.
MICRO_JOB = {"kind": "ensemble", "seeds": 1, "duration_s": 0.01}

#: A job that always fails: worker_crash at rate 1.0 crashes the run of
#: every seed, so the ensemble exceeds its failure budget.
DOOMED_JOB = {
    "kind": "ensemble",
    "seeds": 1,
    "duration_s": 0.01,
    "faults": [{"kind": "worker_crash", "rate": 1.0}],
}


def _journal_ops(path):
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream]


async def _wait_terminal(server, job_id, timeout_s=30.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        record = server.records[job_id]
        if record.terminal:
            return record
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"job {job_id} not terminal after {timeout_s}s "
                f"(state={record.state})"
            )
        await asyncio.sleep(0.01)


class TestLifecycle:
    def test_submit_runs_to_success(self, tmp_path):
        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            try:
                response = await server.submit(dict(MICRO_JOB))
                assert response["ok"] and not response["coalesced"]
                record = await _wait_terminal(server, response["id"])
                assert record.state == "succeeded"
                assert record.result["runs"] == 1
                assert record.result["failures"] == 0
                assert server.stats.completed == 1
                assert server.stats.executions == 1
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_bad_spec_is_rejected_not_queued(self, tmp_path):
        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=0)
            await server.start()
            try:
                response = await server.submit({"kind": "mystery"})
                assert not response["ok"]
                assert response["error"] == "bad_request"
                assert server.stats.submitted == 0
                assert len(server.queue) == 0
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestStop:
    def test_stop_returns_when_a_worker_loses_its_cancellation(self, tmp_path):
        """stop() must return when its cancel meets a finished append.

        A done-callback on the final journal append's executor future
        starts ``stop()``; registered ahead of the shield's own callback,
        it runs first, so its cancel reaches the worker in the same loop
        iteration as the append completing.
        """

        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            loop = asyncio.get_running_loop()
            run_in_executor = loop.run_in_executor
            stops = []

            def start_stop(_future):
                stops.append(asyncio.ensure_future(server.stop()))

            def hooked(executor, func, *args):
                future = run_in_executor(executor, func, *args)
                if (
                    executor is server._journal_executor
                    and func.args[0] == "done"
                    and not stops
                ):
                    future.add_done_callback(start_stop)
                return future

            loop.run_in_executor = hooked
            try:
                response = await server.submit(dict(MICRO_JOB))
                record = await _wait_terminal(server, response["id"])
                assert record.state == "succeeded"
                for _ in range(1000):
                    if stops:
                        break
                    await asyncio.sleep(0.01)
                assert stops, "the final journal append never completed"
                done, _ = await asyncio.wait(stops, timeout=10.0)
                assert done, "stop() hung after a worker lost its cancel"
            finally:
                loop.run_in_executor = run_in_executor
                for task in stops:
                    task.cancel()
                await asyncio.gather(*stops, return_exceptions=True)

        asyncio.run(scenario())

    def test_stop_writes_a_queued_terminal_append(self, tmp_path, monkeypatch):
        """stop() must not cancel a ``done`` append queued behind another.

        The journal thread is parked once the job runs, so the job's
        ``done`` append queues behind it; stop() then cancels the worker
        awaiting that append.  The append must still reach the file, or a
        restarted server re-runs the finished job.
        """
        journal = str(tmp_path / "jobs.jsonl")
        running = threading.Event()
        finish = threading.Event()
        execute_job = repro.serve.server.execute_job

        def gated_execute_job(spec):
            running.set()
            assert finish.wait(timeout=30.0)
            return execute_job(spec)

        monkeypatch.setattr(repro.serve.server, "execute_job", gated_execute_job)

        async def first_life():
            server = JobServer(journal, job_workers=1)
            await server.start()
            release = threading.Event()
            try:
                response = await server.submit(dict(MICRO_JOB))
                assert await asyncio.to_thread(running.wait, 30.0)
                parked = asyncio.get_running_loop().run_in_executor(
                    server._journal_executor, release.wait, 30.0
                )
                finish.set()
                record = await _wait_terminal(server, response["id"])
                assert record.state == "succeeded"
                stopping = asyncio.ensure_future(server.stop())
                while not all(task.done() for task in server._workers):
                    await asyncio.sleep(0.01)
            finally:
                finish.set()
                release.set()
            await asyncio.wait_for(stopping, timeout=30.0)
            assert await parked
            return response["id"]

        async def second_life(job_id):
            server = JobServer(journal, job_workers=1)
            await server.start()
            try:
                again = await server.submit(dict(MICRO_JOB))
                assert again["id"] == job_id and again.get("cached")
                assert server.stats.executions == 0
            finally:
                await server.stop()

        job_id = asyncio.run(first_life())
        ops = _journal_ops(journal)
        assert [op["op"] for op in ops] == ["submit", "start", "done"]
        assert ops[-1]["state"] == "succeeded"
        asyncio.run(second_life(job_id))


    def test_submit_after_stop_began_is_refused(self, tmp_path):
        """A connection opened before stop() gets a refusal, and the
        submission leaves no record, counter or journal line behind."""
        journal = tmp_path / "jobs.jsonl"

        async def scenario():
            server = JobServer(str(journal), job_workers=1)
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            stopping = asyncio.ensure_future(server.stop())
            try:
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                assert json.loads(await reader.readline())["ok"]
                # Where Server.wait_closed() waits for open connections,
                # stop() blocks on this one; either way it has begun.
                await asyncio.wait({stopping}, timeout=2.0)
                request = {"op": "submit", "job": dict(MICRO_JOB)}
                writer.write((json.dumps(request) + "\n").encode())
                await writer.drain()
                response = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
                await stopping
            assert response["ok"] is False
            assert response["error"] == "stopping"
            assert server.records == {}
            assert server.stats.submitted == 0

        asyncio.run(scenario())
        ops = _journal_ops(journal) if journal.exists() else []
        assert not [op for op in ops if op["op"] == "submit"]


class TestSlowDisk:
    def test_slow_terminal_appends_delay_but_never_drop_a_job(
        self, tmp_path, monkeypatch
    ):
        """A slow disk is the journal thread's alone: acks and terminal
        records wait for the fsync, and no worker gives up on it.

        Every ``done`` append takes 0.5 s.  The lone worker holds the
        first job until the second is journaled, so it must outlive one
        slow append to start the second.
        """
        journal = str(tmp_path / "jobs.jsonl")
        with pytest.raises(TypeError):
            JobServer(journal, journal_timeout_s=1)
        running = threading.Event()
        finish = threading.Event()
        execute_job = repro.serve.server.execute_job

        def gated_execute_job(spec):
            running.set()
            assert finish.wait(timeout=30.0)
            return execute_job(spec)

        monkeypatch.setattr(repro.serve.server, "execute_job", gated_execute_job)

        async def scenario():
            server = JobServer(journal, job_workers=1)
            append = server.journal.append

            def slow_append(op, **fields):
                if op == "done":
                    time.sleep(0.5)
                append(op, **fields)

            server.journal.append = slow_append
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                first = await server.submit(dict(MICRO_JOB))
                assert await asyncio.to_thread(running.wait, 30.0)
                second = await server.submit(dict(MICRO_JOB, duration_s=0.02))
                writer.write(
                    (json.dumps({"op": "wait", "id": first["id"]}) + "\n")
                    .encode()
                )
                await writer.drain()
                for _ in range(3000):
                    if first["id"] in server._subscribers:
                        break
                    await asyncio.sleep(0.01)
                assert first["id"] in server._subscribers
                finish.set()
                payloads = [
                    json.loads(
                        await asyncio.wait_for(reader.readline(), timeout=30.0)
                    )
                    for _ in range(2)
                ]
                records = [
                    await _wait_terminal(server, response["id"])
                    for response in (first, second)
                ]
            finally:
                finish.set()
                writer.close()
                await writer.wait_closed()
                await server.stop()
            assert payloads[0]["event"] == "completed"
            assert payloads[1]["ok"]
            assert payloads[1]["job"]["state"] == "succeeded"
            assert [record.state for record in records] == ["succeeded"] * 2

        asyncio.run(scenario())
        assert [op["op"] for op in _journal_ops(journal)] == [
            "submit", "start", "submit", "done", "start", "done",
        ]


class TestCoalescing:
    def test_duplicate_of_pending_job_coalesces(self, tmp_path):
        async def scenario():
            # job_workers=0 freezes the queue: the first submission stays
            # pending, so the duplicate provably coalesces.
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=0)
            await server.start()
            try:
                first = await server.submit(dict(MICRO_JOB))
                second = await server.submit(dict(MICRO_JOB))
                assert second["coalesced"]
                assert second["id"] == first["id"]
                record = server.records[first["id"]]
                assert record.submissions == 2
                assert server.stats.submitted == 1
                assert server.stats.coalesced == 1
                # Serving metadata must not split the key.
                third = await server.submit(
                    dict(MICRO_JOB, priority="interactive", workers=4)
                )
                assert third["coalesced"] and third["id"] == first["id"]
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_succeeded_job_served_from_cache(self, tmp_path):
        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            try:
                first = await server.submit(dict(MICRO_JOB))
                await _wait_terminal(server, first["id"])
                again = await server.submit(dict(MICRO_JOB))
                assert again["ok"] and again.get("cached")
                assert again["id"] == first["id"]
                assert again["state"] == "succeeded"
                assert server.stats.executions == 1  # no re-run
                assert server.stats.cached == 1
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestFailures:
    def test_failing_job_fails_on_its_first_execution(self, tmp_path):
        """Nothing re-runs a job that raised."""
        journal = str(tmp_path / "jobs.jsonl")

        async def scenario():
            server = JobServer(journal, job_workers=1)
            await server.start()
            try:
                response = await server.submit(dict(DOOMED_JOB))
                record = await _wait_terminal(server, response["id"])
                assert record.state == "failed"
                assert record.attempts == 1
                assert server.stats.executions == 1
                assert server.stats.failed == 1
                assert server.stats.retries == 0
                return record
            finally:
                await server.stop()

        record = asyncio.run(scenario())
        # The error is the executor's verdict on the seed's only run.
        assert record.error.startswith("EnsembleError: ")
        assert "(seed 0)" in record.error
        assert [op["op"] for op in _journal_ops(journal)] == [
            "submit", "start", "done",
        ]

    def test_crashing_seed_runs_once(self, tmp_path, monkeypatch):
        runs = []
        run_one_seed = repro.sim.executor._run_one_seed

        def counted(payload):
            runs.append(payload[0])
            return run_one_seed(payload)

        monkeypatch.setattr(repro.sim.executor, "_run_one_seed", counted)

        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            try:
                response = await server.submit(dict(DOOMED_JOB))
                return await _wait_terminal(server, response["id"])
            finally:
                await server.stop()

        record = asyncio.run(scenario())
        assert record.state == "failed"
        assert runs == [0]
        assert "attempt" not in record.error


class TestShedding:
    def test_eviction_sheds_the_evicted_job_terminally(self, tmp_path):
        async def scenario():
            server = JobServer(
                str(tmp_path / "jobs.jsonl"),
                job_workers=0,
                queue_limit=2,
                shed_threshold=1.0,
            )
            await server.start()
            try:
                bulk = dict(MICRO_JOB, priority="bulk")
                first = await server.submit(dict(bulk, seeds=1))
                second = await server.submit(dict(bulk, seeds=2))
                vip = await server.submit(
                    dict(MICRO_JOB, seeds=3, priority="interactive")
                )
                assert vip["ok"]
                evicted = server.records[second["id"]]
                assert evicted.state == "shed"
                assert "evicted" in evicted.error
                assert server.records[first["id"]].state == "pending"
                assert server.stats.shed == 1
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_hard_overload_is_a_structured_rejection(self, tmp_path):
        async def scenario():
            server = JobServer(
                str(tmp_path / "jobs.jsonl"),
                job_workers=0,
                queue_limit=2,
                shed_threshold=1.0,
            )
            await server.start()
            try:
                vip = dict(MICRO_JOB, priority="interactive")
                await server.submit(dict(vip, seeds=1))
                await server.submit(dict(vip, seeds=2))
                rejected = await server.submit(dict(vip, seeds=3))
                assert not rejected["ok"]
                assert rejected["error"] == "overload"
                assert rejected["queue_depth"] == 2
                assert rejected["queue_limit"] == 2
                assert rejected["retry_after_s"] > 0
                assert server.stats.overloads == 1
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_soft_shedding_protects_interactive(self, tmp_path):
        async def scenario():
            server = JobServer(
                str(tmp_path / "jobs.jsonl"),
                job_workers=0,
                queue_limit=4,
                shed_threshold=0.5,
            )
            await server.start()
            try:
                await server.submit(dict(MICRO_JOB, seeds=1))
                await server.submit(dict(MICRO_JOB, seeds=2))
                shed = await server.submit(dict(MICRO_JOB, seeds=3))
                assert not shed["ok"] and shed["error"] == "overload"
                vip = await server.submit(
                    dict(MICRO_JOB, seeds=3, priority="interactive")
                )
                assert vip["ok"]
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestReplay:
    def test_restart_resumes_unfinished_jobs(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")

        async def before_crash():
            # Frozen server: accepts two jobs, runs neither, then the
            # process "dies" without a clean shutdown.
            server = JobServer(journal, job_workers=0)
            await server.start()
            first = await server.submit(dict(MICRO_JOB, seeds=1))
            second = await server.submit(dict(MICRO_JOB, seeds=2))
            server.journal.close()
            if server._server is not None:
                server._server.close()
                await server._server.wait_closed()
            return first["id"], second["id"]

        async def after_restart(job_ids):
            server = JobServer(journal, job_workers=2)
            await server.start()
            try:
                for job_id in job_ids:
                    record = await _wait_terminal(server, job_id)
                    assert record.state == "succeeded"
                # Replayed ids must not be reissued to new submissions.
                fresh = await server.submit(dict(MICRO_JOB, seeds=99))
                assert fresh["id"] not in job_ids
            finally:
                await server.stop()

        job_ids = asyncio.run(before_crash())
        asyncio.run(after_restart(job_ids))

    def test_restart_serves_finished_results_from_journal(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")

        async def first_life():
            server = JobServer(journal, job_workers=1)
            await server.start()
            response = await server.submit(dict(MICRO_JOB))
            await _wait_terminal(server, response["id"])
            await server.stop()
            return response["id"]

        async def second_life(job_id):
            server = JobServer(journal, job_workers=1)
            await server.start()
            try:
                again = await server.submit(dict(MICRO_JOB))
                assert again["id"] == job_id
                assert again.get("cached")
                record = server.records[job_id]
                assert record.result["runs"] == 1
                assert server.stats.executions == 0
            finally:
                await server.stop()

        job_id = asyncio.run(first_life())
        asyncio.run(second_life(job_id))

    def test_restart_finishes_a_backend_era_job(self, tmp_path):
        from test_journal import BACKEND_ERA_JOURNAL

        journal = tmp_path / "jobs.jsonl"
        journal.write_text(BACKEND_ERA_JOURNAL, encoding="utf-8")

        async def restart():
            server = JobServer(str(journal), job_workers=1)
            await server.start()
            try:
                return await _wait_terminal(server, "job-1")
            finally:
                await server.stop()

        record = asyncio.run(restart())
        assert record.state == "succeeded"
        assert record.result["runs"] == 1

    def test_restart_finishes_a_retry_era_job(self, tmp_path):
        """A journal that ended while an older server backed off a retry."""
        from test_journal import RETRY_ERA_JOURNAL

        journal = tmp_path / "jobs.jsonl"
        journal.write_text(RETRY_ERA_JOURNAL, encoding="utf-8")

        async def restart():
            server = JobServer(str(journal), job_workers=1)
            await server.start()
            try:
                return await _wait_terminal(server, "job-000001")
            finally:
                await server.stop()

        record = asyncio.run(restart())
        assert record.state == "succeeded"
        assert record.attempts == 2
        assert record.result["runs"] == 1

    def test_append_after_a_torn_tail_keeps_the_journal_readable(
        self, tmp_path
    ):
        """Three sessions: a crash tears the last line, the second
        session appends, and the third must still replay every job."""
        journal = tmp_path / "jobs.jsonl"

        async def session(job):
            server = JobServer(str(journal), job_workers=1)
            await server.start()
            try:
                response = await server.submit(dict(job))
                await _wait_terminal(server, response["id"])
                return response["id"]
            finally:
                await server.stop()

        first = asyncio.run(session(dict(MICRO_JOB, seeds=1)))
        with open(journal, "a", encoding="utf-8") as stream:
            stream.write('{"id": "job-000001", "op": "coal')  # kill -9 here
        second = asyncio.run(session(dict(MICRO_JOB, seeds=2)))

        async def third_start():
            server = JobServer(str(journal), job_workers=0)
            await server.start()
            await server.stop()
            return server.records

        records = asyncio.run(third_start())
        assert sorted(records) == [first, second]
        assert all(r.state == "succeeded" for r in records.values())
        assert records[first].submissions == 1


class TestJournalFailure:
    """A journal append that fails stops the server; no worker dies."""

    @staticmethod
    def _assert_workers_ended_cleanly(server):
        for task in server._workers:
            assert task.done()
            assert task.cancelled() or task.exception() is None

    def test_unwritable_journal_stops_the_server(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")

        async def scenario():
            server = JobServer(str(blocker / "jobs.jsonl"), job_workers=1)
            await server.start()
            response = await TestWireProtocol._roundtrip(
                server, {"op": "submit", "job": dict(MICRO_JOB)}
            )
            await asyncio.wait_for(server.wait_stopped(), timeout=30.0)
            return server, response

        server, response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"] == "journal_failed"
        assert "cannot append" in response["reason"]
        assert isinstance(server.journal_failure, JournalFailure)
        assert server.stats.executions == 0
        self._assert_workers_ended_cleanly(server)

    def test_failed_start_append_is_resumed_by_replay(
        self, tmp_path, monkeypatch
    ):
        journal = str(tmp_path / "jobs.jsonl")
        fsync = os.fsync
        calls = []

        def second_fsync_fails(fd):
            calls.append(fd)
            if len(calls) == 2:
                raise OSError(errno.EIO, "injected I/O error")
            fsync(fd)

        async def first_life():
            server = JobServer(journal, job_workers=1)
            await server.start()
            monkeypatch.setattr(os, "fsync", second_fsync_fails)
            try:
                response = await server.submit(dict(MICRO_JOB))
                await asyncio.wait_for(server.wait_stopped(), timeout=30.0)
            finally:
                monkeypatch.setattr(os, "fsync", fsync)
            return server, response

        server, response = asyncio.run(first_life())
        # The submit append was durable, so it was acknowledged.
        assert response["ok"]
        assert "injected I/O error" in str(server.journal_failure)
        assert server.stats.executions == 1
        self._assert_workers_ended_cleanly(server)

        async def second_life():
            server = JobServer(journal, job_workers=1)
            await server.start()
            try:
                return await _wait_terminal(server, response["id"])
            finally:
                await server.stop()

        record = asyncio.run(second_life())
        assert record.state == "succeeded"


class TestWireProtocol:
    @staticmethod
    async def _roundtrip(server, payload):
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        try:
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            line = await reader.readline()
            return json.loads(line)
        finally:
            writer.close()
            await writer.wait_closed()

    def test_core_ops(self, tmp_path):
        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            try:
                assert (await self._roundtrip(server, {"op": "ping"}))["ok"]
                submitted = await self._roundtrip(
                    server, {"op": "submit", "job": dict(MICRO_JOB)}
                )
                assert submitted["ok"]
                await _wait_terminal(server, submitted["id"])
                status = await self._roundtrip(
                    server, {"op": "status", "id": submitted["id"]}
                )
                assert status["job"]["state"] == "succeeded"
                stats = await self._roundtrip(server, {"op": "stats"})
                assert stats["stats"]["completed"] == 1
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_malformed_requests_get_structured_errors(self, tmp_path):
        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=0)
            await server.start()
            try:
                unknown = await self._roundtrip(server, {"op": "frobnicate"})
                assert unknown["error"] == "bad_request"
                missing = await self._roundtrip(
                    server, {"op": "status", "id": "job-999999"}
                )
                assert missing["error"] == "not_found"
                no_job = await self._roundtrip(server, {"op": "submit"})
                assert no_job["error"] == "bad_request"

                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    writer.write(b"this is not json\n")
                    await writer.drain()
                    garbled = json.loads(await reader.readline())
                    assert garbled["error"] == "bad_request"
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_retry_budget_is_a_bad_request(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"

        async def scenario():
            server = JobServer(str(journal), job_workers=0)
            await server.start()
            try:
                return await self._roundtrip(
                    server,
                    {"op": "submit",
                     "job": dict(MICRO_JOB, ensemble_retries=2)},
                )
            finally:
                await server.stop()

        response = asyncio.run(scenario())
        assert response["error"] == "bad_request"
        assert "ensemble_retries" in response["reason"]
        assert not journal.exists() or journal.read_text() == ""

    def test_unknown_experiment_is_rejected_before_the_journal(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"

        async def scenario():
            server = JobServer(str(journal), job_workers=1)
            await server.start()
            try:
                return server, await self._roundtrip(
                    server,
                    {"op": "submit",
                     "job": {"kind": "experiment", "experiment": "fig99"}},
                )
            finally:
                await server.stop()

        server, response = asyncio.run(scenario())
        assert not response["ok"]
        assert response["error"] == "bad_request"
        assert "unknown experiment 'fig99'" in response["reason"]
        assert "fig18" in response["reason"]  # lists the known ids
        assert server.stats.submitted == 0
        assert server.stats.executions == 0
        assert not journal.exists() or journal.read_text() == ""

    def test_non_string_experiment_id_is_a_bad_request(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"

        async def scenario():
            server = JobServer(str(journal), job_workers=1)
            await server.start()
            try:
                responses = [
                    await self._roundtrip(
                        server,
                        {"op": "submit",
                         "job": {"kind": "experiment", "experiment": bad}},
                    )
                    for bad in (["fig18"], {"id": "fig18"})
                ]
                # The server still answers the next request.
                assert (await self._roundtrip(server, {"op": "ping"}))["ok"]
                return server, responses
            finally:
                await server.stop()

        server, responses = asyncio.run(scenario())
        for response in responses:
            assert response["error"] == "bad_request"
            assert "unknown experiment" in response["reason"]
        assert server.stats.submitted == 0
        assert not journal.exists() or journal.read_text() == ""

    def test_wait_streams_progress_then_terminal_record(self, tmp_path):
        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            try:
                # Park a filler job on the lone worker first: the doomed
                # job stays pending until after the wait subscription
                # below is live, so no lifecycle event can be missed.
                await server.submit(dict(MICRO_JOB))
                submitted = await server.submit(dict(DOOMED_JOB))
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    writer.write(
                        (json.dumps({"op": "wait", "id": submitted["id"]})
                         + "\n").encode()
                    )
                    await writer.drain()
                    payloads = []
                    while True:
                        line = await asyncio.wait_for(
                            reader.readline(), timeout=30.0
                        )
                        payload = json.loads(line)
                        payloads.append(payload)
                        if "ok" in payload:
                            break
                finally:
                    writer.close()
                    await writer.wait_closed()
                events = [p["event"] for p in payloads if "event" in p]
                assert events == ["started", "failed"]
                final = payloads[-1]
                assert final["ok"] and final["job"]["state"] == "failed"
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestCommitPath:
    """Every transition takes one path: applied through the fold replay
    uses, journaled, then published from the append's completion."""

    #: Fields a live record and its replay must agree on.
    FIELDS = (
        "key", "state", "attempts", "submissions", "error", "result",
        "history", "finished_at_s", "submitted_at_s",
    )

    def test_stop_during_a_slow_terminal_append_still_publishes(
        self, tmp_path, monkeypatch
    ):
        """stop() cancels the worker awaiting its ``done`` append; the
        append lands, so its event and wait-stream notice must too."""
        journal = str(tmp_path / "jobs.jsonl")
        running = threading.Event()
        finish = threading.Event()
        execute_job = repro.serve.server.execute_job

        def gated_execute_job(spec):
            running.set()
            assert finish.wait(timeout=30.0)
            return execute_job(spec)

        monkeypatch.setattr(repro.serve.server, "execute_job", gated_execute_job)

        async def scenario():
            server = JobServer(journal, job_workers=1)
            append = server.journal.append

            def slow_done(op, **fields):
                if op == "done":
                    time.sleep(0.2)
                append(op, **fields)

            server.journal.append = slow_done
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                response = await server.submit(dict(MICRO_JOB))
                assert await asyncio.to_thread(running.wait, 30.0)
                writer.write(
                    (json.dumps({"op": "wait", "id": response["id"]}) + "\n")
                    .encode()
                )
                await writer.drain()
                for _ in range(3000):
                    if response["id"] in server._subscribers:
                        break
                    await asyncio.sleep(0.01)
                assert response["id"] in server._subscribers
                finish.set()
                record = await _wait_terminal(server, response["id"])
                await server.stop()
                lines = [
                    json.loads(
                        await asyncio.wait_for(reader.readline(), timeout=5.0)
                    )
                    for _ in range(2)
                ]
            finally:
                finish.set()
                writer.close()
                await writer.wait_closed()
                await server.stop()
            return record, lines

        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            record, lines = asyncio.run(scenario())
        assert [op["op"] for op in _journal_ops(journal)] == [
            "submit", "start", "done",
        ]
        completed = [
            event.fields
            for event in recorder.events
            if event.kind == EventKind.JOB_COMPLETED
        ]
        assert completed == [
            {"job_id": record.job_id, "state": "succeeded", "attempts": 1}
        ]
        assert lines[0]["event"] == "completed"
        assert lines[0]["state"] == "succeeded"
        assert lines[1]["ok"] and lines[1]["job"]["state"] == "succeeded"

    @staticmethod
    async def _scripted_session(server, monkeypatch):
        """A success, a coalesce, an eviction shed, a failure and a cached
        duplicate, in a fixed order; returns the job ids by role."""
        running = threading.Event()
        finish = threading.Event()
        execute_job = repro.serve.server.execute_job

        def gated_execute_job(spec):
            running.set()
            assert finish.wait(timeout=30.0)
            return execute_job(spec)

        monkeypatch.setattr(repro.serve.server, "execute_job", gated_execute_job)
        try:
            ok = await server.submit(dict(MICRO_JOB))
            assert await asyncio.to_thread(running.wait, 30.0)
            # A duplicate of the running job, in another priority class.
            again = await server.submit(dict(MICRO_JOB, priority="interactive"))
            assert again["coalesced"] and again["id"] == ok["id"]
            bulk = dict(MICRO_JOB, priority="bulk")
            kept = await server.submit(dict(bulk, seeds=2))
            evicted = await server.submit(dict(bulk, seeds=3))
            doomed = await server.submit(dict(DOOMED_JOB, priority="interactive"))
            assert server.records[evicted["id"]].state == "shed"
        finally:
            finish.set()
        for response in (ok, doomed, kept):
            await _wait_terminal(server, response["id"])
        cached = await server.submit(dict(MICRO_JOB))
        assert cached.get("cached") and cached["id"] == ok["id"]
        return {
            "ok": ok["id"], "kept": kept["id"], "evicted": evicted["id"],
            "doomed": doomed["id"],
        }

    def _run_session(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "jobs.jsonl")

        async def scenario():
            server = JobServer(
                journal, job_workers=1, queue_limit=2, shed_threshold=1.0
            )
            await server.start()
            try:
                ids = await self._scripted_session(server, monkeypatch)
            finally:
                await server.stop()
            return server, ids

        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            server, ids = asyncio.run(scenario())
        return journal, server, ids, recorder

    def test_live_records_equal_their_replay(self, tmp_path, monkeypatch):
        journal, server, ids, _ = self._run_session(tmp_path, monkeypatch)
        states = {role: server.records[job_id].state for role, job_id in ids.items()}
        assert states == {
            "ok": "succeeded", "kept": "succeeded", "evicted": "shed",
            "doomed": "failed",
        }
        assert server.records[ids["ok"]].submissions == 2
        replayed, resumable = replay_journal(journal)
        assert resumable == []
        assert sorted(replayed) == sorted(server.records)
        for job_id, live in server.records.items():
            for name in self.FIELDS:
                assert getattr(replayed[job_id], name) == getattr(live, name), (
                    job_id, name,
                )

    def test_every_serve_event_carries_the_values_its_op_set(
        self, tmp_path, monkeypatch
    ):
        _, server, ids, recorder = self._run_session(tmp_path, monkeypatch)
        serve_kinds = {
            EventKind.JOB_SUBMITTED, EventKind.JOB_STARTED,
            EventKind.JOB_SHED, EventKind.JOB_COMPLETED,
        }
        events = [
            (event.kind, dict(event.fields))
            for event in recorder.events
            if event.kind in serve_kinds
        ]
        ok, kept, evicted, doomed = (
            ids["ok"], ids["kept"], ids["evicted"], ids["doomed"],
        )
        error = server.records[doomed].error
        assert error.startswith("EnsembleError: ")
        assert events == [
            (EventKind.JOB_SUBMITTED,
             {"job_id": ok, "coalesced": False, "priority": "batch"}),
            (EventKind.JOB_STARTED, {"job_id": ok, "attempt": 1}),
            # The coalescing submission's own priority, not the job's.
            (EventKind.JOB_SUBMITTED,
             {"job_id": ok, "coalesced": True, "priority": "interactive"}),
            (EventKind.JOB_SUBMITTED,
             {"job_id": kept, "coalesced": False, "priority": "bulk"}),
            (EventKind.JOB_SUBMITTED,
             {"job_id": evicted, "coalesced": False, "priority": "bulk"}),
            (EventKind.JOB_SUBMITTED,
             {"job_id": doomed, "coalesced": False, "priority": "interactive"}),
            (EventKind.JOB_SHED,
             {"job_id": evicted, "priority": "bulk",
              "reason": "evicted by higher-priority arrival"}),
            (EventKind.JOB_COMPLETED,
             {"job_id": ok, "state": "succeeded", "attempts": 1}),
            (EventKind.JOB_STARTED, {"job_id": doomed, "attempt": 1}),
            (EventKind.JOB_COMPLETED,
             {"job_id": doomed, "state": "failed", "attempts": 1}),
            (EventKind.JOB_STARTED, {"job_id": kept, "attempt": 1}),
            (EventKind.JOB_COMPLETED,
             {"job_id": kept, "state": "succeeded", "attempts": 1}),
        ]


class TestTelemetry:
    def test_job_lifecycle_hits_the_telemetry_bus(self, tmp_path):
        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            try:
                ok = await server.submit(dict(MICRO_JOB))
                await _wait_terminal(server, ok["id"])
                doomed = await server.submit(dict(DOOMED_JOB))
                await _wait_terminal(server, doomed["id"])
            finally:
                await server.stop()

        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            asyncio.run(scenario())
        kinds = recorder.events.kinds()
        assert kinds[EventKind.JOB_SUBMITTED] == 2
        assert kinds[EventKind.JOB_STARTED] == 2  # one execution each
        assert "job_retried" not in kinds
        assert kinds[EventKind.JOB_COMPLETED] == 2


class TestBlockingClient:
    """Blocking-client tests: the server runs on the shared conftest
    thread harness (``server_thread_cls``)."""

    def test_submit_wait_and_stats(self, tmp_path, server_thread_cls):
        with server_thread_cls(
            str(tmp_path / "jobs.jsonl"), job_workers=2
        ) as server:
            client = JobClient(port=server.port, timeout_s=60.0)
            assert client.ping()
            submitted = client.submit(dict(MICRO_JOB))
            seen = []
            record = client.wait(submitted["id"], on_event=seen.append)
            assert record["state"] == "succeeded"
            # Events only stream if the subscription won the race with
            # the (fast) job; when it did, they must be well-formed.
            assert all("event" in event and "t" in event for event in seen)
            assert client.status(submitted["id"])["state"] == "succeeded"
            assert client.stats()["completed"] == 1

    def test_overload_raises_server_error(self, tmp_path, server_thread_cls):
        with server_thread_cls(
            str(tmp_path / "jobs.jsonl"),
            job_workers=0,
            queue_limit=2,
            shed_threshold=1.0,
        ) as server:
            client = JobClient(port=server.port)
            vip = dict(MICRO_JOB, priority="interactive")
            client.submit(dict(vip, seeds=1))
            client.submit(dict(vip, seeds=2))
            with pytest.raises(ServerError) as excinfo:
                client.submit(dict(vip, seeds=3))
            assert excinfo.value.error == "overload"
            assert excinfo.value.payload["retry_after_s"] > 0

    def test_shutdown_op_stops_the_server(self, tmp_path, server_thread_cls):
        import time

        with server_thread_cls(
            str(tmp_path / "jobs.jsonl"), job_workers=1
        ) as server:
            client = JobClient(port=server.port)
            client.shutdown()
            deadline = time.monotonic() + 30.0
            while not server._stopped.is_set():
                if time.monotonic() > deadline:
                    raise AssertionError("server did not stop after shutdown")
                time.sleep(0.01)
