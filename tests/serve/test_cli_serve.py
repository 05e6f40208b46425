"""CLI coverage for ``repro serve`` / ``repro submit`` / ``repro jobs``."""

import io
import json
import os
import socket
import subprocess
import sys
import time

import pytest

import repro.serve
from repro.cli import build_parser, command_jobs, command_serve, command_submit
from repro.serve import JobClient, ServerError

MICRO_ARGS = dict(seeds=1, duration_s=0.01)


class TestParser:
    def test_serve_arguments(self):
        arguments = build_parser().parse_args(
            ["serve", "--port", "0", "--journal", "j.jsonl",
             "--job-workers", "4", "--queue-limit", "16",
             "--shed-threshold", "0.5", "--no-sync"]
        )
        assert arguments.command == "serve"
        assert arguments.port == 0
        assert arguments.journal == "j.jsonl"
        assert arguments.job_workers == 4
        assert arguments.queue_limit == 16
        assert arguments.shed_threshold == 0.5
        assert arguments.no_sync

    def test_submit_arguments(self):
        arguments = build_parser().parse_args(
            ["submit", "fig14", "--port", "1234", "--seeds", "3",
             "--priority", "interactive", "--wait",
             "--fault", "probe_loss:0.1"]
        )
        assert arguments.command == "submit"
        assert arguments.experiment == "fig14"
        assert arguments.priority == "interactive"
        assert arguments.wait

    def test_submit_experiment_is_optional(self):
        arguments = build_parser().parse_args(["submit"])
        assert arguments.experiment is None

    def test_submit_rejects_unknown_priority(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--priority", "vip"])

    @pytest.mark.parametrize("argv", [
        ["serve", "--max-retries", "1"],
        ["serve", "--backoff-s", "0.2"],
        ["serve", "--deadline-s", "30"],
        ["submit", "--deadline-s", "5"],
    ])
    def test_job_retry_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_jobs_arguments(self):
        arguments = build_parser().parse_args(
            ["jobs", "--port", "1234", "--id", "job-000001"]
        )
        assert arguments.command == "jobs"
        assert arguments.job_id == "job-000001"


class TestSubmitCommand:
    def test_submit_and_wait_round_trip(self, tmp_path, server_thread_cls):
        with server_thread_cls(
            str(tmp_path / "jobs.jsonl"), job_workers=2
        ) as server:
            out = io.StringIO()
            json_path = str(tmp_path / "record.json")
            status = command_submit(
                port=server.port, wait=True, json_path=json_path,
                out=out, **MICRO_ARGS,
            )
            assert status == 0
            text = out.getvalue()
            assert "job job-000001 pending" in text
            assert "job job-000001 succeeded" in text
            record = json.load(open(json_path, encoding="utf-8"))
            assert record["state"] == "succeeded"
            assert record["result"]["runs"] == 1

    def test_duplicate_submission_reports_cache(
        self, tmp_path, server_thread_cls
    ):
        with server_thread_cls(
            str(tmp_path / "jobs.jsonl"), job_workers=2
        ) as server:
            first = io.StringIO()
            assert command_submit(
                port=server.port, wait=True, out=first, **MICRO_ARGS
            ) == 0
            again = io.StringIO()
            assert command_submit(
                port=server.port, out=again, **MICRO_ARGS
            ) == 0
            assert "(cached)" in again.getvalue()

    def test_overload_exits_3_with_reason(self, tmp_path, server_thread_cls):
        with server_thread_cls(
            str(tmp_path / "jobs.jsonl"),
            job_workers=0,
            queue_limit=2,
            shed_threshold=1.0,
        ) as server:
            for seeds in (1, 2):
                assert command_submit(
                    port=server.port, seeds=seeds,
                    priority="interactive", out=io.StringIO(),
                ) == 0
            out = io.StringIO()
            status = command_submit(
                port=server.port, seeds=3, priority="interactive", out=out,
            )
            assert status == 3
            assert "overloaded" in out.getvalue()
            assert "queue 2/2" in out.getvalue()

    def test_unreachable_server_exits_2(self, tmp_path):
        out = io.StringIO()
        # An unbound ephemeral-range port: connection refused.
        status = command_submit(port=1, out=out, **MICRO_ARGS)
        assert status == 2
        assert "cannot reach server" in out.getvalue()

    def test_unknown_experiment_exits_2(self, tmp_path, server_thread_cls):
        journal = tmp_path / "jobs.jsonl"
        with server_thread_cls(str(journal), job_workers=1) as server:
            out = io.StringIO()
            status = command_submit(
                experiment="fig99", port=server.port, out=out
            )
            assert status == 2
            assert "unknown experiment 'fig99'" in out.getvalue()
            assert server.stats.submitted == 0
        assert not journal.exists() or journal.read_text() == ""

    def test_unwritable_json_path_exits_2(self, tmp_path, monkeypatch):
        class SucceedingClient:
            def __init__(self, host, port):
                pass

            def submit(self, job):
                return {"id": "job-000001", "state": "pending"}

            def wait(self, job_id, on_event=None):
                return {"id": job_id, "state": "succeeded"}

        monkeypatch.setattr(repro.serve, "JobClient", SucceedingClient)
        out = io.StringIO()
        json_path = tmp_path / "missing" / "out.json"
        status = command_submit(
            wait=True, json_path=str(json_path), out=out, **MICRO_ARGS
        )
        assert status == 2
        text = out.getvalue()
        assert "job job-000001 succeeded" in text
        assert f"error: cannot write {json_path}" in text

    def test_bad_spec_never_touches_the_network(self):
        out = io.StringIO()
        status = command_submit(port=1, seeds=0, out=out)
        assert status == 2
        assert "seeds" in out.getvalue()


class TestJobsCommand:
    def test_stats_and_status(self, tmp_path, server_thread_cls):
        with server_thread_cls(
            str(tmp_path / "jobs.jsonl"), job_workers=2
        ) as server:
            out = io.StringIO()
            assert command_submit(
                port=server.port, wait=True, out=out, **MICRO_ARGS
            ) == 0
            stats_out = io.StringIO()
            assert command_jobs(port=server.port, out=stats_out) == 0
            stats = json.loads(stats_out.getvalue())
            assert stats["completed"] == 1
            assert stats["jobs_per_second"] > 0
            status_out = io.StringIO()
            assert command_jobs(
                port=server.port, job_id="job-000001", out=status_out
            ) == 0
            assert json.loads(status_out.getvalue())["state"] == "succeeded"

    def test_unknown_job_exits_2(self, tmp_path, server_thread_cls):
        with server_thread_cls(
            str(tmp_path / "jobs.jsonl"), job_workers=0
        ) as server:
            out = io.StringIO()
            assert command_jobs(
                port=server.port, job_id="job-9", out=out
            ) == 2
            assert "error" in out.getvalue()


class TestServeCommand:
    """End-to-end: the real CLI process, shut down over the wire."""

    @staticmethod
    def _start_serve(journal, ready_file):
        """A ``repro serve`` subprocess and the port it bound."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cli import main; raise SystemExit(main())",
             "serve", "--port", "0", "--journal", str(journal),
             "--job-workers", "1", "--ready-file", str(ready_file)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60.0
        while not ready_file.exists():
            if process.poll() is not None:
                output = process.stdout.read().decode(errors="replace")
                process.stdout.close()
                raise AssertionError(f"server died early:\n{output}")
            if time.monotonic() >= deadline:
                process.kill()
                process.wait(timeout=30.0)
                process.stdout.close()
                raise AssertionError("server never came up")
            time.sleep(0.05)
        return process, int(ready_file.read_text().strip().rsplit(":", 1)[1])

    def test_serve_process_round_trip(self, tmp_path):
        ready_file = tmp_path / "ready"
        journal = tmp_path / "jobs.jsonl"
        process, port = self._start_serve(journal, ready_file)
        try:
            client = JobClient(port=port, timeout_s=60.0)
            submitted = client.submit(
                {"kind": "ensemble", "seeds": 1, "duration_s": 0.01}
            )
            record = client.wait(submitted["id"], timeout_s=60.0)
            assert record["state"] == "succeeded"
            client.shutdown()
            assert process.wait(timeout=60.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)
            process.stdout.close()
        assert journal.exists()

    def test_unwritable_journal_exits_2(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        process, port = self._start_serve(
            blocker / "jobs.jsonl", tmp_path / "ready"
        )
        try:
            client = JobClient(port=port, timeout_s=60.0)
            with pytest.raises(ServerError) as excinfo:
                client.submit({"kind": "ensemble", "seeds": 1})
            assert excinfo.value.error == "journal_failed"
            assert process.wait(timeout=60.0) == 2
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)
            output = process.stdout.read().decode(errors="replace")
            process.stdout.close()
        assert "error: server stopped: cannot append to" in output

    def test_port_in_use_exits_2(self, tmp_path):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            out = io.StringIO()
            status = command_serve(
                journal=str(tmp_path / "jobs.jsonl"),
                port=taken.getsockname()[1],
                out=out,
            )
        assert status == 2
        assert out.getvalue().startswith("error: ")
        assert "server stopped" not in out.getvalue()
