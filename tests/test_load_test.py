"""The chaos load test (scripts/load_test.py) never leaves its
``repro serve`` subprocess running or its temp directory behind,
whatever ends the harness."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "load_test", ROOT / "scripts" / "load_test.py"
)
load_test = importlib.util.module_from_spec(spec)
spec.loader.exec_module(load_test)


def test_failing_submit_phase_stops_the_server(monkeypatch, tmp_path):
    servers = []

    class RecordedServer(load_test.ServerProcess):
        def start(self, timeout_s=60.0):
            servers.append(self)
            super().start(timeout_s)

    def fail(*args, **kwargs):
        raise RuntimeError("submit phase failed")

    monkeypatch.setattr(load_test.tempfile, "mkdtemp", lambda prefix: str(tmp_path))
    monkeypatch.setattr(load_test, "ServerProcess", RecordedServer)
    monkeypatch.setattr(load_test, "submit_all", fail)
    with pytest.raises(RuntimeError, match="submit phase failed"):
        load_test.main(["--smoke", "--no-kill"])
    (server,) = servers
    assert server.process.poll() is not None


def test_server_that_never_gets_ready_is_killed(monkeypatch, tmp_path):
    popen = subprocess.Popen

    def silent_server(args, **kwargs):
        # Runs, but never writes its ready file.
        return popen([sys.executable, "-c", "import time; time.sleep(60)"], **kwargs)

    monkeypatch.setattr(load_test.subprocess, "Popen", silent_server)
    server = load_test.ServerProcess(tmp_path / "jobs.jsonl", tmp_path / "ready", 1)
    with pytest.raises(RuntimeError, match="never wrote its ready file"):
        server.start(timeout_s=0.3)
    assert server.process.poll() is not None


class _IdleServer:
    """Stands in for the server: writes an empty journal, runs nothing."""

    def __init__(self, journal, ready_file, workers):
        self.journal = journal
        self.port = 0

    def start(self):
        self.journal.write_text("", encoding="utf-8")

    def stop(self):
        pass


@pytest.mark.parametrize("submit_fails", [False, True], ids=["returns", "raises"])
def test_temp_directory_is_removed_on_every_exit_path(
    monkeypatch, tmp_path, submit_fails
):
    run_dir = tmp_path / "repro-load-run"

    def make_run_dir(prefix):
        run_dir.mkdir()
        return str(run_dir)

    def submit_all(port, jobs, clients):
        if submit_fails:
            raise RuntimeError("submit phase failed")
        return [], 0, 0, 0

    monkeypatch.setattr(load_test.tempfile, "mkdtemp", make_run_dir)
    monkeypatch.setattr(load_test, "ServerProcess", _IdleServer)
    monkeypatch.setattr(load_test, "submit_all", submit_all)
    monkeypatch.setattr(load_test, "wait_for_drain", lambda port: {})
    if submit_fails:
        with pytest.raises(RuntimeError, match="submit phase failed"):
            load_test.main(["--smoke", "--no-kill"])
    else:
        # An empty journal audits as "no jobs": main() returns 1.
        assert load_test.main(["--smoke", "--no-kill"]) == 1
    assert not run_dir.exists()
