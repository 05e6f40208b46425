"""The chaos load test (scripts/load_test.py) never leaves its
``repro serve`` subprocess running, whatever ends the harness."""

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
