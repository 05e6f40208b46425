"""Runtime concurrency sanitizer: gating, the report store, the
loop-lag monitor, and the serve integration.

pytest-asyncio is not a dependency, so the async tests drive their own
loops through ``asyncio.run`` (same convention as tests/serve).
"""

import asyncio
import threading
import time

import pytest

from repro import sanitize


@pytest.fixture(autouse=True)
def _clean_reports():
    sanitize.clear_reports()
    yield
    sanitize.clear_reports()


class TestGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        assert not sanitize.enabled()

    @pytest.mark.parametrize("value", ["1", "true", "ON", " yes "])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(sanitize.ENV_VAR, value)
        assert sanitize.enabled()

    @pytest.mark.parametrize("value", ["0", "off", "no", "", "2"])
    def test_other_values_stay_off(self, monkeypatch, value):
        monkeypatch.setenv(sanitize.ENV_VAR, value)
        assert not sanitize.enabled()


class TestReportStore:
    def test_record_and_counts(self):
        sanitize.record("loop_blocked", "a")
        sanitize.record("loop_blocked", "b")
        sanitize.record("other", "c")
        assert sanitize.report_counts() == {
            "loop_blocked": 2,
            "other": 1,
        }
        kinds = [report.kind for report in sanitize.reports()]
        assert kinds == ["loop_blocked", "loop_blocked", "other"]

    def test_clear(self):
        sanitize.record("loop_blocked", "x")
        sanitize.clear_reports()
        assert sanitize.reports() == []
        assert sanitize.report_counts() == {}

    def test_concurrent_recording_loses_nothing(self):
        # The store is the sanitizer's own shared state; it must hold
        # up under exactly the concurrency it exists to police.
        per_thread, threads = 200, 8

        def hammer(index):
            for i in range(per_thread):
                sanitize.record("stress", f"{index}:{i}")

        workers = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert sanitize.report_counts() == {"stress": per_thread * threads}


class TestLoopLagMonitor:
    def test_detects_blocked_loop(self):
        async def scenario():
            monitor = sanitize.LoopLagMonitor(
                asyncio.get_running_loop(),
                threshold=0.1,
                interval_s=0.02,
                source="test",
            ).start()
            try:
                await asyncio.sleep(0.1)  # a few clean heartbeats first
                time.sleep(0.4)  # deliberately block the loop
                await asyncio.sleep(0.1)  # let queued beats be measured
            finally:
                monitor.stop()
            return monitor

        monitor = asyncio.run(scenario())
        assert monitor.beats > 0
        assert monitor.max_lag_s > 0.1
        assert sanitize.report_counts().get("loop_blocked", 0) >= 1
        detail = next(
            report.detail
            for report in sanitize.reports()
            if report.kind == "loop_blocked"
        )
        assert "[test]" in detail

    def test_quiet_on_responsive_loop(self):
        async def scenario():
            monitor = sanitize.LoopLagMonitor(
                asyncio.get_running_loop(),
                threshold=5.0,  # generous: CI boxes stall for tens of ms
                interval_s=0.02,
            ).start()
            try:
                await asyncio.sleep(0.2)
            finally:
                monitor.stop()
            return monitor

        monitor = asyncio.run(scenario())
        assert monitor.beats > 0
        assert sanitize.report_counts().get("loop_blocked", 0) == 0

    def test_survives_closed_loop(self):
        async def scenario():
            return sanitize.LoopLagMonitor(
                asyncio.get_running_loop(), interval_s=0.02
            ).start()

        monitor = asyncio.run(scenario())  # loop closes while running
        time.sleep(0.1)  # heartbeat hits the closed loop and exits
        monitor.stop()  # must not raise

    def test_double_start_rejected(self):
        async def scenario():
            monitor = sanitize.LoopLagMonitor(
                asyncio.get_running_loop(), interval_s=0.02
            ).start()
            try:
                with pytest.raises(RuntimeError):
                    monitor.start()
            finally:
                monitor.stop()

        asyncio.run(scenario())


class TestServeIntegration:
    def test_snapshot_carries_sanitize_counts(self, tmp_path, monkeypatch):
        from repro.serve import JobServer

        monkeypatch.setenv(sanitize.ENV_VAR, "1")

        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            try:
                assert server._sanitizer is not None
                payload = server.snapshot()
            finally:
                await server.stop()
            assert server._sanitizer is None
            return payload

        payload = asyncio.run(scenario())
        assert payload["sanitize"] == {}

    def test_snapshot_surfaces_filed_reports(self, tmp_path, monkeypatch):
        from repro.serve import JobServer

        monkeypatch.setenv(sanitize.ENV_VAR, "1")

        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            try:
                sanitize.record("loop_blocked", "planted by test")
                return server.snapshot()
            finally:
                await server.stop()

        payload = asyncio.run(scenario())
        assert payload["sanitize"] == {"loop_blocked": 1}

    def test_disabled_server_has_no_sanitize_key(self, tmp_path, monkeypatch):
        from repro.serve import JobServer

        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)

        async def scenario():
            server = JobServer(str(tmp_path / "jobs.jsonl"), job_workers=1)
            await server.start()
            try:
                assert server._sanitizer is None
                return server.snapshot()
            finally:
                await server.stop()

        payload = asyncio.run(scenario())
        assert "sanitize" not in payload
