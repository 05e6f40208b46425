"""Blocking client for the job server's JSON-lines protocol.

One short-lived TCP connection per call keeps the client trivially
thread-safe — the load harness drives the server from a thread pool of
these.  ``wait`` holds its connection open and yields streamed progress
events until the job's terminal record arrives.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Callable, Dict, Iterator, Optional

__all__ = ["JobClient", "ServerError"]


class ServerError(RuntimeError):
    """The server answered with a structured error payload."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.payload = payload
        reason = payload.get("reason", payload.get("error", "server error"))
        super().__init__(str(reason))

    @property
    def error(self) -> str:
        return str(self.payload.get("error", "error"))


class JobClient:
    """Talk to a :class:`~repro.serve.server.JobServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout_s: float = 60.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)

    # ------------------------------------------------------------------
    # plumbing

    def _connect(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )

    @staticmethod
    def _send_line(sock: socket.socket, payload: Dict[str, Any]) -> None:
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with self._connect() as sock:
            self._send_line(sock, payload)
            with sock.makefile("r", encoding="utf-8") as stream:
                line = stream.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok", False):
            raise ServerError(response)
        return response

    # ------------------------------------------------------------------
    # operations

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("ok"))

    def submit(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job-spec dict; returns the admission payload.

        Raises :class:`ServerError` with ``error == "overload"`` when
        the server shed the submission.
        """
        return self._request({"op": "submit", "job": job})

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "status", "id": job_id})["job"]

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "result", "id": job_id})["job"]

    def stats(self) -> Dict[str, Any]:
        return self._request({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        self._request({"op": "shutdown"})

    def wait(
        self,
        job_id: str,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Block until ``job_id`` is terminal; returns its record.

        ``on_event`` sees every streamed progress event (started,
        completed, failed, shed) as it happens.
        """
        with self._connect() as sock:
            if timeout_s is not None:
                sock.settimeout(timeout_s)
            self._send_line(sock, {"op": "wait", "id": job_id})
            with sock.makefile("r", encoding="utf-8") as stream:
                for line in stream:
                    payload = json.loads(line)
                    if "ok" in payload:
                        if not payload["ok"]:
                            raise ServerError(payload)
                        return payload["job"]
                    if on_event is not None:
                        on_event(payload)
        raise ConnectionError("server closed the wait stream early")

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield progress events until the terminal record (yielded last
        as ``{"job": ...}``)."""
        with self._connect() as sock:
            self._send_line(sock, {"op": "wait", "id": job_id})
            with sock.makefile("r", encoding="utf-8") as stream:
                for line in stream:
                    payload = json.loads(line)
                    if "ok" in payload:
                        if not payload["ok"]:
                            raise ServerError(payload)
                        yield {"job": payload["job"]}
                        return
                    yield payload
