#!/usr/bin/env python
"""Chaos load test for the ``repro serve`` job server.

Drives a real server subprocess with sustained concurrent submissions
while the chaos profile is active (injected worker crashes + slow runs),
optionally ``kill -9``s the server mid-load and restarts it on the same
journal, then audits the journal for the serving layer's core
guarantees:

* **zero lost jobs** — every accepted submission reaches a terminal
  state (succeeded / failed / shed), exactly once;
* **zero duplicate executions of coalesced submissions** — at any point
  in the journal, at most one live job exists per content key, so
  duplicate submissions provably joined the existing execution instead
  of starting their own;
* **one retry owner** — no job starts twice within one server life.
  Nothing re-runs a job or a seed-run that raised; only journal replay
  re-runs a job: one that was mid-run at the kill starts once before it
  and once after.

Usage::

    python scripts/load_test.py [--smoke] [--jobs N] [--duplicates N]
        [--clients N] [--no-kill] [--json OUT.json]

``--smoke`` is the CI profile: small counts, one kill/restart cycle,
a couple of minutes end to end.  Exit status 0 when every invariant
holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
sys.path.insert(0, SRC)

from repro.serve import JobClient, ServerError  # noqa: E402
from repro.serve.jobs import TERMINAL_STATES  # noqa: E402

#: The chaos profile.  Chaos is drawn once per seed, and every micro
#: job runs seeds 0..n-1, so a rate picks the same seeds in every job:
#: at 0.3, ``worker_crash`` fails the run of seed 1, which a two-seed
#: job absorbs within its failure budget.  Every run is slowed, so the
#: queue actually fills.
CHAOS_FAULTS = [
    {"kind": "worker_crash", "rate": 0.3},
    {"kind": "slow_run", "rate": 1.0, "delay_s": 0.05},
]

#: A handful of jobs are doomed (every seed crashes) so the
#: terminal-failure path runs under load too: the ensemble exceeds its
#: failure budget and the server fails the job on its first execution.
DOOMED_FAULTS = [{"kind": "worker_crash", "rate": 1.0}]


def make_jobs(total: int, duplicates: int) -> List[Dict[str, Any]]:
    """The submission schedule: unique chaos jobs + exact duplicates."""
    jobs: List[Dict[str, Any]] = []
    for index in range(total):
        # duration_s varies per index so every job has a distinct
        # content key; the interleaved duplicates below are the ONLY
        # submissions that should coalesce.
        duration_s = round(0.01 + 0.0001 * index, 6)
        if index % 7 == 3:
            job = {
                "kind": "ensemble",
                "seeds": 1,
                "duration_s": duration_s,
                "faults": DOOMED_FAULTS,
            }
        else:
            job = {
                "kind": "ensemble",
                "seeds": 1 + index % 2,
                "duration_s": duration_s,
                "faults": CHAOS_FAULTS,
            }
        job["priority"] = ("interactive", "batch", "bulk")[index % 3]
        jobs.append(job)
    # Exact duplicates of the early unique jobs, interleaved so they
    # race the originals: these MUST coalesce or hit the result cache.
    for index in range(duplicates):
        jobs.append(dict(jobs[index % max(1, total)]))
    return jobs


class ServerProcess:
    """A killable ``repro serve`` subprocess."""

    def __init__(self, journal: Path, ready_file: Path, workers: int) -> None:
        self.journal = journal
        self.ready_file = ready_file
        self.workers = workers
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> None:
        if self.ready_file.exists():
            self.ready_file.unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self.process = subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import main; raise SystemExit(main())",
                "serve", "--port", "0",
                "--journal", str(self.journal),
                "--job-workers", str(self.workers),
                "--queue-limit", "256",
                "--shed-threshold", "0.95",
                "--ready-file", str(self.ready_file),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + timeout_s
            while not self.ready_file.exists():
                if self.process.poll() is not None:
                    raise RuntimeError("server process died during startup")
                if time.monotonic() > deadline:
                    raise RuntimeError("server never wrote its ready file")
                time.sleep(0.05)
            self.port = int(
                self.ready_file.read_text().strip().rsplit(":", 1)[1]
            )
        except BaseException:
            # A server that never came up must not outlive the harness.
            self.process.kill()
            self.process.wait(timeout=30.0)
            raise

    def kill_hard(self) -> None:
        """SIGKILL: no cleanup, no journal flush beyond what's durable."""
        assert self.process is not None
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30.0)

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        try:
            JobClient(port=self.port, timeout_s=10.0).shutdown()
            self.process.wait(timeout=30.0)
        except (OSError, ServerError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait(timeout=30.0)


def submit_all(
    port: int, jobs: List[Dict[str, Any]], clients: int
) -> Tuple[List[str], int, int, int]:
    """Submit every job concurrently; returns (ids, coalesced, shed,
    connection_errors)."""
    ids: List[str] = []
    coalesced = 0
    shed = 0
    errors = 0

    def one(job: Dict[str, Any]) -> Optional[Tuple[str, bool]]:
        client = JobClient(port=port, timeout_s=30.0)
        try:
            response = client.submit(job)
        except ServerError as error:
            if error.error == "overload":
                return None
            raise
        except OSError:
            return ("", False)
        return (response["id"], bool(
            response.get("coalesced") or response.get("cached")
        ))

    with ThreadPoolExecutor(max_workers=clients) as pool:
        for outcome in pool.map(one, jobs):
            if outcome is None:
                shed += 1
            elif outcome[0] == "":
                errors += 1
            else:
                job_id, was_coalesced = outcome
                ids.append(job_id)
                coalesced += int(was_coalesced)
    return ids, coalesced, shed, errors


def wait_for_drain(port: int, timeout_s: float = 600.0) -> Dict[str, Any]:
    """Block until the queue is empty and nothing runs."""
    client = JobClient(port=port, timeout_s=30.0)
    deadline = time.monotonic() + timeout_s
    while True:
        stats = client.stats()
        if stats["queue_depth"] == 0 and stats["running"] == 0:
            return stats
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"server did not drain within {timeout_s}s: {stats}"
            )
        time.sleep(0.1)


def complete_lines(path: Path) -> int:
    """Journal lines whose newline reached the file (a torn tail is not
    one): after a kill, the restarted server's ops start at this index."""
    with open(path, "rb") as stream:
        return stream.read().count(b"\n")


def audit_journal(
    path: Path, kill_line: Optional[int] = None
) -> Tuple[Dict[str, Any], List[str]]:
    """Replay the journal op-by-op and check the serving invariants.

    ``kill_line`` is :func:`complete_lines` right after the kill (None
    without one): lines before it are the first server life's, the rest
    the restarted server's.

    Returns ``(summary, violations)``; an empty violation list means
    every accepted job reached a terminal state exactly once, no content
    key ever had two live executions, and no job started twice within
    one server life.
    """
    violations: List[str] = []
    key_of: Dict[str, str] = {}
    live_by_key: Dict[str, str] = {}
    terminal: Dict[str, str] = {}
    starts: Dict[str, int] = {}
    life_starts: Dict[Tuple[str, bool], int] = {}
    submissions: Dict[str, int] = {}

    with open(path, "r", encoding="utf-8") as stream:
        lines = stream.readlines()
    for index, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        try:
            op = json.loads(text)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                continue  # torn tail from the kill -9: expected
            violations.append(f"line {index + 1}: corrupt journal line")
            continue
        name = op.get("op")
        job_id = str(op.get("id", ""))
        if name == "submit":
            key = str(op.get("key", ""))
            if key in live_by_key:
                violations.append(
                    f"line {index + 1}: job {job_id} submitted while "
                    f"{live_by_key[key]} is live for the same key "
                    f"(duplicate execution of a coalescible submission)"
                )
            live_by_key[key] = job_id
            key_of[job_id] = key
            submissions[job_id] = 1
            starts[job_id] = 0
        elif name == "coalesce":
            submissions[job_id] = submissions.get(job_id, 0) + 1
        elif name == "start":
            if job_id in terminal:
                violations.append(
                    f"line {index + 1}: job {job_id} started after its "
                    f"terminal state {terminal[job_id]}"
                )
            starts[job_id] = starts.get(job_id, 0) + 1
            life = (job_id, kill_line is not None and index >= kill_line)
            life_starts[life] = life_starts.get(life, 0) + 1
            if life_starts[life] == 2:
                violations.append(
                    f"line {index + 1}: job {job_id} started twice in one "
                    f"server life (a failure with more than one retry owner)"
                )
        elif name in ("done", "shed"):
            state = op.get("state", "shed" if name == "shed" else "")
            if job_id in terminal:
                violations.append(
                    f"line {index + 1}: job {job_id} reached a second "
                    f"terminal state ({terminal[job_id]} then {state})"
                )
            terminal[job_id] = str(state)
            live_by_key.pop(key_of.get(job_id, ""), None)

    for job_id in submissions:
        if job_id not in terminal:
            violations.append(f"job {job_id} never reached a terminal state")
        state = terminal.get(job_id)
        if state is not None and state not in TERMINAL_STATES:
            violations.append(f"job {job_id} has bogus terminal state {state!r}")

    summary = {
        "journal_lines": len(lines),
        "jobs": len(submissions),
        "submissions": sum(submissions.values()),
        "coalesced_submissions": sum(submissions.values()) - len(submissions),
        "executions": sum(starts.values()),
        "max_starts_per_life": max(life_starts.values(), default=0),
        "terminal": {
            state: sum(1 for s in terminal.values() if s == state)
            for state in TERMINAL_STATES
        },
    }
    return summary, violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=120,
                        help="unique jobs to submit (default 120)")
    parser.add_argument("--duplicates", type=int, default=40,
                        help="duplicate submissions to interleave")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent submitter threads")
    parser.add_argument("--workers", type=int, default=4,
                        help="server job workers")
    parser.add_argument("--smoke", action="store_true",
                        help="CI profile: small counts, fast")
    parser.add_argument("--no-kill", action="store_true",
                        help="skip the kill -9 / restart phase")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the result summary to this path")
    arguments = parser.parse_args(argv)

    if arguments.smoke:
        arguments.jobs = min(arguments.jobs, 30)
        arguments.duplicates = min(arguments.duplicates, 10)
        arguments.clients = min(arguments.clients, 4)
        arguments.workers = min(arguments.workers, 2)

    tmp = Path(tempfile.mkdtemp(prefix="repro-load-"))
    try:
        return _run(arguments, tmp)
    finally:
        # The journal and ready file go with the run, failures included.
        shutil.rmtree(tmp, ignore_errors=True)


def _run(arguments: argparse.Namespace, tmp: Path) -> int:
    """Run the load test with its journal and ready file under ``tmp``."""
    journal = tmp / "jobs.jsonl"
    server = ServerProcess(journal, tmp / "ready", arguments.workers)

    jobs = make_jobs(arguments.jobs, arguments.duplicates)
    half = len(jobs) // 2
    started = time.monotonic()

    print(
        f"load test: {arguments.jobs} unique + {arguments.duplicates} "
        f"duplicate jobs, {arguments.clients} clients, "
        f"{arguments.workers} workers, chaos active"
        + (", kill -9 mid-load" if not arguments.no_kill else "")
    )
    server.start()
    try:
        print(f"server up on port {server.port} (journal {journal})")

        ids, coalesced, shed, errors = submit_all(
            server.port, jobs[:half], arguments.clients
        )
        kill_line: Optional[int] = None
        if arguments.no_kill:
            rest_ids, more_coalesced, more_shed, more_errors = submit_all(
                server.port, jobs[half:], arguments.clients
            )
        else:
            # Kill the server hard while the first wave is still in flight,
            # restart it on the same journal, and push the second wave at
            # the revived instance.
            server.kill_hard()
            kill_line = complete_lines(journal)
            print("killed server with SIGKILL; restarting on the same journal")
            server.start()
            print(f"server back on port {server.port}; replay complete")
            rest_ids, more_coalesced, more_shed, more_errors = submit_all(
                server.port, jobs[half:], arguments.clients
            )
        ids += rest_ids
        coalesced += more_coalesced
        shed += more_shed
        errors += more_errors

        stats = wait_for_drain(server.port)
        elapsed_s = time.monotonic() - started
    finally:
        # Stop the server on every exit path, failures included.
        server.stop()

    audit, violations = audit_journal(journal, kill_line)
    # With REPRO_SANITIZE=1 the server folds its runtime-sanitizer
    # report tally into the stats payload; any nonzero count (a blocked
    # event loop) is an invariant violation.
    for kind, count in sorted((stats.get("sanitize") or {}).items()):
        if count:
            violations.append(
                f"sanitizer reported {count} {kind!r} violation(s)"
            )
    jobs_per_second = audit["executions"] / elapsed_s if elapsed_s else 0.0

    result = {
        "submitted": len(ids),
        "coalesced_or_cached": coalesced,
        "shed_at_admission": shed,
        "connection_errors_during_kill": errors,
        "elapsed_s": round(elapsed_s, 3),
        "jobs_per_second": round(jobs_per_second, 3),
        "server_stats": stats,
        "audit": audit,
        "violations": violations,
    }
    print(json.dumps(result, indent=2))
    if arguments.json_path:
        Path(arguments.json_path).write_text(
            json.dumps(result, indent=2) + "\n", encoding="utf-8"
        )

    if violations:
        print(f"FAIL: {len(violations)} invariant violation(s)")
        return 1
    if audit["jobs"] == 0:
        print("FAIL: audit saw no jobs (harness bug?)")
        return 1
    if coalesced == 0 and arguments.duplicates > 0:
        print("FAIL: duplicates submitted but none coalesced/cached")
        return 1
    print(
        f"OK: {audit['jobs']} jobs, {audit['executions']} executions, "
        f"{audit['coalesced_submissions']} coalesced submissions, "
        f"terminal states exactly once, {jobs_per_second:.2f} jobs/s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
