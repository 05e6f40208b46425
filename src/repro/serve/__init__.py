"""Simulation-as-a-service: a fault-tolerant async job layer.

``repro.serve`` turns the repo's run machinery into a service the way
the paper turns one beam into a multi-beam: by budgeting redundancy and
degradation *before* failure arrives.  The pieces:

* :mod:`repro.serve.jobs` — the job model: JSON-portable
  :class:`JobSpec`, content-hashed coalescing keys, lifecycle records.
* :mod:`repro.serve.journal` — crash-safe JSONL journal; a killed
  server replays it and resumes every unfinished job.
* :mod:`repro.serve.queue` — bounded priority queue with admission
  control, soft shedding, and eviction.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the asyncio
  TCP server (``repro serve``) and the blocking client
  (``repro submit``).

See ``scripts/load_test.py`` for the chaos-load harness that measures
sustained jobs/sec with worker crashes and slow runs active.
"""

from repro.serve.client import JobClient, ServerError
from repro.serve.jobs import (
    JOB_KINDS,
    PRIORITIES,
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    JobState,
    ServiceOverload,
    job_key,
)
from repro.serve.journal import JobJournal, JournalFailure, replay_journal
from repro.serve.queue import AdmissionQueue
from repro.serve.runner import execute_job
from repro.serve.server import JobServer, ServerStats

__all__ = [
    "JOB_KINDS",
    "PRIORITIES",
    "TERMINAL_STATES",
    "AdmissionQueue",
    "JobClient",
    "JobJournal",
    "JournalFailure",
    "JobRecord",
    "JobServer",
    "JobSpec",
    "JobState",
    "ServerError",
    "ServerStats",
    "ServiceOverload",
    "execute_job",
    "job_key",
    "replay_journal",
]
