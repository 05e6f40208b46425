"""Bench: a job-server burst (submit -> execute -> done).

Drives an in-process :class:`JobServer` with a burst of distinct micro
ensemble jobs plus interleaved duplicates until the queue drains, and
checks every job completes and duplicates never execute twice.  The
journal runs with ``sync=True`` — the fsync-per-transition cost is part
of the serving contract, not overhead to hide.
"""

import asyncio

from repro.serve import JobServer

UNIQUE_JOBS = 16
DUPLICATES = 8
WORKERS = 2


async def _drive(journal_path):
    server = JobServer(
        str(journal_path), job_workers=WORKERS, queue_limit=256,
        shed_threshold=1.0,
    )
    await server.start()
    try:
        jobs = [
            {
                "kind": "ensemble",
                "seeds": 1,
                "duration_s": round(0.01 + 0.0001 * index, 6),
            }
            for index in range(UNIQUE_JOBS)
        ]
        jobs += [dict(jobs[index]) for index in range(DUPLICATES)]
        ids = []
        for job in jobs:
            response = await server.submit(job)
            assert response["ok"], response
            ids.append(response["id"])
        while any(not server.records[job_id].terminal for job_id in ids):
            await asyncio.sleep(0.005)
        return server.snapshot()
    finally:
        await server.stop()


def test_serve_throughput(tmp_path):
    stats = asyncio.run(_drive(tmp_path / "jobs.jsonl"))

    assert stats["completed"] == UNIQUE_JOBS
    assert stats["failed"] == 0
    # Duplicates coalesced or hit the result cache; never re-executed.
    assert stats["coalesced"] + stats["cached"] == DUPLICATES
    assert stats["executions"] == UNIQUE_JOBS
