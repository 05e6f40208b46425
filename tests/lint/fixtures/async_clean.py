# lint-fixture: relpath=src/repro/serve/_fixture_async.py
"""Async-hygiene fixtures: every RL5xx idiom done correctly."""

import asyncio
import os


def _persist(path):
    descriptor = os.open(path, os.O_WRONLY)
    os.fsync(descriptor)
    os.close(descriptor)


async def offloaded_blocking(path):
    # Blocking work hops off the loop explicitly.
    await asyncio.to_thread(_persist, path)


async def retained_task(worker):
    task = asyncio.create_task(worker())
    await task
    return task.result()


async def stored_task(self_like, worker):
    # Attribute stores retain the handle beyond this frame.
    self_like.task = asyncio.create_task(worker())


async def async_lock_discipline(queue):
    lock = asyncio.Lock()
    async with lock:
        await queue.get()
