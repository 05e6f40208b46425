# lint-fixture: relpath=src/repro/serve/_fixture_async_bad.py
"""Async-hygiene fixtures: one deliberate violation per RL5xx rule."""

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_STATE_LOCK = threading.Lock()


def _persist(path):
    descriptor = os.open(path, os.O_WRONLY)
    os.fsync(descriptor)
    os.close(descriptor)


async def sleepy_handler():
    time.sleep(0.5)  # expect: RL501


async def sneaky_read(path):
    with open(path) as stream:  # expect: RL501
        return stream.read()


async def executor_result_wait(job):
    pool = ThreadPoolExecutor(max_workers=1)
    future = pool.submit(job)
    return future.result()  # expect: RL501


async def fire_and_forget(worker):
    asyncio.create_task(worker())  # expect: RL502


async def dead_stored_task(worker):
    task = asyncio.create_task(worker())  # expect: RL502
    return None


async def lock_held_await(queue):
    with _STATE_LOCK:
        return await queue.get()  # expect: RL503


async def transitively_blocking(path):
    _persist(path)  # expect: RL505
