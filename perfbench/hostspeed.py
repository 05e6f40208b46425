"""Host speed: a fixed reference kernel timed between a workload's jobs.

On a shared host the speed of a virtual CPU drifts with its neighbours'
load: each CPU switches, every few seconds, between a fast and a slow
regime (about 1.5x apart), and for minutes the slow one can dominate.
The drift is not steal time: the thread's CPU time grows with its wall
time, so neither is steady.  It is also not a property of the process
(hash seed, memory layout): one interpreter running the same jobs
drifts between regimes, and the reference kernel below drifts with it
(per-job correlation 0.6 to 0.9 on the network-4x64 jobs).

So the kernel -- a fixed mix of interpreter work and small numpy
operations, like the workloads' inner loops, and no ``repro`` code --
runs between jobs, while the workload is idle, once on each CPU the
process may use.  A job's time is scaled by :data:`REFERENCE_S` over
the mean kernel time just before and just after it: the time the job
would have taken on a host that runs the kernel in :data:`REFERENCE_S`.
A change to the library cannot move the kernel, so the scale cancels
only the host's drift.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List

import numpy as np

#: Kernel time of the reference host [s]; normalised times are in
#: seconds of that host.  Between the kernel's fast and slow regimes on a
#: 2-vCPU Xeon guest at 2.0 GHz (about 7 and 12 ms), so normalised
#: figures read close to wall figures there.
REFERENCE_S = 0.010

_MATRIX = np.random.default_rng(0).standard_normal((32, 32))


def kernel() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    started = time.perf_counter()
    total = 0
    table = {}
    for index in range(15_000):
        total += index * index
        table[index & 255] = total
    matrix = _MATRIX
    for _ in range(350):
        matrix = np.sin(matrix @ _MATRIX * 1e-2) + np.abs(matrix).sum() * 1e-9
    return time.perf_counter() - started


def sample() -> float:
    """One host-speed sample: the kernel's mean time on every CPU this
    process may use (the workloads' threads run on any of them, and each
    virtual CPU drifts on its own).  The calling thread's CPU set is
    restored afterwards."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


class HostClock:
    """Host-speed samples between jobs, and the scale they give each job."""

    def __init__(self) -> None:
        kernel()  # warm the interpreter's and numpy's caches
        self.samples: List[float] = [sample()]
        #: Wall time spent sampling after construction.
        self.spent_s = 0.0
        #: Time between samples, each interval in reference seconds.
        self.scaled_s = 0.0
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Sample the host after a job; the factor that converts the
        job's time (since the previous sample) to reference seconds."""
        started = time.perf_counter()
        self.samples.append(sample())
        factor = REFERENCE_S / (0.5 * (self.samples[-2] + self.samples[-1]))
        self.scaled_s += (started - self._last) * factor
        self._last = time.perf_counter()
        self.spent_s += self._last - started
        return factor

    def median_s(self) -> float:
        return statistics.median(self.samples)
