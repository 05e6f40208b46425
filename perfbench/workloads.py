"""The three workloads: inputs from a seed, one measured pass, checks.

A workload's pass runs *jobs* until a time budget is spent, or replays
the exact job plan of an earlier pass (the traced run replays the plan
of its untraced reference pass).  A pass returns its end-to-end
figures, the quality values it checked, and two digests of what it
simulated, so the traced and untraced passes can be compared bitwise.

* ``mobile-ensemble`` -- the Fig. 18b/c ensemble: five systems, 1 s
  horizon, through ``run_mobile_ensembles`` (``execute_ensemble``,
  ``workers=1``), one seed per job: the runs of all five systems on it.
* ``network-4x64`` -- ``NetworkSimulator`` with 4 cells x 64 users and a
  0.05 s horizon, one seed per job, through ``execute_ensemble``.
* ``serve-mix`` -- an in-process ``JobServer`` (2 job workers, fsynced
  journal that first replays an earlier session's history) fed micro
  ``ensemble`` jobs, one in four a duplicate of an earlier job.  A burst
  phase measures capacity (drain rate of saturating bursts); an
  open-loop phase at half that capacity measures latency.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

import numpy as np
from scipy.special import betainc

#: Seed stride between benchmark seeds, so their inputs never overlap.
SEED_STRIDE = 100_000

NETWORK_CELLS = 4
NETWORK_USERS = 64
NETWORK_DURATION_S = 0.05

SERVE_WORKERS = 2
#: Submissions per saturating burst (one in four a duplicate).
SERVE_BURST = 96
#: Load of the paced phase: its open-loop rate over the capacity the
#: pass's bursts measured, so latency is taken at the same utilisation
#: however fast the host runs.
SERVE_LOAD = 0.5
#: Horizon of one micro job's link run [s]; long enough for tracking.
SERVE_JOB_DURATION_S = 0.03
#: Submissions of the earlier session whose journal the server replays
#: at start: what one serve-mix run at the declared 25 s submits (1021 to
#: 1127 over seeds 300-309).
SERVE_HISTORY_SUBMISSIONS = 1100
#: Paced jobs between two host-speed samples (the server drains first).
SERVE_SEGMENT_JOBS = 45
#: Share of a serve pass spent on bursts; the rest is the paced phase.
SERVE_BURST_SHARE = 0.5


@dataclass
class PassResult:
    """What one pass of a workload measured and checked."""

    wall_s: float
    attempted: int
    failed: int
    #: End-to-end figures, by metric name, in reference-host seconds
    #: (``hostspeed``); wall seconds when the pass ran without a clock.
    e2e: Dict[str, float]
    #: The same figures from wall seconds.
    e2e_wall: Dict[str, float]
    #: Checked quality values, printed as information.
    quality: Dict[str, Any]
    #: Names of the checks that failed.
    failed_checks: List[str]
    #: Digest of the summaries (metrics of every run or job result).
    summary_digest: str
    #: What the pass ran; a replay runs exactly this.
    plan: Any
    #: Per-layer numbers the workload measures itself (traced runs).
    layers: Dict[str, float] = field(default_factory=dict)


def digest_numbers(values) -> str:
    """Exact digest of a flat sequence of numbers and strings."""
    hasher = hashlib.sha256()
    for value in values:
        if isinstance(value, float):
            hasher.update(value.hex().encode())
        else:
            hasher.update(repr(value).encode())
        hasher.update(b"|")
    return hasher.hexdigest()


def link_metric_values(metrics) -> list:
    return [
        float(metrics.reliability),
        float(metrics.mean_throughput_bps),
        float(metrics.mean_spectral_efficiency),
        float(metrics.mean_snr_db),
        float(metrics.product),
        int(metrics.training_rounds),
        float(metrics.probe_airtime_s),
    ]


def percentile_ms(values, q: float) -> float:
    """The ``q``-th percentile of times in seconds, in milliseconds.

    A Harrell-Davis estimate: it weights every order statistic, so a tail
    percentile of a few dozen jobs does not hinge on the one or two
    slowest.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    count = ordered.size
    if count == 1:
        return float(ordered[0]) * 1e3
    p = q / 100.0
    edges = betainc(p * (count + 1), (1 - p) * (count + 1), np.arange(count + 1) / count)
    return float(np.dot(np.diff(edges), ordered)) * 1e3


def figures(walls, link_seconds, jobs, latencies) -> Dict[str, float]:
    """End-to-end figures from per-interval walls with the link seconds
    simulated and jobs done in each, and per-job latencies [s]."""
    return {
        "link_seconds_per_s": statistics.median(
            link / wall for link, wall in zip(link_seconds, walls)
        ),
        "jobs_per_s": statistics.median(
            count / wall for count, wall in zip(jobs, walls)
        ),
        "job_latency_p50_ms": percentile_ms(latencies, 50),
        "job_latency_p95_ms": percentile_ms(latencies, 95),
    }


class Timings:
    """Per-interval walls and per-job latencies of a pass, in wall and
    in reference-host seconds (each interval scaled by the host clock's
    sample after it; a pass without a clock keeps wall seconds)."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.link_seconds: List[float] = []
        self.jobs: List[float] = []
        self.walls: List[float] = []
        self.scaled_walls: List[float] = []
        self.latencies: List[float] = []
        self.scaled_latencies: List[float] = []

    def add(
        self, latencies, wall: Optional[float] = None,
        link_seconds: float = 0.0, jobs: int = 0,
    ) -> None:
        """Record an interval's latencies and, when ``wall`` is given,
        the interval itself for the rates."""
        scale = self.clock.scale() if self.clock is not None else 1.0
        if wall is not None:
            self.walls.append(wall)
            self.scaled_walls.append(wall * scale)
            self.link_seconds.append(link_seconds)
            self.jobs.append(jobs)
        self.latencies.extend(latencies)
        self.scaled_latencies.extend(latency * scale for latency in latencies)

    def figures(self) -> Dict[str, float]:
        return figures(
            self.scaled_walls, self.link_seconds, self.jobs,
            self.scaled_latencies,
        )

    def wall_figures(self) -> Dict[str, float]:
        return figures(self.walls, self.link_seconds, self.jobs, self.latencies)


def job_indices(budget_s: Optional[float], replay, minimum: int = 1):
    """Indices of a pass's jobs: the ``replay`` list when given, else
    0, 1, ... until ``budget_s`` is spent (at least ``minimum`` jobs)."""
    if replay is not None:
        yield from replay
        return
    started = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - started < budget_s:
        yield index
        index += 1


class SnrDigest:
    """Hashes the SNR trace of every ``LinkSimulator.run`` in a window.

    The hook only reads the returned trace.  Runs may finish on several
    threads (serve-mix), so the per-run digests are combined in sorted
    order.
    """

    def __init__(self) -> None:
        self._digests: List[str] = []
        self._lock = threading.Lock()
        self._original = None

    def install(self) -> None:
        from repro.sim.link import LinkSimulator

        original = LinkSimulator.__dict__["run"]
        digests, lock = self._digests, self._lock

        def run(simulator):
            trace = original(simulator)
            digest = hashlib.sha256(trace.snr_db.tobytes()).hexdigest()
            with lock:
                digests.append(digest)
            return trace

        LinkSimulator.run = run
        self._original = original

    def uninstall(self) -> None:
        from repro.sim.link import LinkSimulator

        LinkSimulator.run = self._original

    def hexdigest(self) -> str:
        with self._lock:
            digests = sorted(self._digests)
        return digest_numbers([len(digests)] + digests)


# ----------------------------------------------------------------------
# mobile-ensemble


class MobileEnsemble:
    """Fig. 18b/c: five systems on one seed per job, 1 s horizon each."""

    name = "mobile-ensemble"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def prepare(self) -> None:
        """No inputs to write: every seed's scenario is built in the run."""

    def setup(self) -> None:
        from repro.experiments.common import make_manager
        from repro.experiments import fig18_end2end

        self.fig18 = fig18_end2end
        for system in ("mmreliable", "reactive", "beamspy", "widebeam", "oracle"):
            make_manager(system, self.job_seed(0))

    def job_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def run(
        self, budget_s: Optional[float] = None, plan=None, clock=None
    ) -> PassResult:
        from repro.sim.executor import EnsembleError, EnsembleSummary

        timings = Timings(clock)
        digest: list = []
        failed_checks: List[str] = []
        attempted = failed = 0
        pooled: Dict[str, list] = {}
        done: List[int] = []
        started = time.perf_counter()
        for job in job_indices(budget_s, plan):
            done.append(job)
            seed = self.job_seed(job)
            job_started = time.perf_counter()
            try:
                summaries = self.fig18.run_mobile_ensembles(seeds=(seed,), workers=1)
            except EnsembleError as error:
                attempted += error.total_runs
                failed += error.total_runs
                failed_checks.append(f"seed {seed}: {error}")
                continue
            wall = time.perf_counter() - job_started
            link_seconds = 0.0
            for label, summary in summaries.items():
                attempted += summary.stats.total_runs
                failed += summary.stats.failed_runs
                link_seconds += len(summary.metrics) * 1.0
                pooled.setdefault(label, []).extend(summary.metrics)
                digest.append(label)
                for metrics in summary.metrics:
                    digest.extend(link_metric_values(metrics))
            timings.add([wall], wall, link_seconds, 1)
        wall_s = time.perf_counter() - started
        # The Fig. 18 ordering, checked over every seed of the pass: a
        # few seeds alone can dip below the T x R bar.
        ensembles = {
            label: EnsembleSummary(label=label, metrics=tuple(metrics))
            for label, metrics in pooled.items()
        }
        reliability = ensembles["mmreliable"].median_reliability()
        gain = self.fig18.product_improvement(ensembles, "reactive")
        if not (reliability > 0.93 and gain > 1.25):
            failed += 1
            failed_checks.append(
                f"mmReliable median reliability {reliability:.4f} (needs "
                f"> 0.93), T x R gain over reactive {gain:.3f} (needs > 1.25)"
            )
        return PassResult(
            wall_s=wall_s,
            attempted=attempted,
            failed=failed,
            e2e=timings.figures(),
            e2e_wall=timings.wall_figures(),
            quality={
                "jobs": len(timings.walls),
                "mmreliable_median_reliability": reliability,
                "txr_gain_over_reactive": gain,
            },
            failed_checks=failed_checks,
            summary_digest=digest_numbers(digest),
            plan=done,
        )


# ----------------------------------------------------------------------
# network-4x64


class Network4x64:
    """4 cells x 64 users, 0.05 s horizon, one seed per job."""

    name = "network-4x64"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def prepare(self) -> None:
        """No inputs to write: users are placed from the seed in the run."""

    def setup(self) -> None:
        from repro.network import NetworkScenario, row_of_cells
        from repro.network.simulator import build_network_simulator

        self.scenario = NetworkScenario(
            cells=row_of_cells(NETWORK_CELLS),
            num_users=NETWORK_USERS,
            duration_s=NETWORK_DURATION_S,
        )
        self.factory = partial(build_network_simulator, self.scenario)
        self.scenario.user_batch(self.job_seed(0))

    def job_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def run(
        self, budget_s: Optional[float] = None, plan=None, clock=None
    ) -> PassResult:
        from repro.sim import executor

        timings = Timings(clock)
        link_seconds = NETWORK_USERS * NETWORK_DURATION_S
        digest: list = []
        failed_checks: List[str] = []
        attempted = failed = 0
        denied: List[int] = []
        fairness: List[float] = []
        reliability: List[float] = []
        throughput: List[float] = []
        done: List[int] = []
        started = time.perf_counter()
        for job in job_indices(budget_s, plan):
            done.append(job)
            seed = self.job_seed(job)
            spec = executor.EnsembleSpec(
                label=self.name,
                simulator_factory=self.factory,
                seeds=(seed,),
                workers=1,
            )
            job_started = time.perf_counter()
            try:
                summary = executor.execute_ensemble(spec)
            except executor.EnsembleError as error:
                attempted += 1
                failed += 1
                failed_checks.append(f"seed {seed}: {error}")
                continue
            wall = time.perf_counter() - job_started
            timings.add([wall], wall, link_seconds, 1)
            attempted += 1
            (metrics,) = summary.metrics
            users_ok = metrics.num_users == NETWORK_USERS and sorted(
                u.user_index for u in metrics.users
            ) == list(range(NETWORK_USERS))
            if not users_ok or not metrics.fairness > 0.9:
                failed += 1
                failed_checks.append(
                    f"seed {seed}: {metrics.num_users} users simulated "
                    f"(needs {NETWORK_USERS}), fairness "
                    f"{metrics.fairness:.4f} (needs > 0.9)"
                )
            denied.append(metrics.probe_slots_denied)
            fairness.append(metrics.fairness)
            reliability.append(metrics.reliability)
            throughput.append(metrics.cell_throughput_bps)
            digest.extend([metrics.probe_slots_denied, metrics.fairness])
            for user in metrics.users:
                digest.extend([user.cell_index, user.slot_share])
                digest.extend(link_metric_values(user.link))
        wall_s = time.perf_counter() - started
        return PassResult(
            wall_s=wall_s,
            attempted=attempted,
            failed=failed,
            e2e=timings.figures(),
            e2e_wall=timings.wall_figures(),
            quality={
                "jobs": len(timings.walls),
                "first_seed": self.job_seed(0),
                "probe_slots_denied_first_seed": denied[0] if denied else None,
                "probe_slots_denied_median": statistics.median(denied),
                "fairness_min": min(fairness),
                "reliability_median": statistics.median(reliability),
                "cell_throughput_gbps_median": statistics.median(throughput) / 1e9,
            },
            failed_checks=failed_checks,
            summary_digest=digest_numbers(digest),
            plan=done,
        )


# ----------------------------------------------------------------------
# serve-mix


class JobMix:
    """Seeded stream of micro ensemble submissions.

    Every fourth submission repeats a uniformly drawn earlier unique job
    (coalesced when the original is still live, served from the result
    cache once it succeeded).  Unique jobs differ in a sub-sample
    offset of the horizon, so their content keys differ while their cost
    stays the same.  The offsets stay below 1e-4 s above ``base_s``.
    """

    def __init__(self, seed, base_s: float = SERVE_JOB_DURATION_S) -> None:
        self.rng = np.random.default_rng(seed)
        self.base_s = base_s
        self.offset = int(self.rng.integers(0, 1_000_000))
        self.uniques: List[Dict[str, Any]] = []
        self.count = 0

    def next(self) -> Dict[str, Any]:
        self.count += 1
        if self.count % 4 == 0 and self.uniques:
            pick = int(self.rng.integers(0, len(self.uniques)))
            return dict(self.uniques[pick])
        index = self.offset + len(self.uniques)
        job = {
            "kind": "ensemble",
            "seeds": 1,
            "duration_s": self.base_s + 1e-10 * (index % 1_000_000),
        }
        self.uniques.append(job)
        return dict(job)

    def take(self, count: int) -> List[Dict[str, Any]]:
        return [self.next() for _ in range(count)]


@dataclass
class ServePlan:
    bursts: List[List[Dict[str, Any]]]
    paced: List[Dict[str, Any]]
    rate: float


def write_history(path: str, seed) -> None:
    """The journal an earlier serve-mix session left behind.

    Its ``SERVE_HISTORY_SUBMISSIONS`` submissions come from a job mix of
    their own, on horizons just above the measured session's, so no key
    is shared with it.  Every unique job was submitted, started and
    finished with the result a real micro job returns; the duplicates
    were served from the result cache, which journals nothing.
    """
    from repro.serve.jobs import JobSpec, job_key
    from repro.serve.journal import JobJournal
    from repro.serve.runner import execute_job

    mix = JobMix(seed, base_s=SERVE_JOB_DURATION_S + 2e-4)
    submissions = mix.take(SERVE_HISTORY_SUBMISSIONS)
    result = execute_job(JobSpec.from_dict(submissions[0]))
    written = set()
    with JobJournal(path, sync=False) as journal:
        for index, job in enumerate(submissions):
            spec = JobSpec.from_dict(job)
            key = job_key(spec)
            if key in written:
                continue
            written.add(key)
            job_id = f"job-{len(written):06d}"
            t = index * 0.03
            journal.append("submit", id=job_id, key=key, t=t, job=spec.to_dict())
            journal.append("start", id=job_id, attempt=1, t=t)
            journal.append(
                "done", id=job_id, state="succeeded", t=t + 0.015, result=result,
            )


class ServeMix:
    """In-process job server under bursts and an open-loop paced phase."""

    name = "serve-mix"

    def __init__(self, seed: int, work_dir: str, history_path: str) -> None:
        self.seed = int(seed)
        self.work_dir = work_dir
        self.history_path = history_path
        self._passes = 0

    def prepare(self) -> None:
        """Write the journal an earlier session left (an input)."""
        write_history(self.history_path, (self.seed, 1))

    def setup(self) -> None:
        """Start and stop a server on a copy of the earlier session's
        journal: imports, journal open and replay."""
        asyncio.run(self._start_stop(self._fresh_journal()))

    def _fresh_journal(self) -> str:
        self._passes += 1
        path = os.path.join(self.work_dir, f"journal-{self._passes}.jsonl")
        shutil.copyfile(self.history_path, path)
        return path

    def _server(self, journal_path: str):
        from repro.serve import JobServer

        return JobServer(
            journal_path,
            job_workers=SERVE_WORKERS,
            queue_limit=4 * SERVE_BURST,
            shed_threshold=1.0,
            journal_sync=True,
        )

    async def _start_stop(self, journal_path: str) -> None:
        server = self._server(journal_path)
        await server.start()
        await server.stop()
        # Every fourth submission of the earlier session was a duplicate.
        expected = SERVE_HISTORY_SUBMISSIONS - SERVE_HISTORY_SUBMISSIONS // 4
        if len(server.records) != expected:
            raise RuntimeError(
                f"journal replay found {len(server.records)} jobs, "
                f"expected {expected}"
            )

    def run(
        self, budget_s: Optional[float] = None, plan=None, clock=None
    ) -> PassResult:
        return asyncio.run(self._run(budget_s, plan, clock))

    async def _run(self, budget_s: Optional[float], plan, clock) -> PassResult:
        server = self._server(self._fresh_journal())
        await server.start()
        try:
            return await self._drive(server, budget_s, plan, Timings(clock))
        finally:
            await server.stop()

    async def _submit(self, server, job) -> tuple:
        response = await server.submit(job)
        return response, server.now()

    async def _until_terminal(self, server, ids) -> None:
        while any(not server.records[job_id].terminal for job_id in ids):
            await asyncio.sleep(0.002)

    async def _until_journaled(self, server, ids) -> None:
        """Wait until every job's terminal op is in the journal and the
        workers are back at the queue.

        ``JobServer.stop`` cancels its workers.  A worker still awaiting
        its final journal append (``asyncio.wait_for``) can lose that
        cancellation on Python 3.11 when the append completes at the same
        moment; the worker then waits on the queue forever and ``stop``
        never returns.  Stopping only an idle server avoids the race.
        """
        pending = set(ids)
        with open(server.journal.path, "rb") as stream:
            partial_line = b""
            while pending:
                *lines, partial_line = (partial_line + stream.read()).split(b"\n")
                for line in lines:
                    if b'"done"' in line or b'"shed"' in line:
                        pending.discard(json.loads(line)["id"])
                if pending:
                    await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)

    async def _drive(
        self, server, budget_s: Optional[float], plan, timings: Timings
    ) -> PassResult:
        """Bursts, then the paced open loop in segments.  The server is
        drained and its journal written before each host-speed sample,
        which runs on the event loop thread."""
        from repro.serve.jobs import JobSpec, job_key

        mix = JobMix(self.seed) if plan is None else None
        submissions: List[tuple] = []  # (job, response, response_t)
        bursts: List[List[Dict[str, Any]]] = []
        executed_keys = set()
        started = time.perf_counter()

        # Burst phase: submit a saturating burst, time until it drains.
        if plan is None:
            replay, burst_budget_s = None, SERVE_BURST_SHARE * budget_s
        else:
            replay, burst_budget_s = range(len(plan.bursts)), None
        for index in job_indices(burst_budget_s, replay, minimum=2):
            jobs = mix.take(SERVE_BURST) if plan is None else plan.bursts[index]
            bursts.append(jobs)
            burst_started = server.now()
            ids = []
            link_seconds = 0.0
            for job in jobs:
                response, response_t = await self._submit(server, job)
                submissions.append((job, response, response_t))
                if response.get("ok"):
                    ids.append(response["id"])
                # Only a job's first submission runs a simulation.
                key = job_key(JobSpec.from_dict(job))
                if key not in executed_keys:
                    executed_keys.add(key)
                    link_seconds += job["duration_s"]
            await self._until_terminal(server, ids)
            finished = max(
                [server.records[i].finished_at_s for i in ids]
                + [submissions[-1][2]]
            )
            await self._until_journaled(server, ids)
            timings.add([], finished - burst_started, link_seconds, len(jobs))

        # Paced phase: an open loop at half the measured capacity; each
        # job is timed from when it was due to be sent.
        if plan is not None:
            paced, rate = plan.paced, plan.rate
        else:
            rate = SERVE_LOAD * statistics.median(
                jobs / wall for jobs, wall in zip(timings.jobs, timings.walls)
            )
            remaining = budget_s - (time.perf_counter() - started)
            paced = mix.take(max(1, int(rate * remaining)))
        lateness: List[float] = []
        for first in range(0, len(paced), SERVE_SEGMENT_JOBS):
            segment = paced[first:first + SERVE_SEGMENT_JOBS]
            latencies = await self._paced(
                server, segment, rate, submissions, lateness
            )
            timings.add(latencies)
        wall_s = time.perf_counter() - started
        return self._summarize(
            server, submissions, wall_s, timings, lateness,
            ServePlan(bursts=bursts, paced=paced, rate=rate),
        )

    async def _paced(
        self, server, jobs, rate, submissions, lateness
    ) -> List[float]:
        """One open-loop segment at ``rate``; the latencies of its jobs."""
        first_due = server.now() + 0.01
        tasks = []
        for offset, job in enumerate(jobs):
            due = first_due + offset / rate
            delay = due - server.now()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(server.now() - due)
            tasks.append(asyncio.create_task(self._submit(server, job)))
        responses = await asyncio.gather(*tasks)
        ids = [r["id"] for r, _ in responses if r.get("ok")]
        await self._until_terminal(server, ids)
        latencies = []
        for offset, (response, response_t) in enumerate(responses):
            submissions.append((jobs[offset], response, response_t))
            if not response.get("ok"):
                continue
            record = server.records[response["id"]]
            done_t = max(response_t, record.finished_at_s)
            latencies.append(done_t - (first_due + offset / rate))
        await self._until_journaled(server, ids)
        return latencies

    def _summarize(
        self, server, submissions, wall_s, timings: Timings, lateness,
        plan: ServePlan,
    ) -> PassResult:
        from repro.serve.jobs import JobState, job_key, JobSpec

        stats = server.snapshot()
        keys_seen = set()
        duplicates = 0
        rejected = 0
        lost = 0
        results = {}
        for job, response, _ in submissions:
            key = job_key(JobSpec.from_dict(job))
            if key in keys_seen:
                duplicates += 1
            keys_seen.add(key)
            if not response.get("ok"):
                rejected += 1
                continue
            record = server.records[response["id"]]
            if record.state != JobState.SUCCEEDED:
                lost += 1
                continue
            results[key] = record.result
        unique = len(keys_seen)
        failed_checks = []
        if stats["executions"] != unique:
            failed_checks.append(
                f"{stats['executions']} executions for {unique} unique jobs"
            )
        if stats["coalesced"] + stats["cached"] != duplicates:
            failed_checks.append(
                f"coalesced {stats['coalesced']} + cached {stats['cached']} "
                f"!= {duplicates} duplicates"
            )
        bad_results = sorted(
            key for key, result in results.items()
            if result.get("runs") != 1 or result.get("failures") != 0
        )
        if bad_results:
            failed_checks.append(f"{len(bad_results)} jobs with failed runs")
        # Failed, shed and rejected jobs, plus one per failed invariant.
        failed = stats["failed"] + stats["shed"] + rejected + len(failed_checks)
        if lost or rejected:
            failed_checks.append(f"{lost} jobs lost, {rejected} rejected")
        digest: list = []
        for key in sorted(results):
            result = results[key]
            digest.extend([
                key, result["runs"], result["failures"],
                float(result["median_reliability"]),
                float(result["mean_throughput_bps"]),
            ])
        waits = queue_waits(server, submissions)
        return PassResult(
            wall_s=wall_s,
            attempted=len(submissions),
            failed=failed,
            e2e=timings.figures(),
            e2e_wall=timings.wall_figures(),
            quality={
                "bursts": len(timings.walls),
                "burst_size": SERVE_BURST,
                "paced_rate_per_s": plan.rate,
                "paced_jobs": len(timings.latencies),
                "generator_late_p95_ms": percentile_ms(lateness, 95),
                "generator_late_max_ms": max(lateness) * 1e3,
                "unique_jobs": unique,
                "duplicates": duplicates,
                "executions": stats["executions"],
                "coalesced": stats["coalesced"],
                "cached": stats["cached"],
            },
            failed_checks=failed_checks,
            summary_digest=digest_numbers(digest),
            plan=plan,
            layers={
                "serve.queue.wait_p50_ms": percentile_ms(waits["waits"], 50),
                "serve.queue.wait_p95_ms": percentile_ms(waits["waits"], 95),
                "serve.queue.max_depth": waits["max_depth"],
                "serve.queue.shed": stats["shed"] + stats["overloads"],
                "serve.runner.dedup_ratio": (
                    (stats["coalesced"] + stats["cached"]) / duplicates
                    if duplicates else 0.0
                ),
                "serve.runner.retries": stats["retries"],
            },
        )


def queue_waits(server, submissions) -> Dict[str, Any]:
    """Queue waits and peak depth from the job records' histories.

    A job waits from submission (or a retry's return to ``pending``)
    until it starts running; the depth is the number of such waiting
    jobs over time.
    """
    from repro.serve.jobs import JobState

    ids = {
        response["id"] for _, response, _ in submissions if response.get("ok")
    }
    waits: List[float] = []
    events: List[tuple] = []
    for job_id in ids:
        record = server.records[job_id]
        queued_at = record.submitted_at_s
        for state, time_s in record.history:
            if state == JobState.RUNNING and queued_at is not None:
                waits.append(time_s - queued_at)
                events.append((queued_at, 1))
                events.append((time_s, -1))
                queued_at = None
            elif state == JobState.PENDING:
                queued_at = time_s
    depth = max_depth = 0
    for _, change in sorted(events):
        depth += change
        max_depth = max(max_depth, depth)
    return {"waits": waits or [0.0], "max_depth": max_depth}
