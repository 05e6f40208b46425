#!/usr/bin/env python3
"""The repository benchmark: three workloads, untraced and traced runs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mobile-ensemble --seed 0 \\
        --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``mobile-ensemble`` (the Fig. 18b/c
ensemble), ``network-4x64`` (4 cells x 64 users) and ``serve-mix`` (an
in-process job server under bursts and a paced open loop).

``--trace 0`` measures the end-to-end metrics with telemetry off and no
wrappers installed.  Times are in seconds of a reference host: each
job's or burst's wall time is scaled by how long a fixed reference
kernel took around it (``hostspeed.py``), which cancels the drift of a
shared host's CPU speed.  The wall-time figures are printed beside them.

* ``setup_s`` -- median time of several fresh set-ups, each a new
  interpreter that imports the library and builds the workload's
  scenario and factories (serve-mix: also starts a server whose journal
  replays an earlier session, and stops it), scaled by the reference
  kernel timed in that interpreter after its set-up;
* ``link_seconds_per_s`` -- simulated link seconds per second (serve-mix:
  of the jobs its bursts executed, duplicates excluded);
* ``jobs_per_s``, ``job_latency_p50_ms``, ``job_latency_p95_ms`` -- a
  job is one seed of all five systems (mobile-ensemble), one network seed
  (network-4x64) or one submitted job (serve-mix: rate = drain rate of
  saturating bursts; latency from when each paced job was due to be
  sent until the server recorded its result); percentiles are
  Harrell-Davis estimates;
* ``peak_rss_mb`` -- peak resident memory of this process.

Failed runs, failed jobs and failed correctness checks are counted in
``failed`` over ``attempted``; their ratio is printed as
``failed_fraction``.

``--trace 1`` runs an untraced reference pass for half the time, then
replays exactly the same jobs with span wrappers on every layer's public
calls (``layers.py``), prints the per-layer table, checks that both
passes simulated bitwise-identical outputs, and reports tracing
overhead as traced minus untraced time, in reference seconds.

The last line of standard output is the result object; the metrics it
carries, with their units, are the ones ``BENCHMARK.json`` declares.
Earlier lines carry the host fingerprint, the quality values, the table
and a ``detail:`` line with every number (``compare.py`` reads it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("mobile-ensemble", "network-4x64", "serve-mix")
#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", metavar="WORK_DIR",
        help="set the workload up once in WORK_DIR and exit (one setup_s "
        "sample)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def make_workload(name: str, seed: int, work_dir: str):
    """The workload, keeping its files in ``work_dir``; serve-mix shares
    the earlier session's journal with sibling set-ups through the parent
    directory."""
    from workloads import MobileEnsemble, Network4x64, ServeMix

    if name == "mobile-ensemble":
        return MobileEnsemble(seed)
    if name == "network-4x64":
        return Network4x64(seed)
    history = os.path.join(os.path.dirname(work_dir), "history.jsonl")
    return ServeMix(seed, work_dir, history)


def host_fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": source_commit(),
    }


def source_commit() -> str:
    """The checkout's git commit, or ``unknown`` outside a git work tree."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True,
            timeout=30,
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = git("rev-parse", "HEAD")
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def measure_setup(args, work_dir: str) -> list:
    """Fresh set-ups, each in a new interpreter: (wall, reference) times."""
    from hostspeed import REFERENCE_S

    samples = []
    for index in range(SETUP_SAMPLES):
        probe_dir = os.path.join(work_dir, f"setup-{index}")
        os.makedirs(probe_dir)
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only", probe_dir,
        ]
        started = time.monotonic()
        probe = subprocess.run(
            command, check=True, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        reported = json.loads(probe.stdout.strip().splitlines()[-1])
        wall_s = reported["set_up_at"] - started
        samples.append((wall_s, wall_s * REFERENCE_S / reported["kernel_s"]))
    return samples


def setup_only(args) -> None:
    """One set-up probe: set the workload up, then time the reference
    kernel; prints when set-up ended (``time.monotonic``, which is
    system-wide) and the kernel time."""
    from hostspeed import kernel, sample

    workload = make_workload(args.workload, args.seed, args.setup_only)
    workload.setup()
    set_up_at = time.monotonic()
    kernel()  # warm-up
    kernel_s = statistics.fmean([sample(), sample()])
    print(json.dumps({"set_up_at": set_up_at, "kernel_s": kernel_s}))


def check_telemetry_off() -> None:
    from repro.telemetry import NullRecorder, get_recorder

    if not isinstance(get_recorder(), NullRecorder):
        raise RuntimeError("telemetry must stay off in measured runs")


def untraced_run(args, workload, work_dir: str) -> dict:
    from hostspeed import HostClock

    setup_samples = measure_setup(args, work_dir)
    check_telemetry_off()
    clock = HostClock()
    result = workload.run(budget_s=args.seconds, clock=clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = dict(result.e2e)
    metrics["setup_s"] = statistics.median(scaled for _, scaled in setup_samples)
    metrics["peak_rss_mb"] = peak_rss_mb
    wall_metrics = dict(result.e2e_wall)
    wall_metrics["setup_s"] = statistics.median(wall for wall, _ in setup_samples)
    return {
        "metrics": metrics,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_checks": result.failed_checks,
        "quality": result.quality,
        "wall_metrics": wall_metrics,
        "info": {
            "setup_samples_s": [wall for wall, _ in setup_samples],
            "kernel_median_s": clock.median_s(),
            "kernel_samples_s": clock.samples,
            "measured_wall_s": result.wall_s,
        },
    }


def traced_run(args, workload) -> dict:
    import layers
    from hostspeed import HostClock
    from repro.perf.cache import cache_stats, clear_caches
    from tracer import Tracer
    from workloads import SnrDigest

    check_telemetry_off()
    # Both passes start from empty kernel caches, so neither is timed warm.
    # Both sample the host between jobs; the walls below leave the
    # sampling out, and the overhead compares the time between samples
    # in reference seconds.
    clear_caches()
    reference_digest = SnrDigest()
    reference_digest.install()
    reference_clock = HostClock()
    try:
        started = time.perf_counter()
        reference = workload.run(
            budget_s=args.seconds / 2.0, clock=reference_clock
        )
        untraced_wall_s = (
            time.perf_counter() - started - reference_clock.spent_s
        )
    finally:
        reference_digest.uninstall()

    clear_caches()
    before = cache_stats()
    traced_digest = SnrDigest()
    traced_digest.install()
    traced_clock = HostClock()
    tracer = Tracer()
    try:
        layers.install(tracer)
        started = time.perf_counter()
        traced = workload.run(plan=reference.plan, clock=traced_clock)
        wall_s = time.perf_counter() - started - traced_clock.spent_s
    finally:
        tracer.uninstall()
        traced_digest.uninstall()
    after = cache_stats()

    report = tracer.report(wall_s)
    hits = sum(after[n]["hits"] - before.get(n, {}).get("hits", 0) for n in after)
    lookups = sum(
        after[n]["lookups"] - before.get(n, {}).get("lookups", 0) for n in after
    )
    extra = dict(traced.layers)
    extra.update({
        "perf.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "perf.cache.entries": sum(stats["size"] for stats in after.values()),
        "trace.wall_s": wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": traced_clock.scaled_s - reference_clock.scaled_s,
        "trace.unattributed_s": report.unattributed_s,
        "trace.attributed_share": report.attributed_share,
        "trace.other_threads_s": report.other_threads_s,
    })
    metrics = layers.layer_metrics(report, extra)

    failed_checks = list(reference.failed_checks) + list(traced.failed_checks)
    identical = {
        "summaries": reference.summary_digest == traced.summary_digest,
        "snr_traces": reference_digest.hexdigest() == traced_digest.hexdigest(),
    }
    failed = reference.failed + traced.failed
    for name, same in identical.items():
        if not same:
            failed += 1
            failed_checks.append(f"traced and untraced {name} differ")
    return {
        "metrics": metrics,
        "attempted": reference.attempted + traced.attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "quality": traced.quality,
        "info": {"bitwise_identical": identical},
        "report": report,
    }


def print_layer_table(report, metrics: dict) -> None:
    """Self time per layer; the rows and ``unattributed_s`` sum to the
    traced thread time (driving-thread wall plus other threads' spans)."""
    import layers

    total = report.thread_s
    print(f"{'layer':<22s} {'calls':>9s} {'self_s':>9s} {'busy_s':>9s} {'self %':>7s}")
    for layer in layers.LAYERS:
        self_s = report.self_s(layer)
        print(
            f"{layer:<22s} {report.calls(layer):>9d} {self_s:>9.3f} "
            f"{report.busy_s(layer):>9.3f} {100 * self_s / total:>6.1f}%"
        )
    print(
        f"{'unattributed_s':<22s} {'':>9s} {report.unattributed_s:>9.3f} "
        f"{'':>9s} {100 * report.unattributed_s / total:>6.1f}%"
    )
    print(
        f"traced thread time {total:.3f} s = driving-thread wall "
        f"{report.wall_s:.3f} s + spans on other threads "
        f"{report.other_threads_s:.3f} s; attributed share "
        f"{report.attributed_share:.4f}"
    )
    print(
        f"tracing overhead {metrics['trace.overhead_s']:.3f} reference s "
        f"over the same jobs (walls: traced {report.wall_s:.3f} s, untraced "
        f"{metrics['trace.untraced_wall_s']:.3f} s)"
    )


def declared_metrics(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return declared["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One BLAS thread per compute thread: the workloads' matrices are
    # small, and idle BLAS threads spinning on a 2-core host only add
    # noise.  Set before numpy is imported; set-up probes inherit it.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"

    if args.setup_only:
        setup_only(args)
        return 0

    declared = declared_metrics(args.trace)
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        main_dir = os.path.join(work_dir, "main")
        os.makedirs(main_dir)
        workload = make_workload(args.workload, args.seed, main_dir)
        workload.prepare()
        started = time.perf_counter()
        workload.setup()
        in_process_setup_s = time.perf_counter() - started
        if args.trace:
            outcome = traced_run(args, workload)
        else:
            outcome = untraced_run(args, workload, work_dir)
        outcome["info"]["in_process_setup_s"] = in_process_setup_s
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    fingerprint = host_fingerprint()
    metrics = outcome["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    if args.trace:
        print_layer_table(outcome["report"], metrics)
        print(
            "bitwise identical to the untraced pass: "
            + json.dumps(outcome["info"]["bitwise_identical"], sort_keys=True)
        )
    wall_metrics = outcome.get("wall_metrics", {})
    for metric in declared:
        name = metric["name"]
        line = f"{name:<40s} {metrics[name]:>14.6g} {metric['unit']}"
        if name in wall_metrics:
            line += f"  (wall {wall_metrics[name]:.6g})"
        print(line)
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(
        f"{'failed_fraction':<40s} {failed / attempted if attempted else 1.0:>14.6g} "
        f"ratio ({failed} failed of {attempted} attempted)"
    )
    for check in outcome["failed_checks"]:
        print(f"FAILED CHECK: {check}")
    print("quality: " + json.dumps(outcome["quality"], sort_keys=True))
    print("detail: " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "metrics": metrics,
        "wall_metrics": wall_metrics,
        "attempted": attempted,
        "failed": failed,
        "quality": outcome["quality"],
        "info": outcome["info"],
    }, sort_keys=True))
    correct = failed == 0 and not outcome["failed_checks"] and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
