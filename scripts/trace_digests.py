#!/usr/bin/env python
"""Digest every simulated link of the Fig. 18 ensemble and the 4x64 network.

Usage:

    python scripts/trace_digests.py [--src SRC] [--mobile-seeds 5]
        [--network-seeds 2] > digests.json

Imports ``repro`` from ``SRC`` (default: this checkout's ``src``), runs
the Fig. 18b/c mobile ensemble (five systems, 1 s horizon) on seeds
``0..mobile-seeds-1`` and the 4-cell x 64-user network (0.05 s horizon)
on seeds ``0..network-seeds-1``, all under one telemetry recorder, and
prints one JSON object with, per workload and seed, the number of
``LinkSimulator`` runs, a SHA-256 over every run's sample times, SNR
trace, action list, training and degraded windows and link metrics, a
SHA-256 over the ensemble or network summary metrics, and a SHA-256 over
the telemetry events the workload emitted (kind, run label, time and
fields of each, in order).  Floats are hashed by their exact hex form
(event fields by their JSON form, which round-trips floats exactly), so
two trees whose outputs and event streams are bitwise identical print
identical files::

    python scripts/trace_digests.py --src /path/to/parent/src > parent.json
    python scripts/trace_digests.py > change.json
    diff parent.json change.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import partial
from pathlib import Path


def _hex(value) -> str:
    return float(value).hex()


def _link_digest(trace) -> str:
    hasher = hashlib.sha256()
    hasher.update(trace.times_s.tobytes())
    hasher.update(trace.snr_db.tobytes())
    hasher.update(repr([(_hex(t), a) for t, a in trace.actions]).encode())
    hasher.update(repr(trace.training_windows).encode())
    hasher.update(repr(trace.degraded_windows).encode())
    metrics = trace.metrics()
    for value in (
        metrics.reliability, metrics.mean_throughput_bps,
        metrics.mean_spectral_efficiency, metrics.mean_snr_db,
        metrics.product, metrics.probe_airtime_s,
    ):
        hasher.update(_hex(value).encode())
    hasher.update(repr(int(metrics.training_rounds)).encode())
    return hasher.hexdigest()


def _events_digest(events) -> str:
    from repro.telemetry import event_to_jsonable

    hasher = hashlib.sha256()
    for event in events:
        payload = event_to_jsonable(event)
        payload["time_s"] = _hex(event.time_s)
        hasher.update(json.dumps(payload, allow_nan=False).encode())
    return hasher.hexdigest()


def _entry(links, summary, events) -> dict:
    return {
        "runs": len(links),
        "traces": hashlib.sha256("".join(links).encode()).hexdigest(),
        "summary": hashlib.sha256(repr(summary).encode()).hexdigest(),
        "events": _events_digest(events),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parents[1] / "src")
    )
    parser.add_argument("--mobile-seeds", type=int, default=5)
    parser.add_argument("--network-seeds", type=int, default=2)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    from repro.sim.link import LinkSimulator
    from repro.telemetry import TelemetryRecorder, use_recorder

    links = []
    run = LinkSimulator.run

    def digesting_run(simulator):
        trace = run(simulator)
        links.append(_link_digest(trace))
        return trace

    LinkSimulator.run = digesting_run
    recorder = TelemetryRecorder()
    with use_recorder(recorder):
        digests = _digest_workloads(args, links, recorder)
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _digest_workloads(args, links, recorder) -> dict:
    from repro.experiments import fig18_end2end
    from repro.network import NetworkScenario, row_of_cells
    from repro.network.simulator import build_network_simulator
    from repro.sim import executor

    digests = {}
    for seed in range(args.mobile_seeds):
        links.clear()
        mark = recorder.mark()
        ensembles = fig18_end2end.run_mobile_ensembles(seeds=(seed,), workers=1)
        summary = [
            (label, _hex(m.reliability), _hex(m.product), _hex(m.mean_snr_db))
            for label, ensemble in ensembles.items()
            for m in ensemble.metrics
        ]
        digests[f"mobile-ensemble/{seed}"] = _entry(
            links, summary, recorder.events[mark:]
        )
    scenario = NetworkScenario(
        cells=row_of_cells(4), num_users=64, duration_s=0.05
    )
    for seed in range(args.network_seeds):
        links.clear()
        mark = recorder.mark()
        spec = executor.EnsembleSpec(
            label="network-4x64",
            simulator_factory=partial(build_network_simulator, scenario),
            seeds=(seed,),
            workers=1,
        )
        (metrics,) = executor.execute_ensemble(spec).metrics
        summary = [
            metrics.probe_slots_denied, _hex(metrics.fairness),
            _hex(metrics.reliability), _hex(metrics.cell_throughput_bps),
        ] + [
            (
                user.cell_index, _hex(user.slot_share),
                _hex(user.link.reliability), _hex(user.link.product),
                _hex(user.link.mean_snr_db),
            )
            for user in metrics.users
        ]
        digests[f"network-4x64/{seed}"] = _entry(
            links, summary, recorder.events[mark:]
        )
    return digests


if __name__ == "__main__":
    sys.exit(main())
