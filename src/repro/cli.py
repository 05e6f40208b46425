"""Command-line interface: list, run, and trace the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig14
    python -m repro run all
    python -m repro run fig18 --workers 4 --seeds 32 --json fig18.json
    python -m repro run fig16 --trace fig16.jsonl
    python -m repro trace fig16.jsonl --kind blockage_onset
    python -m repro run fig18 --fault probe_loss:0.1 --trace chaos.jsonl
    python -m repro run fault_tolerance --faults faults.json
    python -m repro run --scenario quad-cell --seeds 8 --workers 4
    python -m repro run network_scale --scenario my_network.json
    python -m repro lint src tools
    python -m repro serve --port 7753 --journal jobs.jsonl
    python -m repro submit --port 7753 fig14 --wait
    python -m repro jobs --port 7753

``--workers`` fans ensemble seed-runs out over the parallel executor,
``--seeds`` overrides the Monte-Carlo seed count for ensemble-backed
experiments, ``--json`` dumps the structured
:class:`~repro.experiments.registry.ExperimentResult` for downstream
tooling, and ``--trace`` records link telemetry (probe transmissions,
blockage onsets, beam retrains, MCS switches, ...) as JSONL.  ``repro
trace`` renders a recorded JSONL file as a human-readable timeline.
``--fault KIND:RATE`` (repeatable) and ``--faults PATH`` inject
deterministic faults (see :mod:`repro.faults`) into ensemble-backed
experiments.  ``repro lint`` runs the project's domain-aware static
analyzer (RNG discipline, dB/linear unit hygiene, telemetry contracts,
purity, module hygiene, async hygiene, race detection — see
:mod:`tools/repro_lint`) from any source checkout.
``repro serve`` starts the fault-tolerant async job server
(:mod:`repro.serve`): a persistent journal replayed after a crash,
request coalescing, and priority-aware load shedding.  ``repro submit``
sends one job to a running server (optionally streaming progress until
it finishes) and ``repro jobs`` inspects server stats or one job's
status.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.registry import (
    REGISTRY,
    ExperimentConfig,
    get_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "mmReliable reproduction: regenerate the paper's figures"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list available experiments")
    run = commands.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help=(
            "experiment id from 'repro list', or 'all' (optional when "
            "--scenario is given: defaults to network_scale)"
        ),
    )
    run.add_argument(
        "--scenario",
        dest="scenario",
        default=None,
        metavar="NAME_OR_PATH",
        help=(
            "scenario spec: a built-in name (see repro.sim.spec) or a "
            "JSON file with ScenarioSpec fields"
        ),
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="parallel workers for ensemble seed-runs (default: 1)",
    )
    run.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="Monte-Carlo seed count for ensemble experiments",
    )
    run.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the structured result(s) as JSON to PATH",
    )
    run.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        metavar="PATH",
        help="record link telemetry events as JSONL to PATH",
    )
    run.add_argument(
        "--fault",
        dest="faults",
        action="append",
        default=None,
        metavar="KIND:RATE",
        help=(
            "inject a fault, e.g. probe_loss:0.1 or "
            "stuck_elements:0.05:value=0.0 (repeatable)"
        ),
    )
    run.add_argument(
        "--faults",
        dest="faults_path",
        default=None,
        metavar="PATH",
        help="load fault specs from a JSON file",
    )
    lint = commands.add_parser(
        "lint",
        help="run the repro-lint static analyzer (see 'repro lint --help')",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        metavar="...",
        help="arguments forwarded to repro-lint (e.g. src/repro/core)",
    )
    serve = commands.add_parser(
        "serve", help="start the fault-tolerant async job server"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=7753,
        help="TCP port; 0 binds an ephemeral port (default: 7753)",
    )
    serve.add_argument(
        "--journal", default="repro-jobs.jsonl", metavar="PATH",
        help="persistent job journal (replayed on restart)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=2, metavar="N",
        help="concurrent job executions (default: 2)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="bounded queue size for admission control (default: 64)",
    )
    serve.add_argument(
        "--shed-threshold", type=float, default=0.75, metavar="F",
        help="occupancy fraction at which soft shedding starts (default: 0.75)",
    )
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write host:port to PATH once the socket is bound",
    )
    serve.add_argument(
        "--no-sync", action="store_true",
        help="skip fsync on journal appends (benchmarks only)",
    )
    submit = commands.add_parser(
        "submit", help="submit one job to a running job server"
    )
    submit.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id to run (omit for an executor micro ensemble)",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7753)
    submit.add_argument(
        "--scenario", default=None, metavar="NAME_OR_PATH",
        help="scenario spec name or JSON file (as for 'repro run')",
    )
    submit.add_argument("--seeds", type=int, default=None, metavar="N")
    submit.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="ensemble executor width inside the job (default: 1)",
    )
    submit.add_argument(
        "--fault", dest="faults", action="append", default=None,
        metavar="KIND:RATE", help="inject a fault into the job (repeatable)",
    )
    submit.add_argument(
        "--faults", dest="faults_path", default=None, metavar="PATH",
        help="load fault specs from a JSON file",
    )
    submit.add_argument(
        "--priority", default="batch",
        choices=("interactive", "batch", "bulk"),
        help="admission priority class (default: batch)",
    )
    submit.add_argument(
        "--duration-s", type=float, default=0.02, metavar="S",
        help="per-run duration for micro-ensemble jobs (default: 0.02)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="stream progress and block until the job finishes",
    )
    submit.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="with --wait: write the terminal job record as JSON",
    )
    jobs = commands.add_parser(
        "jobs", help="inspect a running job server (stats or one job)"
    )
    jobs.add_argument("--host", default="127.0.0.1")
    jobs.add_argument("--port", type=int, default=7753)
    jobs.add_argument(
        "--id", dest="job_id", default=None, metavar="JOB",
        help="show one job's status instead of server stats",
    )
    trace = commands.add_parser(
        "trace", help="render a recorded telemetry trace as a timeline"
    )
    trace.add_argument(
        "trace_file",
        help="JSONL trace recorded with 'repro run ... --trace'",
    )
    trace.add_argument(
        "--kind",
        default=None,
        metavar="KIND",
        help="only show events of this kind (e.g. blockage_onset)",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show at most N events per run",
    )
    return parser


def command_list(out=sys.stdout) -> int:
    width = max(len(identifier) for identifier in REGISTRY)
    for identifier, experiment in REGISTRY.items():
        out.write(f"{identifier:<{width}}  {experiment.title}\n")
    return 0


def _collect_fault_specs(
    fault_args: Optional[List[str]],
    faults_path: Optional[str],
    out,
):
    """Parse --fault/--faults into FaultSpecs; returns None on bad input."""
    from repro.faults import load_fault_specs, parse_fault

    specs = []
    for text in fault_args or ():
        try:
            specs.append(parse_fault(text))
        except ValueError as error:
            out.write(f"error: --fault {text!r}: {error}\n")
            return None
    if faults_path is not None:
        try:
            specs.extend(load_fault_specs(faults_path))
        except OSError as error:
            out.write(f"error: cannot read {faults_path}: {error}\n")
            return None
        except ValueError as error:
            out.write(f"error: {faults_path}: {error}\n")
            return None
    return tuple(specs)


def _load_scenario(scenario: str, out):
    """Load ``--scenario NAME_OR_PATH``; returns None on bad input."""
    from repro.sim.spec import load_scenario_spec

    try:
        return load_scenario_spec(scenario)
    except (KeyError, OSError, ValueError, TypeError) as error:
        message = error.args[0] if error.args else error
        out.write(f"error: --scenario {scenario!r}: {message}\n")
        return None


def _locate_repro_lint_tools() -> Optional[str]:
    """Find the ``tools/`` directory that holds the repro_lint package.

    Prefers the project root found by walking up from the working
    directory (a ``pyproject.toml`` next to ``tools/repro_lint``), and
    falls back to the source checkout the ``repro`` package itself was
    imported from, so ``repro lint`` works from any subdirectory.
    """
    import os

    probe = os.getcwd()
    while True:
        if os.path.isfile(
            os.path.join(probe, "pyproject.toml")
        ) and os.path.isdir(os.path.join(probe, "tools", "repro_lint")):
            return os.path.join(probe, "tools")
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    import repro

    package = os.path.abspath(repro.__file__)
    root = os.path.dirname(os.path.dirname(os.path.dirname(package)))
    candidate = os.path.join(root, "tools")
    if os.path.isdir(os.path.join(candidate, "repro_lint")):
        return candidate
    return None


def command_lint(lint_args: List[str], out=None) -> int:
    """Dispatch to the standalone analyzer in ``tools/repro_lint``."""
    if out is None:
        out = sys.stdout  # bind at call time so output redirection works
    tools = _locate_repro_lint_tools()
    if tools is None:
        out.write(
            "error: cannot locate tools/repro_lint; run 'repro lint' from "
            "a source checkout of the project\n"
        )
        return 2
    if tools not in sys.path:
        sys.path.insert(0, tools)
    from repro_lint.cli import main as lint_main

    return lint_main(list(lint_args), out=out)


def command_run(
    identifier: Optional[str],
    workers: int = 1,
    seeds: Optional[int] = None,
    json_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    fault_args: Optional[List[str]] = None,
    faults_path: Optional[str] = None,
    scenario: Optional[str] = None,
    out=sys.stdout,
) -> int:
    scenario_spec = None
    if scenario is not None:
        scenario_spec = _load_scenario(scenario, out)
        if scenario_spec is None:
            return 2
        if identifier is None:
            identifier = "network_scale"
    if identifier is None:
        out.write("error: an experiment id (or --scenario) is required\n")
        return 2
    if identifier == "all":
        identifiers: List[str] = list(REGISTRY)
    else:
        identifiers = [identifier]
    faults = _collect_fault_specs(fault_args, faults_path, out)
    if faults is None:
        return 2
    try:
        config = ExperimentConfig(
            seeds=seeds,
            workers=workers,
            faults=faults,
            scenario=scenario_spec,
        )
    except ValueError as error:
        out.write(f"error: {error}\n")
        return 2

    recorder = None
    if trace_path is not None:
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder()

    def _run_all() -> int:
        from repro.sim.executor import EnsembleError

        results = []
        for name in identifiers:
            try:
                experiment = get_experiment(name)
            except KeyError as error:
                out.write(f"error: {error}\n")
                return 2
            out.write(f"== {experiment.title} ==\n")
            try:
                result = experiment.run(config)
            except EnsembleError as error:
                # An ensemble past its failure budget (e.g. under a
                # worker_crash campaign) ends the run, not in a traceback.
                out.write(f"error: {error}\n")
                return 2
            results.append(result)
            out.write(experiment.render(result) + "\n")
            out.write(f"-- completed in {result.elapsed_s:.1f} s --\n\n")
        if json_path is not None:
            from repro.sim.export import write_result_json

            payload = results[0] if len(results) == 1 else results
            try:
                with open(json_path, "w", encoding="utf-8") as stream:
                    write_result_json(payload, stream)
            except OSError as error:
                out.write(f"error: cannot write {json_path}: {error}\n")
                return 2
            out.write(f"-- wrote structured results to {json_path} --\n")
        return 0

    if recorder is None:
        return _run_all()

    from repro.telemetry import use_recorder, write_events_jsonl

    with use_recorder(recorder):
        status = _run_all()
    if status != 0:
        return status
    try:
        with open(trace_path, "w", encoding="utf-8") as stream:
            count = write_events_jsonl(recorder.events, stream)
    except OSError as error:
        out.write(f"error: cannot write {trace_path}: {error}\n")
        return 2
    out.write(f"-- wrote {count} telemetry events to {trace_path} --\n")
    return 0


def command_serve(
    journal: str,
    host: str = "127.0.0.1",
    port: int = 7753,
    job_workers: int = 2,
    queue_limit: int = 64,
    shed_threshold: float = 0.75,
    ready_file: Optional[str] = None,
    no_sync: bool = False,
    out=sys.stdout,
) -> int:
    """Run the job server until SIGINT/SIGTERM or a shutdown request."""
    import asyncio
    import contextlib
    import signal
    from pathlib import Path

    from repro.serve import JobServer

    try:
        server = JobServer(
            journal_path=journal,
            host=host,
            port=port,
            job_workers=job_workers,
            queue_limit=queue_limit,
            shed_threshold=shed_threshold,
            journal_sync=not no_sync,
        )
    except ValueError as error:
        out.write(f"error: {error}\n")
        return 2

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(server.stop())
                )
        out.write(
            f"serving on {server.host}:{server.port} "
            f"(journal {server.journal.path}, {job_workers} worker(s), "
            f"queue {queue_limit})\n"
        )
        out.flush()
        if ready_file is not None:
            await asyncio.to_thread(
                Path(ready_file).write_text,
                f"{server.host}:{server.port}\n",
                encoding="utf-8",
            )
        await server.wait_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as error:
        out.write(f"error: {error}\n")
        return 2
    if server.journal_failure is not None:
        out.write(f"error: server stopped: {server.journal_failure}\n")
        return 2
    out.write("server stopped\n")
    return 0


def command_submit(
    experiment: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 7753,
    scenario: Optional[str] = None,
    seeds: Optional[int] = None,
    workers: int = 1,
    fault_args: Optional[List[str]] = None,
    faults_path: Optional[str] = None,
    priority: str = "batch",
    duration_s: float = 0.02,
    wait: bool = False,
    json_path: Optional[str] = None,
    out=sys.stdout,
) -> int:
    """Build a job spec from the CLI knobs and submit it."""
    import json as json_module

    from repro.serve import JobClient, JobSpec, ServerError

    faults = _collect_fault_specs(fault_args, faults_path, out)
    if faults is None:
        return 2
    scenario_spec = None
    if scenario is not None:
        scenario_spec = _load_scenario(scenario, out)
        if scenario_spec is None:
            return 2
        if experiment is None:
            experiment = "network_scale"
    try:
        spec = JobSpec(
            kind="experiment" if experiment else "ensemble",
            experiment=experiment,
            scenario=scenario_spec,
            seeds=seeds,
            workers=workers,
            faults=faults,
            duration_s=duration_s,
            priority=priority,
        )
    except (TypeError, ValueError) as error:
        out.write(f"error: {error}\n")
        return 2
    client = JobClient(host=host, port=port)
    try:
        response = client.submit(spec.to_dict())
    except ServerError as error:
        if error.error == "overload":
            payload = error.payload
            out.write(
                f"overloaded: {payload.get('reason')} "
                f"(queue {payload.get('queue_depth')}/"
                f"{payload.get('queue_limit')}, retry in "
                f"{payload.get('retry_after_s')} s)\n"
            )
            return 3
        out.write(f"error: {error}\n")
        return 2
    except OSError as error:
        out.write(f"error: cannot reach server at {host}:{port}: {error}\n")
        return 2
    job_id = response["id"]
    flags = [
        name
        for name in ("coalesced", "cached")
        if response.get(name)
    ]
    suffix = f" ({', '.join(flags)})" if flags else ""
    out.write(f"job {job_id} {response['state']}{suffix}\n")
    if not wait:
        return 0

    def _print_event(event):
        out.write(f"  {event.get('t', 0.0):8.2f}s {event.get('event')}\n")
        out.flush()

    try:
        record = client.wait(job_id, on_event=_print_event)
    except (ServerError, OSError) as error:
        out.write(f"error: {error}\n")
        return 2
    out.write(f"job {job_id} {record['state']}\n")
    if record.get("error"):
        out.write(f"  error: {record['error']}\n")
    if json_path is not None:
        try:
            with open(json_path, "w", encoding="utf-8") as stream:
                json_module.dump(record, stream, indent=2)
                stream.write("\n")
        except OSError as error:
            out.write(f"error: cannot write {json_path}: {error}\n")
            return 2
        out.write(f"-- wrote job record to {json_path} --\n")
    return 0 if record["state"] == "succeeded" else 1


def command_jobs(
    host: str = "127.0.0.1",
    port: int = 7753,
    job_id: Optional[str] = None,
    out=sys.stdout,
) -> int:
    """Show server stats, or one job's status with ``--id``."""
    import json as json_module

    from repro.serve import JobClient, ServerError

    client = JobClient(host=host, port=port)
    try:
        if job_id is not None:
            payload = client.status(job_id)
        else:
            payload = client.stats()
    except ServerError as error:
        out.write(f"error: {error}\n")
        return 2
    except OSError as error:
        out.write(f"error: cannot reach server at {host}:{port}: {error}\n")
        return 2
    out.write(json_module.dumps(payload, indent=2, default=str) + "\n")
    return 0


def command_trace(
    trace_file: str,
    kind: Optional[str] = None,
    limit: Optional[int] = None,
    out=sys.stdout,
) -> int:
    from repro.telemetry import read_events_jsonl, render_timeline

    try:
        with open(trace_file, "r", encoding="utf-8") as stream:
            events = read_events_jsonl(stream)
    except OSError as error:
        out.write(f"error: cannot read {trace_file}: {error}\n")
        return 2
    except ValueError as error:
        out.write(f"error: {trace_file}: {error}\n")
        return 2
    out.write(render_timeline(events, kind=kind, limit=limit))
    out.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forward everything verbatim: argparse.REMAINDER mis-parses
        # leading options such as 'repro lint --list-rules'.
        return command_lint(list(argv[1:]))
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command == "list":
            return command_list()
        if arguments.command == "trace":
            return command_trace(
                arguments.trace_file,
                kind=arguments.kind,
                limit=arguments.limit,
            )
        if arguments.command == "serve":
            return command_serve(
                journal=arguments.journal,
                host=arguments.host,
                port=arguments.port,
                job_workers=arguments.job_workers,
                queue_limit=arguments.queue_limit,
                shed_threshold=arguments.shed_threshold,
                ready_file=arguments.ready_file,
                no_sync=arguments.no_sync,
            )
        if arguments.command == "submit":
            return command_submit(
                experiment=arguments.experiment,
                host=arguments.host,
                port=arguments.port,
                scenario=arguments.scenario,
                seeds=arguments.seeds,
                workers=arguments.workers,
                fault_args=arguments.faults,
                faults_path=arguments.faults_path,
                priority=arguments.priority,
                duration_s=arguments.duration_s,
                wait=arguments.wait,
                json_path=arguments.json_path,
            )
        if arguments.command == "jobs":
            return command_jobs(
                host=arguments.host,
                port=arguments.port,
                job_id=arguments.job_id,
            )
        return command_run(
            arguments.experiment,
            workers=arguments.workers,
            seeds=arguments.seeds,
            json_path=arguments.json_path,
            trace_path=arguments.trace_path,
            fault_args=arguments.faults,
            faults_path=arguments.faults_path,
            scenario=arguments.scenario,
        )
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
