#!/usr/bin/env python3
"""Gate a change on one same-runner pair of perfbench runs.

    python scripts/perf_gate.py PARENT.txt CHANGE.txt

Each input is the saved standard output of one ``perfbench/run.py`` run
of the same workload and settings on the same runner, one from the
parent commit's tree and one from the change's.  The last line of each
is perfbench's result object.  Every end-to-end metric ``BENCHMARK.json``
declares is compared in its ``better`` direction, and one line per
metric is printed.

Exit status: 1 when the change's run is not ``correct`` or any metric is
worse than the parent's by more than twice its declared bound; 2 when an
input has no result line or lacks a declared metric; 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: One pair of short runs spreads wider than the benchmark's medians of
#: many, so the gate allows this multiple of each declared bound.
MARGIN = 2.0


class BadInput(Exception):
    """An input the gate cannot judge."""


def load_result(path: str) -> dict:
    """The perfbench result object on the last non-empty line of ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        result = json.loads(lines[-1])
    except (OSError, IndexError, ValueError) as error:
        raise BadInput(f"{path}: no perfbench result line ({error})") from None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise BadInput(f"{path}: no perfbench result line")
    return result


def metric_value(result: dict, name: str, path: str) -> float:
    try:
        return float(result["metrics"][name]["value"])
    except (KeyError, TypeError, ValueError):
        raise BadInput(f"{path}: metric {name!r} missing") from None


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: perf_gate.py PARENT.txt CHANGE.txt", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    try:
        parent, change = load_result(argv[0]), load_result(argv[1])
        pairs = [
            (
                metric,
                metric_value(parent, metric["name"], argv[0]),
                metric_value(change, metric["name"], argv[1]),
            )
            for metric in declared
        ]
    except BadInput as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    regressed = []
    for metric, old, new in pairs:
        allowed = MARGIN * metric["bound"]
        worse = new - old if metric["better"] == "lower" else old - new
        verdict = "ok"
        if worse > allowed * abs(old):
            verdict = "FAIL"
            regressed.append(metric["name"])
        delta = f"{100.0 * (new - old) / old:+7.1f}%" if old else "      -"
        print(
            f"{metric['name']:<22s} parent {old:>12.6g}  change {new:>12.6g} "
            f"{metric['unit']:<9s} {delta}  ({metric['better']} is better, "
            f"allowed {allowed:.0%} worse)  {verdict}"
        )
    failures = []
    if not change.get("correct"):
        failures.append("the change's run is not correct")
    if regressed:
        failures.append("regressed past the margin: " + ", ".join(regressed))
    for failure in failures:
        print(f"perf gate FAILED: {failure}")
    if failures:
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
