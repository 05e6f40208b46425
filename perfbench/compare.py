#!/usr/bin/env python3
"""Compare two sets of benchmark results, per workload and metric.

Each input is the saved standard output of one or more ``run.py`` runs
(concatenate runs into one file).  The ``detail:`` line of every run
carries its metrics and host fingerprint.  For each workload and trace
mode, the script prints the median of each metric on both sides and the
change.  It warns when the host fingerprints differ -- CPU count,
machine, or the Python, numpy or scipy version -- because figures from
different hosts are not comparable.  The commit is shown, not compared.

    python3 perfbench/compare.py before.txt after.txt
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

HOST_KEYS = ("nproc", "machine", "python", "numpy", "scipy")


def load(path: str) -> List[dict]:
    runs = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("detail: "):
                runs.append(json.loads(line[len("detail: "):]))
    if not runs:
        raise SystemExit(f"error: {path}: no 'detail:' lines")
    return runs


def hosts(runs: List[dict]) -> set:
    return {
        tuple((key, run["fingerprint"].get(key)) for key in HOST_KEYS)
        for run in runs
    }


def medians(runs: List[dict]) -> Dict[Tuple[str, int], Dict[str, float]]:
    grouped: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for run in runs:
        metrics = grouped.setdefault((run["workload"], run["trace"]), {})
        for name, value in run["metrics"].items():
            metrics.setdefault(name, []).append(float(value))
    return {
        group: {name: statistics.median(values) for name, values in metrics.items()}
        for group, metrics in grouped.items()
    }


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    host_sets = hosts(before) | hosts(after)
    if len(host_sets) > 1:
        print("WARNING: host fingerprints differ; these figures are not "
              "comparable:")
        for host in sorted(host_sets):
            print("  " + ", ".join(f"{key}={value}" for key, value in host))
    commits = sorted(
        {run["fingerprint"].get("commit", "unknown") for run in before}
    ), sorted({run["fingerprint"].get("commit", "unknown") for run in after})
    print(f"before: {len(before)} run(s), commit(s) {', '.join(commits[0])}")
    print(f"after:  {len(after)} run(s), commit(s) {', '.join(commits[1])}")
    old, new = medians(before), medians(after)
    for group in sorted(set(old) & set(new)):
        workload, trace = group
        print(f"\n{workload} (trace={trace})")
        for name in sorted(set(old[group]) & set(new[group])):
            a, b = old[group][name], new[group][name]
            change = f"{100.0 * (b - a) / a:+7.1f}%" if a else "      -"
            print(f"  {name:<40s} {a:>14.6g} {b:>14.6g} {change}")
    for group in sorted(set(old) ^ set(new)):
        print(f"\n{group[0]} (trace={group[1]}): only on one side")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
