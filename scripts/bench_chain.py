#!/usr/bin/env python
"""Chain per-PR benchmark records into cumulative paired ratios.

Usage::

    python scripts/bench_chain.py BENCH_*.json

Each ``BENCH_<pr>.json`` holds one change's alternating parent/change
perfbench pairs, measured back to back on one host.  Absolute figures
drift from one measurement period to the next, so only the paired ratio
of one record means anything, and the chain multiplies those ratios in
PR order.

A measured record lists every run: ``{"workload", "pair", "side"
("parent" or "change"), "order" (0 ran first in its pair), "seed",
"fingerprint", "result"}``, where ``result`` is perfbench's final result
object (``correct``, ``attempted``, ``failed`` and ``metrics``, each
metric a ``{"value", "unit"}``).  A transcribed record, marked
``"transcribed": true``, was copied from the medians an earlier change
reported; it carries ``"medians": {workload: {metric: {"parent": x,
"change": y}}}`` instead of runs.  Other keys a record carries (a
summary, confirmation runs on another seed) are not read.

For each workload and metric, the script prints each record's median
change/parent ratio (the change side's median over the parent side's)
and the product of the ratios of every record so far in PR order.  The
metric's better direction comes from ``BENCHMARK.json`` when it declares
the metric.  Transcribed records are labelled as such.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def record_medians(record: dict) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{workload: {metric: {"parent": median, "change": median}}}``."""
    if record.get("transcribed"):
        return record["medians"]
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for run in record["runs"]:
        metrics = values.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            sides = metrics.setdefault(name, {"parent": [], "change": []})
            sides[run["side"]].append(float(metric["value"]))
    return {
        workload: {
            name: {side: statistics.median(v) for side, v in sides.items() if v}
            for name, sides in metrics.items()
        }
        for workload, metrics in values.items()
    }


def ratio(sides: Dict[str, float]) -> Optional[float]:
    parent, change = sides.get("parent"), sides.get("change")
    if parent is None or change is None or parent == 0:
        return None
    return change / parent


def declared_directions() -> Dict[str, str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    declared = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in declared.get("end_to_end", [])}


def chain(records: List[dict]) -> List[str]:
    """The printed lines: one block per workload and metric."""
    records = sorted(records, key=lambda r: r["pr"])
    medians = [record_medians(r) for r in records]
    better = declared_directions()
    workloads = sorted({w for m in medians for w in m})
    lines: List[str] = []
    for workload in workloads:
        names = sorted({n for m in medians for n in m.get(workload, {})})
        for name in names:
            direction = better.get(name)
            suffix = f" ({direction} is better)" if direction else ""
            lines.append(f"{workload} {name}{suffix}")
            product = 1.0
            for record, per_workload in zip(records, medians):
                sides = per_workload.get(workload, {}).get(name)
                value = None if sides is None else ratio(sides)
                label = f"PR {record['pr']}"
                if record.get("transcribed"):
                    label += " (transcribed)"
                if value is None:
                    lines.append(f"  {label:<22s} {'-':>8s} {product:>10.4f}")
                    continue
                product *= value
                lines.append(f"  {label:<22s} {value:>8.4f} {product:>10.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", help="BENCH_*.json files")
    args = parser.parse_args(argv)
    records = [json.loads(Path(p).read_text()) for p in args.records]
    print(f"  {'record':<22s} {'ratio':>8s} {'cumulative':>10s}")
    for line in chain(records):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
