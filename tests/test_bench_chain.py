"""Tests for the benchmark-record chain (scripts/bench_chain.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "bench_chain", ROOT / "scripts" / "bench_chain.py"
)
bench_chain = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_chain)


def run(workload, pair, side, value):
    return {
        "workload": workload,
        "pair": pair,
        "side": side,
        "order": 0 if (pair % 2 == 0) == (side == "parent") else 1,
        "seed": 0,
        "fingerprint": {"nproc": 2},
        "result": {
            "correct": True,
            "attempted": 5,
            "failed": 0,
            "metrics": {"link_seconds_per_s": {"value": value, "unit": "link-s/s"}},
        },
    }


def write(path, record):
    path.write_text(json.dumps(record))
    return str(path)


@pytest.fixture
def records(tmp_path):
    transcribed = {
        "pr": 3,
        "transcribed": True,
        "medians": {
            "mobile-ensemble": {
                "link_seconds_per_s": {"parent": 10.0, "change": 12.0}
            }
        },
    }
    measured = {
        "pr": 7,
        "transcribed": False,
        # Parent median 20, change median 25: ratio 1.25.
        "runs": [
            run("mobile-ensemble", 0, "parent", 19.0),
            run("mobile-ensemble", 0, "change", 25.0),
            run("mobile-ensemble", 1, "change", 24.0),
            run("mobile-ensemble", 1, "parent", 20.0),
            run("mobile-ensemble", 2, "parent", 21.0),
            run("mobile-ensemble", 2, "change", 26.0),
        ],
    }
    # Given out of PR order: the chain sorts by PR.
    return [
        write(tmp_path / "BENCH_7.json", measured),
        write(tmp_path / "BENCH_3.json", transcribed),
    ]


def test_ratios_and_cumulative_product_in_pr_order(records, capsys):
    assert bench_chain.main(records) == 0
    lines = capsys.readouterr().out.splitlines()
    block = lines[lines.index(
        "mobile-ensemble link_seconds_per_s (higher is better)"
    ) + 1:]
    first, second = block[0].split(), block[1].split()
    assert first[:3] == ["PR", "3", "(transcribed)"]
    assert float(first[-2]) == pytest.approx(1.2)
    assert float(first[-1]) == pytest.approx(1.2)
    assert second[:2] == ["PR", "7"] and "(transcribed)" not in block[1]
    assert float(second[-2]) == pytest.approx(1.25)
    assert float(second[-1]) == pytest.approx(1.5)


def test_missing_metric_leaves_the_product_unchanged(tmp_path):
    only_network = {
        "pr": 9,
        "transcribed": True,
        "medians": {
            "network-4x64": {"link_seconds_per_s": {"parent": 4.0, "change": 5.0}}
        },
    }
    mobile = {
        "pr": 8,
        "transcribed": True,
        "medians": {
            "mobile-ensemble": {"link_seconds_per_s": {"parent": 2.0, "change": 3.0}}
        },
    }
    lines = bench_chain.chain([only_network, mobile])
    mobile_block = lines[lines.index(
        "mobile-ensemble link_seconds_per_s (higher is better)"
    ) + 1:][:2]
    assert mobile_block[1].split()[-2:] == ["-", "1.5000"]
