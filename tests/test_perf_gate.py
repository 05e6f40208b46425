"""Tests for the CI perf gate (scripts/perf_gate.py), judged against the
end-to-end metrics and bounds the real BENCHMARK.json declares."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "scripts" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_gate)

DECLARED = {
    metric["name"]: metric
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def write_run(path, correct=True, **values):
    """Saved perfbench output: every metric reads 1.0 unless given."""
    result = {
        "correct": correct,
        "attempted": 8,
        "failed": 0 if correct else 1,
        "metrics": {
            name: {"value": values.get(name, 1.0), "unit": metric["unit"]}
            for name, metric in DECLARED.items()
        },
    }
    path.write_text(
        "perfbench workload=mobile-ensemble seed=0 seconds=10 trace=0\n"
        + json.dumps(result) + "\n"
    )
    return str(path)


def worse_by(name, fraction):
    """The value of ``name`` that is ``fraction`` worse than 1.0."""
    if DECLARED[name]["better"] == "lower":
        return 1.0 + fraction
    return 1.0 - fraction


def gate(tmp_path, correct=True, **change):
    return perf_gate.main([
        write_run(tmp_path / "parent.txt"),
        write_run(tmp_path / "change.txt", correct, **change),
    ])


def test_passes_within_twice_each_bound(tmp_path, capsys):
    change = {
        name: worse_by(name, 0.9 * 2 * metric["bound"])
        for name, metric in DECLARED.items()
    }
    assert gate(tmp_path, **change) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == list(DECLARED)
    assert lines[-1] == "perf gate passed"


@pytest.mark.parametrize(
    "name, better",
    [("setup_s", "lower"), ("peak_rss_mb", "lower"),
     ("link_seconds_per_s", "higher")],
)
def test_fails_past_twice_the_bound(tmp_path, capsys, name, better):
    assert DECLARED[name]["better"] == better
    bound = DECLARED[name]["bound"]
    assert gate(tmp_path, **{name: worse_by(name, 1.1 * 2 * bound)}) == 1
    out = capsys.readouterr().out
    assert f"regressed past the margin: {name}" in out
    # The same distance in the better direction is an improvement.
    better_value = 2.0 - worse_by(name, 1.1 * 2 * bound)
    assert gate(tmp_path, **{name: better_value}) == 0


def test_fails_an_incorrect_change(tmp_path, capsys):
    assert gate(tmp_path, correct=False) == 1
    assert "not correct" in capsys.readouterr().out


@pytest.mark.parametrize(
    "last_line",
    [
        "",
        "Traceback (most recent call last):",
        '{"correct": true, "metrics": {}}',
    ],
    ids=["empty", "crashed", "metric-missing"],
)
def test_unreadable_change_exits_2(tmp_path, last_line):
    change = tmp_path / "change.txt"
    change.write_text("perfbench workload=serve-mix\n" + last_line + "\n")
    assert perf_gate.main([write_run(tmp_path / "parent.txt"), str(change)]) == 2


def test_takes_exactly_two_paths(tmp_path):
    parent = write_run(tmp_path / "parent.txt")
    assert perf_gate.main([parent]) == 2
    assert perf_gate.main(["--help"]) == 2
