"""Bench: ensemble executor, serial vs parallel.

Runs a 16-seed Fig.-18-style ensemble on the serial path and on a
4-worker process pool and prints both runs' throughput and the pool
utilization.  On a single-core runner the pool adds overhead rather
than speedup — the numbers are printed, not asserted — but the parallel
path must reproduce the serial metrics bitwise.
"""

from dataclasses import replace
from functools import partial

from repro.experiments.common import make_manager
from repro.experiments.fig18_end2end import _mobile_scenario
from repro.sim.executor import EnsembleSpec, execute_ensemble
from repro.sim.link import build_link_simulator

SPEC = EnsembleSpec(
    label="mmreliable",
    simulator_factory=partial(
        build_link_simulator,
        partial(
            _mobile_scenario, speed_mps=1.5, blockage_depth_db=30.0,
            distance_m=25.0,
        ),
        partial(make_manager, "mmreliable"),
        0.25,
    ),
    seeds=tuple(range(16)),
)


def test_executor_serial_vs_parallel(capsys):
    serial = execute_ensemble(SPEC)
    parallel = execute_ensemble(replace(SPEC, workers=4))

    # The whole point of the pool: identical per-seed metrics.
    assert parallel.metrics == serial.metrics
    assert parallel.stats.backend == "process"
    assert parallel.stats.total_runs == 16
    assert parallel.stats.failed_runs == 0
    with capsys.disabled():
        print()
        print("  serial:  ", serial.stats.describe())
        print("  parallel:", parallel.stats.describe())
