"""``compare_systems``: one comparison ensemble, one summary per system.

Each system's summary must hold what a one-system ensemble of that
system would: its metrics in seed order and, under a recorder, a digest
of its own events.  A seed-run that raises fails for every system.
"""

from functools import partial

import pytest

from repro.experiments.common import compare_systems, make_manager
from repro.experiments.fig18_end2end import _mobile_scenario
from repro.faults import FaultSpec
from repro.sim.executor import EnsembleError, EnsembleSpec, execute_ensemble
from repro.sim.link import build_link_simulator
from repro.telemetry import TelemetryRecorder, use_recorder

SYSTEMS = ("mmreliable", "reactive", "oracle")
SCENARIO = partial(
    _mobile_scenario, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
)
SEEDS = (0, 1, 2)


def one_system(kind, label, faults=(), max_failure_fraction=0.5):
    """The one-system ensemble a per-system loop would run."""
    return execute_ensemble(
        EnsembleSpec(
            label=label,
            simulator_factory=partial(
                build_link_simulator, SCENARIO,
                partial(make_manager, kind), 0.3,
            ),
            seeds=SEEDS,
            faults=faults,
            max_failure_fraction=max_failure_fraction,
        )
    )


def test_each_summary_is_its_systems_ensemble():
    faults = (FaultSpec("probe_loss", 0.2),)
    with use_recorder(TelemetryRecorder()):
        summaries = compare_systems(
            SYSTEMS, SCENARIO, 0.3, SEEDS, faults=faults, label_suffix="@x"
        )
        for kind in SYSTEMS:
            alone = one_system(kind, f"{kind}@x", faults)
            summary = summaries[kind]
            assert summary.label == alone.label
            assert summary.metrics == alone.metrics
            assert summary.telemetry == alone.telemetry
            assert summary.stats.total_runs == len(SEEDS)
    assert list(summaries) == list(SYSTEMS)


def test_without_a_recorder_there_is_no_telemetry():
    summaries = compare_systems(SYSTEMS, SCENARIO, 0.3, SEEDS)
    assert all(summary.telemetry is None for summary in summaries.values())


def test_a_failed_seed_fails_for_every_system():
    faults = (FaultSpec("worker_crash", 0.5),)
    summaries = compare_systems(
        SYSTEMS, SCENARIO, 0.3, SEEDS, faults=faults, max_failure_fraction=1.0
    )
    alone = one_system("oracle", "oracle", faults, max_failure_fraction=1.0)
    crashed = [failure.seed for failure in alone.failures]
    assert 0 < len(crashed) < len(SEEDS)
    for kind in SYSTEMS:
        assert [f.seed for f in summaries[kind].failures] == crashed
        assert len(summaries[kind].metrics) == len(SEEDS) - len(crashed)
    assert summaries["oracle"].metrics == alone.metrics


def test_an_ensemble_error_names_the_comparison():
    with pytest.raises(EnsembleError) as raised:
        compare_systems(
            ("beamspy", "oracle"), SCENARIO, 0.3, SEEDS,
            faults=(FaultSpec("worker_crash", 1.0),), label_suffix="@x",
        )
    assert raised.value.label == "beamspy+oracle@x"
