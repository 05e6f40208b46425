"""Every seed ensemble an experiment runs honours its ExperimentConfig.

Fig. 18 and Fig. 19 run every comparison through ``compare_systems``,
which hands one ensemble per comparison to ``execute_ensemble``; spying
on that call shows each spec carries the config's seeds and faults.  A
``probe_loss`` rate of 0 is bitwise inert, so the runs stay cheap and
exercise the real path.
"""

import pytest

from repro.experiments import common, fig18_end2end, fig19_60ghz
from repro.experiments.registry import ExperimentConfig, get_experiment
from repro.faults import FaultSpec
from repro.sim import executor

CONFIG = ExperimentConfig(seeds=1, faults=(FaultSpec("probe_loss", 0.0),))


def spy_specs(monkeypatch):
    specs = []

    def spy(spec):
        specs.append(spec)
        return executor.execute_ensemble(spec)

    monkeypatch.setattr(common, "execute_ensemble", spy)
    return specs


@pytest.mark.parametrize(
    "identifier, module, comparisons",
    [
        # One per blocker count (Fig. 18a) + the mobile comparison.
        ("fig18", fig18_end2end, 4),
        # One per carrier.
        ("fig19", fig19_60ghz, 2),
    ],
)
def test_every_ensemble_gets_the_config(
    monkeypatch, identifier, module, comparisons
):
    specs = spy_specs(monkeypatch)
    get_experiment(identifier).run(CONFIG)
    assert len(specs) == comparisons
    for spec in specs:
        assert spec.seeds == (0,)
        assert spec.faults == CONFIG.faults
    # No per-system ensemble loop is left in the experiment module.
    assert not hasattr(module, "execute_ensemble")


def test_static_and_carrier_ensembles_use_the_pool(monkeypatch):
    static = spy_specs(monkeypatch)
    fig18_end2end.run_static_blockers((1,), range(2), workers=2)
    carriers = spy_specs(monkeypatch)
    fig19_60ghz.run_carrier_comparison(seeds=range(2), workers=2)
    assert len(static) == 1 and len(carriers) == 2
    for spec in static + carriers:
        assert spec.workers == 2
        # A raising run aborts the table, as a serial loop would.
        assert spec.max_failure_fraction == 0.0


def test_scenario_runs_its_own_user_count():
    from repro.experiments import network_scale
    from repro.sim.spec import get_scenario_spec

    config = ExperimentConfig(
        seeds=1, scenario=get_scenario_spec("single-cell")
    )
    scaling = network_scale.run(config)["scaling"]
    assert {system: sorted(by_users) for system, by_users in scaling.items()} == {
        system: [1] for system in network_scale.SYSTEMS
    }
