"""Every seed ensemble an experiment runs honours its ExperimentConfig.

Fig. 18 and Fig. 19 run every ensemble through ``execute_ensemble``;
spying on it shows each spec carries the config's seeds and faults.  A
``probe_loss`` rate of 0 is bitwise inert, so the runs stay cheap and
exercise the real path.
"""

import pytest

from repro.experiments import fig18_end2end, fig19_60ghz
from repro.experiments.registry import ExperimentConfig, get_experiment
from repro.faults import FaultSpec
from repro.sim import executor

CONFIG = ExperimentConfig(seeds=1, faults=(FaultSpec("probe_loss", 0.0),))


def spy_specs(monkeypatch, module):
    specs = []

    def spy(spec):
        specs.append(spec)
        return executor.execute_ensemble(spec)

    monkeypatch.setattr(module, "execute_ensemble", spy)
    return specs


@pytest.mark.parametrize(
    "identifier, module, ensembles",
    [
        # 3 blocker counts x 3 systems (Fig. 18a) + 5 mobile systems.
        ("fig18", fig18_end2end, 14),
        # 2 carriers x 2 systems.
        ("fig19", fig19_60ghz, 4),
    ],
)
def test_every_ensemble_gets_the_config(
    monkeypatch, identifier, module, ensembles
):
    specs = spy_specs(monkeypatch, module)
    get_experiment(identifier).run(CONFIG)
    assert len(specs) == ensembles
    for spec in specs:
        assert spec.seeds == (0,)
        assert spec.faults == CONFIG.faults


def test_static_and_carrier_ensembles_use_the_pool(monkeypatch):
    static = spy_specs(monkeypatch, fig18_end2end)
    fig18_end2end.run_static_blockers((1,), range(2), workers=2)
    carriers = spy_specs(monkeypatch, fig19_60ghz)
    fig19_60ghz.run_carrier_comparison(seeds=range(2), workers=2)
    assert len(static) == 3 and len(carriers) == 4
    for spec in static + carriers:
        assert spec.workers == 2
        # A raising run aborts the table, as a serial loop would.
        assert spec.max_failure_fraction == 0.0
