"""Registry mapping experiment ids to their modules.

Used by the CLI (``python -m repro run fig14``), the job server and
anyone scripting over the full reproduction.  Every experiment is one
module under :mod:`repro.experiments` with two functions:

* ``run(config) -> dict`` — produce the structured data (the sweeps,
  ensembles, and tables behind one paper figure), honouring the
  :class:`ExperimentConfig` knobs; every seed ensemble it runs goes
  through :func:`repro.sim.executor.execute_ensemble` with the config's
  seeds, workers and faults.
* ``render(data) -> str`` — format that data as the printable report.

:class:`Experiment` wraps the pair with a title, timing and a telemetry
slice (:class:`ExperimentResult`).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.faults import FaultSpec
from repro.sim.spec import ScenarioSpec
from repro.telemetry import TelemetrySummary, get_recorder


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs threaded into an experiment run.

    ``seeds`` overrides the number of Monte-Carlo seeds of every seed
    ensemble the experiment runs; ``workers`` sets the ensemble
    executor's process-pool width; ``faults`` injects a chaos campaign
    (CLI ``--fault`` / ``--faults``) into every such ensemble.
    ``fault_tolerance`` sweeps its own rates of the first fault's kind,
    ``ablations`` fans its grid cells out over ``workers``, and
    experiments without an ensemble or grid ignore all three.
    ``scenario`` (CLI ``--scenario``) carries a
    :class:`~repro.sim.spec.ScenarioSpec` for scenario-driven
    experiments (``network_scale``); experiments without a scenario
    knob ignore it.
    """

    seeds: Optional[int] = None
    workers: int = 1
    faults: Tuple[FaultSpec, ...] = ()
    scenario: Optional[ScenarioSpec] = None

    def __post_init__(self) -> None:
        if self.seeds is not None and self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        faults = tuple(self.faults)
        for spec in faults:
            if not isinstance(spec, FaultSpec):
                raise TypeError(
                    f"faults must be FaultSpec instances, got {spec!r}"
                )
        object.__setattr__(self, "faults", faults)
        if self.scenario is not None and not isinstance(
            self.scenario, ScenarioSpec
        ):
            raise TypeError(
                f"scenario must be a ScenarioSpec, got {self.scenario!r}"
            )

    def seed_range(self, default: int) -> range:
        """The seed range to use, honouring the override."""
        return range(self.seeds if self.seeds is not None else default)


DEFAULT_CONFIG = ExperimentConfig()


@dataclass(frozen=True)
class ExperimentResult:
    """Structured output of one experiment run."""

    identifier: str
    title: str
    config: ExperimentConfig
    data: Dict[str, Any]
    elapsed_s: float
    telemetry: Optional[TelemetrySummary] = None


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: ``repro.experiments.<module>``.

    The module owns the experiment: ``run(config) -> dict`` produces
    its data and ``render(data) -> str`` prints the report.  The module
    is imported on first use, so ``repro list`` loads none of them.
    """

    identifier: str
    title: str
    module: str

    def _module(self):
        return importlib.import_module(f"repro.experiments.{self.module}")

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Produce the experiment's structured data, with timing.

        When a recorder is active on this thread (e.g. the CLI's
        ``--trace``), link events flow into it and the result's
        ``telemetry`` summarizes just this experiment's slice of them.
        """
        config = DEFAULT_CONFIG if config is None else config
        module = self._module()
        recorder = get_recorder()
        mark = recorder.mark() if recorder.enabled else 0
        started = time.perf_counter()
        data = module.run(config)
        return ExperimentResult(
            identifier=self.identifier,
            title=self.title,
            config=config,
            data=data,
            elapsed_s=time.perf_counter() - started,
            telemetry=(
                recorder.summary(since=mark) if recorder.enabled else None
            ),
        )

    def render(self, result) -> str:
        """Format a result (or its bare data dict) as the paper report."""
        data = result.data if isinstance(result, ExperimentResult) else result
        return self._module().render(data)


REGISTRY: Dict[str, Experiment] = {
    e.identifier: e
    for e in (
        Experiment(
            "fig04", "Fig. 4 — strength of mmWave multipath",
            "fig04_reflectors",
        ),
        Experiment(
            "fig08", "Fig. 7/8 — delay phased array response",
            "fig08_delay_array",
        ),
        Experiment(
            "fig11", "Fig. 11 — super-resolution efficiency",
            "fig11_superres",
        ),
        Experiment(
            "fig13", "Fig. 13d — multi-beam pattern fidelity",
            "fig13_patterns",
        ),
        Experiment(
            "fig14", "Fig. 14 — sensitivity to estimation errors",
            "fig14_sensitivity",
        ),
        Experiment(
            "fig15", "Fig. 15 — constructive combining accuracy",
            "fig15_combining",
        ),
        Experiment(
            "fig16", "Fig. 16 — blockage resilience", "fig16_blockage",
        ),
        Experiment(
            "fig17", "Fig. 17 — proactive tracking", "fig17_tracking",
        ),
        Experiment(
            "fig18", "Fig. 18 — end-to-end comparison", "fig18_end2end",
        ),
        Experiment(
            "fig19", "Fig. 19 (App. B) — 28 vs 60 GHz", "fig19_60ghz",
        ),
        Experiment(
            "reliability", "Sec. 3.1 — reliability model",
            "reliability_model",
        ),
        Experiment(
            "robustness", "end-to-end on random clustered channels",
            "robustness",
        ),
        Experiment(
            "fault_tolerance",
            "reliability vs injected fault rate (chaos sweep)",
            "fault_tolerance",
        ),
        Experiment(
            "network_scale",
            "network-scale multi-user throughput/reliability CDFs",
            "network_scale",
        ),
        Experiment("ablations", "design-choice ablations", "ablations"),
    )
}


def get_experiment(identifier: str) -> Experiment:
    """Look up one experiment, with a helpful error on typos."""
    try:
        return REGISTRY[identifier]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        known = ", ".join(REGISTRY)
        raise KeyError(
            f"unknown experiment {identifier!r}; known: {known}"
        ) from None
