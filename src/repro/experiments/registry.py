"""Registry mapping experiment ids to structured run/render entry points.

Used by the CLI (``python -m repro run fig14``) and by anyone scripting
over the full reproduction.  Each experiment is a two-stage pipeline:

* ``run(config) -> ExperimentResult`` — produce structured data (the
  sweeps, ensembles, and tables behind one paper figure) plus timing,
  honouring the :class:`ExperimentConfig` knobs (seed count, parallel
  workers) where the experiment has an ensemble to scale.
* ``render(result) -> str`` — format that data as the printable report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.faults import FaultSpec
from repro.sim.spec import ScenarioSpec
from repro.telemetry import TelemetrySummary, get_recorder


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs threaded into an experiment run.

    ``seeds`` overrides the number of Monte-Carlo seeds for experiments
    built on ensembles (``fig18``, ``robustness``); ``workers`` sets the
    ensemble executor's process-pool width.  Experiments without an
    ensemble ignore both.  ``faults`` injects a chaos campaign (CLI
    ``--fault`` / ``--faults``) into every ensemble the experiment
    runs.  ``scenario`` (CLI ``--scenario``) carries a
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
    """One registered experiment: a run stage plus a render stage."""

    identifier: str
    title: str
    runner: Callable[[ExperimentConfig], Dict[str, Any]] = field(repr=False)
    renderer: Callable[[Dict[str, Any]], str] = field(repr=False)

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Produce the experiment's structured data, with timing.

        When a recorder is active on this thread (e.g. the CLI's
        ``--trace``), link events flow into it and the result's
        ``telemetry`` summarizes just this experiment's slice of them.
        """
        config = DEFAULT_CONFIG if config is None else config
        recorder = get_recorder()
        mark = recorder.mark() if recorder.enabled else 0
        started = time.perf_counter()
        data = self.runner(config)
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
        return self.renderer(data)


# ----------------------------------------------------------------------
# per-figure run/render stages (imports deferred so ``repro list`` stays
# instant and figures only pay for what they use)
# ----------------------------------------------------------------------

def _fig04_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig04_reflectors as m

    return {"attenuation": m.run_attenuation_study()}


def _fig04_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig04_reflectors as m

    return m.report(data["attenuation"])


def _fig08_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig08_delay_array as m

    return {"responses": m.run_band_responses()}


def _fig08_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig08_delay_array as m

    return m.report(data["responses"])


def _fig11_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig11_superres as m

    return {
        "mse_sweep": m.run_mse_sweep(),
        "two_sinc": m.run_two_sinc_recovery(),
    }


def _fig11_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig11_superres as m

    return m.report(data["mse_sweep"], data["two_sinc"])


def _fig13_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig13_patterns as m

    return {
        "patterns": {k: m.run_pattern_comparison(num_beams=k) for k in (2, 3)}
    }


def _fig13_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig13_patterns as m

    return m.report(data["patterns"])


def _fig14_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig14_sensitivity as m

    return {"grid": m.run_sensitivity_grid()}


def _fig14_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig14_sensitivity as m

    return m.report(data["grid"])


def _fig15_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig15_combining as m

    return {
        "accuracy": m.run_combining_accuracy(),
        "stability": m.run_phase_stability(),
        "gains": m.run_snr_gains(),
    }


def _fig15_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig15_combining as m

    return m.report(data["accuracy"], data["stability"], data["gains"])


def _fig16_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig16_blockage as m

    return {"walking_blocker": m.run_walking_blocker()}


def _fig16_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig16_blockage as m

    return m.report(data["walking_blocker"])


def _fig17_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig17_tracking as m

    return {
        "power_trace": m.run_per_beam_power_trace(),
        "angle_accuracy": m.run_angle_accuracy(),
        "throughput": m.run_throughput_timeseries(),
    }


def _fig17_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig17_tracking as m

    return m.report(
        data["power_trace"], data["angle_accuracy"], data["throughput"]
    )


def _fig18_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig18_end2end as m

    return {
        "static": m.run_static_blockers(),
        "mobile": m.run_mobile_ensembles(
            seeds=config.seed_range(10), workers=config.workers,
            faults=config.faults,
        ),
        "overhead": m.run_probing_overhead(),
    }


def _fig18_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig18_end2end as m

    return m.report(data["static"], data["mobile"], data["overhead"])


def _fig19_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fig19_60ghz as m

    return {"carriers": m.run_carrier_comparison()}


def _fig19_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fig19_60ghz as m

    return m.report(data["carriers"])


def _reliability_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import reliability_model as m

    return {
        "analytic": m.run_analytic_curves(),
        "monte_carlo": m.run_monte_carlo_check(),
    }


def _reliability_render(data: Dict[str, Any]) -> str:
    from repro.experiments import reliability_model as m

    return m.report(data["analytic"], data["monte_carlo"])


def _robustness_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import robustness as m

    return {
        "clustered": m.run_clustered_ensembles(
            seeds=config.seed_range(12), workers=config.workers,
            faults=config.faults,
        )
    }


def _robustness_render(data: Dict[str, Any]) -> str:
    from repro.experiments import robustness as m

    return m.report(data["clustered"])


def _fault_tolerance_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import fault_tolerance as m

    kind = config.faults[0].kind if config.faults else "probe_loss"
    return {
        "sweep": m.run_fault_rate_sweep(
            seeds=config.seed_range(6), workers=config.workers, kind=kind
        )
    }


def _fault_tolerance_render(data: Dict[str, Any]) -> str:
    from repro.experiments import fault_tolerance as m

    return m.report(data["sweep"])


def _network_scale_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import network_scale as m

    kwargs: Dict[str, Any] = {}
    if config.scenario is not None:
        kwargs["spec"] = config.scenario
        if config.scenario.users > 1:
            # A pinned user count replaces the default sweep.
            kwargs["user_counts"] = (config.scenario.users,)
    return {
        "scaling": m.run_user_scaling(
            seeds=config.seed_range(4), workers=config.workers,
            faults=config.faults, **kwargs,
        )
    }


def _network_scale_render(data: Dict[str, Any]) -> str:
    from repro.experiments import network_scale as m

    return m.report(data["scaling"])


def _ablations_run(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments import ablations as m

    return {
        "cfo": m.run_cfo_ablation(),
        "quantization": m.run_quantization_ablation(),
        "beam_count": m.run_beam_count_ablation(),
        "regularization": m.run_regularization_ablation(),
        "reprobe": m.run_reprobe_ablation(workers=config.workers),
    }


def _ablations_render(data: Dict[str, Any]) -> str:
    from repro.experiments import ablations as m

    return m.report(
        data["cfo"],
        data["quantization"],
        data["beam_count"],
        data["regularization"],
        data["reprobe"],
    )


REGISTRY: Dict[str, Experiment] = {
    e.identifier: e
    for e in (
        Experiment(
            "fig04", "Fig. 4 — strength of mmWave multipath",
            _fig04_run, _fig04_render,
        ),
        Experiment(
            "fig08", "Fig. 7/8 — delay phased array response",
            _fig08_run, _fig08_render,
        ),
        Experiment(
            "fig11", "Fig. 11 — super-resolution efficiency",
            _fig11_run, _fig11_render,
        ),
        Experiment(
            "fig13", "Fig. 13d — multi-beam pattern fidelity",
            _fig13_run, _fig13_render,
        ),
        Experiment(
            "fig14", "Fig. 14 — sensitivity to estimation errors",
            _fig14_run, _fig14_render,
        ),
        Experiment(
            "fig15", "Fig. 15 — constructive combining accuracy",
            _fig15_run, _fig15_render,
        ),
        Experiment(
            "fig16", "Fig. 16 — blockage resilience",
            _fig16_run, _fig16_render,
        ),
        Experiment(
            "fig17", "Fig. 17 — proactive tracking",
            _fig17_run, _fig17_render,
        ),
        Experiment(
            "fig18", "Fig. 18 — end-to-end comparison",
            _fig18_run, _fig18_render,
        ),
        Experiment(
            "fig19", "Fig. 19 (App. B) — 28 vs 60 GHz",
            _fig19_run, _fig19_render,
        ),
        Experiment(
            "reliability", "Sec. 3.1 — reliability model",
            _reliability_run, _reliability_render,
        ),
        Experiment(
            "robustness", "end-to-end on random clustered channels",
            _robustness_run, _robustness_render,
        ),
        Experiment(
            "fault_tolerance",
            "reliability vs injected fault rate (chaos sweep)",
            _fault_tolerance_run, _fault_tolerance_render,
        ),
        Experiment(
            "network_scale",
            "network-scale multi-user throughput/reliability CDFs",
            _network_scale_run, _network_scale_render,
        ),
        Experiment(
            "ablations", "design-choice ablations",
            _ablations_run, _ablations_render,
        ),
    )
}


def experiment_ids() -> Tuple[str, ...]:
    """All registered experiment identifiers, in registry order."""
    return tuple(REGISTRY)


def get_experiment(identifier: str) -> Experiment:
    """Look up one experiment, with a helpful error on typos."""
    try:
        return REGISTRY[identifier]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        known = ", ".join(REGISTRY)
        raise KeyError(
            f"unknown experiment {identifier!r}; known: {known}"
        ) from None
