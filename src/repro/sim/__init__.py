"""Link-level simulation: scenarios, the time-stepped engine, and metrics.

Everything the end-to-end evaluation (Section 6.2) needs: channels that
evolve under mobility and blockage, a simulator that drives any beam
manager over them, and the reliability / throughput / probing-overhead
metrics the paper reports.
"""

from repro.sim.metrics import (
    LinkMetrics,
    reliability,
    mean_throughput_bps,
    throughput_reliability_product,
    analytic_single_beam_reliability,
    analytic_multibeam_reliability,
)
from repro.sim.scenarios import (
    SyntheticScenario,
    GeometricScenario,
    two_path_channel,
    three_path_channel,
    indoor_two_path_scenario,
    indoor_mobile_scenario,
)
from repro.sim.link import LinkSimulator, SimulationTrace, build_link_simulator
from repro.sim.executor import (
    EnsembleError,
    EnsembleSpec,
    EnsembleSummary,
    ExecutorStats,
    RunFailure,
    execute_ensemble,
    parallel_map,
)
from repro.sim.spec import (
    SCENARIO_SPECS,
    ScenarioSpec,
    get_scenario_spec,
    load_scenario_spec,
)
from repro.sim.export import (
    trace_to_csv,
    metrics_to_csv,
    write_trace_csv,
    write_metrics_csv,
    to_jsonable,
    result_to_json,
    write_result_json,
)

__all__ = [
    "LinkMetrics",
    "reliability",
    "mean_throughput_bps",
    "throughput_reliability_product",
    "analytic_single_beam_reliability",
    "analytic_multibeam_reliability",
    "SyntheticScenario",
    "GeometricScenario",
    "two_path_channel",
    "three_path_channel",
    "indoor_two_path_scenario",
    "indoor_mobile_scenario",
    "LinkSimulator",
    "SimulationTrace",
    "build_link_simulator",
    "SCENARIO_SPECS",
    "ScenarioSpec",
    "get_scenario_spec",
    "load_scenario_spec",
    "execute_ensemble",
    "parallel_map",
    "EnsembleError",
    "EnsembleSpec",
    "EnsembleSummary",
    "ExecutorStats",
    "RunFailure",
    "trace_to_csv",
    "metrics_to_csv",
    "write_trace_csv",
    "write_metrics_csv",
    "to_jsonable",
    "result_to_json",
    "write_result_json",
]
