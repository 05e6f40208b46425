"""Bench: the zero-rate fault injector and the chaos sweep.

Two contracts:

* **Free when off** — a zero-rate campaign never draws randomness, so a
  run under an all-zero injector must be bitwise identical to a run with
  no injector.
* **Graceful degradation** — the fault_tolerance sweep (the reliability
  vs fault-rate curve) at a reduced scale: chaos costs reliability but
  never a run, and mmReliable stays ahead of the reactive baseline at
  the top rate.
"""

from repro.experiments import fault_tolerance
from repro.experiments.common import make_manager
from repro.experiments.fig18_end2end import _mobile_scenario
from repro.faults import FaultInjector, FaultSpec
from repro.sim.link import LinkSimulator

ZERO_CAMPAIGN = (
    FaultSpec(kind="probe_loss", rate=0.0),
    FaultSpec(kind="probe_corruption", rate=0.0),
    FaultSpec(kind="stuck_elements", rate=0.0),
    FaultSpec(kind="feedback_dropout", rate=0.0),
)


def make_sim(seed=0, duration=0.25, faults=None):
    simulator = LinkSimulator(
        scenario=_mobile_scenario(
            seed, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
        ),
        manager=make_manager("mmreliable", seed),
        duration_s=duration,
    )
    if faults is not None:
        simulator.install_fault_injector(
            FaultInjector(seed=seed, specs=faults)
        )
    return simulator


def test_zero_rate_injector_is_free():
    plain = make_sim().run()
    injected = make_sim(faults=ZERO_CAMPAIGN).run()

    # The bitwise-identity contract: all-zero rates never draw, so the
    # sounder's RNG stream — and therefore the physics — is untouched.
    assert (injected.snr_db == plain.snr_db).all()
    assert injected.actions == plain.actions


def test_fault_tolerance_sweep():
    sweep = fault_tolerance.run_fault_rate_sweep(
        rates=(0.0, 0.3), seeds=range(3), duration_s=0.25
    )
    print()
    print(fault_tolerance.report(sweep))

    curves = sweep["curves"]
    top = {system: points[-1] for system, points in curves.items()}
    # Graceful degradation: chaos costs reliability but never a run.
    total_failures = sum(
        p["failed_runs"] for points in curves.values() for p in points
    )
    assert total_failures == 0
    assert top["mmreliable"]["reliability"] > top["reactive"]["reliability"]
