"""Bench: telemetry overhead, instrumented vs null recorder.

The telemetry contract is "free when off": every instrumentation site
reduces to one module-global load plus one attribute check when the null
recorder is installed.  This benchmark measures that disabled-path cost
directly (a tight loop over ``get_recorder().enabled``), counts how many
instrumentation hits a representative traced run actually performs, and
bounds the implied disabled overhead at < 5% of the run's wall time.
"""

import time

from repro.arrays import UniformLinearArray, uniform_codebook
from repro.beamtraining import ExhaustiveTrainer
from repro.core.maintenance import MultiBeamManager
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.link import LinkSimulator
from repro.sim.scenarios import indoor_two_path_scenario
from repro.telemetry import TelemetryRecorder, get_recorder, use_recorder

ARRAY = UniformLinearArray(num_elements=8)


def make_sim(seed=0, duration=0.25):
    sounder = ChannelSounder(
        config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
        rng=seed,
    )
    trainer = ExhaustiveTrainer(
        codebook=uniform_codebook(ARRAY, 17), sounder=sounder
    )
    manager = MultiBeamManager(
        array=ARRAY, sounder=sounder, trainer=trainer, num_beams=2
    )
    return LinkSimulator(
        scenario=indoor_two_path_scenario(ARRAY),
        manager=manager,
        duration_s=duration,
    )


def _disabled_check_cost_s(iterations=1_000_000):
    """Per-call cost of the disabled-path guard, averaged over a loop."""
    started = time.perf_counter()
    for _ in range(iterations):
        recorder = get_recorder()
        if recorder.enabled:  # pragma: no cover - telemetry is off here
            recorder.emit("probe_tx", 0.0)
    return (time.perf_counter() - started) / iterations


def test_telemetry_overhead():
    # Reference: an untraced run under the null recorder.
    started = time.perf_counter()
    plain = make_sim().run()
    disabled_wall_s = time.perf_counter() - started

    # The traced run, counting every event (a lower bound on
    # instrumentation-site hits).
    recorder = TelemetryRecorder()
    with use_recorder(recorder):
        traced = make_sim().run()
    num_events = len(recorder.events)

    # Tracing never perturbs the simulated numbers.
    assert (traced.snr_db == plain.snr_db).all()
    assert traced.actions == plain.actions

    # The disabled path is a global load + attribute check per site;
    # bound its aggregate cost over this run's hit count at < 5% of the
    # untraced wall time.
    per_check_s = _disabled_check_cost_s()
    overhead_fraction = num_events * per_check_s / disabled_wall_s
    assert overhead_fraction < 0.05, (
        f"{num_events} instrumentation hits x {per_check_s:.2e}s "
        f"= {overhead_fraction:.2%} of the untraced run"
    )
