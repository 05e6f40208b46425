"""Bench: Fig. 11 — super-resolution efficiency."""

import numpy as np

from repro.channel.wideband import sampled_cir
from repro.core.superres import SuperResolver
from repro.experiments import fig11_superres


def test_fig11a_mse_vs_relative_tof(benchmark, once, capsys):
    sweep = once(benchmark, fig11_superres.run_mse_sweep)
    below = sweep.relative_tofs_s < sweep.resolution_s
    # Paper shape: low MSE persists well below the classical resolution
    # (down to ~1 ns at 400 MHz), with graceful degradation at the
    # smallest spacings.
    usable = sweep.mse_db[(sweep.relative_tofs_s >= 1e-9) & below]
    assert usable.size >= 2
    assert np.all(usable < -20.0)
    # At or above the resolution the estimate is excellent.
    assert np.all(sweep.mse_db[~below] < -30.0)
    # And the hardest (smallest) spacing is the worst case.
    assert sweep.mse_db[0] == max(sweep.mse_db)
    with capsys.disabled():
        print()
        print(
            fig11_superres.report(
                sweep, fig11_superres.run_two_sinc_recovery()
            )
        )


def test_fig11b_two_pulse_recovery(benchmark, once):
    recovery = once(benchmark, fig11_superres.run_two_sinc_recovery)
    # Both overlapping pulses (1.8 ns apart at 400 MHz) recovered.
    for k in range(2):
        np.testing.assert_allclose(
            abs(recovery.recovered_alphas[k]),
            abs(recovery.true_alphas[k]),
            rtol=0.1,
        )


def _superres_rounds():
    """One link's maintenance CIRs: steady, a beam dropped, a timing jump."""
    rng = np.random.default_rng(11)
    bandwidth, num_taps = 400e6, 128
    relative = np.array([0.0, 1.2e-9, 3.1e-9])
    rounds = []
    for index in range(200):
        base = 25e-9 if index < 150 else 35e-9  # re-acquired at 150
        alphas = np.array([1.0, 0.5j, 0.3])
        active = None
        if 60 <= index < 90:
            alphas[1], active = 0.0, [0, 2]
        cir = sampled_cir(alphas, base + relative, bandwidth, num_taps)
        cir = cir + 1e-2 * (
            rng.standard_normal(num_taps) + 1j * rng.standard_normal(num_taps)
        )
        rounds.append((cir, active))
    return bandwidth, relative, rounds


def test_warm_superres_sequence(benchmark, once):
    """One resolver across a link's rounds, the maintenance hot loop."""
    bandwidth, relative, rounds = _superres_rounds()

    def track():
        resolver = SuperResolver(
            bandwidth_hz=bandwidth,
            relative_delays_s=relative,
            initial_base_s=25e-9,
        )
        return [
            resolver.estimate(cir, active_indices=active)
            for cir, active in rounds
        ]

    results = once(benchmark, track)
    assert len(results) == len(rounds)
    assert all(np.all(np.isfinite(r.alphas)) for r in results)
