"""Bench: Fig. 11 — super-resolution efficiency."""

import numpy as np

from repro.experiments import fig11_superres


def test_fig11a_mse_vs_relative_tof(capsys):
    sweep = fig11_superres.run_mse_sweep()
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
            fig11_superres.render(
                {
                    "mse_sweep": sweep,
                    "two_sinc": fig11_superres.run_two_sinc_recovery(),
                }
            )
        )


def test_fig11b_two_pulse_recovery():
    recovery = fig11_superres.run_two_sinc_recovery()
    # Both overlapping pulses (1.8 ns apart at 400 MHz) recovered.
    for k in range(2):
        np.testing.assert_allclose(
            abs(recovery.recovered_alphas[k]),
            abs(recovery.true_alphas[k]),
            rtol=0.1,
        )

