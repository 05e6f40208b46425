"""Bench: design-choice ablations (DESIGN.md index)."""

import numpy as np

from repro.experiments import ablations


def test_cfo_ablation(capsys):
    errors = ablations.run_cfo_ablation()
    # The paper's estimation argument: complex-ratio probing breaks
    # under CFO (phase errors ~uniform, mean ~90 deg) while the
    # magnitude-only two-probe method stays accurate.
    assert errors["complex-ratio/cfo"] > 45.0
    assert errors["two-probe/cfo"] < 10.0
    assert errors["complex-ratio/clean"] < 10.0
    with capsys.disabled():
        print()
        print("CFO ablation (deg):", {k: round(v, 1) for k, v in errors.items()})


def test_quantization_ablation(capsys):
    losses = ablations.run_quantization_ablation()
    # Section 5.1: 2-bit phase control suffices for coherent multi-beams
    # (sub-dB loss); 6-bit is essentially ideal.
    assert losses[2] < 1.5
    assert losses[6] < 0.05
    values = [losses[b] for b in sorted(losses)]
    assert np.all(np.diff(values) <= 1e-9)  # monotone improvement
    with capsys.disabled():
        print()
        print("Quantization loss (dB):", {k: round(v, 3) for k, v in losses.items()})


def test_beam_count_ablation(capsys):
    tradeoff = ablations.run_beam_count_ablation()
    # Gain saturates (diminishing returns) while overhead grows linearly.
    gains = tradeoff.snr_gain_db
    increments = np.diff(gains)
    assert np.all(increments > -1e-9)
    assert increments[-1] < increments[0]  # diminishing returns
    overhead_increments = np.diff(tradeoff.overhead_ms)
    assert np.allclose(overhead_increments, overhead_increments[0])
    with capsys.disabled():
        print()
        for k, g, o in zip(
            tradeoff.num_beams, gains, tradeoff.overhead_ms
        ):
            print(f"  K={k}: gain {g:5.2f} dB, overhead {o:5.2f} ms")


def test_regularization_ablation(capsys):
    mse = ablations.run_regularization_ablation()
    lambdas = sorted(mse)
    # The default (1e-4) sits on the flat part of the curve; gross
    # over-regularization destroys the estimate.
    assert mse[1e-4] < -25.0
    assert mse[1e-1] > mse[1e-4] + 10.0
    with capsys.disabled():
        print()
        print("Superres lambda MSE (dB):", {k: round(v, 1) for k, v in mse.items()})


def test_reprobe_cadence_ablation(capsys):
    results = ablations.run_reprobe_ablation(
        (10e-3, 25e-3, 100e-3), (0.0, 30.0), 0.4,
    )
    static = results[0.0]
    drifting = results[30.0]
    intervals = sorted(static)
    # Quasi-static channel: cadence does not matter (within noise).
    assert max(static.values()) - min(static.values()) < 0.3
    # Drifting carrier phase: slower refresh costs SNR, monotonically.
    values = [drifting[i] for i in intervals]
    assert values[0] > values[-1] + 0.3
    # And the drift penalty is recovered by frequent reprobing.
    assert static[intervals[0]] - drifting[intervals[0]] < 0.5
    with capsys.disabled():
        print()
        for drift, row in results.items():
            print(
                f"reprobe ablation, drift {drift:4.1f} rad/s:",
                {f"{k * 1e3:.0f}ms": round(v, 2) for k, v in row.items()},
            )
