"""Bench: Section 3.1 — the analytic reliability model 1 - beta^k."""

import numpy as np
import pytest

from repro.experiments import reliability_model


def test_reliability_model_curves(capsys):
    curves = reliability_model.run_analytic_curves()
    single = curves.curves["single-beam"]
    # Multi-beam dominates single beam at every beta, and more beams
    # dominate fewer.
    for k in (2, 3, 4):
        multi = curves.curves[f"{k}-beam"]
        assert np.all(multi >= single - 1e-12)
    assert np.all(curves.curves["3-beam"] >= curves.curves["2-beam"] - 1e-12)
    with capsys.disabled():
        print()
        print(
            reliability_model.render(
                {
                    "analytic": curves,
                    "monte_carlo": reliability_model.run_monte_carlo_check(),
                }
            )
        )


def test_reliability_monte_carlo_matches_analytic():
    check = reliability_model.run_monte_carlo_check()
    for beta, row in check.items():
        for k, simulated in row.items():
            analytic = reliability_model.analytic_multibeam_reliability(
                beta, k
            )
            assert simulated == pytest.approx(analytic, abs=0.02)
