"""Bench: compute-backend kernel throughput, per registered backend.

Parametrized over every *available* backend so `scripts/bench_compare.py`
can gate both the NumPy reference and the compiled backend against the
committed baseline.  In environments without numba only the numpy leg
runs (the numba leg is skipped, and bench_compare tolerates the
one-sided baseline entries).
"""

import numpy as np
import pytest

from repro.channel.wideband import sampled_cir
from repro.core.superres import SuperResolver
from repro.perf.backend import available_backends, dispatch, use_backend

BACKENDS = [
    pytest.param(
        name,
        marks=()
        if available
        else pytest.mark.skip(reason=f"backend {name!r} unavailable"),
    )
    for name, available in available_backends().items()
]


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


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_backend_warm_superres_sequence(benchmark, once, backend_name):
    """One resolver across a link's rounds, the maintenance hot loop."""
    bandwidth, relative, rounds = _superres_rounds()

    def track():
        resolver = SuperResolver(
            bandwidth_hz=bandwidth,
            relative_delays_s=relative,
            initial_base_s=25e-9,
        )
        with use_backend(backend_name):
            return [
                resolver.estimate(cir, active_indices=active)
                for cir, active in rounds
            ]

    results = once(benchmark, track)
    assert len(results) == len(rounds)
    assert all(np.all(np.isfinite(r.alphas)) for r in results)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_backend_batch_channel_sampling(benchmark, once, backend_name):
    """Batched beamformed frequency response, the link-SNR hot loop."""
    rng = np.random.default_rng(12)
    num_samples, num_paths, num_elements, num_freqs = 512, 3, 16, 64
    steering = np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, (num_samples, num_paths, num_elements))
    )
    rotation = np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, (num_samples, num_freqs, num_paths))
    )
    gains = (
        rng.standard_normal((num_samples, num_paths))
        + 1j * rng.standard_normal((num_samples, num_paths))
    )
    weights = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, num_elements))

    def sample():
        with use_backend(backend_name):
            return dispatch(
                "batch_frequency_response", steering, rotation, gains, weights
            )

    response = once(benchmark, sample)
    assert response.shape == (num_samples, num_freqs)
    assert np.all(np.isfinite(response))
