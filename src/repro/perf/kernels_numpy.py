"""NumPy reference implementations of the registered compute kernels.

This module is the *semantic contract* of the backend seam
(:mod:`repro.perf.backend`): every other backend must reproduce these
functions within the tolerance documented in DESIGN.md ("Compute
backends").  The arithmetic here is lifted verbatim from the original
call sites — :mod:`repro.channel.wideband`,
:meth:`repro.channel.batch.ChannelBatch.frequency_response`, and
:func:`repro.arrays.patterns.array_factor` —
so routing those call sites through the seam under the default backend
is bitwise-identical to the pre-seam code.

Kernels are **pure functions of their array arguments**: no RNG, no
telemetry, no global state (``__backend_kernels__`` marks the module
for the RL310/RL311 lint rules).  Telemetry accounting happens one
layer up, in :func:`repro.perf.backend.dispatch`.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np
import numpy.typing as npt

__all__ = [
    "KERNELS",
    "array_factor",
    "batch_frequency_response",
    "stacked_dirichlet_dictionaries",
    "stacked_sinc_dictionaries",
]

#: Marks this module's functions as registered backend kernels for the
#: repro-lint purity rules (RL310: no RNG, RL311: no telemetry).
__backend_kernels__ = True

_ComplexArray = npt.NDArray[np.complex128]
_FloatArray = npt.NDArray[np.float64]


def stacked_sinc_dictionaries(
    delays_s: _FloatArray,
    bandwidth_hz: float,
    num_taps: int,
    start_time_s: float,
) -> _FloatArray:
    """Sinc dictionaries for ``(C, K)`` delay sets, shape ``(C, F, K)``.

    Column ``(c, :, k)`` samples ``sinc(B (t_n - tau_{c,k}))`` on the tap
    grid ``t_n = start_time_s + n / B`` (paper Eq. 22/23).
    """
    sample_times = start_time_s + np.arange(num_taps) / bandwidth_hz
    pulses: _FloatArray = np.sinc(
        bandwidth_hz * (sample_times[None, :, None] - delays_s[:, None, :])
    )
    return pulses


def stacked_dirichlet_dictionaries(
    delays_s: _FloatArray,
    bandwidth_hz: float,
    num_taps: int,
) -> _ComplexArray:
    """Dirichlet dictionaries for ``(C, K)`` delay sets, shape ``(C, F, K)``.

    Each column is the IFFT of the delay's phase ramp over the centered
    subcarrier grid — the periodic interpolation kernel of a finite-band
    OFDM receiver.  One batched IFFT over the tap axis builds all
    ``C * K`` columns.
    """
    spacing = bandwidth_hz / num_taps
    freqs = (np.arange(num_taps) - num_taps // 2) * spacing
    responses = np.exp(
        -2j * np.pi * freqs[None, :, None] * delays_s[:, None, :]
    )
    spectra = np.fft.ifftshift(responses, axes=1)
    transformed: _ComplexArray = np.fft.ifft(spectra, axis=1)
    return transformed


def batch_frequency_response(
    steering: _ComplexArray,
    rotation: _ComplexArray,
    gains: _ComplexArray,
    tx_weights: _ComplexArray,
) -> _ComplexArray:
    """Beamformed response ``y_t(f)`` for a channel batch, shape ``(T, F)``.

    ``steering`` is ``(T, L, N)``, ``rotation`` the delay phase tensor
    ``(T, F, L)``, ``gains`` ``(T, L)``, ``tx_weights`` ``(N,)``:
    ``y_t(f) = sum_l g_{t,l} (a(phi_{t,l})^T w) e^{-j 2 pi f tau_{t,l}}``.
    """
    tx_gains = steering @ tx_weights  # (T, L)
    alphas = gains * tx_gains
    response: _ComplexArray = (rotation @ alphas[:, :, None])[:, :, 0]
    return response


def array_factor(
    steering_matrix: _ComplexArray,
    weights: _ComplexArray,
) -> _ComplexArray:
    """Complex array factor ``a(phi)^T w`` for a ``(M, N)`` steering matrix."""
    product: _ComplexArray = steering_matrix @ weights
    return product


#: Kernel name -> reference implementation (the registry payload).
KERNELS: Dict[str, Callable[..., object]] = {
    "stacked_sinc_dictionaries": stacked_sinc_dictionaries,
    "stacked_dirichlet_dictionaries": stacked_dirichlet_dictionaries,
    "batch_frequency_response": batch_frequency_response,
    "array_factor": array_factor,
}
