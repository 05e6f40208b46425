"""Numba-compiled implementations of the registered compute kernels.

Every kernel is written as an explicit-loop function that ``numba.njit``
compiles when numba is importable; without numba the undecorated Python
function remains callable, which is how the differential parity tests
exercise this backend's *algorithms* on tiny inputs even in
environments that cannot JIT.  The backend registry marks the backend
unavailable in that case, so production dispatch falls back to the
NumPy reference — the pyfuncs never run on hot paths.

Numerical contract (see DESIGN.md "Compute backends"): loop kernels
reassociate float reductions and the dirichlet kernel uses the
closed-form geometric (Dirichlet) sum instead of a batched IFFT, so
results match :mod:`repro.perf.kernels_numpy` to a documented
tolerance (``rtol=1e-7``), not bitwise.

Kernels are **pure functions of their array arguments**: no RNG, no
telemetry, no global state (``__backend_kernels__`` marks the module
for the RL310/RL311 lint rules).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, TypeVar, cast

import numpy as np
import numpy.typing as npt

try:
    import numba  # type: ignore[import-not-found, import-untyped, unused-ignore]

    _numba: Optional[Any] = numba
except ImportError:  # pragma: no cover - exercised via NUMBA_AVAILABLE
    _numba = None

__all__ = [
    "KERNELS",
    "NUMBA_AVAILABLE",
    "PY_KERNELS",
    "array_factor",
    "batch_frequency_response",
    "stacked_dirichlet_dictionaries",
    "stacked_sinc_dictionaries",
]

#: Marks this module's functions as registered backend kernels for the
#: repro-lint purity rules (RL310: no RNG, RL311: no telemetry).
__backend_kernels__ = True

#: Whether numba imported; the registry gates availability on this.
NUMBA_AVAILABLE: bool = _numba is not None

_ComplexArray = npt.NDArray[np.complex128]
_FloatArray = npt.NDArray[np.float64]
_F = TypeVar("_F", bound=Callable[..., object])

#: Kernel name -> undecorated Python function (for differential tests
#: that must run without a JIT).
PY_KERNELS: Dict[str, Callable[..., object]] = {}


def _kernel(function: _F) -> _F:
    """Register the pyfunc and JIT-compile it when numba is present."""
    PY_KERNELS[function.__name__] = function
    if _numba is None:
        return function
    return cast(_F, _numba.njit(cache=True)(function))


@_kernel
def stacked_sinc_dictionaries(
    delays_s: _FloatArray,
    bandwidth_hz: float,
    num_taps: int,
    start_time_s: float,
) -> _FloatArray:
    """Loop form of the ``(C, F, K)`` sinc dictionary stack."""
    num_sets, num_cols = delays_s.shape
    out = np.empty((num_sets, num_taps, num_cols))
    for c in range(num_sets):
        for n in range(num_taps):
            t = start_time_s + n / bandwidth_hz
            for k in range(num_cols):
                x = bandwidth_hz * (t - delays_s[c, k])
                if x == 0.0:
                    out[c, n, k] = 1.0
                else:
                    px = math.pi * x
                    out[c, n, k] = math.sin(px) / px
    return out


@_kernel
def stacked_dirichlet_dictionaries(
    delays_s: _FloatArray,
    bandwidth_hz: float,
    num_taps: int,
) -> _ComplexArray:
    """Closed-form ``(C, F, K)`` Dirichlet dictionary stack.

    The reference path IFFTs the phase ramp of each delay over the
    centered subcarrier grid.  That inverse DFT has a closed form: with
    ``u = n/N - delta_f * tau``, the column entry is the geometric sum

        D[n] = e^{-j 2 pi (N//2) u} (e^{j 2 pi N u} - 1)
               / (N (e^{j 2 pi u} - 1)),

    evaluated via the cancellation-free half-angle identity
    ``e^{j a} - 1 = 2j sin(a/2) e^{j a/2}`` (exactly 1 when ``u`` is an
    integer).  No FFT, no ``(C, F, K)`` intermediate tensors.
    """
    num_sets, num_cols = delays_s.shape
    half = num_taps // 2
    spacing = bandwidth_hz / num_taps
    out = np.empty((num_sets, num_taps, num_cols), dtype=np.complex128)
    for c in range(num_sets):
        for k in range(num_cols):
            # delta_f * tau, constant over the tap axis.
            shift = spacing * delays_s[c, k]
            # Numerator half-angle: phi/2 with phi = -2 pi N shift
            # (e^{j 2 pi N u} = e^{-j 2 pi N shift} since e^{j 2 pi n}=1).
            phi_half = -math.pi * num_taps * shift
            sin_num = math.sin(phi_half)
            for n in range(num_taps):
                u = n / num_taps - shift
                # Reduce u to its offset from the nearest integer: the
                # integer part contributes exactly 1 to every phase
                # factor below (and a sign that cancels between the
                # denominator sine and its half-angle phase), so using
                # ``frac`` everywhere is exact *and* immune to the
                # argument-reduction error of sin/cos at large u.
                frac = u - math.floor(u + 0.5)
                if abs(frac) < 1e-9:
                    # u is (numerically) an integer: every DFT term is
                    # 1, the sum is N, and the prefactor is unity.
                    out[c, n, k] = 1.0 + 0.0j
                else:
                    theta_half = math.pi * frac
                    magnitude = sin_num / (
                        num_taps * math.sin(theta_half)
                    )
                    angle = (
                        phi_half
                        - theta_half
                        - 2.0 * math.pi * half * frac
                    )
                    out[c, n, k] = magnitude * complex(
                        math.cos(angle), math.sin(angle)
                    )
    return out


@_kernel
def batch_frequency_response(
    steering: _ComplexArray,
    rotation: _ComplexArray,
    gains: _ComplexArray,
    tx_weights: _ComplexArray,
) -> _ComplexArray:
    """Loop form of the batched beamformed response ``(T, F)``."""
    num_samples, num_paths, num_elements = steering.shape
    num_freqs = rotation.shape[1]
    out = np.empty((num_samples, num_freqs), dtype=np.complex128)
    path_alphas = np.empty(num_paths, dtype=np.complex128)
    for t in range(num_samples):
        for l in range(num_paths):  # noqa: E741
            acc = 0.0 + 0.0j
            for n in range(num_elements):
                acc += steering[t, l, n] * tx_weights[n]
            path_alphas[l] = gains[t, l] * acc
        for f in range(num_freqs):
            acc = 0.0 + 0.0j
            for l in range(num_paths):  # noqa: E741
                acc += rotation[t, f, l] * path_alphas[l]
            out[t, f] = acc
    return out


@_kernel
def array_factor(
    steering_matrix: _ComplexArray,
    weights: _ComplexArray,
) -> _ComplexArray:
    """Loop form of the ``(M,)`` array-factor product."""
    num_angles, num_elements = steering_matrix.shape
    out = np.empty(num_angles, dtype=np.complex128)
    for m in range(num_angles):
        acc = 0.0 + 0.0j
        for n in range(num_elements):
            acc += steering_matrix[m, n] * weights[n]
        out[m] = acc
    return out


#: Kernel name -> (possibly JIT-compiled) implementation.
KERNELS: Dict[str, Callable[..., object]] = {
    "stacked_sinc_dictionaries": stacked_sinc_dictionaries,
    "stacked_dirichlet_dictionaries": stacked_dirichlet_dictionaries,
    "batch_frequency_response": batch_frequency_response,
    "array_factor": array_factor,
}
