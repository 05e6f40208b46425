"""Beam patterns: array factors, the analytic ULA pattern, and its inverse.

The analytic pattern (paper Eq. 20) is the Dirichlet kernel

    G(psi) = sin(N psi / 2) / (N sin(psi / 2)),
    psi    = 2 pi (d / lambda) (sin(phi) - sin(phi_0)),

the normalized field response of an N-element ULA steered to ``phi_0``
evaluated toward ``phi``.  mmReliable's tracker inverts the *power* version
of this function on the main lobe to recover how far a user has rotated
from per-beam power measurements alone (Section 4.2); that inverse lives in
:func:`invert_pattern_offset`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from repro.arrays.geometry import UniformLinearArray
from repro.arrays.steering import cached_steering_matrix, steering_vector
from repro.utils.units import power_db_to_linear, power_linear_to_db

__all__ = [
    "array_factor",
    "beam_pattern_db",
    "ula_power_pattern",
    "ula_power_pattern_db",
    "first_null_offset",
    "half_power_beamwidth",
    "invert_pattern_offset",
]


def array_factor(
    array: UniformLinearArray, weights: np.ndarray, angles_rad: np.ndarray
) -> np.ndarray:
    """Complex array factor ``a(phi)^T w`` on a grid of angles.

    Returns an array with the same shape as ``angles_rad``.  1-D angle
    grids share a cached steering matrix, so sweeping many weight vectors
    over the same grid only builds it once.
    """
    angles = np.asarray(angles_rad, dtype=float)
    if angles.ndim == 1:
        a = cached_steering_matrix(array, angles)  # (num, N)
    else:
        a = steering_vector(array, angles)  # (..., N)
    w = np.asarray(weights, dtype=complex)
    if a.ndim == 2:
        return np.ascontiguousarray(a) @ w
    # Scalar / multi-dim angle grids take the same contiguous (num, N)
    # product as 1-D grids, then get their angle shape back (a scalar
    # angle returns a numpy scalar, as `a @ w` would).
    flat = np.ascontiguousarray(a.reshape(-1, a.shape[-1]))
    result = flat @ w
    return result.reshape(angles.shape) if angles.ndim else result[0]


def beam_pattern_db(
    array: UniformLinearArray,
    weights: np.ndarray,
    angles_rad: np.ndarray,
    floor_db: float = -80.0,
) -> np.ndarray:
    """Power pattern ``|a^T w|^2`` in dB, floored to avoid log-of-zero."""
    power = np.abs(array_factor(array, weights, angles_rad)) ** 2
    with np.errstate(divide="ignore"):
        db = power_linear_to_db(power)
    return np.maximum(db, floor_db)


def _dirichlet(num_elements: int, psi: np.ndarray) -> np.ndarray:
    """Normalized Dirichlet kernel ``sin(N psi/2) / (N sin(psi/2))``.

    At grating points (``psi`` a multiple of ``2 pi``) the ratio is 0/0; by
    L'Hopital the limit is ``cos(N psi/2) / cos(psi/2)``, which has unit
    magnitude there.
    """
    psi = np.asarray(psi, dtype=float)
    den = num_elements * np.sin(psi / 2.0)
    # |den| <= atol is exactly np.isclose(den, 0, atol=...) against a zero
    # target, without isclose's per-call overhead on the tracker hot path.
    grating = np.abs(den) <= 1e-12
    if not np.any(grating):
        return np.sin(num_elements * psi / 2.0) / den
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(
            grating,
            np.cos(num_elements * psi / 2.0) / np.cos(psi / 2.0),
            np.sin(num_elements * psi / 2.0) / np.where(grating, 1.0, den),
        )
    return value


def ula_power_pattern(
    num_elements: int,
    offset_rad,
    steer_angle_rad: float = 0.0,
    spacing_wavelengths: float = 0.5,
):
    """Normalized power gain of a ULA beam at an angular offset from boresight.

    ``offset_rad`` is the difference between the evaluation angle and the
    steering angle (both measured from array broadside).  The result is in
    linear power units, normalized so the peak (zero offset) is 1.
    """
    offset = np.asarray(offset_rad, dtype=float)
    phi = steer_angle_rad + offset
    psi = (
        2.0
        * np.pi
        * spacing_wavelengths
        * (np.sin(phi) - np.sin(steer_angle_rad))
    )
    return _dirichlet(num_elements, psi) ** 2


def ula_power_pattern_db(
    num_elements: int,
    offset_rad,
    steer_angle_rad: float = 0.0,
    spacing_wavelengths: float = 0.5,
    floor_db: float = -80.0,
):
    """dB version of :func:`ula_power_pattern`."""
    power = ula_power_pattern(
        num_elements, offset_rad, steer_angle_rad, spacing_wavelengths
    )
    with np.errstate(divide="ignore"):
        db = power_linear_to_db(power)
    return np.maximum(db, floor_db)


def first_null_offset(
    num_elements: int,
    steer_angle_rad: float = 0.0,
    spacing_wavelengths: float = 0.5,
) -> float:
    """Angular offset [rad] of the first pattern null past the main lobe.

    The first null sits at ``psi = 2 pi / N``, i.e. at
    ``sin(phi) - sin(phi_0) = 1 / (N d/lambda)``.  Returns ``pi/2 -
    steer_angle`` if the null falls beyond endfire.
    """
    target_sin = np.sin(steer_angle_rad) + 1.0 / (
        num_elements * spacing_wavelengths
    )
    if target_sin >= 1.0:
        return np.pi / 2.0 - steer_angle_rad
    return float(np.arcsin(target_sin) - steer_angle_rad)


def half_power_beamwidth(
    num_elements: int,
    steer_angle_rad: float = 0.0,
    spacing_wavelengths: float = 0.5,
) -> float:
    """Full -3 dB beamwidth [rad] of a single beam, found numerically."""
    null = first_null_offset(num_elements, steer_angle_rad, spacing_wavelengths)

    def drop(offset: float) -> float:
        return (
            ula_power_pattern(
                num_elements, offset, steer_angle_rad, spacing_wavelengths
            )
            - 0.5
        )

    upper = brentq(drop, 0.0, null * 0.999)

    def drop_neg(offset: float) -> float:
        return (
            ula_power_pattern(
                num_elements, -offset, steer_angle_rad, spacing_wavelengths
            )
            - 0.5
        )

    null_neg = -first_null_offset(
        num_elements, -steer_angle_rad, spacing_wavelengths
    )
    lower = brentq(drop_neg, 0.0, -null_neg * 0.999)
    return float(upper + lower)


def invert_pattern_offset(
    num_elements: int,
    power_drop_db: float,
    steer_angle_rad: float = 0.0,
    spacing_wavelengths: float = 0.5,
) -> float:
    """Angular offset magnitude [rad] that explains a main-lobe power drop.

    Given that the measured per-beam power fell by ``power_drop_db`` (a
    non-negative dB value) relative to the peak, return the ``|offset|`` on
    the main lobe (toward increasing angle) whose pattern value matches.
    This is the model inversion at the heart of the paper's mobility
    tracker (Eqs. 19-20); the sign ambiguity is resolved separately by a
    probe.

    Drops deeper than the main-lobe edge (first null) clamp to the
    first-null offset — beyond it the pattern is not invertible.
    """
    if power_drop_db < 0:
        raise ValueError(
            f"power_drop_db must be >= 0, got {power_drop_db!r}"
        )
    if power_drop_db == 0:
        return 0.0
    target = float(power_db_to_linear(-power_drop_db))
    null = first_null_offset(num_elements, steer_angle_rad, spacing_wavelengths)
    sin_steer = np.sin(steer_angle_rad)
    scale = 2.0 * np.pi * spacing_wavelengths

    def objective(offset: float) -> float:
        # ula_power_pattern's ufuncs in the same order on scalars, with
        # the loop invariants hoisted, so every brentq iterate matches.
        psi = scale * (np.sin(steer_angle_rad + offset) - sin_steer)
        den = num_elements * np.sin(psi / 2.0)
        if abs(den) <= 1e-12:
            value = np.cos(num_elements * psi / 2.0) / np.cos(psi / 2.0)
            # _dirichlet returns a 0-d array here, which numpy squares
            # as value * value rather than through pow().
            return value * value - target
        return (np.sin(num_elements * psi / 2.0) / den) ** 2 - target

    # The pattern is monotonically decreasing on (0, first null); clamp
    # unreachable drops to just inside the null.
    edge = null * (1.0 - 1e-9)
    if objective(edge) > 0:
        return float(edge)
    return float(brentq(objective, 0.0, edge))
