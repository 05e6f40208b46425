"""Small math helpers: angle wrapping, sinc interpolation, complex utilities."""

from __future__ import annotations

import math

import numpy as np


def normalized_sinc(x):
    """The normalized sinc, ``sin(pi x) / (pi x)`` with ``sinc(0) == 1``.

    This is the pulse shape a band-limited receiver observes for each
    channel tap (paper Eq. 22); NumPy's :func:`numpy.sinc` already uses the
    normalized convention — this wrapper exists to make the convention
    explicit at call sites.
    """
    return np.sinc(np.asarray(x, dtype=float))


def wrap_angle(angle_rad):
    """Wrap angles to the interval ``(-pi, pi]``.

    Used for spatial angles (angle of departure / arrival).
    """
    wrapped = np.mod(np.asarray(angle_rad, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    # np.mod maps -pi to -pi (since mod(0, 2pi)=0 -> -pi); fold it onto +pi
    return np.where(wrapped == -np.pi, np.pi, wrapped) if np.ndim(wrapped) else (
        np.pi if wrapped == -np.pi else float(wrapped)
    )


def wrap_phase(phase_rad):
    """Wrap phases to ``[0, 2*pi)`` — the convention the paper uses for σ.

    ``np.mod`` can round a tiny negative input up to exactly ``2*pi``;
    fold that back to 0 so the half-open interval contract holds.
    """
    two_pi = 2.0 * np.pi
    wrapped = np.mod(np.asarray(phase_rad, dtype=float), two_pi)
    return np.where(wrapped >= two_pi, 0.0, wrapped)


def angle_difference(a_rad, b_rad):
    """Signed smallest difference ``a - b``, wrapped to ``(-pi, pi]``."""
    return wrap_angle(np.asarray(a_rad, dtype=float) - np.asarray(b_rad, dtype=float))


def unit_vector(vector: np.ndarray) -> np.ndarray:
    """Return ``vector`` scaled to unit L2 norm.

    Raises :class:`ValueError` on the zero vector — a silent divide-by-zero
    here would manifest far away as NaN beam weights.
    """
    vector = np.asarray(vector)
    norm = np.linalg.norm(vector)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return vector / norm


def complex_from_polar(magnitude, phase_rad):
    """Build complex numbers from magnitude and phase."""
    return np.asarray(magnitude, dtype=float) * np.exp(
        1j * np.asarray(phase_rad, dtype=float)
    )


def is_unit_norm(vector: np.ndarray, tolerance: float = 1e-9) -> bool:
    """True if ``vector`` has unit L2 norm within ``tolerance``.

    Beamforming weight vectors must be unit norm to conserve total radiated
    power (TRP); this is the invariant checked throughout the test suite.
    """
    return bool(abs(np.linalg.norm(np.asarray(vector)) - 1.0) <= tolerance)


def is_close(x: float, y: float, rtol: float = 1e-5, atol: float = 1e-8) -> bool:
    """``np.isclose(x, y, rtol, atol)`` for two scalars, as a ``bool``.

    numpy's documented predicate without its array machinery, which
    costs far more than the comparison on a per-probe path: ``x == y``,
    or ``y`` finite and ``|x - y| <= atol + rtol * |y|``.  NaN is never
    close and an infinity only to itself, as in numpy.
    """
    return bool(x == y or (
        math.isfinite(y) and abs(x - y) <= atol + rtol * abs(y)
    ))
