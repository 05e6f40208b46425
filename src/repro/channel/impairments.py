"""Hardware impairments: CFO/SFO phase drift and thermal noise.

Carrier- and sampling-frequency offsets make the *phase* of successive
channel estimates unpredictable while leaving magnitudes intact — the
observation (Section 3.3) that forces mmReliable's probing to work from
``|h|^2`` alone.  :class:`CfoSfoModel` reproduces exactly that failure
mode so tests can show naive complex-ratio estimation breaking while the
paper's two-probe method survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils import ensure_rng
from repro.utils.units import dbm_to_watt, power_linear_to_db

__all__ = [
    "THERMAL_NOISE_DBM_PER_HZ",
    "thermal_noise_dbm",
    "awgn_noise_power_watt",
    "CfoSfoModel",
    "complex_awgn",
]

#: Thermal noise power spectral density at 290 K [dBm/Hz].
THERMAL_NOISE_DBM_PER_HZ = -174.0


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 7.0) -> float:
    """Receiver noise floor [dBm] over ``bandwidth_hz``."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz!r}")
    return (
        THERMAL_NOISE_DBM_PER_HZ
        + float(power_linear_to_db(bandwidth_hz))
        + noise_figure_db
    )


def awgn_noise_power_watt(
    bandwidth_hz: float, noise_figure_db: float = 7.0
) -> float:
    """Receiver noise power [W] over ``bandwidth_hz``."""
    return float(dbm_to_watt(thermal_noise_dbm(bandwidth_hz, noise_figure_db)))


@dataclass
class CfoSfoModel:
    """Random-walk phase offset applied to each channel probe.

    Between consecutive probes the residual CFO adds a phase increment that
    is effectively unpredictable at mmWave (tens of kHz of residual offset
    times millisecond probe spacing wraps many times).  We model the
    per-probe phase as an independent uniform draw plus a slow random walk;
    the key property is that *magnitudes are untouched*.

    Parameters
    ----------
    phase_walk_std_rad:
        Standard deviation of the random-walk increment per probe.
    uniform_jitter:
        If True (default), each probe also gets an independent uniform
        ``[0, 2 pi)`` offset — the worst case the paper designs for.
    """

    phase_walk_std_rad: float = 0.5
    uniform_jitter: bool = True
    rng: object = None
    _phase: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.rng = ensure_rng(self.rng)
        if self.phase_walk_std_rad < 0:
            raise ValueError("phase_walk_std_rad must be >= 0")

    def next_rotation(self) -> complex:
        """Unit-magnitude rotation to apply to the next probe's estimate."""
        self._phase += float(self.rng.normal(0.0, self.phase_walk_std_rad))
        phase = self._phase
        if self.uniform_jitter:
            phase += float(self.rng.uniform(0.0, 2.0 * np.pi))
        return np.exp(1j * phase)

    def apply(self, channel_estimate: np.ndarray) -> np.ndarray:
        """Rotate a (possibly wideband) channel estimate by one probe offset.

        The same rotation applies to all subcarriers of a single probe —
        CFO is common-mode across the band (SFO adds a small linear ramp
        which we fold into the same rotation for this reproduction).
        """
        return np.asarray(channel_estimate, dtype=complex) * self.next_rotation()


def complex_awgn(shape, noise_power_watt: float, rng=None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise with the given power.

    One ``(2, *shape)`` draw: a generator fills it in C order, so row 0
    (the real part) and row 1 (the imaginary part) hold exactly what two
    successive ``shape`` draws would, and the stream ends in the same
    state.
    """
    if noise_power_watt < 0:
        raise ValueError(
            f"noise_power_watt must be >= 0, got {noise_power_watt!r}"
        )
    rng = ensure_rng(rng)
    scale = np.sqrt(noise_power_watt / 2.0)
    if isinstance(shape, (int, np.integer)):
        shape = (shape,)
    parts = rng.normal(0.0, scale, (2,) + tuple(shape))
    return parts[0] + 1j * parts[1]
