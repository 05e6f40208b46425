"""Shared numeric helpers used across the mmReliable reproduction.

The helpers are deliberately small and dependency-free (NumPy only) so that
every other subpackage — arrays, channel, phy, core — can use them without
creating import cycles.
"""

from repro.utils.units import (
    SPEED_OF_LIGHT,
    db_to_linear,
    linear_to_db,
    power_db_to_linear,
    power_linear_to_db,
    dbm_to_watt,
    watt_to_dbm,
    wavelength,
)
from repro.utils.mathx import (
    normalized_sinc,
    wrap_angle,
    wrap_phase,
    angle_difference,
    unit_vector,
    complex_from_polar,
    is_unit_norm,
    is_close,
)
from repro.utils.rng import NAMED_SUBSTREAM_OFFSETS, ensure_rng, named_substream
from repro.utils.validation import (
    check_positive,
    check_in_range,
    check_array_1d,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "db_to_linear",
    "linear_to_db",
    "power_db_to_linear",
    "power_linear_to_db",
    "dbm_to_watt",
    "watt_to_dbm",
    "wavelength",
    "normalized_sinc",
    "wrap_angle",
    "wrap_phase",
    "angle_difference",
    "unit_vector",
    "complex_from_polar",
    "is_unit_norm",
    "is_close",
    "ensure_rng",
    "named_substream",
    "NAMED_SUBSTREAM_OFFSETS",
    "check_positive",
    "check_in_range",
    "check_array_1d",
]
