# lint-fixture: relpath=src/repro/channel/_fixture_modules_clean.py
"""Module-hygiene-respecting fixture that must produce zero findings."""

import math

__all__ = ["circumference"]


def circumference(radius):
    return 2.0 * math.pi * radius
