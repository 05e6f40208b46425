# lint-fixture: relpath=src/repro/channel/_fixture_modules.py  # expect: RL402
"""Module-hygiene fixtures: RL401 dead import, RL402 missing export list."""

import math  # expect: RL401


def passthrough(value):
    return value
