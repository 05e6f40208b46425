# lint-fixture: relpath=src/repro/sim/_fixture_pragmas.py
# repro-lint: disable-file=RL003
"""Pragma behaviour: a same-line pragma naming the rule is the only excuse."""

import numpy as np


def suppressed_inline():
    return np.random.rand(2)  # repro-lint: disable=RL001


def file_wide_form_is_not_an_excuse():
    return np.random.default_rng()  # expect: RL003


def all_is_not_a_rule():
    return np.random.rand(4)  # repro-lint: disable=all  # expect: RL001


def still_reported():
    return np.random.rand(3)  # expect: RL001
