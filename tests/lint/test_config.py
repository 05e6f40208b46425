"""The lint policy: project-root discovery and the built-in rule scopes."""

from __future__ import annotations

import textwrap

import pytest

from repro_lint.config import LintConfig, find_project_root
from repro_lint.engine import lint_paths


class TestFindProjectRoot:
    def test_walks_up_to_the_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
        nested = tmp_path / "src" / "deep"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path

    def test_none_when_no_pyproject_anywhere(self, tmp_path):
        nested = tmp_path / "plain"
        nested.mkdir()
        # tmp_path has no pyproject.toml and neither do its tmp ancestors.
        assert find_project_root(nested) is None


WALL_CLOCK = """
import time


def stamp():
    return time.time()
"""

NO_EXPORTS = """
def attenuation(distance_m):
    return 2.0 * distance_m
"""

CHARGE = """
def spend(budget, symbols):
    budget.charge(symbols)
"""


class TestDefaultPolicy:
    """Each scoped rule reads its scope from the defaults alone."""

    @pytest.mark.parametrize(
        "relpath, source, expected",
        [
            ("src/repro/network/scheduler.py", WALL_CLOCK, ["RL002"]),
            ("src/repro/serve/queue.py", WALL_CLOCK, []),
            ("src/repro/channel/pathloss.py", NO_EXPORTS, ["RL402"]),
            ("src/repro/network/scheduler.py", CHARGE, []),
            ("src/repro/sim/export.py", CHARGE, ["RL203"]),
        ],
        ids=[
            "wall-clock-in-network",
            "wall-clock-in-serve",
            "channel-without-all",
            "charge-in-scheduler",
            "charge-in-export",
        ],
    )
    def test_scoped_plant(self, tmp_path, relpath, source, expected):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        result = lint_paths([relpath], LintConfig(root=tmp_path))
        assert [finding.rule for finding in result.findings] == expected
