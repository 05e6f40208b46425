"""The lint policy: the default surface and the path scopes the rules read."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

#: Path prefixes never linted: fixtures carry deliberate violations.
EXCLUDE: Tuple[str, ...] = (
    "tests/lint/fixtures",
    ".git",
    "__pycache__",
    "build",
    "dist",
)


@dataclass(frozen=True)
class LintConfig:
    """The analyzer's policy.

    All path scopes are POSIX-style and relative to ``root`` (the
    directory holding ``pyproject.toml``).
    """

    root: Path = field(default_factory=Path.cwd)
    #: Default lint targets when the CLI gives none: the analyzer lints
    #: itself.
    paths: Tuple[str, ...] = ("src", "tools")
    #: RL002 scope: the packages whose behaviour must be a pure function
    #: of the run seed (wall-clock and shared-state randomness are
    #: banned here).
    deterministic_core: Tuple[str, ...] = (
        "src/repro/sim",
        "src/repro/core",
        "src/repro/channel",
        "src/repro/faults",
        "src/repro/network",
    )
    #: RL102 scope: dB/linear conversions live in ``repro.utils.units``
    #: only.
    units_exempt: Tuple[str, ...] = ("src/repro/utils",)
    #: RL203 scope: the beam-management layer that owns probe budgets.
    #: The executor, experiments, and analysis layers must never charge
    #: a budget.
    probe_charge_allowed: Tuple[str, ...] = (
        "src/repro/core",
        "src/repro/beamtraining",
        "src/repro/baselines",
        "src/repro/phy/reference_signals.py",
        "src/repro/network/scheduler.py",
    )
    #: RL402 scope: packages whose modules must declare an export
    #: surface.
    require_all: Tuple[str, ...] = ("src/repro/channel", "src/repro/arrays")


def find_project_root(start: Optional[Path] = None) -> Optional[Path]:
    """The nearest ancestor directory holding a ``pyproject.toml``."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None
