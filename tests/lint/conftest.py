"""Shared plumbing for the repro-lint self-tests.

The analyzer lives in ``tools/repro_lint`` (deliberately outside
``src`` — it is a development tool, not part of the shipped package), so
this conftest puts ``tools`` on ``sys.path`` before any test module
imports.  Files under ``fixtures/`` are lint *inputs*: they carry
deliberate violations, are excluded from pytest collection (no
``test_`` prefix) and from the repo's own lint/ruff surface.

Fixture file conventions
------------------------

``# lint-fixture: relpath=<path>`` (line 1) lints the file *as if* it
lived at ``<path>``, so path-scoped rules (deterministic core, units
exemptions, probe-budget layers, ``__all__`` packages) apply the way
they would in ``src``.

``# expect: RL001[,RL002]`` on a line declares that exactly those rules
must fire with that line as their anchor.  The golden test fails on any
missing *or* extra finding, so fixtures double as precision tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS_DIR = REPO_ROOT / "tools"
FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"

if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))
