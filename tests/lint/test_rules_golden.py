"""Golden fixture tests for every per-file rule family.

Each fixture under ``fixtures/`` declares its expected findings inline
with ``# expect: RLxxx`` markers (see ``conftest.py`` for the fixture
conventions).  The test runs the analyzer over the fixture and demands
an *exact* match: a missed violation fails the test, and so does any
extra finding — the fixtures are precision tests as much as recall
tests.  Clean ``*_clean.py`` fixtures carry no markers and must lint
spotless.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro_lint import (
    rules_async,
    rules_modules,
    rules_purity,
    rules_rng,
    rules_units,
)
from repro_lint.config import LintConfig
from repro_lint.core import FileContext
from repro_lint.registry import ALL_RULES
from repro_lint.rules_contracts import ContractChecker
from repro_lint.rules_race import ConcurrencyChecker

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURES = sorted(FIXTURES_DIR.glob("*.py"))

_DIRECTIVE_RE = re.compile(r"#\s*lint-fixture:\s*([\w-]+)=(\S+)")
_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+)")

#: RL403 spans multiple modules, so it is exercised in test_engine.py
#: instead of through single-file fixtures.
_MULTI_FILE_RULES = frozenset({"RL403"})


def load_fixture(path: Path):
    source = path.read_text(encoding="utf-8")
    directives = dict(_DIRECTIVE_RE.findall(source))
    relpath = directives.get("relpath", f"tests/lint/fixtures/{path.name}")
    return relpath, source, LintConfig(root=Path("."))


def expected_markers(source: str):
    expected = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match is None:
            continue
        for code in match.group(1).split(","):
            code = code.strip()
            if code:
                expected.add((lineno, code))
    return expected


def lint_single_file(relpath: str, source: str, config: LintConfig):
    """Run every rule family over one in-memory file, engine-style."""
    ctx = FileContext(relpath, source)
    findings = []
    for check in (
        rules_rng.check,
        rules_units.check,
        rules_purity.check,
        rules_modules.check,
        rules_async.check,
    ):
        findings.extend(check(ctx, config))
    contracts = ContractChecker()
    findings.extend(contracts.check_file(ctx, config))
    findings.extend(contracts.finalize(config))
    concurrency = ConcurrencyChecker()
    findings.extend(concurrency.check_file(ctx, config))
    findings.extend(concurrency.finalize(config))
    return [f for f in findings if not ctx.pragmas.suppresses(f)]


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_fixture_findings_match_markers(fixture):
    relpath, source, config = load_fixture(fixture)
    findings = lint_single_file(relpath, source, config)
    actual = {(f.line, f.rule) for f in findings}
    expected = expected_markers(source)
    missing = expected - actual
    extra = actual - expected
    assert actual == expected, (
        f"{fixture.name}: findings diverge from # expect markers\n"
        f"  missing (expected, not found): {sorted(missing)}\n"
        f"  extra (found, not expected):   {sorted(extra)}\n"
        f"  raw: {[f.format() for f in findings]}"
    )


def test_clean_fixtures_carry_no_markers():
    for fixture in FIXTURES:
        if fixture.stem.endswith("_clean"):
            assert not expected_markers(fixture.read_text(encoding="utf-8")), (
                f"{fixture.name} is a clean fixture but declares expectations"
            )


def test_every_rule_has_a_fixture():
    covered = set()
    for fixture in FIXTURES:
        covered.update(
            code for _, code in expected_markers(fixture.read_text(encoding="utf-8"))
        )
    uncovered = set(ALL_RULES) - covered - _MULTI_FILE_RULES
    assert not uncovered, f"rules without a golden fixture: {sorted(uncovered)}"
    unknown = covered - set(ALL_RULES)
    assert not unknown, f"fixtures expect unregistered rules: {sorted(unknown)}"
