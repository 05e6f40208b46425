"""CLI behaviour: exit codes, reports, and the option surface."""

from __future__ import annotations

import io
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro_lint
from repro_lint.cli import main

VIOLATION = """
def snr_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)
"""


@pytest.fixture
def project(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[project]\nname = 'sample'\n", encoding="utf-8"
    )
    (tmp_path / "tools").mkdir()
    sample = tmp_path / "src" / "repro" / "sample.py"
    sample.parent.mkdir(parents=True)
    sample.write_text(textwrap.dedent(VIOLATION), encoding="utf-8")
    return tmp_path, sample


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestReporting:
    def test_violation_exits_one_with_text_report(self, project):
        root, _ = project
        code, text = run("--root", str(root))
        assert code == 1
        assert "RL102" in text
        assert "src/repro/sample.py:3" in text
        assert "1 finding" in text

    def test_list_rules_covers_every_family(self, project):
        code, text = run("--list-rules")
        assert code == 0
        for code_name in ("RL001", "RL102", "RL203", "RL301", "RL403"):
            assert code_name in text

    def test_missing_target_is_a_usage_error(self, project):
        root, _ = project
        code, text = run("--root", str(root), "no/such/path")
        assert code == 2
        assert "no such file" in text

    def test_root_is_autodetected_from_cwd(self, project, monkeypatch):
        root, _ = project
        monkeypatch.chdir(root / "src")
        code, text = run()
        assert code == 1
        assert "src/repro/sample.py" in text


class TestOptionSurface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--check-baseline"],
            ["--update-baseline"],
            ["--no-baseline"],
            ["--baseline", "lint-baseline.json"],
            ["--select", "RL1"],
            ["--disable", "RL102"],
            ["--format", "json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_removed_options_are_usage_errors(self, project, argv):
        root, _ = project
        with pytest.raises(SystemExit) as exit_info:
            main(["--root", str(root), *argv], out=io.StringIO())
        assert exit_info.value.code == 2

    def test_imports_without_tomllib(self):
        # The policy is plain Python, so the analyzer runs on every
        # interpreter the package supports, tomllib or not.
        tools = str(Path(repro_lint.__file__).resolve().parents[1])
        code = (
            "import sys; sys.modules['tomllib'] = None; "
            f"sys.path.insert(0, {tools!r}); import repro_lint.cli"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
