"""The repo's own lint surface must stay clean.

These are the tests CI leans on: ``repro lint src tools`` over the real
tree must exit 0, and the ``repro lint`` subcommand must dispatch to the
analyzer.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro_lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_tree_lints_clean():
    out = io.StringIO()
    code = lint_main(["--root", str(REPO_ROOT), "src", "tools"], out=out)
    assert code == 0, f"repro lint src tools failed:\n{out.getvalue()}"


def test_repro_cli_dispatches_lint_subcommand(capsys):
    from repro.cli import main as repro_main

    code = repro_main(["lint", "--list-rules"])
    text = capsys.readouterr().out
    assert code == 0
    assert "RL001" in text
    assert "RL403" in text
    assert "RL505" in text
    assert "RL603" in text
