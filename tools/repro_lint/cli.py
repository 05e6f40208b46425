"""Command-line front end, shared by ``repro lint`` and ``python -m repro_lint``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, TextIO

from repro_lint.config import LintConfig, find_project_root
from repro_lint.engine import LintResult, lint_paths
from repro_lint.registry import describe_rules


def build_parser(prog: str = "repro-lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "domain-aware static analysis: RNG discipline, dB/linear unit "
            "hygiene, telemetry contracts, purity, module hygiene, async "
            "hygiene, race detection"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tools)",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="project root holding pyproject.toml (default: auto-detect)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code and exit",
    )
    return parser


def _report_text(result: LintResult, out: TextIO) -> None:
    for relpath, error in result.errors:
        out.write(f"{relpath}: parse error: {error}\n")
    for finding in result.findings:
        out.write(finding.format() + "\n")
    total = len(result.findings)
    noun = "finding" if total == 1 else "findings"
    out.write(
        f"repro-lint: {result.files_scanned} file(s) scanned, {total} {noun}\n"
    )


def main(argv: Optional[List[str]] = None, out: TextIO = sys.stdout) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.list_rules:
        out.write(describe_rules() + "\n")
        return 0

    root: Optional[Path]
    if arguments.root is not None:
        root = Path(arguments.root)
    else:
        root = find_project_root()
        if root is None:
            # Invoked from outside the checkout (e.g. ``repro lint
            # /path/to/repo/src``): anchor on the lint targets instead.
            for target in arguments.paths:
                root = find_project_root(Path(target).resolve())
                if root is not None:
                    break
    config = LintConfig(root=root or Path.cwd())
    try:
        result = lint_paths(arguments.paths, config)
    except FileNotFoundError as error:
        out.write(f"error: {error}\n")
        return 2

    _report_text(result, out)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
