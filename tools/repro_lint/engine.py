"""The lint engine: collect files, run rule families, filter pragmas.

Pipeline::

    files -> parse -> per-file rules ─┐
                  └-> project state ──┴-> raw findings
    raw -> pragma filter -> result
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple

from repro_lint import (
    rules_async,
    rules_modules,
    rules_purity,
    rules_rng,
    rules_units,
)
from repro_lint.config import EXCLUDE, LintConfig
from repro_lint.core import FileContext, Finding, path_in_scope
from repro_lint.rules_contracts import ContractChecker
from repro_lint.rules_race import ConcurrencyChecker

_PER_FILE_CHECKS = (
    rules_rng.check,
    rules_units.check,
    rules_purity.check,
    rules_modules.check,
    rules_async.check,
)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: findings no same-line pragma excused, sorted by location.
    findings: List[Finding] = field(default_factory=list)
    #: files that failed to parse: (path, error message).
    errors: List[Tuple[str, str]] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def _iter_python_files(root: Path, targets: Sequence[str]):
    seen = set()
    for target in targets:
        path = Path(target)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {target}")
        for candidate in candidates:
            try:
                relpath = candidate.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                relpath = candidate.as_posix()
            if relpath in seen or path_in_scope(relpath, EXCLUDE):
                continue
            if any(part == "__pycache__" for part in Path(relpath).parts):
                continue
            seen.add(relpath)
            yield candidate, relpath


def lint_paths(paths: Sequence[str], config: LintConfig) -> LintResult:
    """Run every rule over ``paths`` (project-relative or absolute)."""
    result = LintResult()
    targets = tuple(paths) or config.paths
    contracts = ContractChecker()
    concurrency = ConcurrencyChecker()
    import_graph = rules_modules.ImportGraph()
    contexts: List[FileContext] = []
    raw: List[Finding] = []

    for file_path, relpath in _iter_python_files(config.root, targets):
        try:
            source = file_path.read_text(encoding="utf-8")
            ctx = FileContext(relpath, source)
        except (SyntaxError, UnicodeDecodeError) as error:
            result.errors.append((relpath, str(error)))
            continue
        contexts.append(ctx)
        result.files_scanned += 1
        for check in _PER_FILE_CHECKS:
            raw.extend(check(ctx, config))
        raw.extend(contracts.check_file(ctx, config))
        raw.extend(concurrency.check_file(ctx, config))
        import_graph.collect(ctx)

    # RL201 (unused EventKind) is only sound when the scan covers the
    # configured default surface — a subset scan cannot prove a kind dead.
    full_scan = _covers_default_surface(targets, config)
    raw.extend(contracts.finalize(config, check_unused_kinds=full_scan))
    raw.extend(concurrency.finalize(config))
    raw.extend(import_graph.finalize())

    pragmas = {ctx.relpath: ctx.pragmas for ctx in contexts}
    for finding in raw:
        file_pragmas = pragmas.get(finding.path)
        if file_pragmas is None or not file_pragmas.suppresses(finding):
            result.findings.append(finding)
    result.findings.sort(key=Finding.sort_key)
    return result


def _covers_default_surface(targets: Sequence[str], config: LintConfig) -> bool:
    normalized = set()
    for target in targets:
        path = Path(target)
        if path.is_absolute():
            try:
                target = path.resolve().relative_to(
                    config.root.resolve()
                ).as_posix()
            except ValueError:
                pass
        normalized.add(str(target).rstrip("/"))
    for default in config.paths:
        default = default.rstrip("/")
        if not any(
            default == target or path_in_scope(default, [target])
            for target in normalized
        ):
            return False
    return True
