"""Shared analyzer plumbing: findings, parsed files, pragmas, AST helpers."""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

#: ``# repro-lint: disable=RL001,RL102`` silences those rules on that line
#: only; it is the one way to excuse a finding.
_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*disable\s*=\s*([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, anchored to a project-relative location."""

    path: str  #: POSIX-style path relative to the project root.
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class FilePragmas:
    """Inline suppressions parsed from one source file."""

    #: line number -> rule codes disabled on that line.
    by_line: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def suppresses(self, finding: Finding) -> bool:
        return finding.rule in self.by_line.get(finding.line, frozenset())


def parse_pragmas(lines: Iterable[str]) -> FilePragmas:
    pragmas = FilePragmas()
    for number, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        pragmas.by_line[number] = frozenset(
            code.strip().upper()
            for code in match.group(1).split(",")
            if code.strip()
        )
    return pragmas


class FileContext:
    """One parsed source file plus everything the checkers need.

    ``relpath`` is POSIX-style and relative to the project root so
    findings and the policy's path scopes agree across machines.
    """

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=relpath)
        self.pragmas = parse_pragmas(self.lines)
        self.alias_map = _collect_import_aliases(self.tree)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    # -- derived views, built lazily ----------------------------------

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """child AST node -> parent node (for ancestor walks)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def module_name(self, src_prefix: str = "src/") -> Optional[str]:
        """Dotted module name, when the file lives under ``src/``."""
        path = self.relpath
        if not path.startswith(src_prefix) or not path.endswith(".py"):
            return None
        stem = path[len(src_prefix):-len(".py")]
        if stem.endswith("/__init__"):
            stem = stem[: -len("/__init__")]
        return stem.replace("/", ".")

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


def _collect_import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local binding name -> fully-qualified dotted origin.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy.random import default_rng`` ->
    ``{"default_rng": "numpy.random.default_rng"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports keep their local meaning
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chains as text; None for anything dynamic."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def expanded_name(ctx: FileContext, node: ast.AST) -> Optional[str]:
    """Dotted name with the leading import alias resolved.

    ``np.random.rand`` -> ``numpy.random.rand`` under ``import numpy as
    np``; names bound by assignments stay as written.
    """
    text = dotted_name(node)
    if text is None:
        return None
    head, _, rest = text.partition(".")
    origin = ctx.alias_map.get(head)
    if origin is None:
        return text
    return f"{origin}.{rest}" if rest else origin


def identifiers_outside_calls(node: ast.AST) -> Set[str]:
    """Leaf identifier names in an expression, not descending into calls.

    A call's return value has unknown units, so unit-mixing checks treat
    call boundaries as opaque.  Attribute accesses contribute their
    final attribute name (``self.power_db`` -> ``power_db``).
    """
    names: Set[str] = set()

    def visit(current: ast.AST) -> None:
        if isinstance(current, ast.Call):
            return
        if isinstance(current, ast.Attribute):
            names.add(current.attr)
            return
        if isinstance(current, ast.Name):
            names.add(current.id)
            return
        for child in ast.iter_child_nodes(current):
            visit(child)

    visit(node)
    return names


def constant_number(node: ast.AST) -> Optional[float]:
    """The numeric value of ``5``, ``5.0``, or ``-5.0``; else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = constant_number(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    return None


def contains_name_reference(node: ast.AST) -> bool:
    """Whether an expression references any variable or attribute."""
    for current in ast.walk(node):
        if isinstance(current, (ast.Name, ast.Attribute)):
            return True
    return False


def is_frozen_dataclass(node: ast.ClassDef, ctx: FileContext) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = expanded_name(ctx, target) or ""
        if name not in ("dataclass", "dataclasses.dataclass"):
            continue
        if not isinstance(decorator, ast.Call):
            return False  # bare @dataclass is never frozen
        for keyword in decorator.keywords:
            if keyword.arg == "frozen":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is True
        return False
    return False


def path_in_scope(relpath: str, scopes: Iterable[str]) -> bool:
    """Whether ``relpath`` sits under any of the scope prefixes."""
    for scope in scopes:
        scope = scope.rstrip("/")
        if relpath == scope or relpath.startswith(scope + "/"):
            return True
    return False
