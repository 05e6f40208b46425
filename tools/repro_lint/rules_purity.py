"""RL3xx — purity and mutability discipline.

Frozen dataclasses (``FaultSpec``, channel/scenario configs) are the
repo's unit of shareable, hashable, pool-safe state; a mutable default
argument or an ``object.__setattr__`` escape outside ``__post_init__``
re-introduces exactly the aliasing bugs freezing was meant to kill.
"""

from __future__ import annotations

import ast
from typing import List

from repro_lint.config import LintConfig
from repro_lint.core import FileContext, Finding, expanded_name

RULES = {
    "RL301": "no mutable default arguments (lists, dicts, sets, arrays)",
    "RL302": (
        "no object.__setattr__ on frozen dataclasses outside "
        "__post_init__ (document deliberate lazy-cache escapes with a "
        "pragma)"
    ),
}

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "numpy.array",
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
        "collections.OrderedDict",
        "collections.defaultdict",
    }
)
#: Methods allowed to bypass a frozen dataclass's immutability.
_SETATTR_ALLOWED = frozenset(
    {"__post_init__", "__init__", "__new__", "__setstate__"}
)


def check(ctx: FileContext, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_check_defaults(ctx, node))
        elif isinstance(node, ast.Call):
            findings.extend(_check_setattr(ctx, node))
    return findings


def _is_mutable_default(ctx: FileContext, node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = expanded_name(ctx, node.func) or ""
        return name in _MUTABLE_FACTORIES
    return False


def _check_defaults(ctx: FileContext, node: ast.FunctionDef) -> List[Finding]:
    findings: List[Finding] = []
    defaults = list(node.args.defaults) + [
        default for default in node.args.kw_defaults if default is not None
    ]
    for default in defaults:
        if _is_mutable_default(ctx, default):
            findings.append(
                ctx.finding(
                    default,
                    "RL301",
                    f"mutable default argument in {node.name}(); defaults "
                    "are shared across calls — default to None (or a "
                    "frozen tuple) and build inside the body",
                )
            )
    return findings


def _check_setattr(ctx: FileContext, node: ast.Call) -> List[Finding]:
    func = node.func
    if not (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    ):
        return []
    enclosing = ctx.enclosing_function(node)
    if enclosing is not None and enclosing.name in _SETATTR_ALLOWED:
        return []
    where = enclosing.name + "()" if enclosing is not None else "module scope"
    return [
        ctx.finding(
            node,
            "RL302",
            f"object.__setattr__ in {where} mutates a frozen dataclass "
            "after construction; move it into __post_init__ or justify "
            "the lazy-cache escape with a pragma",
        )
    ]
