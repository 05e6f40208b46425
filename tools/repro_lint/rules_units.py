"""RL1xx — dB / linear unit hygiene.

Probing, super-resolution, and beam maintenance shuttle power between
dB, dBm, and linear/watt domains; the paper's measured-vs-theory
agreement (Fig. 13d) depends on getting every conversion's 10-vs-20
rule right.  These rules fence the conversions into
:mod:`repro.utils.units` and catch arithmetic that mixes domains.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro_lint.config import LintConfig
from repro_lint.core import (
    FileContext,
    Finding,
    constant_number,
    expanded_name,
    identifiers_outside_calls,
    path_in_scope,
)
from repro_lint.dataflow import (
    DB,
    LINEAR,
    ControlFlowGraph,
    FunctionNode,
    UnitEnv,
    expression_domain,
    function_summaries,
    infer_unit_domains,
    suffix_domain,
    transfer_units,
)

RULES = {
    "RL101": (
        "arithmetic mixing dB-suffixed (*_db/*_dbm) and linear-suffixed "
        "(*_lin/*_w) identifiers"
    ),
    "RL102": (
        "inline dB conversion (10**(x/10), 10*log10, ...) outside "
        "repro.utils — use the repro.utils.units helpers"
    ),
    "RL103": (
        "function named *_power/*_gain returns a dB quantity but lacks "
        "the _db suffix"
    ),
    "RL104": (
        "flow-inferred dB/linear mixing: a value tainted through "
        "assignments or conversion calls meets the opposite domain"
    ),
    "RL105": (
        "unit-suffixed name assigned a value whose flow-inferred domain "
        "contradicts the suffix"
    ),
}

_DB_SUFFIXES = ("_db", "_dbm", "_dbi")
_LINEAR_SUFFIXES = ("_lin", "_linear", "_w", "_watt", "_watts", "_mw")
_DB_EXACT = frozenset({"db", "dbm", "dbi"})
_LINEAR_EXACT = frozenset({"lin", "watt", "watts"})

#: utils.units functions whose results are dB quantities.
_TO_DB_FUNCTIONS = frozenset(
    {"linear_to_db", "power_linear_to_db", "watt_to_dbm"}
)


def _unit_domain(name: str) -> Optional[str]:
    lowered = name.lower()
    if lowered in _DB_EXACT or lowered.endswith(_DB_SUFFIXES):
        return "db"
    if lowered in _LINEAR_EXACT or lowered.endswith(_LINEAR_SUFFIXES):
        return "linear"
    return None


def _domains(names: Set[str]) -> Set[str]:
    return {domain for domain in map(_unit_domain, names) if domain}


def check(ctx: FileContext, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    units_exempt = path_in_scope(ctx.relpath, config.units_exempt)

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp):
            findings.extend(_check_mixing(ctx, node))
            if not units_exempt:
                findings.extend(_check_conversion(ctx, node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_check_return_units(ctx, node))
    syntactic_lines = {finding.line for finding in findings}
    summaries = function_summaries(ctx)
    for node in ast.walk(ctx.tree):
        if isinstance(node, FunctionNode):
            findings.extend(_check_flow(ctx, node, summaries, syntactic_lines))
    return findings


def _check_mixing(ctx: FileContext, node: ast.BinOp) -> List[Finding]:
    if not isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)
    ):
        return []
    left = _domains(identifiers_outside_calls(node.left))
    right = _domains(identifiers_outside_calls(node.right))
    if ("db" in left and "linear" in right) or ("linear" in left and "db" in right):
        return [
            ctx.finding(
                node,
                "RL101",
                "expression mixes dB-domain and linear-domain identifiers; "
                "convert explicitly via repro.utils.units first",
            )
        ]
    return []


def _is_log10_call(ctx: FileContext, node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = expanded_name(ctx, node.func)
    return name is not None and (name == "log10" or name.endswith(".log10"))


def _check_conversion(ctx: FileContext, node: ast.BinOp) -> List[Finding]:
    # ``10 ** x`` / ``10.0 ** x`` — the dB->linear idiom.
    if isinstance(node.op, ast.Pow) and constant_number(node.left) == 10.0:
        return [
            ctx.finding(
                node,
                "RL102",
                "inline 10**(...) dB-to-linear conversion; use "
                "db_to_linear / power_db_to_linear / dbm_to_watt from "
                "repro.utils.units",
            )
        ]
    # ``10 * log10(x)`` / ``20 * log10(x)`` (either operand order,
    # optionally negated) — the linear->dB idiom.
    if isinstance(node.op, ast.Mult):
        for factor, other in ((node.left, node.right), (node.right, node.left)):
            value = constant_number(factor)
            if value in (10.0, 20.0, -10.0, -20.0) and _is_log10_call(ctx, other):
                return [
                    ctx.finding(
                        node,
                        "RL102",
                        "inline 10/20*log10 linear-to-dB conversion; use "
                        "linear_to_db / power_linear_to_db / watt_to_dbm "
                        "from repro.utils.units",
                    )
                ]
    return []


def _returns_db(ctx: FileContext, statement: ast.Return) -> bool:
    if statement.value is None:
        return False
    for node in ast.walk(statement.value):
        if isinstance(node, ast.Call):
            name = expanded_name(ctx, node.func) or ""
            short = name.rsplit(".", 1)[-1]
            if short in _TO_DB_FUNCTIONS:
                return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for factor, other in ((node.left, node.right), (node.right, node.left)):
                value = constant_number(factor)
                if value in (10.0, 20.0, -10.0, -20.0) and _is_log10_call(
                    ctx, other
                ):
                    return True
    # A bare ``return something_db`` also marks the function as dB-valued.
    if isinstance(statement.value, (ast.Name, ast.Attribute)):
        names = identifiers_outside_calls(statement.value)
        if "db" in _domains(names):
            return True
    return False


def _stmt_expressions(statement: ast.stmt) -> List[ast.expr]:
    """Expressions evaluated *at* this statement.

    Compound statements contribute only their test/header expression —
    their bodies live in other CFG blocks and are visited there.
    """
    if isinstance(statement, ast.Assign):
        return [statement.value]
    if isinstance(statement, (ast.AugAssign, ast.AnnAssign, ast.Return, ast.Expr)):
        return [statement.value] if statement.value is not None else []
    if isinstance(statement, (ast.If, ast.While)):
        return [statement.test]
    if isinstance(statement, (ast.For, ast.AsyncFor)):
        return [statement.iter]
    if isinstance(statement, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in statement.items]
    if isinstance(statement, ast.Assert):
        return [statement.test]
    if isinstance(statement, ast.Raise):
        return [statement.exc] if statement.exc is not None else []
    return []


def _check_flow(
    ctx: FileContext,
    function: ast.AST,
    summaries: Dict[str, str],
    syntactic_lines: Set[int],
) -> List[Finding]:
    """RL104/RL105: the flow-sensitive upgrade of the suffix heuristics.

    Re-runs the unit-taint transfer over each CFG block from its
    fixpoint entry state, so every statement is inspected under the
    exact environment that reaches it.
    """
    try:
        graph = ControlFlowGraph.from_function(function)
        envs = infer_unit_domains(ctx, graph, summaries)
    except RecursionError:  # pathological nesting: fall back to syntax
        return []
    findings: List[Finding] = []
    seen: Set[int] = set()

    for block_id in sorted(graph.blocks):
        env = envs.get(block_id, UnitEnv()).copy()
        for statement in graph.blocks[block_id].statements:
            for expression in _stmt_expressions(statement):
                findings.extend(
                    _flow_mixing(
                        ctx, expression, env, summaries,
                        syntactic_lines, seen,
                    )
                )
            findings.extend(
                _flow_contradiction(ctx, statement, env, summaries, seen)
            )
            env = transfer_units(ctx, statement, env, summaries)
    return findings


def _flow_mixing(
    ctx: FileContext,
    expression: ast.expr,
    env: UnitEnv,
    summaries,
    syntactic_lines: Set[int],
    seen: Set[int],
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(expression):
        if isinstance(node, (ast.Lambda,)):
            continue
        if not isinstance(node, ast.BinOp):
            continue
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            continue
        if node.lineno in syntactic_lines or id(node) in seen:
            continue  # RL101/RL102 already reported this site
        left = expression_domain(ctx, node.left, env, summaries)
        right = expression_domain(ctx, node.right, env, summaries)
        if {left, right} == {DB, LINEAR}:
            seen.add(id(node))
            findings.append(
                ctx.finding(
                    node,
                    "RL104",
                    "dB-domain and linear-domain values meet here "
                    f"(left is {left}, right is {right} by dataflow); "
                    "convert one side via repro.utils.units first",
                )
            )
    return findings


def _flow_contradiction(
    ctx: FileContext,
    statement: ast.stmt,
    env: UnitEnv,
    summaries,
    seen: Set[int],
) -> List[Finding]:
    targets: List[ast.Name] = []
    value: Optional[ast.expr] = None
    if isinstance(statement, ast.Assign):
        value = statement.value
        targets = [
            target
            for target in statement.targets
            if isinstance(target, ast.Name)
        ]
    elif isinstance(statement, ast.AnnAssign) and isinstance(
        statement.target, ast.Name
    ):
        value = statement.value
        targets = [statement.target]
    if value is None or not targets:
        return []
    inferred = expression_domain(ctx, value, env, summaries)
    if inferred not in (DB, LINEAR):
        return []
    findings: List[Finding] = []
    for target in targets:
        declared = suffix_domain(target.id)
        if declared in (DB, LINEAR) and declared != inferred:
            if id(target) in seen:
                continue
            seen.add(id(target))
            findings.append(
                ctx.finding(
                    statement,
                    "RL105",
                    f"{target.id!r} declares the {declared} domain by "
                    f"suffix but is assigned a {inferred}-domain value "
                    "(by dataflow); rename it or convert the value",
                )
            )
    return findings


def _check_return_units(
    ctx: FileContext, node: ast.FunctionDef
) -> List[Finding]:
    name = node.name.lower()
    if not (name.endswith("_power") or name.endswith("_gain")):
        return []
    for statement in ast.walk(node):
        if isinstance(statement, ast.Return) and _returns_db(ctx, statement):
            return [
                ctx.finding(
                    node,
                    "RL103",
                    f"{node.name}() returns a dB quantity; rename with a "
                    "_db suffix so callers cannot mistake it for linear "
                    "power",
                )
            ]
    return []
