"""RL0xx — RNG discipline.

Bit-reproducible ensembles (PR 1/3/4) require every random draw to come
from a ``numpy.random.Generator`` keyed by the run seed.  These rules
catch the constructions that silently break that: draws from the shared
module-level legacy state, wall-clock entropy in the deterministic core,
generators built with no seed (fresh OS entropy per process) or with a
constant seed (every ensemble member sees identical "noise"), inline
magic-offset seed arithmetic that collides substreams, and generators
stored on frozen dataclasses whose re-keying story is undocumented.
"""

from __future__ import annotations

import ast
from typing import List

from repro_lint.config import LintConfig
from repro_lint.core import (
    FileContext,
    Finding,
    constant_number,
    contains_name_reference,
    expanded_name,
    is_frozen_dataclass,
    path_in_scope,
)

RULES = {
    "RL001": (
        "no module-level numpy.random calls — draw from a seeded "
        "Generator (np.random.default_rng) instead"
    ),
    "RL002": (
        "no bare random.* / time.time() in the deterministic core "
        "(sim, core, channel, faults, network)"
    ),
    "RL003": (
        "default_rng() argument must derive from a seed parameter "
        "(no missing or constant-only seeds)"
    ),
    "RL004": (
        "frozen dataclasses must not store a Generator without "
        "documented re-keying"
    ),
    "RL005": (
        "no inline magic seed offsets like default_rng(500 + seed) — "
        "use repro.utils.rng.named_substream"
    ),
}

#: numpy.random attributes that are legitimate, seedable constructors.
_ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)


def _is_default_rng(ctx: FileContext, func: ast.AST) -> bool:
    name = expanded_name(ctx, func)
    if name is None:
        return False
    return name == "numpy.random.default_rng" or name.endswith(".default_rng") or (
        name == "default_rng"
    )


def check(ctx: FileContext, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    in_core = path_in_scope(ctx.relpath, config.deterministic_core)

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            findings.extend(_check_call(ctx, config, node, in_core))
        elif isinstance(node, ast.ClassDef):
            findings.extend(_check_class(ctx, node))
    return findings


def _check_call(
    ctx: FileContext, config: LintConfig, node: ast.Call, in_core: bool
) -> List[Finding]:
    findings: List[Finding] = []
    name = expanded_name(ctx, node.func)

    # RL001: legacy module-level numpy.random state.
    if name is not None and name.startswith("numpy.random."):
        attr = name[len("numpy.random."):]
        if "." not in attr and attr not in _ALLOWED_NP_RANDOM:
            findings.append(
                ctx.finding(
                    node,
                    "RL001",
                    f"call to module-level numpy.random.{attr}; "
                    "draw from a seeded Generator instead",
                )
            )

    # RL002: bare stdlib random / wall clock inside the deterministic core.
    if in_core and name is not None:
        if name.startswith("random.") and "." not in name[len("random."):]:
            findings.append(
                ctx.finding(
                    node,
                    "RL002",
                    f"stdlib {name}() in the deterministic core; "
                    "use a seeded numpy Generator",
                )
            )
        elif name == "time.time":
            findings.append(
                ctx.finding(
                    node,
                    "RL002",
                    "time.time() in the deterministic core; use the "
                    "simulation clock (wall time breaks reproducibility)",
                )
            )

    # RL003 / RL005: default_rng seeding discipline.
    if _is_default_rng(ctx, node.func):
        if not node.args and not node.keywords:
            findings.append(
                ctx.finding(
                    node,
                    "RL003",
                    "default_rng() without a seed draws fresh OS entropy; "
                    "derive the seed from a seed parameter",
                )
            )
        else:
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            if not any(contains_name_reference(arg) for arg in arguments):
                findings.append(
                    ctx.finding(
                        node,
                        "RL003",
                        "default_rng(<constant>) pins every run to the same "
                        "stream; derive the seed from a seed parameter",
                    )
                )
            elif len(node.args) == 1 and _has_magic_offset(node.args[0]):
                findings.append(
                    ctx.finding(
                        node,
                        "RL005",
                        "inline magic seed offset; route through "
                        "repro.utils.rng.named_substream so substreams "
                        "are registered and collision-checked",
                    )
                )
    return findings


def _has_magic_offset(argument: ast.AST) -> bool:
    """True for ``500 + seed``-style arithmetic mixing constants and names."""
    if not isinstance(argument, ast.BinOp):
        return False
    has_constant = any(
        constant_number(part) is not None
        for part in ast.walk(argument)
        if isinstance(part, (ast.Constant, ast.UnaryOp))
    )
    return has_constant and contains_name_reference(argument)


def _check_class(ctx: FileContext, node: ast.ClassDef) -> List[Finding]:
    if not is_frozen_dataclass(node, ctx):
        return []
    docstring = ast.get_docstring(node) or ""
    documented = "re-key" in docstring.lower() or "rekey" in docstring.lower()
    findings: List[Finding] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        annotation = ast.unparse(statement.annotation)
        if "Generator" in annotation and not documented:
            findings.append(
                ctx.finding(
                    statement,
                    "RL004",
                    "frozen dataclass stores a Generator; document the "
                    "re-keying policy in the class docstring (retries and "
                    "pool fan-out must not share streams)",
                )
            )
    return findings
