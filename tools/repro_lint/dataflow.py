"""The flow-aware core: intraprocedural CFG, reaching defs, unit taint.

Three layers, each built on the one below:

* :class:`ControlFlowGraph` — basic blocks over one function body with
  edges for ``if``/``while``/``for``/``try``/``with`` and the abrupt
  exits (``return``/``raise``/``break``/``continue``).  Statements
  inside a block execute in order; compound statements contribute their
  *header* to the block and their bodies to successor blocks.
* :func:`fixpoint` — a generic forward worklist solver over the CFG:
  rule modules supply a transfer function per statement and a join for
  merge points, the solver iterates block entry states to convergence.
* Two canned analyses the rule families share:

  - :class:`DefUse` — reaching-definition style binding/use indices per
    function (``asyncio.create_task`` dead-store detection, executor
    ``.result()`` provenance);
  - :func:`infer_unit_domains` — dB/linear taint: every expression gets
    a domain from unit-suffixed names, :mod:`repro.utils.units` call
    summaries, lightweight same-file function summaries, and
    propagation through assignments and returns.

Scope and limits (also documented in DESIGN.md): the CFG is
*intraprocedural* and path-insensitive — branches join optimistically
(``unknown`` yields to the known domain), loops run to a fixed point,
``try`` bodies conservatively reach every handler, and calls are opaque
except for the explicit summaries.  Aliasing through containers and
attributes of non-``self`` objects is not tracked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro_lint.core import FileContext, expanded_name

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)

_S = TypeVar("_S")


# ----------------------------------------------------------------------
# control-flow graph
# ----------------------------------------------------------------------


@dataclass
class BasicBlock:
    """A straight-line run of statements with a single entry."""

    block_id: int
    statements: List[ast.stmt] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)

    def link(self, target: int) -> None:
        if target not in self.successors:
            self.successors.append(target)


class ControlFlowGraph:
    """The CFG of one function body.

    ``entry`` starts the body; ``exit`` is a synthetic empty block that
    every ``return``/fall-through path reaches.  Compound statements
    (``if``/``while``/``for``/``try``/``with``) appear in the block
    where their *test/header* executes; their bodies occupy successor
    blocks, so a statement-level transfer function sees the header once
    per traversal of that path.
    """

    def __init__(self) -> None:
        self.blocks: Dict[int, BasicBlock] = {}
        self.entry = self._new_block().block_id
        self.exit = self._new_block().block_id

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(block_id=len(self.blocks))
        self.blocks[block.block_id] = block
        return block

    def predecessors(self, block_id: int) -> List[int]:
        return [
            candidate.block_id
            for candidate in self.blocks.values()
            if block_id in candidate.successors
        ]

    def statements(self) -> Iterator[ast.stmt]:
        """Every statement in the graph, in block order."""
        for block_id in sorted(self.blocks):
            yield from self.blocks[block_id].statements

    @classmethod
    def from_function(cls, node: ast.AST) -> "ControlFlowGraph":
        if not isinstance(node, FunctionNode):
            raise TypeError(f"expected a function node, got {node!r}")
        graph = cls()
        builder = _Builder(graph)
        last = builder.build_body(node.body, graph.entry)
        if last is not None:
            graph.blocks[last].link(graph.exit)
        return graph


class _Builder:
    """Recursive-descent CFG construction with loop/exit tracking."""

    def __init__(self, graph: ControlFlowGraph) -> None:
        self.graph = graph
        #: (continue target, break target) per enclosing loop.
        self.loop_stack: List[Tuple[int, int]] = []

    def build_body(
        self, body: Sequence[ast.stmt], current: Optional[int]
    ) -> Optional[int]:
        """Append ``body`` starting in block ``current``.

        Returns the block the fall-through path ends in, or None when
        every path exits abruptly.
        """
        for statement in body:
            if current is None:
                # Unreachable code after return/raise/break: ignore.
                return None
            current = self.build_statement(statement, current)
        return current

    def build_statement(self, statement: ast.stmt, current: int) -> Optional[int]:
        graph = self.graph
        block = graph.blocks[current]
        if isinstance(statement, ast.Return):
            block.statements.append(statement)
            block.link(graph.exit)
            return None
        if isinstance(statement, ast.Raise):
            block.statements.append(statement)
            block.link(graph.exit)
            return None
        if isinstance(statement, ast.Break):
            block.statements.append(statement)
            if self.loop_stack:
                block.link(self.loop_stack[-1][1])
            else:
                block.link(graph.exit)
            return None
        if isinstance(statement, ast.Continue):
            block.statements.append(statement)
            if self.loop_stack:
                block.link(self.loop_stack[-1][0])
            else:
                block.link(graph.exit)
            return None
        if isinstance(statement, ast.If):
            return self._build_if(statement, current)
        if isinstance(statement, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(statement, current)
        if isinstance(statement, ast.Try):
            return self._build_try(statement, current)
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            return self._build_with(statement, current)
        # Plain statement (including nested function/class defs, whose
        # bodies get their own CFGs when analyzed).
        block.statements.append(statement)
        return current

    def _build_if(self, statement: ast.If, current: int) -> Optional[int]:
        graph = self.graph
        graph.blocks[current].statements.append(statement)
        then_block = graph._new_block()
        graph.blocks[current].link(then_block.block_id)
        then_end = self.build_body(statement.body, then_block.block_id)
        if statement.orelse:
            else_block = graph._new_block()
            graph.blocks[current].link(else_block.block_id)
            else_end = self.build_body(statement.orelse, else_block.block_id)
        else:
            else_end = current
        if then_end is None and else_end is None:
            return None
        join = graph._new_block()
        for end in (then_end, else_end):
            if end is not None:
                graph.blocks[end].link(join.block_id)
        return join.block_id

    def _build_loop(self, statement: ast.stmt, current: int) -> int:
        graph = self.graph
        # The loop header (test / iterator advance) is its own block so
        # the back edge re-executes it.
        header = graph._new_block()
        header.statements.append(statement)
        graph.blocks[current].link(header.block_id)
        after = graph._new_block()
        header.link(after.block_id)  # loop exit (test false / exhausted)
        body_block = graph._new_block()
        header.link(body_block.block_id)
        self.loop_stack.append((header.block_id, after.block_id))
        body_end = self.build_body(
            getattr(statement, "body", []), body_block.block_id
        )
        self.loop_stack.pop()
        if body_end is not None:
            graph.blocks[body_end].link(header.block_id)  # back edge
        orelse = getattr(statement, "orelse", [])
        if orelse:
            else_end = self.build_body(orelse, after.block_id)
            if else_end is None:
                return after.block_id
            return else_end
        return after.block_id

    def _build_try(self, statement: ast.Try, current: int) -> Optional[int]:
        graph = self.graph
        graph.blocks[current].statements.append(statement)
        body_block = graph._new_block()
        graph.blocks[current].link(body_block.block_id)
        body_end = self.build_body(statement.body, body_block.block_id)
        ends: List[Optional[int]] = [body_end]
        for handler in statement.handlers:
            handler_block = graph._new_block()
            # Conservative: an exception may fire anywhere in the body,
            # so the handler is reachable from the body's entry.
            body_block.link(handler_block.block_id)
            ends.append(self.build_body(handler.body, handler_block.block_id))
        if statement.orelse and body_end is not None:
            ends[0] = self.build_body(statement.orelse, body_end)
        live = [end for end in ends if end is not None]
        if statement.finalbody:
            final_block = graph._new_block()
            for end in live:
                graph.blocks[end].link(final_block.block_id)
            if not live:
                body_block.link(final_block.block_id)
            return self.build_body(statement.finalbody, final_block.block_id)
        if not live:
            return None
        join = graph._new_block()
        for end in live:
            graph.blocks[end].link(join.block_id)
        return join.block_id

    def _build_with(self, statement: ast.stmt, current: int) -> Optional[int]:
        graph = self.graph
        graph.blocks[current].statements.append(statement)
        body_block = graph._new_block()
        graph.blocks[current].link(body_block.block_id)
        return self.build_body(getattr(statement, "body", []), body_block.block_id)


# ----------------------------------------------------------------------
# generic forward fixpoint
# ----------------------------------------------------------------------


def fixpoint(
    graph: ControlFlowGraph,
    initial: _S,
    transfer: Callable[[ast.stmt, _S], _S],
    join: Callable[[_S, _S], _S],
    copy: Callable[[_S], _S],
) -> Dict[int, _S]:
    """Iterate block entry states to convergence (forward analysis).

    ``transfer`` maps (statement, state) -> state and must be monotone;
    ``join`` merges predecessor exit states; ``copy`` deep-copies a
    state so blocks do not alias.  Returns the entry state per block.
    States must implement ``__eq__`` for the convergence test.
    """
    entry_state: Dict[int, _S] = {graph.entry: copy(initial)}
    worklist: List[int] = [graph.entry]
    while worklist:
        block_id = worklist.pop(0)
        state = copy(entry_state[block_id])
        for statement in graph.blocks[block_id].statements:
            state = transfer(statement, state)
        for successor in graph.blocks[block_id].successors:
            if successor in entry_state:
                merged = join(entry_state[successor], state)
                if merged == entry_state[successor]:
                    continue
                entry_state[successor] = merged
            else:
                entry_state[successor] = copy(state)
            if successor not in worklist:
                worklist.append(successor)
    return entry_state


# ----------------------------------------------------------------------
# def-use index (reaching-definition queries per function)
# ----------------------------------------------------------------------


@dataclass
class Binding:
    """One assignment of a simple name inside a function."""

    name: str
    node: ast.AST  # the assignment statement
    value: Optional[ast.expr]  # RHS (None for e.g. ``for`` targets)


class DefUse:
    """Binding and use sites of simple names in one function body.

    Positional queries are textual (``lineno``/``col_offset``), which is
    exactly right for lint: "is this name ever *read* after this
    statement" treats loops conservatively via :meth:`used_after`'s
    ``in_loop`` handling — a use anywhere inside a loop that also
    contains the binding counts as "after".
    """

    def __init__(self, function: ast.AST) -> None:
        if not isinstance(function, FunctionNode):
            raise TypeError(f"expected a function node, got {function!r}")
        self.function = function
        self.bindings: List[Binding] = []
        self.loads: List[ast.Name] = []
        self._collect(function)

    def _collect(self, function: ast.AST) -> None:
        for node in ast.walk(function):
            if isinstance(node, FunctionNode) and node is not function:
                continue  # nested functions get their own DefUse
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in _simple_names(target):
                        self.bindings.append(Binding(name, node, node.value))
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.bindings.append(
                    Binding(node.target.id, node, node.value)
                )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                self.bindings.append(Binding(node.target.id, node, node.value))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.loads.append(node)

    def bindings_of(self, name: str) -> List[Binding]:
        return [binding for binding in self.bindings if binding.name == name]

    def used_after(self, name: str, statement: ast.AST) -> bool:
        """Whether ``name`` is read anywhere after ``statement``.

        "After" is textual position; a read *before* the binding still
        counts when both sit inside a common loop (the next iteration
        reaches it).
        """
        anchor = getattr(statement, "lineno", 0)
        for load in self.loads:
            if load.id != name:
                continue
            if load.lineno > anchor:
                return True
            if self._share_loop(load, statement):
                return True
        return False

    def _share_loop(self, a: ast.AST, b: ast.AST) -> bool:
        loops_a = self._enclosing_loops(a)
        loops_b = self._enclosing_loops(b)
        return bool(loops_a & loops_b)

    def _enclosing_loops(self, node: ast.AST) -> Set[int]:
        found: Set[int] = set()
        for loop in ast.walk(self.function):
            if not isinstance(loop, (ast.For, ast.While, ast.AsyncFor)):
                continue
            for child in ast.walk(loop):
                if child is node:
                    found.add(id(loop))
                    break
        return found

    def value_of(self, name_node: ast.Name) -> Optional[ast.expr]:
        """The RHS of the *latest* binding of this name before the load.

        Single-assignment names resolve exactly; multiply-assigned names
        resolve to the nearest earlier binding (None when none precede).
        """
        best: Optional[Binding] = None
        for binding in self.bindings_of(name_node.id):
            line = getattr(binding.node, "lineno", 0)
            if line <= name_node.lineno and (
                best is None or line > getattr(best.node, "lineno", 0)
            ):
                best = binding
        return best.value if best is not None else None


def _simple_names(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _simple_names(element)


# ----------------------------------------------------------------------
# dB / linear unit taint
# ----------------------------------------------------------------------

#: Domain lattice: None (unknown) < {"db", "linear"} < "mixed" (conflict).
DB = "db"
LINEAR = "linear"
MIXED = "mixed"

_DB_SUFFIXES = ("_db", "_dbm", "_dbi")
_LINEAR_SUFFIXES = ("_lin", "_linear", "_w", "_watt", "_watts", "_mw")
_DB_EXACT = frozenset({"db", "dbm", "dbi"})
_LINEAR_EXACT = frozenset({"lin", "watt", "watts"})

#: repro.utils.units call summaries: function -> domain of its result.
UNITS_RETURN_DOMAIN = {
    "db_to_linear": LINEAR,
    "power_db_to_linear": LINEAR,
    "dbm_to_watt": LINEAR,
    "linear_to_db": DB,
    "power_linear_to_db": DB,
    "watt_to_dbm": DB,
}


def suffix_domain(name: str) -> Optional[str]:
    """The unit domain a bare identifier advertises via its suffix."""
    lowered = name.lower()
    if lowered in _DB_EXACT or lowered.endswith(_DB_SUFFIXES):
        return DB
    if lowered in _LINEAR_EXACT or lowered.endswith(_LINEAR_SUFFIXES):
        return LINEAR
    return None


def join_domains(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Lattice join: unknown yields, agreement keeps, conflict tops out."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    return MIXED


@dataclass
class UnitEnv:
    """Variable -> inferred unit domain at one program point."""

    domains: Dict[str, str] = field(default_factory=dict)

    def copy(self) -> "UnitEnv":
        return UnitEnv(domains=dict(self.domains))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnitEnv) and self.domains == other.domains

    def get(self, name: str) -> Optional[str]:
        return self.domains.get(name)

    def join(self, other: "UnitEnv") -> "UnitEnv":
        merged: Dict[str, str] = {}
        for name in set(self.domains) | set(other.domains):
            domain = join_domains(self.domains.get(name), other.domains.get(name))
            if domain is not None:
                merged[name] = domain
        return UnitEnv(domains=merged)


def function_summaries(ctx: FileContext) -> Dict[str, str]:
    """Same-file call summaries: function name -> result unit domain.

    A function whose name carries a unit suffix, or whose every return
    expression has one inferable domain, summarizes to that domain.
    Everything else stays opaque.
    """
    summaries: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, FunctionNode):
            continue
        domain = suffix_domain(node.name)
        if domain is None:
            returned: Optional[str] = None
            saw_return = False
            for statement in ast.walk(node):
                if isinstance(statement, ast.Return) and statement.value is not None:
                    saw_return = True
                    returned = join_domains(
                        returned,
                        expression_domain(
                            ctx, statement.value, UnitEnv(), {}
                        ),
                    )
            if saw_return and returned in (DB, LINEAR):
                domain = returned
        if domain is not None:
            summaries[node.name] = domain
    return summaries


def call_domain(
    ctx: FileContext, node: ast.Call, summaries: Dict[str, str]
) -> Optional[str]:
    """The result domain of a call, from units/helper summaries."""
    name = expanded_name(ctx, node.func)
    if name is None:
        return None
    short = name.rsplit(".", 1)[-1]
    units_domain = UNITS_RETURN_DOMAIN.get(short)
    if units_domain is not None:
        return units_domain
    return summaries.get(short)


def expression_domain(
    ctx: FileContext,
    node: ast.expr,
    env: UnitEnv,
    summaries: Dict[str, str],
) -> Optional[str]:
    """Infer the unit domain of one expression.

    Suffix evidence wins over flow evidence on bare names (an explicit
    ``_db`` rename is a declaration); calls resolve through summaries
    only; +/- arithmetic joins operand domains, * and / keep dB scaling
    opaque except when a dB and a linear operand meet.
    """
    if isinstance(node, ast.Name):
        return suffix_domain(node.id) or env.get(node.id)
    if isinstance(node, ast.Attribute):
        return suffix_domain(node.attr)
    if isinstance(node, ast.Call):
        return call_domain(ctx, node, summaries)
    if isinstance(node, ast.UnaryOp):
        return expression_domain(ctx, node.operand, env, summaries)
    if isinstance(node, ast.BinOp):
        left = expression_domain(ctx, node.left, env, summaries)
        right = expression_domain(ctx, node.right, env, summaries)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return join_domains(left, right)
        if isinstance(node.op, (ast.Mult, ast.Div)):
            # Scaling a dB quantity by a unitless constant keeps dB;
            # a dB/linear meeting is a conflict either way.
            if join_domains(left, right) == MIXED:
                return MIXED
            return left or right
        return None
    if isinstance(node, ast.IfExp):
        return join_domains(
            expression_domain(ctx, node.body, env, summaries),
            expression_domain(ctx, node.orelse, env, summaries),
        )
    return None


def infer_unit_domains(
    ctx: FileContext, graph: ControlFlowGraph, summaries: Dict[str, str]
) -> Dict[int, UnitEnv]:
    """Unit-taint fixpoint over one function's ``graph``.

    ``summaries`` is the file's :func:`function_summaries`, computed
    once per file by the caller.  Returns the *entry* :class:`UnitEnv`
    per CFG block; rule code re-runs the transfer over a block's
    statements to get the state at each statement.
    """

    def transfer(statement: ast.stmt, env: UnitEnv) -> UnitEnv:
        return transfer_units(ctx, statement, env, summaries)

    return fixpoint(
        graph,
        UnitEnv(),
        transfer,
        lambda a, b: a.join(b),
        lambda env: env.copy(),
    )


def transfer_units(
    ctx: FileContext,
    statement: ast.stmt,
    env: UnitEnv,
    summaries: Dict[str, str],
) -> UnitEnv:
    """One statement's effect on the unit environment."""
    out = env.copy()
    if isinstance(statement, ast.Assign):
        domain = expression_domain(ctx, statement.value, env, summaries)
        for target in statement.targets:
            for name in _simple_names(target):
                if domain is None:
                    out.domains.pop(name, None)
                else:
                    out.domains[name] = domain
    elif isinstance(statement, ast.AnnAssign) and isinstance(
        statement.target, ast.Name
    ):
        if statement.value is not None:
            domain = expression_domain(ctx, statement.value, env, summaries)
            if domain is None:
                out.domains.pop(statement.target.id, None)
            else:
                out.domains[statement.target.id] = domain
    elif isinstance(statement, ast.AugAssign) and isinstance(
        statement.target, ast.Name
    ):
        current = out.get(statement.target.id) or suffix_domain(
            statement.target.id
        )
        domain = expression_domain(ctx, statement.value, env, summaries)
        joined = join_domains(current, domain)
        if joined is not None:
            out.domains[statement.target.id] = joined
    elif isinstance(statement, (ast.For, ast.AsyncFor)):
        for name in _simple_names(statement.target):
            out.domains.pop(name, None)
    return out
