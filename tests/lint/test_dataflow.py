"""Unit tests for the dataflow core: CFG shape, fixpoint, def-use,
and the unit-taint lattice the RL1xx flow rules ride on."""

from __future__ import annotations

import ast

import repro_lint.dataflow
import repro_lint.rules_units
from repro_lint.config import LintConfig
from repro_lint.core import FileContext
from repro_lint.dataflow import (
    DB,
    LINEAR,
    MIXED,
    ControlFlowGraph,
    DefUse,
    UnitEnv,
    expression_domain,
    fixpoint,
    function_summaries,
    infer_unit_domains,
    join_domains,
    suffix_domain,
    transfer_units,
)


def _function(source: str) -> tuple[FileContext, ast.AST]:
    ctx = FileContext("src/repro/phy/_scratch.py", source)
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ctx, node
    raise AssertionError("no function in source")


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------


def test_straight_line_cfg_reaches_exit():
    _, fn = _function("def f(x):\n    y = x\n    return y\n")
    graph = ControlFlowGraph.from_function(fn)
    statements = list(graph.statements())
    assert len(statements) == 2
    # The return block must link to the synthetic exit.
    return_block = next(
        block
        for block in graph.blocks.values()
        if any(isinstance(s, ast.Return) for s in block.statements)
    )
    assert graph.exit in return_block.successors


def test_if_else_produces_diamond():
    _, fn = _function(
        "def f(flag):\n"
        "    if flag:\n"
        "        a = 1\n"
        "    else:\n"
        "        a = 2\n"
        "    return a\n"
    )
    graph = ControlFlowGraph.from_function(fn)
    header = next(
        block
        for block in graph.blocks.values()
        if any(isinstance(s, ast.If) for s in block.statements)
    )
    assert len(header.successors) == 2
    # Both arms converge on the join block holding the return.
    join = next(
        block
        for block in graph.blocks.values()
        if any(isinstance(s, ast.Return) for s in block.statements)
    )
    assert len(graph.predecessors(join.block_id)) == 2


def test_while_loop_has_back_edge():
    _, fn = _function(
        "def f(n):\n"
        "    while n > 0:\n"
        "        n = n - 1\n"
        "    return n\n"
    )
    graph = ControlFlowGraph.from_function(fn)
    header = next(
        block
        for block in graph.blocks.values()
        if any(isinstance(s, ast.While) for s in block.statements)
    )
    body = next(
        block
        for block in graph.blocks.values()
        if any(isinstance(s, ast.Assign) for s in block.statements)
    )
    assert header.block_id in body.successors  # the back edge


def test_return_terminates_path():
    _, fn = _function(
        "def f(flag):\n"
        "    if flag:\n"
        "        return 1\n"
        "    return 2\n"
    )
    graph = ControlFlowGraph.from_function(fn)
    for block in graph.blocks.values():
        for statement in block.statements:
            if isinstance(statement, ast.Return):
                assert block.successors == [graph.exit]


def test_try_handler_reachable_from_body():
    _, fn = _function(
        "def f(x):\n"
        "    try:\n"
        "        y = x()\n"
        "    except ValueError:\n"
        "        y = 0\n"
        "    return y\n"
    )
    graph = ControlFlowGraph.from_function(fn)
    # Every statement appears exactly once and the graph stays connected
    # enough for the fixpoint to see both the body and the handler.
    statements = list(graph.statements())
    assigns = [s for s in statements if isinstance(s, ast.Assign)]
    assert len(assigns) == 2


# ----------------------------------------------------------------------
# generic fixpoint
# ----------------------------------------------------------------------


def test_fixpoint_propagates_through_branches():
    _, fn = _function(
        "def f(flag):\n"
        "    x = 1\n"
        "    if flag:\n"
        "        y = 2\n"
        "    else:\n"
        "        y = 3\n"
        "    return x + y\n"
    )
    graph = ControlFlowGraph.from_function(fn)

    def transfer(statement, state):
        out = set(state)
        if isinstance(statement, ast.Assign):
            out.update(
                t.id for t in statement.targets if isinstance(t, ast.Name)
            )
        return out

    states = fixpoint(graph, set(), transfer, lambda a, b: a | b, set)
    join = next(
        block
        for block in graph.blocks.values()
        if any(isinstance(s, ast.Return) for s in block.statements)
    )
    # Entry state of the join block: x definitely, y from both arms.
    assert states[join.block_id] == {"x", "y"}


# ----------------------------------------------------------------------
# def-use
# ----------------------------------------------------------------------


def test_defuse_dead_store_detected():
    _, fn = _function(
        "def f(make):\n"
        "    handle = make()\n"
        "    return None\n"
    )
    defuse = DefUse(fn)
    binding = defuse.bindings_of("handle")[0]
    assert not defuse.used_after("handle", binding.node)


def test_defuse_live_store_detected():
    _, fn = _function(
        "def f(make):\n"
        "    handle = make()\n"
        "    return handle\n"
    )
    defuse = DefUse(fn)
    binding = defuse.bindings_of("handle")[0]
    assert defuse.used_after("handle", binding.node)


def test_defuse_loop_use_counts_as_after():
    # A use textually *before* the binding still counts inside a shared
    # loop: the next iteration observes the previous store.
    _, fn = _function(
        "def f(make, items):\n"
        "    handle = None\n"
        "    for item in items:\n"
        "        if handle is not None:\n"
        "            item(handle)\n"
        "        handle = make()\n"
        "    return None\n"
    )
    defuse = DefUse(fn)
    binding = defuse.bindings_of("handle")[-1]
    assert defuse.used_after("handle", binding.node)


def test_defuse_value_of_resolves_provenance():
    _, fn = _function(
        "def f(pool, job):\n"
        "    fut = pool.submit(job)\n"
        "    return fut.result()\n"
    )
    defuse = DefUse(fn)
    load = next(
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.Name)
        and node.id == "fut"
        and isinstance(node.ctx, ast.Load)
    )
    value = defuse.value_of(load)
    assert isinstance(value, ast.Call)
    assert value.func.attr == "submit"


# ----------------------------------------------------------------------
# unit taint
# ----------------------------------------------------------------------


def test_suffix_domains():
    assert suffix_domain("snr_db") == DB
    assert suffix_domain("power_w") == LINEAR
    assert suffix_domain("plain") is None


def test_join_lattice():
    assert join_domains(None, DB) == DB
    assert join_domains(DB, DB) == DB
    assert join_domains(DB, LINEAR) == MIXED


def test_taint_flows_through_assignment():
    ctx, fn = _function(
        "from repro.utils.units import db_to_linear\n"
        "def f(x_db):\n"
        "    gain = db_to_linear(x_db)\n"
        "    copy = gain\n"
        "    return copy\n"
    )
    env = UnitEnv()
    for statement in fn.body:
        env = transfer_units(ctx, statement, env, {})
    assert env.get("gain") == LINEAR
    assert env.get("copy") == LINEAR


def test_taint_joins_at_branch_merge():
    ctx, fn = _function(
        "from repro.utils.units import db_to_linear, linear_to_db\n"
        "def f(flag, x_db):\n"
        "    if flag:\n"
        "        v = db_to_linear(x_db)\n"
        "    else:\n"
        "        v = linear_to_db(x_db)\n"
        "    return v\n"
    )
    graph = ControlFlowGraph.from_function(fn)
    envs = infer_unit_domains(ctx, graph, function_summaries(ctx))
    join = next(
        block
        for block in graph.blocks.values()
        if any(isinstance(s, ast.Return) for s in block.statements)
    )
    # One arm linear, one arm dB: the merge must surface the conflict.
    assert envs[join.block_id].get("v") == MIXED


def test_taint_survives_loop_fixpoint():
    ctx, fn = _function(
        "from repro.utils.units import db_to_linear\n"
        "def f(samples, floor_db):\n"
        "    acc = db_to_linear(floor_db)\n"
        "    for _s in samples:\n"
        "        acc = acc * 2.0\n"
        "    return acc\n"
    )
    graph = ControlFlowGraph.from_function(fn)
    envs = infer_unit_domains(ctx, graph, function_summaries(ctx))
    exit_preds = graph.predecessors(graph.exit)
    assert any(
        envs[block_id].get("acc") == LINEAR for block_id in exit_preds
    )


def test_call_summary_from_same_file_helper():
    ctx, fn = _function(
        "from repro.utils.units import linear_to_db\n"
        "def helper_db(x):\n"
        "    return linear_to_db(x)\n"
    )
    summaries = function_summaries(ctx)
    assert summaries.get("helper_db") == DB


def test_expression_domain_respects_suffix_over_env():
    ctx, fn = _function("def f(x):\n    return x\n")
    env = UnitEnv(domains={"snr_db": LINEAR})
    node = ast.parse("snr_db", mode="eval").body
    # An explicit _db rename is a declaration; suffix evidence wins.
    assert expression_domain(ctx, node, env, {}) == DB


def test_unit_rules_summarize_each_file_once(monkeypatch):
    """RL104/RL105 compute a file's call summaries once, not once or
    twice per function: each summary pass walks the whole file."""
    calls = []

    def counted(ctx):
        calls.append(ctx.relpath)
        return function_summaries(ctx)

    monkeypatch.setattr(repro_lint.dataflow, "function_summaries", counted)
    monkeypatch.setattr(repro_lint.rules_units, "function_summaries", counted)
    ctx = FileContext(
        "src/repro/phy/_scratch.py",
        "from repro.utils.units import db_to_linear\n"
        "def gain_lin(x_db):\n"
        "    return db_to_linear(x_db)\n"
        "def margin(a_db, b_db):\n"
        "    return a_db - b_db\n"
        "def total(x_db):\n"
        "    level = gain_lin(x_db)\n"
        "    return level + x_db\n",
    )
    findings = repro_lint.rules_units.check(ctx, LintConfig())
    assert calls == [ctx.relpath]
    assert [finding.rule for finding in findings] == ["RL104"]
