"""RL5xx — async hygiene for the serving layer.

The job server's reliability ledger (fsync-before-ack durability,
coalescing, bounded shedding) assumes the event loop stays responsive:
a blocking call in a coroutine stalls *every* client, a dropped task
silently swallows exceptions, and an ``await`` under a threading lock
deadlocks the loop against the worker pool.  These rules are the static
half of the concurrency-safety story; :mod:`repro.sanitize` is the
runtime half.

RL501–RL503 are per-file and intraprocedural (this module); RL505 is
the call-graph upgrade — an ``async def`` reaching a *transitively*
blocking function — and is emitted by
:class:`repro_lint.rules_race.ConcurrencyChecker`, which owns the
cross-module analysis.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

from repro_lint.config import LintConfig
from repro_lint.core import FileContext, Finding, expanded_name
from repro_lint.dataflow import DefUse

RULES = {
    "RL501": (
        "blocking call inside async def — stalls the event loop; use "
        "asyncio.to_thread / run_in_executor"
    ),
    "RL502": (
        "asyncio.create_task / ensure_future result dropped — the task "
        "is garbage-collectable and its exception is silently lost"
    ),
    "RL503": (
        "await while holding a threading lock — the loop blocks every "
        "other coroutine against the worker pool"
    ),
    "RL505": (
        "async def calls a function that blocks (transitively, via the "
        "cross-module call graph)"
    ),
}

#: Fully-qualified callables that block the calling thread.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.sync",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.delete",
        "requests.head",
        "requests.request",
        "open",
    }
)

#: Method names that block regardless of receiver (pathlib/file idioms).
BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Task-spawning entry points whose return value must be retained.
_TASK_SPAWNERS = frozenset({"asyncio.create_task", "asyncio.ensure_future"})

_LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)


def check(ctx: FileContext, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    lock_names, lock_attrs = collect_sync_locks(ctx)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.AsyncFunctionDef):
            defuse = DefUse(node)
            findings.extend(_check_blocking(ctx, node, defuse))
            findings.extend(
                _check_lock_held_await(ctx, node, lock_names, lock_attrs)
            )
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_check_dropped_tasks(ctx, node))
    return findings


# ----------------------------------------------------------------------
# shared helpers (the race checker reuses these)
# ----------------------------------------------------------------------


def is_blocking_call(ctx: FileContext, node: ast.Call) -> bool:
    """Whether one call expression directly blocks the calling thread."""
    name = expanded_name(ctx, node.func)
    if name is not None and name in BLOCKING_CALLS:
        return True
    if isinstance(node.func, ast.Attribute) and (
        node.func.attr in BLOCKING_METHODS
    ):
        return True
    return False


def collect_sync_locks(ctx: FileContext) -> Tuple[Set[str], Set[str]]:
    """Names bound to ``threading`` locks in this module.

    Returns ``(module_level_names, self_attribute_names)`` — e.g.
    ``_REGISTRY_LOCK = threading.Lock()`` and
    ``self._lock = threading.RLock()``.
    """
    names: Set[str] = set()
    attrs: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        factory = expanded_name(ctx, value.func)
        if factory not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return names, attrs


def is_sync_lock_expr(
    ctx: FileContext,
    node: ast.expr,
    lock_names: Set[str],
    lock_attrs: Set[str],
) -> bool:
    """Whether a ``with`` context expression is a threading lock."""
    if isinstance(node, ast.Name) and node.id in lock_names:
        return True
    if isinstance(node, ast.Attribute) and node.attr in lock_attrs:
        return True
    if isinstance(node, ast.Call):
        return expanded_name(ctx, node.func) in _LOCK_FACTORIES
    return False


def own_statements(function: ast.AST) -> Sequence[ast.AST]:
    """Every node in the function, excluding nested function bodies."""
    selected: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        selected.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return selected


# ----------------------------------------------------------------------
# RL501 — blocking calls inside async def
# ----------------------------------------------------------------------


def _check_blocking(
    ctx: FileContext, function: ast.AsyncFunctionDef, defuse: DefUse
) -> List[Finding]:
    findings: List[Finding] = []
    for node in own_statements(function):
        if not isinstance(node, ast.Call):
            continue
        if is_blocking_call(ctx, node):
            name = expanded_name(ctx, node.func) or getattr(
                node.func, "attr", "<call>"
            )
            findings.append(
                ctx.finding(
                    node,
                    "RL501",
                    f"blocking call {name}() inside async def "
                    f"{function.name}; move it off-loop with "
                    "asyncio.to_thread or run_in_executor",
                )
            )
        elif _is_executor_result_call(node, defuse):
            findings.append(
                ctx.finding(
                    node,
                    "RL501",
                    "Future.result() on an executor future blocks the "
                    f"event loop inside async def {function.name}; await "
                    "asyncio.wrap_future(...) instead",
                )
            )
    return findings


def _is_executor_result_call(node: ast.Call, defuse: DefUse) -> bool:
    """``fut.result()`` where ``fut`` provably came from ``.submit()``."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "result":
        return False
    receiver = func.value
    # Direct chain: ``pool.submit(f, x).result()``.
    if isinstance(receiver, ast.Call):
        inner = receiver.func
        return isinstance(inner, ast.Attribute) and inner.attr == "submit"
    # Through a local: ``fut = pool.submit(f, x)`` ... ``fut.result()``.
    if isinstance(receiver, ast.Name):
        value = defuse.value_of(receiver)
        if isinstance(value, ast.Call):
            inner = value.func
            return isinstance(inner, ast.Attribute) and inner.attr == "submit"
    return False


# ----------------------------------------------------------------------
# RL502 — dropped tasks
# ----------------------------------------------------------------------


def _is_task_spawn(ctx: FileContext, node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = expanded_name(ctx, node.func)
    if name is not None and name in _TASK_SPAWNERS:
        return True
    # ``loop.create_task(...)`` through any receiver.
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in ("create_task", "ensure_future")
    )


def _check_dropped_tasks(ctx: FileContext, function: ast.AST) -> List[Finding]:
    findings: List[Finding] = []
    defuse: Optional[DefUse] = None
    for statement in own_statements(function):
        # Bare expression statement: the task handle vanishes immediately.
        if isinstance(statement, ast.Expr) and _is_task_spawn(
            ctx, statement.value
        ):
            findings.append(
                ctx.finding(
                    statement,
                    "RL502",
                    "task handle dropped; retain it (and await or "
                    "add_done_callback) so exceptions cannot vanish",
                )
            )
            continue
        # Dead store: assigned to a local that is never read again.
        if (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
            and _is_task_spawn(ctx, statement.value)
        ):
            if defuse is None:
                defuse = DefUse(function)
            name = statement.targets[0].id
            if not defuse.used_after(name, statement):
                findings.append(
                    ctx.finding(
                        statement,
                        "RL502",
                        f"task handle {name!r} is never used after this "
                        "assignment — the task is still droppable; keep "
                        "a live reference or await it",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# RL503 — await while holding a threading lock
# ----------------------------------------------------------------------


def _check_lock_held_await(
    ctx: FileContext,
    function: ast.AsyncFunctionDef,
    lock_names: Set[str],
    lock_attrs: Set[str],
) -> List[Finding]:
    findings: List[Finding] = []
    for node in own_statements(function):
        if not isinstance(node, ast.With):
            continue
        if not any(
            is_sync_lock_expr(ctx, item.context_expr, lock_names, lock_attrs)
            for item in node.items
        ):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(inner, ast.Await):
                findings.append(
                    ctx.finding(
                        inner,
                        "RL503",
                        "await while holding a threading lock: worker "
                        "threads contending for it deadlock against the "
                        "parked coroutine; use asyncio.Lock or release "
                        "before awaiting",
                    )
                )
    return findings

