"""RL6xx — race detection for the cache/telemetry layer, plus RL505.

The serve layer runs jobs on a thread pool while the asyncio loop keeps
accepting submissions, so process-wide mutable state (cache registry,
telemetry recorder, kernel caches) is reachable from *both* execution
contexts at once.  A silent race there corrupts throughput/reliability
CDFs instead of crashing, which is the worst possible failure mode for
a reproduction.

:class:`ConcurrencyChecker` builds a cross-module call graph keyed by
qualified name (``pkg.mod.func`` / ``pkg.mod.Class.method``) and
propagates executor-context summaries from the spawn sites:

* **thread context** — reachable from ``loop.run_in_executor(...)``,
  ``ThreadPoolExecutor.submit(...)`` (only when the receiver's type is
  statically known — process pools have separate memory and do NOT
  count), ``threading.Thread(target=...)``, ``asyncio.to_thread(...)``;
* **loop context** — reachable from any ``async def``.

Method calls resolve only when the receiver's type is statically known
(``self.x = ClassName(...)`` attribute types, annotated attributes,
module/local variable types, ``self.meth()``); unresolved calls are
ignored rather than guessed, trading recall for near-zero false
positives.  Callables that reach a pool only through ``functools.partial``
or other wrappers are a known blind spot.

Rules:

* **RL601** — module-level mutable state written without a lock from a
  thread-context function (worker pools have >1 thread, so a function
  races with itself), or from loop context when a thread also touches
  the same global.  Names bound to ``threading.local()`` are exempt.
* **RL602** — a field of a lock-owning class (one that stores a
  ``threading.Lock``/``RLock`` on ``self``) is written under the lock in
  one method but touched outside it in another.  ``__init__`` /
  ``__post_init__`` / ``__del__`` are exempt (no concurrent aliases yet).
* **RL603** — non-idempotent lazy init (``if x is None: x = build()``)
  without a lock in a thread-context function; two workers can both see
  ``None`` and build twice.
* **RL505** (registered in :mod:`repro_lint.rules_async`) — an
  ``async def`` calls a sync function whose transitive closure performs
  a direct blocking call, stalling the event loop one hop removed from
  what RL501 can see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro_lint.config import LintConfig
from repro_lint.core import FileContext, Finding, expanded_name
from repro_lint.rules_async import (
    collect_sync_locks,
    is_blocking_call,
    is_sync_lock_expr,
)

RULES = {
    "RL601": (
        "module-level mutable state written without a lock from "
        "thread-pool context"
    ),
    "RL602": (
        "lock-protected instance field touched outside the owning "
        "class's lock"
    ),
    "RL603": (
        "unguarded non-idempotent lazy init in thread-pool context "
        "(two workers can both build)"
    ),
}

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "appendleft",
        "popleft",
        "move_to_end",
        "sort",
        "reverse",
    }
)

_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__del__"})

_THREAD_POOL_TYPES = frozenset(
    {"concurrent.futures.ThreadPoolExecutor", "ThreadPoolExecutor"}
)


def _own_nodes(function: ast.AST) -> Sequence[ast.AST]:
    """Every node under ``function`` excluding nested function bodies."""
    selected: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        selected.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return selected


def _module_key(ctx: FileContext) -> str:
    name = ctx.module_name()
    if name is not None:
        return name
    stem = ctx.relpath
    if stem.endswith(".py"):
        stem = stem[: -len(".py")]
    return stem.replace("/", ".")


@dataclass
class _GlobalWrite:
    qualified: str  # "<module key>::<name>"
    display: str
    line: int
    col: int
    guarded: bool
    lazy: bool


@dataclass
class _FunctionInfo:
    key: str
    relpath: str
    line: int
    is_async: bool
    #: candidate callee keys with the call site's (line, col).
    calls: List[Tuple[str, int, int]] = field(default_factory=list)
    #: display names of direct blocking calls (RL505 evidence).
    blocking: List[str] = field(default_factory=list)
    writes: List[_GlobalWrite] = field(default_factory=list)
    #: qualified globals this function reads or writes.
    touches: Set[str] = field(default_factory=set)


class ConcurrencyChecker:
    """Cross-module executor-context analysis (RL601/RL603/RL505) plus
    the per-file lock-discipline check (RL602)."""

    def __init__(self) -> None:
        self._functions: Dict[str, _FunctionInfo] = {}
        self._thread_spawns: List[str] = []
        #: "<modkey>.<local>" -> dotted origin, from every import — lets
        #: package-``__init__`` re-exports resolve to the defining module
        #: (``repro.telemetry.set_recorder`` ->
        #: ``repro.telemetry.recorder.set_recorder``).
        self._reexports: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # collection

    def check_file(self, ctx: FileContext, config: LintConfig) -> List[Finding]:
        modkey = _module_key(ctx)
        for local, origin in ctx.alias_map.items():
            if "." in origin:
                self._reexports[f"{modkey}.{local}"] = origin
        lock_names, lock_attrs = collect_sync_locks(ctx)
        module_globals, threadlocal_names = _module_level_names(ctx)
        module_globals -= lock_names
        module_var_types = _module_var_types(ctx, modkey)

        findings: List[Finding] = []
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(
                    ctx,
                    node,
                    key=f"{modkey}.{node.name}",
                    class_name=None,
                    attr_types={},
                    modkey=modkey,
                    lock_names=lock_names,
                    lock_attrs=lock_attrs,
                    module_globals=module_globals,
                    threadlocal_names=threadlocal_names,
                    module_var_types=module_var_types,
                )
            elif isinstance(node, ast.ClassDef):
                attr_types = _class_attr_types(ctx, node, modkey)
                for method in node.body:
                    if isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._collect_function(
                            ctx,
                            method,
                            key=f"{modkey}.{node.name}.{method.name}",
                            class_name=node.name,
                            attr_types=attr_types,
                            modkey=modkey,
                            lock_names=lock_names,
                            lock_attrs=lock_attrs,
                            module_globals=module_globals,
                            threadlocal_names=threadlocal_names,
                            module_var_types=module_var_types,
                        )
                findings.extend(_check_lock_discipline(ctx, node))
        # Spawns from module top-level code (e.g. a Thread started at
        # import) still create real threads.
        self._collect_spawns_at_top_level(
            ctx, modkey, module_var_types
        )
        return findings

    def _collect_function(
        self,
        ctx: FileContext,
        function: ast.AST,
        key: str,
        class_name: Optional[str],
        attr_types: Dict[str, str],
        modkey: str,
        lock_names: Set[str],
        lock_attrs: Set[str],
        module_globals: Set[str],
        threadlocal_names: Set[str],
        module_var_types: Dict[str, str],
    ) -> None:
        info = _FunctionInfo(
            key=key,
            relpath=ctx.relpath,
            line=function.lineno,
            is_async=isinstance(function, ast.AsyncFunctionDef),
        )
        local_classes = _local_class_names(ctx)
        local_functions = _local_function_names(ctx)
        local_types = _local_var_types(ctx, function, modkey)
        declared_global: Set[str] = set()
        bound_locally: Set[str] = set()
        for node in _own_nodes(function):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, (ast.Name,)) and isinstance(
                node.ctx, (ast.Store,)
            ):
                bound_locally.add(node.id)
        args = function.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            bound_locally.add(arg.arg)

        def is_global_name(name: str) -> bool:
            if name in threadlocal_names:
                return False
            if name in declared_global:
                return True
            return name in module_globals and name not in bound_locally

        def resolve_callable(node: ast.AST) -> Optional[str]:
            return _resolve_callable(
                ctx,
                node,
                modkey=modkey,
                class_name=class_name,
                attr_types=attr_types,
                local_types=local_types,
                module_var_types=module_var_types,
                local_classes=local_classes,
                local_functions=local_functions,
            )

        lazy_writes = _lazy_init_writes(ctx, function, declared_global)

        for node in _own_nodes(function):
            if isinstance(node, ast.Call):
                if is_blocking_call(ctx, node):
                    info.blocking.append(
                        expanded_name(ctx, node.func)
                        or getattr(node.func, "attr", "<call>")
                    )
                spawned = _spawned_callable(
                    ctx, node, resolve_receiver_type=lambda expr: _receiver_type(
                        ctx,
                        expr,
                        class_name=class_name,
                        attr_types=attr_types,
                        local_types=local_types,
                        module_var_types=module_var_types,
                    )
                )
                if spawned is not None:
                    target = resolve_callable(spawned)
                    if target is not None:
                        self._thread_spawns.append(target)
                    continue
                target = resolve_callable(node.func)
                if target is not None:
                    info.calls.append((target, node.lineno, node.col_offset))
                # Mutating method call on a module-level container.
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and is_global_name(func.value.id)
                ):
                    info.writes.append(
                        _make_write(
                            ctx, node, modkey, func.value.id,
                            lock_names, lock_attrs, lazy_writes,
                        )
                    )
                    info.touches.add(f"{modkey}::{func.value.id}")
            elif isinstance(node, ast.Name):
                if is_global_name(node.id):
                    info.touches.add(f"{modkey}::{node.id}")
                    if isinstance(node.ctx, (ast.Store, ast.Del)):
                        info.writes.append(
                            _make_write(
                                ctx, node, modkey, node.id,
                                lock_names, lock_attrs, lazy_writes,
                            )
                        )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                base = node.value
                if isinstance(base, ast.Name) and is_global_name(base.id):
                    info.writes.append(
                        _make_write(
                            ctx, node, modkey, base.id,
                            lock_names, lock_attrs, lazy_writes,
                        )
                    )
                    info.touches.add(f"{modkey}::{base.id}")
        self._functions[key] = info

    def _collect_spawns_at_top_level(
        self,
        ctx: FileContext,
        modkey: str,
        module_var_types: Dict[str, str],
    ) -> None:
        local_classes = _local_class_names(ctx)
        local_functions = _local_function_names(ctx)
        for node in ctx.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                spawned = _spawned_callable(
                    ctx,
                    call,
                    resolve_receiver_type=lambda expr: _receiver_type(
                        ctx,
                        expr,
                        class_name=None,
                        attr_types={},
                        local_types={},
                        module_var_types=module_var_types,
                    ),
                )
                if spawned is None:
                    continue
                target = _resolve_callable(
                    ctx,
                    spawned,
                    modkey=modkey,
                    class_name=None,
                    attr_types={},
                    local_types={},
                    module_var_types=module_var_types,
                    local_classes=local_classes,
                    local_functions=local_functions,
                )
                if target is not None:
                    self._thread_spawns.append(target)

    # ------------------------------------------------------------------
    # finalize

    def finalize(self, config: LintConfig) -> List[Finding]:
        functions = self._functions
        edges: Dict[str, List[Tuple[str, int, int]]] = {}
        for info in functions.values():
            resolved: List[Tuple[str, int, int]] = []
            for candidate, line, col in info.calls:
                target = _match_key(candidate, functions, self._reexports)
                if target is not None:
                    resolved.append((target, line, col))
            edges[info.key] = resolved

        thread_ctx = self._propagate(
            roots=[
                _match_key(spawn, functions, self._reexports)
                for spawn in self._thread_spawns
            ],
            edges=edges,
            into_async=False,
        )
        loop_ctx = self._propagate(
            roots=[
                info.key for info in functions.values() if info.is_async
            ],
            edges=edges,
            into_async=True,
        )

        findings: List[Finding] = []
        findings.extend(self._check_global_writes(thread_ctx, loop_ctx))
        findings.extend(self._check_transitive_blocking(edges))
        return findings

    def _propagate(
        self,
        roots: Sequence[Optional[str]],
        edges: Dict[str, List[Tuple[str, int, int]]],
        into_async: bool,
    ) -> Set[str]:
        marked: Set[str] = set()
        stack = [root for root in roots if root is not None]
        while stack:
            key = stack.pop()
            if key in marked:
                continue
            info = self._functions.get(key)
            if info is None:
                continue
            if not into_async and info.is_async and key not in [
                root for root in roots if root is not None
            ]:
                # Calling an async def from a thread just builds a
                # coroutine; its body does not run in the thread.
                continue
            marked.add(key)
            for callee, _line, _col in edges.get(key, ()):
                stack.append(callee)
        return marked

    def _check_global_writes(
        self, thread_ctx: Set[str], loop_ctx: Set[str]
    ) -> List[Finding]:
        thread_touched: Set[str] = set()
        for key in thread_ctx:
            thread_touched.update(self._functions[key].touches)

        findings: List[Finding] = []
        seen_sites: Set[Tuple[str, int]] = set()
        for info in self._functions.values():
            in_thread = info.key in thread_ctx
            in_loop = info.key in loop_ctx
            if not in_thread and not in_loop:
                continue
            for write in info.writes:
                if write.guarded:
                    continue
                site = (info.relpath, write.line)
                if site in seen_sites:
                    continue
                short = info.key.rsplit(".", 1)[-1]
                if write.lazy and in_thread:
                    seen_sites.add(site)
                    findings.append(
                        Finding(
                            path=info.relpath,
                            line=write.line,
                            col=write.col + 1,
                            rule="RL603",
                            message=(
                                f"lazy init of {write.display!r} in "
                                f"{short}() runs in thread-pool context "
                                "without a lock; two workers can both "
                                "see the unset state and build twice"
                            ),
                        )
                    )
                    continue
                if in_thread:
                    seen_sites.add(site)
                    findings.append(
                        Finding(
                            path=info.relpath,
                            line=write.line,
                            col=write.col + 1,
                            rule="RL601",
                            message=(
                                f"module-level {write.display!r} written "
                                f"without a lock in {short}(), which runs "
                                "in thread-pool context; concurrent "
                                "workers race on it"
                            ),
                        )
                    )
                elif in_loop and write.qualified in thread_touched:
                    seen_sites.add(site)
                    findings.append(
                        Finding(
                            path=info.relpath,
                            line=write.line,
                            col=write.col + 1,
                            rule="RL601",
                            message=(
                                f"module-level {write.display!r} written "
                                f"without a lock in {short}() on the "
                                "event loop while thread-pool code also "
                                "touches it"
                            ),
                        )
                    )
        return findings

    def _check_transitive_blocking(
        self, edges: Dict[str, List[Tuple[str, int, int]]]
    ) -> List[Finding]:
        # Transitive "does this sync function block?" closure.
        blocking_cache: Dict[str, Optional[str]] = {}

        def closure_blocking(key: str, trail: Set[str]) -> Optional[str]:
            """A human-readable chain to a blocking call, or None."""
            if key in blocking_cache:
                return blocking_cache[key]
            if key in trail:
                return None
            info = self._functions.get(key)
            if info is None:
                return None
            if info.blocking:
                chain = f"{key} -> {info.blocking[0]}()"
                blocking_cache[key] = chain
                return chain
            trail.add(key)
            for callee, _line, _col in edges.get(key, ()):
                callee_info = self._functions.get(callee)
                if callee_info is None or callee_info.is_async:
                    continue
                chain = closure_blocking(callee, trail)
                if chain is not None:
                    chain = f"{key} -> {chain}"
                    blocking_cache[key] = chain
                    return chain
            blocking_cache[key] = None
            return None

        findings: List[Finding] = []
        for info in self._functions.values():
            if not info.is_async:
                continue
            for callee, line, col in edges.get(info.key, ()):
                callee_info = self._functions.get(callee)
                if callee_info is None or callee_info.is_async:
                    continue
                chain = closure_blocking(callee, set())
                if chain is None:
                    continue
                findings.append(
                    Finding(
                        path=info.relpath,
                        line=line,
                        col=col + 1,
                        rule="RL505",
                        message=(
                            f"async def {info.key.rsplit('.', 1)[-1]} "
                            f"calls a blocking function: {chain}; move "
                            "the call off-loop with run_in_executor or "
                            "make the callee non-blocking"
                        ),
                    )
                )
        return findings


# ----------------------------------------------------------------------
# per-file lock discipline (RL602)
# ----------------------------------------------------------------------


def _check_lock_discipline(
    ctx: FileContext, klass: ast.ClassDef
) -> List[Finding]:
    lock_attrs = _class_lock_attrs(ctx, klass)
    if not lock_attrs:
        return []

    guarded_writes: Set[str] = set()
    accesses: List[Tuple[str, ast.AST, bool, bool, str]] = []
    # (field, node, guarded, is_write, method name)

    for method in klass.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        guarded_nodes = _nodes_under_lock(ctx, method, lock_attrs)
        for node in _own_nodes(method):
            field_name, is_write = _self_field_access(node, lock_attrs)
            if field_name is None:
                continue
            guarded = id(node) in guarded_nodes
            if guarded and is_write and method.name not in _EXEMPT_METHODS:
                guarded_writes.add(field_name)
            accesses.append((field_name, node, guarded, is_write, method.name))

    findings: List[Finding] = []
    seen: Set[Tuple[int, str]] = set()
    for field_name, node, guarded, _is_write, method_name in accesses:
        if field_name not in guarded_writes:
            continue
        if guarded or method_name in _EXEMPT_METHODS:
            continue
        site = (node.lineno, field_name)
        if site in seen:
            continue
        seen.add(site)
        findings.append(
            ctx.finding(
                node,
                "RL602",
                f"self.{field_name} is written under {klass.name}'s lock "
                f"elsewhere but touched without it in {method_name}(); "
                "take the lock here too",
            )
        )
    return findings


def _class_lock_attrs(ctx: FileContext, klass: ast.ClassDef) -> Set[str]:
    attrs: Set[str] = set()
    for node in ast.walk(klass):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        factory = expanded_name(ctx, node.value.func) or ""
        if not factory.startswith("threading."):
            continue
        if factory.rsplit(".", 1)[-1] not in (
            "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"
        ):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


def _nodes_under_lock(
    ctx: FileContext, method: ast.AST, lock_attrs: Set[str]
) -> Set[int]:
    """ids of nodes lexically inside ``with self.<lock>:`` blocks."""
    guarded: Set[int] = set()
    for node in _own_nodes(method):
        if not isinstance(node, ast.With):
            continue
        if not any(
            isinstance(item.context_expr, ast.Attribute)
            and isinstance(item.context_expr.value, ast.Name)
            and item.context_expr.value.id == "self"
            and item.context_expr.attr in lock_attrs
            for item in node.items
        ):
            continue
        for inner in ast.walk(node):
            guarded.add(id(inner))
    return guarded


def _self_field_access(
    node: ast.AST, lock_attrs: Set[str]
) -> Tuple[Optional[str], bool]:
    """``(field, is_write)`` when ``node`` touches ``self.<field>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr not in lock_attrs
    ):
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return node.attr, True
        # Plain reads count too: only fields *written under the lock*
        # ever become protected, so method references never match.
        return node.attr, False
    if isinstance(node, ast.Subscript) and _is_self_attr(node.value, lock_attrs):
        return node.value.attr, isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and _is_self_attr(func.value, lock_attrs)
        ):
            return func.value.attr, func.attr in MUTATING_METHODS
    if isinstance(node, ast.AugAssign) and _is_self_attr(
        node.target, lock_attrs
    ):
        return node.target.attr, True
    return None, False


def _is_self_attr(node: ast.AST, lock_attrs: Set[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr not in lock_attrs
    )


# ----------------------------------------------------------------------
# collection helpers
# ----------------------------------------------------------------------


def _module_level_names(ctx: FileContext) -> Tuple[Set[str], Set[str]]:
    """``(assigned names, names bound to threading.local())``."""
    names: Set[str] = set()
    threadlocal: Set[str] = set()
    for node in ctx.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            names.add(target.id)
            value = getattr(node, "value", None)
            if isinstance(value, ast.Call):
                factory = expanded_name(ctx, value.func) or ""
                if factory in ("threading.local", "contextvars.ContextVar"):
                    threadlocal.add(target.id)
    return names, threadlocal


def _local_class_names(ctx: FileContext) -> Set[str]:
    return {
        node.name
        for node in ctx.tree.body
        if isinstance(node, ast.ClassDef)
    }


def _local_function_names(ctx: FileContext) -> Set[str]:
    return {
        node.name
        for node in ctx.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _normalize_type(
    ctx: FileContext, name: Optional[str], modkey: str
) -> Optional[str]:
    if name is None:
        return None
    if "." not in name and name in _local_class_names(ctx):
        return f"{modkey}.{name}"
    return name


def _type_from_call(
    ctx: FileContext, value: ast.AST, modkey: str
) -> Optional[str]:
    if not isinstance(value, ast.Call):
        return None
    name = expanded_name(ctx, value.func)
    if name is None:
        return None
    head = name.rsplit(".", 1)[-1]
    if not head[:1].isupper():
        return None  # heuristically a function, not a constructor
    return _normalize_type(ctx, name, modkey)


def _type_from_annotation(
    ctx: FileContext, annotation: Optional[ast.AST], modkey: str
) -> Optional[str]:
    if annotation is None:
        return None
    node: ast.AST = annotation
    # Unwrap Optional[T] / "Optional" subscripts one level.
    if isinstance(node, ast.Subscript):
        base = expanded_name(ctx, node.value) or ""
        if base.rsplit(".", 1)[-1] != "Optional":
            return None
        node = node.slice
    name = expanded_name(ctx, node)
    return _normalize_type(ctx, name, modkey)


def _module_var_types(ctx: FileContext, modkey: str) -> Dict[str, str]:
    types: Dict[str, str] = {}
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                inferred = _type_from_call(ctx, node.value, modkey)
                if inferred is not None:
                    types[target.id] = inferred
    return types


def _class_attr_types(
    ctx: FileContext, klass: ast.ClassDef, modkey: str
) -> Dict[str, str]:
    types: Dict[str, str] = {}
    for node in ast.walk(klass):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                inferred = _type_from_call(ctx, node.value, modkey)
                if inferred is not None:
                    types[target.attr] = inferred
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                inferred = _type_from_annotation(ctx, node.annotation, modkey)
                if inferred is not None:
                    types[target.attr] = inferred
    return types


def _local_var_types(
    ctx: FileContext, function: ast.AST, modkey: str
) -> Dict[str, str]:
    types: Dict[str, str] = {}
    for node in _own_nodes(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                inferred = _type_from_call(ctx, node.value, modkey)
                if inferred is not None:
                    types[target.id] = inferred
    return types


def _receiver_type(
    ctx: FileContext,
    node: ast.AST,
    class_name: Optional[str],
    attr_types: Dict[str, str],
    local_types: Dict[str, str],
    module_var_types: Dict[str, str],
) -> Optional[str]:
    if isinstance(node, ast.Name):
        return local_types.get(node.id) or module_var_types.get(node.id)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return attr_types.get(node.attr)
    return None


def _resolve_callable(
    ctx: FileContext,
    node: ast.AST,
    modkey: str,
    class_name: Optional[str],
    attr_types: Dict[str, str],
    local_types: Dict[str, str],
    module_var_types: Dict[str, str],
    local_classes: Set[str],
    local_functions: Set[str],
) -> Optional[str]:
    """Candidate qualified key for a callable reference, or None."""
    if isinstance(node, ast.Name):
        expanded = expanded_name(ctx, node) or node.id
        if "." not in expanded:
            if expanded in local_functions:
                return f"{modkey}.{expanded}"
            if expanded in local_classes:
                return f"{modkey}.{expanded}"
            return None
        return expanded
    if isinstance(node, ast.Attribute):
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            if class_name is not None:
                return f"{modkey}.{class_name}.{node.attr}"
            return None
        receiver_type = _receiver_type(
            ctx,
            receiver,
            class_name=class_name,
            attr_types=attr_types,
            local_types=local_types,
            module_var_types=module_var_types,
        )
        if receiver_type is not None:
            return f"{receiver_type}.{node.attr}"
        # Plain dotted path (module.func / module.Class).
        expanded = expanded_name(ctx, node)
        if expanded is not None and "." in expanded:
            return expanded
    return None


def _match_key(
    candidate: Optional[str],
    functions: Dict[str, "_FunctionInfo"],
    reexports: Dict[str, str],
) -> Optional[str]:
    for _hop in range(4):  # bounded re-export chase
        if candidate is None:
            return None
        if candidate in functions:
            return candidate
        constructor = f"{candidate}.__init__"
        if constructor in functions:
            return constructor
        # ``pkg.Class.method`` where ``pkg.Class`` is a re-export.
        head, _, tail = candidate.rpartition(".")
        if head in reexports and candidate not in reexports:
            candidate = f"{reexports[head]}.{tail}"
            continue
        candidate = reexports.get(candidate)
    return None


def _spawned_callable(
    ctx: FileContext,
    call: ast.Call,
    resolve_receiver_type,
) -> Optional[ast.AST]:
    """The callable expression this call hands to a worker thread."""
    name = expanded_name(ctx, call.func) or ""
    if name == "threading.Thread":
        for keyword in call.keywords:
            if keyword.arg == "target":
                return keyword.value
        if len(call.args) >= 2:
            return call.args[1]
        return None
    if name == "asyncio.to_thread" and call.args:
        return call.args[0]
    if isinstance(call.func, ast.Attribute):
        if call.func.attr == "run_in_executor" and len(call.args) >= 2:
            return call.args[1]
        if call.func.attr == "submit" and call.args:
            receiver_type = resolve_receiver_type(call.func.value)
            if receiver_type in _THREAD_POOL_TYPES:
                return call.args[0]
    return None


def _lazy_init_writes(
    ctx: FileContext, function: ast.AST, declared_global: Set[str]
) -> Set[int]:
    """ids of Name-store nodes that are the body of ``if x is None:``."""
    lazy: Set[int] = set()
    for node in _own_nodes(function):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and isinstance(test.left, ast.Name)
        ):
            continue
        checked = test.left.id
        if checked not in declared_global:
            continue
        for statement in node.body:
            if (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and statement.targets[0].id == checked
                and isinstance(statement.value, ast.Call)
            ):
                lazy.add(id(statement.targets[0]))
    return lazy


def _make_write(
    ctx: FileContext,
    node: ast.AST,
    modkey: str,
    name: str,
    lock_names: Set[str],
    lock_attrs: Set[str],
    lazy_writes: Set[int],
) -> _GlobalWrite:
    guarded = False
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.With) and any(
            is_sync_lock_expr(ctx, item.context_expr, lock_names, lock_attrs)
            for item in ancestor.items
        ):
            guarded = True
            break
    return _GlobalWrite(
        qualified=f"{modkey}::{name}",
        display=name,
        line=node.lineno,
        col=node.col_offset,
        guarded=guarded,
        lazy=id(node) in lazy_writes,
    )


def check(ctx: FileContext, config: LintConfig) -> List[Finding]:
    """Standalone per-file entry point (RL602 only); the engine uses
    :class:`ConcurrencyChecker` directly for the cross-module rules."""
    checker = ConcurrencyChecker()
    return checker.check_file(ctx, config)
