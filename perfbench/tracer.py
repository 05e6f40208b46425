"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer from outside the
library: methods are replaced on their defining class, and module-level
functions are replaced in every loaded module that binds them by name
(``repro.core.tracking`` imports ``invert_pattern_offset`` that way, and
``repro.serve.server`` imports ``execute_job``).  Nothing under ``src/``
is edited, and :meth:`Tracer.uninstall` restores every original.

Each wrapped call is one span.  Spans nest on a thread-local parent
stack, because serve jobs run on worker threads and journal appends on
the journal thread.  For every span the tracer keeps, aggregated per
operation:

* ``calls`` and ``self_s`` -- the span's duration minus the time its
  direct child spans cover, so self times of all spans on a thread sum
  to the time that thread spent inside top-level spans;
* the layer's ``busy_s`` -- time with at least one span of the layer on
  the stack (nested calls of the same layer are not counted twice);
* layer counters filled by a per-operation ``count`` callback from the
  call's arguments and result (probes sounded, samples evaluated, ...).

Spans are aggregated as they close rather than kept one by one: the
mobile ensemble opens hundreds of thousands per run.  The wrappers read
the clock and the call's arguments and results; they draw no random
numbers, which the benchmark's determinism pin checks.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``count(counters, args, kwargs, result, parent_op)``; ``result`` is
#: :data:`FAILED` when the call raised.
CountFn = Callable[[Dict[str, float], tuple, dict, Any, Optional[str]], None]

FAILED = object()


class OpStats:
    """Aggregated spans of one wrapped operation on one thread."""

    __slots__ = ("calls", "self_s", "total_s", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations: Optional[List[float]] = [] if keep_durations else None


class ThreadTrace:
    """One thread's parent stack and aggregates."""

    def __init__(self, ident: int) -> None:
        self.ident = ident
        #: Open spans, innermost last: ``[op, child_seconds]``.
        self.stack: List[list] = []
        self.depth: Dict[str, int] = {}
        self.ops: Dict[str, OpStats] = {}
        self.busy: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        #: Time inside top-level spans (spans with no open parent).
        self.top_level_s = 0.0


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[ThreadTrace] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._layers: Dict[str, str] = {}
        self._keep_durations: set = set()
        self.main_ident = threading.get_ident()

    # ------------------------------------------------------------------
    # installation

    def _thread(self) -> ThreadTrace:
        try:
            return self._local.trace
        except AttributeError:
            trace = ThreadTrace(threading.get_ident())
            self._local.trace = trace
            with self._lock:
                self._threads.append(trace)
            return trace

    def _wrap(
        self, layer: str, op: str, function: Callable, count: Optional[CountFn]
    ) -> Callable:
        thread_trace = self._thread
        keep = op in self._keep_durations
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            trace = thread_trace()
            stack = trace.stack
            parent = stack[-1][0] if stack else None
            frame = [op, 0.0]
            stack.append(frame)
            depth = trace.depth
            depth[layer] = depth.get(layer, 0) + 1
            result = FAILED
            start = clock()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    trace.top_level_s += elapsed
                stats = trace.ops.get(op)
                if stats is None:
                    stats = trace.ops[op] = OpStats(keep)
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                stats.total_s += elapsed
                if stats.durations is not None:
                    stats.durations.append(elapsed)
                if depth[layer] == 0:
                    trace.busy[layer] = trace.busy.get(layer, 0.0) + elapsed
                if count is not None:
                    count(trace.counters, args, kwargs, result, parent)

        return traced

    def method(
        self,
        cls: type,
        name: str,
        layer: str,
        count: Optional[CountFn] = None,
        keep_durations: bool = False,
    ) -> None:
        """Trace ``cls.name``; the method must be defined on ``cls``."""
        original = cls.__dict__[name]
        op = f"{layer}.{cls.__name__}.{name}"
        self._register(op, layer, keep_durations)
        setattr(cls, name, self._wrap(layer, op, original, count))
        self._patches.append((cls, name, original))

    def function(
        self,
        function: Callable,
        layer: str,
        count: Optional[CountFn] = None,
    ) -> None:
        """Trace a module-level function wherever a module binds it."""
        op = f"{layer}.{function.__name__}"
        self._register(op, layer, keep_durations=False)
        wrapped = self._wrap(layer, op, function, count)
        bound = 0
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attribute, value in list(namespace.items()):
                if value is function:
                    setattr(module, attribute, wrapped)
                    self._patches.append((module, attribute, function))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{op}: no loaded module binds the function")

    def _register(self, op: str, layer: str, keep_durations: bool) -> None:
        if op in self._layers:
            raise ValueError(f"{op} is already traced")
        self._layers[op] = layer
        if keep_durations:
            self._keep_durations.add(op)

    def uninstall(self) -> None:
        """Put every original back (newest patch first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # results

    def report(self, wall_s: float) -> "TraceReport":
        """Merge every thread's aggregates; ``wall_s`` is the driving
        thread's wall time over the traced window."""
        with self._lock:
            threads = list(self._threads)
        ops: Dict[str, Dict[str, Any]] = {}
        busy: Dict[str, float] = {}
        counters: Dict[str, float] = {}
        main_top_level_s = 0.0
        other_top_level_s = 0.0
        for trace in threads:
            if trace.stack:
                raise RuntimeError("a traced span is still open")
            for op, stats in trace.ops.items():
                merged = ops.setdefault(
                    op, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                         "durations": []},
                )
                merged["calls"] += stats.calls
                merged["self_s"] += stats.self_s
                merged["total_s"] += stats.total_s
                if stats.durations is not None:
                    merged["durations"].extend(stats.durations)
            for layer, seconds in trace.busy.items():
                busy[layer] = busy.get(layer, 0.0) + seconds
            for name, value in trace.counters.items():
                counters[name] = counters.get(name, 0.0) + value
            if trace.ident == self.main_ident:
                main_top_level_s += trace.top_level_s
            else:
                other_top_level_s += trace.top_level_s
        return TraceReport(
            wall_s=wall_s,
            ops=ops,
            layers=dict(self._layers),
            busy=busy,
            counters=counters,
            main_attributed_s=main_top_level_s,
            other_threads_s=other_top_level_s,
        )


class TraceReport:
    """Merged span aggregates of one traced window."""

    def __init__(
        self,
        wall_s: float,
        ops: Dict[str, Dict[str, Any]],
        layers: Dict[str, str],
        busy: Dict[str, float],
        counters: Dict[str, float],
        main_attributed_s: float,
        other_threads_s: float,
    ) -> None:
        self.wall_s = wall_s
        self.ops = ops
        self.busy = busy
        self.counters = counters
        self.main_attributed_s = main_attributed_s
        self.other_threads_s = other_threads_s
        self._layer_of = layers

    def op(self, op: str) -> Dict[str, Any]:
        return self.ops.get(
            op, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
        )

    def ops_of(self, layer: str) -> List[str]:
        return [op for op, owner in self._layer_of.items() if owner == layer]

    def calls(self, layer: str) -> int:
        return sum(self.op(op)["calls"] for op in self.ops_of(layer))

    def self_s(self, layer: str) -> float:
        return sum(self.op(op)["self_s"] for op in self.ops_of(layer))

    def busy_s(self, layer: str) -> float:
        return self.busy.get(layer, 0.0)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    @property
    def unattributed_s(self) -> float:
        """Driving-thread wall time outside every traced span."""
        return self.wall_s - self.main_attributed_s

    @property
    def thread_s(self) -> float:
        """What the self times and ``unattributed_s`` sum to: the
        driving thread's wall time plus the span time of other threads
        (serve workers and the journal thread)."""
        return self.wall_s + self.other_threads_s

    @property
    def attributed_share(self) -> float:
        if self.thread_s <= 0:
            return 0.0
        return (self.main_attributed_s + self.other_threads_s) / self.thread_s
