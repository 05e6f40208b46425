"""Registry-based compute-backend seam for the hot-path kernels.

The simulator's top kernels — the wideband dictionary products, batched
channel sampling, and the array-factor product — are dispatched through a named backend instead
of being hard-wired to NumPy:

* ``"numpy"`` (default) — the reference implementation in
  :mod:`repro.perf.kernels_numpy`; bitwise-identical to the pre-seam
  call-site code.
* ``"numba"`` — JIT-compiled loop kernels in
  :mod:`repro.perf.kernels_numba`; registered always, *available* only
  when numba imports.  Selecting an unavailable backend falls back to
  the reference with a one-time warning (and a
  ``perf.backend.fallback`` counter), never an error.

Selection precedence: an explicit ``use_backend(...)`` /
``set_backend(...)`` on the current thread beats the ``REPRO_BACKEND``
environment variable, which beats the ``"numpy"`` default.  The active
backend is thread-scoped so concurrent serve jobs can run under
different backends; process-pool ensemble workers inherit the choice
through ``REPRO_BACKEND`` (the CLI exports it for ``--backend``).

Every dispatched call bumps ``perf.backend.<backend>.<kernel>`` on the
active telemetry recorder, recording which backend *actually served*
the call — fallback included.  Kernels themselves are pure functions of
their arrays (lint rules RL310/RL311); all accounting lives here.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Set

from repro.perf.kernels_numba import KERNELS as _NUMBA_KERNELS
from repro.perf.kernels_numba import NUMBA_AVAILABLE as _NUMBA_AVAILABLE
from repro.perf.kernels_numpy import KERNELS as _NUMPY_KERNELS

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "ComputeBackend",
    "available_backends",
    "dispatch",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

#: Environment knob consulted when no backend is active on the thread.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The reference backend every other backend must agree with.
DEFAULT_BACKEND = "numpy"


class ComputeBackend:
    """One named kernel set.

    ``kernels`` maps kernel names to pure functions; a backend may
    implement a subset, in which case :func:`dispatch` serves the
    missing kernels from the reference backend.  ``available`` is
    False when the backend's runtime dependency (``requires``) is not
    importable — the backend stays *registered* so selection gives a
    useful fallback warning instead of an unknown-name error.
    """

    def __init__(
        self,
        name: str,
        kernels: Mapping[str, Callable[..., object]],
        available: bool = True,
        requires: Optional[str] = None,
    ) -> None:
        if not name:
            raise ValueError("backend name must be non-empty")
        self.name = name
        self.kernels: Dict[str, Callable[..., object]] = dict(kernels)
        self.available = bool(available)
        self.requires = requires

    def __repr__(self) -> str:
        state = "available" if self.available else (
            f"unavailable (needs {self.requires})"
        )
        return (
            f"ComputeBackend({self.name!r}, {len(self.kernels)} kernels, "
            f"{state})"
        )


#: Process-wide registry of every known backend, keyed by name.
_BACKENDS: Dict[str, ComputeBackend] = {}

#: Backends whose unavailability we already warned about (once each).
#: Guarded by ``_WARNED_LOCK``: resolve_backend runs on serve's worker
#: threads, and an unlocked check-then-add races under concurrency.
_WARNED: Set[str] = set()
_WARNED_LOCK = threading.Lock()

#: Per-thread stack of explicitly activated backends.
_ACTIVE = threading.local()


def register_backend(backend: ComputeBackend) -> ComputeBackend:
    """Add a backend to the registry; the name must be new."""
    if backend.name in _BACKENDS:
        raise ValueError(f"a backend named {backend.name!r} already exists")
    _BACKENDS[backend.name] = backend
    return backend


def available_backends() -> Dict[str, bool]:
    """Registered backend names -> whether each is currently usable."""
    return {
        name: backend.available
        for name, backend in sorted(_BACKENDS.items())
    }


def resolve_backend(name: Optional[str] = None) -> ComputeBackend:
    """The backend a request for ``name`` actually gets.

    ``None`` consults ``REPRO_BACKEND``, then the default.  Unknown
    names raise :class:`ValueError`; known-but-unavailable backends
    fall back to the reference with a one-time warning and a
    ``perf.backend.fallback`` telemetry counter.
    """
    requested = name
    if requested is None:
        requested = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    requested = requested.strip().lower()
    try:
        backend = _BACKENDS[requested]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(
            f"unknown compute backend {requested!r}; known: {known}"
        ) from None
    if backend.available:
        return backend
    with _WARNED_LOCK:
        first_fallback = backend.name not in _WARNED
        if first_fallback:
            _WARNED.add(backend.name)
    if first_fallback:
        needs = f" (install {backend.requires})" if backend.requires else ""
        warnings.warn(
            f"compute backend {backend.name!r} is unavailable{needs}; "
            f"falling back to {DEFAULT_BACKEND!r}",
            RuntimeWarning,
            stacklevel=2,
        )
    from repro.telemetry import get_recorder

    recorder = get_recorder()
    if recorder.enabled:
        recorder.counter("perf.backend.fallback").inc()
    return _BACKENDS[DEFAULT_BACKEND]


def get_backend() -> ComputeBackend:
    """The backend serving this thread's kernel calls right now."""
    stack: List[ComputeBackend] = getattr(_ACTIVE, "stack", [])
    if stack:
        return stack[-1]
    return resolve_backend(None)


def set_backend(name: Optional[str]) -> ComputeBackend:
    """Pin the thread's active backend (``None`` re-resolves env/default).

    Prefer :func:`use_backend` for scoped activation; this sticks until
    the next :func:`set_backend` on the same thread.
    """
    backend = resolve_backend(name)
    _ACTIVE.stack = [backend]
    return backend


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[ComputeBackend]:
    """Activate a backend for the current thread within a ``with`` block."""
    backend = resolve_backend(name)
    stack: List[ComputeBackend] = getattr(_ACTIVE, "stack", None) or []
    _ACTIVE.stack = stack
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()


def dispatch(kernel: str, *args: Any) -> Any:
    """Run ``kernel`` on the active backend and account for the call.

    A backend that does not implement ``kernel`` is transparently
    served by the reference backend.  The ``perf.backend.<served>.
    <kernel>`` counter records who actually ran it (only when telemetry
    is enabled — disabled runs pay a single attribute check).
    """
    backend = get_backend()
    function = backend.kernels.get(kernel)
    if function is None:
        reference = _BACKENDS[DEFAULT_BACKEND]
        function = reference.kernels[kernel]
        served = reference.name
    else:
        served = backend.name
    from repro.telemetry import get_recorder

    recorder = get_recorder()
    if recorder.enabled:
        recorder.counter(f"perf.backend.{served}.{kernel}").inc()
    return function(*args)


register_backend(
    ComputeBackend(DEFAULT_BACKEND, _NUMPY_KERNELS)
)
register_backend(
    ComputeBackend(
        "numba",
        _NUMBA_KERNELS,
        available=_NUMBA_AVAILABLE,
        requires="numba",
    )
)
