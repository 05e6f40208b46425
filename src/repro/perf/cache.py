"""Keyed, size-bounded caches for the hot-path kernels.

The simulator rebuilds the same small dense objects — steering vectors,
single-beam weight vectors, beam codebooks, super-resolution sinc/DFT
dictionaries — thousands of times per simulated second.  All of them are
pure functions of hashable inputs (frozen array geometry, float angles,
grid specs, bandwidths), so a bounded LRU keyed on those inputs removes
the rebuild cost without changing a single bit of output.

Every cache registers itself in a process-wide registry:

* :func:`clear_caches` invalidates everything (or one cache by name) —
  required after monkeypatching kernel internals in tests;
* :func:`cache_stats` snapshots hit/miss/size per cache (the repository
  benchmark reads it for its ``perf.cache.hit_ratio``).

Cached ``ndarray`` values are frozen (``writeable=False``) before being
shared; callers must copy before mutating (none of the hot paths do).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, TypeVar, cast

import numpy as np
import numpy.typing as npt

_T = TypeVar("_T")

#: Process-wide registry of every live cache, keyed by cache name.
#: Guarded by ``_REGISTRY_LOCK``: caches register at import time today,
#: but serve worker threads snapshot/clear the registry concurrently.
_REGISTRY: Dict[str, "BoundedCache"] = {}
_REGISTRY_LOCK = threading.Lock()


def _freeze(value: _T) -> _T:
    """Make shared cache values safe: freeze ndarrays in place."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


class BoundedCache:
    """A named, size-bounded LRU cache with hit/miss tallies.

    Thread-safe: the serve layer's worker threads hit the process-wide
    caches concurrently, so every read-modify-write on the LRU order,
    the size bound, and the hit/miss tallies happens under one
    re-entrant lock.  A miss builds *inside* the lock — concurrent
    requests for the same key therefore build exactly once, trading a
    little build-time serialization for single-build semantics (the
    cached kernels build in microseconds-to-milliseconds).

    Parameters
    ----------
    name:
        Registry key; also names the cache in :func:`cache_stats`.
    maxsize:
        Entry bound; the least recently used entry is evicted first.
    """

    def __init__(self, name: str, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize!r}")
        self.name = name
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.lookups = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        with _REGISTRY_LOCK:
            if name in _REGISTRY:
                raise ValueError(f"a cache named {name!r} already exists")
            _REGISTRY[name] = self

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_build(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The cached value for ``key``, building and storing on a miss."""
        with self._lock:
            self.lookups += 1
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                built = _freeze(build())
                self._entries[key] = built
                if len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                return built
            self.hits += 1
            self._entries.move_to_end(key)
            # The registry is type-erased: every entry for ``key`` was
            # built by this method with the same build callable.
            return cast(_T, value)

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (hit/miss tallies are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "lookups": self.lookups,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }


def registered_caches() -> Dict[str, "BoundedCache"]:
    """A point-in-time copy of the cache registry (name -> cache)."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


def clear_caches(name: Optional[str] = None) -> None:
    """Invalidate every registered cache, or just the named one."""
    if name is not None:
        with _REGISTRY_LOCK:
            cache = _REGISTRY[name]
        cache.clear()
        return
    for cache in registered_caches().values():
        cache.clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size snapshot of every registered cache."""
    return {
        name: cache.stats()
        for name, cache in sorted(registered_caches().items())
    }


def array_key(values: npt.ArrayLike) -> bytes:
    """A hashable key for a float/complex array's exact contents."""
    return np.asarray(values).tobytes()
