"""Performance layer: bounded caches for the hot-path kernels."""

from repro.perf.cache import (
    BoundedCache,
    array_key,
    cache_stats,
    clear_caches,
)

__all__ = [
    "BoundedCache",
    "array_key",
    "cache_stats",
    "clear_caches",
]
