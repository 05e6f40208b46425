"""Tests for the bounded hot-path caches.

Covers the perf contract: keyed reuse, LRU bounding, explicit
invalidation, hit/miss tallies, and value freezing.
"""

import numpy as np
import pytest

from repro.perf import BoundedCache, array_key, cache_stats, clear_caches
from repro.perf.cache import _REGISTRY


@pytest.fixture
def cache():
    name = "test.cache.scratch"
    _REGISTRY.pop(name, None)
    cache = BoundedCache(name, maxsize=3)
    yield cache
    _REGISTRY.pop(name, None)


class TestBoundedCache:
    def test_build_once_then_hit(self, cache):
        builds = []

        def build():
            builds.append(1)
            return np.arange(4.0)

        first = cache.get_or_build("k", build)
        second = cache.get_or_build("k", build)
        assert first is second
        assert len(builds) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_values_are_frozen(self, cache):
        value = cache.get_or_build("k", lambda: np.arange(3.0))
        with pytest.raises(ValueError):
            value[0] = 99.0

    def test_bounded_size_evicts_lru(self, cache):
        for key in "abc":
            cache.get_or_build(key, lambda: key)
        # Touch "a" so "b" becomes least recently used, then overflow.
        cache.get_or_build("a", lambda: "a")
        cache.get_or_build("d", lambda: "d")
        assert len(cache) == 3
        rebuilds = []
        cache.get_or_build("b", lambda: rebuilds.append(1) or "b")
        assert rebuilds, "evicted entry must be rebuilt"
        cache.get_or_build("a", lambda: rebuilds.append(1) or "a")
        assert len(rebuilds) == 1, "recently used entry must survive"

    def test_invalidate_single_key(self, cache):
        cache.get_or_build("k", lambda: 1)
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        builds = []
        cache.get_or_build("k", lambda: builds.append(1) or 2)
        assert builds

    def test_clear_caches_by_name_and_globally(self, cache):
        cache.get_or_build("k", lambda: 1)
        clear_caches(cache.name)
        assert len(cache) == 0
        cache.get_or_build("k", lambda: 1)
        clear_caches()
        assert len(cache) == 0

    def test_stats_snapshot(self, cache):
        cache.get_or_build("k", lambda: 1)
        cache.get_or_build("k", lambda: 1)
        stats = cache_stats()[cache.name]
        assert stats == {
            "hits": 1, "misses": 1, "lookups": 2, "size": 1, "maxsize": 3,
        }

    def test_duplicate_name_rejected(self, cache):
        with pytest.raises(ValueError, match="already exists"):
            BoundedCache(cache.name)

    def test_maxsize_validated(self):
        with pytest.raises(ValueError, match="maxsize"):
            BoundedCache("test.cache.bad", maxsize=0)


class TestArrayKey:
    def test_distinguishes_contents(self):
        assert array_key([1.0, 2.0]) == array_key(np.array([1.0, 2.0]))
        assert array_key([1.0, 2.0]) != array_key([1.0, 2.0 + 1e-12])


class TestLiveCaches:
    def test_steering_single_beam_cache_hits(self):
        from repro.arrays import UniformLinearArray
        from repro.arrays.steering import _WEIGHTS_CACHE, single_beam_weights

        array = UniformLinearArray(num_elements=8)
        _WEIGHTS_CACHE.clear()
        first = single_beam_weights(array, 0.123)
        second = single_beam_weights(array, 0.123)
        assert first is second
        other = single_beam_weights(
            UniformLinearArray(num_elements=16), 0.123
        )
        assert other.shape == (16,)

    def test_multibeam_weights_cache_and_invalidation(self):
        from repro.arrays import UniformLinearArray
        from repro.core.multibeam import _WEIGHTS_CACHE, MultiBeam

        array = UniformLinearArray(num_elements=8)
        beam = MultiBeam(
            array=array,
            angles_rad=(0.0, 0.3),
            relative_gains=(1.0 + 0j, 0.5 + 0j),
        )
        _WEIGHTS_CACHE.clear()
        first = beam.weights()
        assert _WEIGHTS_CACHE.misses >= 1
        hits_before = _WEIGHTS_CACHE.hits
        second = beam.weights()
        assert _WEIGHTS_CACHE.hits == hits_before + 1
        np.testing.assert_array_equal(first.vector, second.vector)
        clear_caches("multibeam.weights")
        assert len(_WEIGHTS_CACHE) == 0
        third = beam.weights()
        np.testing.assert_array_equal(first.vector, third.vector)

    def test_codebook_cache_returns_equal_beams(self):
        from repro.arrays import UniformLinearArray, uniform_codebook

        array = UniformLinearArray(num_elements=8)
        clear_caches("arrays.codebook")
        first = uniform_codebook(array, 9)
        second = uniform_codebook(array, 9)
        assert first is second


class TestConcurrency:
    """The serve thread pool hammers the process-wide caches; the lock
    must keep the LRU bound and the hit/miss tallies consistent."""

    @pytest.fixture
    def shared(self):
        name = "test.cache.concurrent"
        _REGISTRY.pop(name, None)
        cache = BoundedCache(name, maxsize=8)
        yield cache
        _REGISTRY.pop(name, None)

    def _hammer(self, cache, num_threads, calls_per_thread, key_space):
        import threading

        builds = []
        build_lock = threading.Lock()
        barrier = threading.Barrier(num_threads)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(calls_per_thread):
                    key = int(rng.integers(key_space))

                    def build(key=key):
                        with build_lock:
                            builds.append(key)
                        return np.full(4, float(key))

                    value = cache.get_or_build(key, build)
                    assert value[0] == float(key)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        return builds

    def test_tallies_stay_consistent_under_contention(self, shared):
        num_threads, calls = 8, 200
        builds = self._hammer(shared, num_threads, calls, key_space=32)
        total = num_threads * calls
        # Every call is exactly one hit or one miss, and every miss ran
        # exactly one build (no lost updates, no double builds).
        assert shared.hits + shared.misses == total
        assert shared.misses == len(builds)
        assert shared.hits == total - len(builds)

    def test_eviction_bound_holds_under_contention(self, shared):
        self._hammer(shared, 8, 200, key_space=64)
        assert len(shared) <= shared.maxsize
        assert shared.stats()["size"] <= shared.maxsize

    def test_single_build_per_key_when_keys_fit(self, shared):
        # Key space within maxsize: no evictions, so each key must have
        # been built exactly once no matter how many threads raced it.
        builds = self._hammer(shared, 8, 100, key_space=8)
        assert sorted(set(builds)) == sorted(builds)
