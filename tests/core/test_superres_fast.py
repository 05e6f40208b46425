"""Differential tests: the stacked super-resolution search vs the oracle.

The resolver enumerates every candidate of a round into one tensor,
reuses the CIR-independent half of their ridge problems across rounds,
and solves all of them with a single batched ``np.linalg.solve``.  It
must enumerate the candidates of the per-candidate oracle
(``superres_oracle``) in the same order, pick the same anchor under the
same tie-breaking, and agree numerically to the documented 1e-9
tolerance.  Reusing cached factorizations must not change a bit.
"""

import numpy as np
import pytest

import superres_oracle as oracle
from repro.channel.wideband import (
    dirichlet_dictionary,
    sampled_cir,
    sinc_dictionary,
    stacked_dirichlet_dictionaries,
    stacked_sinc_dictionaries,
)
from repro.core.superres import (
    FACTORIZATION_CACHE_SIZE,
    SuperResolver,
    estimate_pulse_tof,
)
from repro.perf import cache_stats, clear_caches

BANDWIDTH = 400e6
RELATIVE = (0.0, 1.2e-9)


def make_resolver(**overrides) -> SuperResolver:
    kwargs = dict(
        bandwidth_hz=BANDWIDTH,
        relative_delays_s=np.array(RELATIVE),
        regularization=1e-4,
    )
    kwargs.update(overrides)
    return SuperResolver(**kwargs)


def noisy_cir(seed: int, alphas, relative=RELATIVE, base=25e-9):
    rng = np.random.default_rng(seed)
    delays = [base + r for r in relative]
    cir = sampled_cir(alphas, delays, BANDWIDTH, 64)
    noise = 1e-3 * (
        rng.standard_normal(cir.size) + 1j * rng.standard_normal(cir.size)
    )
    return cir + noise


def assert_same_result(ours, theirs):
    np.testing.assert_array_equal(ours.alphas, theirs.alphas)
    np.testing.assert_array_equal(ours.delays_s, theirs.delays_s)
    assert ours.residual == theirs.residual


class TestStackedDictionaries:
    def test_dirichlet_matches_per_delay_builds(self):
        delay_sets = np.array([[25e-9, 26.2e-9], [24.5e-9, 25.7e-9]])
        stacked = stacked_dirichlet_dictionaries(delay_sets, BANDWIDTH, 64)
        for c, delays in enumerate(delay_sets):
            naive = oracle.dirichlet_dictionary(delays, BANDWIDTH, 64)
            np.testing.assert_allclose(stacked[c], naive, rtol=1e-12)
            np.testing.assert_allclose(
                dirichlet_dictionary(delays, BANDWIDTH, 64), naive, rtol=1e-12
            )

    def test_sinc_matches_per_delay_builds(self):
        delay_sets = np.array([[25e-9, 26.2e-9], [24.5e-9, 25.7e-9]])
        stacked = stacked_sinc_dictionaries(delay_sets, BANDWIDTH, 64)
        for c, delays in enumerate(delay_sets):
            naive = sinc_dictionary(delays, BANDWIDTH, 64)
            np.testing.assert_array_equal(stacked[c], naive)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            stacked_dirichlet_dictionaries(
                np.array([25e-9, 26e-9]), BANDWIDTH, 64
            )


class TestResolverFastMatchesNaive:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("kernel", ["dirichlet", "sinc"])
    def test_single_estimate(self, seed, kernel):
        cir = noisy_cir(seed, [1.0 + 0j, 0.4 * np.exp(0.7j)])
        fast = make_resolver(kernel=kernel).estimate(cir)
        naive = oracle.estimate(make_resolver(kernel=kernel), cir)
        np.testing.assert_allclose(fast.alphas, naive.alphas, rtol=1e-9)
        np.testing.assert_array_equal(fast.delays_s, naive.delays_s)
        assert fast.residual == pytest.approx(naive.residual, rel=1e-9)

    def test_tracked_sequence_keeps_same_anchor(self):
        fast = make_resolver(initial_base_s=25e-9)
        naive = make_resolver(initial_base_s=25e-9)
        for seed in range(5):
            cir = noisy_cir(seed, [1.0 + 0j, 0.4 * np.exp(0.7j)])
            ours = fast.estimate(cir)
            theirs = oracle.estimate(naive, cir)
            np.testing.assert_allclose(ours.alphas, theirs.alphas, rtol=1e-9)
            assert fast._last_base_s == pytest.approx(
                naive._last_base_s, rel=0, abs=1e-15
            )

    def test_active_subset_matches(self):
        cir = noisy_cir(9, [1.0 + 0j, 0.0j])
        fast = make_resolver().estimate(cir, active_indices=[0])
        naive = oracle.estimate(make_resolver(), cir, active_indices=[0])
        np.testing.assert_allclose(fast.alphas, naive.alphas, rtol=1e-9)
        assert fast.alphas[1] == 0 and naive.alphas[1] == 0


#: (alphas, active beams, base ToF) per round: a steady anchor, each
#: beam in turn going inactive, then a timing jump far past the jitter
#: window (0.55 taps) that forces re-acquisition, then steady again.
ROUNDS = (
    [((1.0, 0.4j), None, 25e-9)] * 4
    + [((1.0, 0.0), [0], 25e-9)] * 2
    + [((0.0, 0.5), [1], 25e-9)]
    + [((1.0, 0.4j), None, 25e-9)] * 2
    + [((1.0, 0.4j), None, 35e-9)] * 3
)


class TestWarmResolver:
    def test_warm_sequence_matches_fresh_resolvers(self):
        warm = make_resolver(initial_base_s=25e-9)
        naive = make_resolver(initial_base_s=25e-9)
        sizes = []
        for seed, (alphas, active, base) in enumerate(ROUNDS):
            cir = noisy_cir(seed, alphas, base=base)
            before = warm._last_base_s
            fresh = make_resolver()
            fresh._last_base_s = before
            ours = warm.estimate(cir, active_indices=active)
            assert_same_result(ours, fresh.estimate(cir, active_indices=active))
            assert warm._last_base_s == fresh._last_base_s
            theirs = oracle.estimate(naive, cir, active_indices=active)
            np.testing.assert_allclose(ours.alphas, theirs.alphas, rtol=1e-9)
            assert warm._last_base_s == pytest.approx(
                naive._last_base_s, rel=0, abs=1e-15
            )
            sizes.append(len(warm._factorizations))
            if seed == 9:
                # Only the argmax anchors reach this far: re-acquired.
                assert abs(warm._last_base_s - before) > warm.jitter_span_s
        # The steady rounds re-solved the first round's cached tensor.
        assert sizes[:4] == [1, 1, 1, 1]
        assert sizes[-1] <= FACTORIZATION_CACHE_SIZE

    def test_cache_stays_bounded(self):
        warm = make_resolver(initial_base_s=25e-9)
        for seed in range(3 * FACTORIZATION_CACHE_SIZE):
            # A steady drift keeps moving the tracked anchor, so rounds
            # keep building new candidate tensors.
            cir = noisy_cir(seed, (1.0, 0.4j), base=25e-9 + seed * 0.25e-9)
            fresh = make_resolver()
            fresh._last_base_s = warm._last_base_s
            assert_same_result(warm.estimate(cir), fresh.estimate(cir))
            assert len(warm._factorizations) <= FACTORIZATION_CACHE_SIZE
        assert len(warm._factorizations) == FACTORIZATION_CACHE_SIZE

    def test_anchors_without_valid_candidates_fit_nothing(self):
        # Every candidate around a far-negative anchor has a negative
        # delay: no fit, and nothing is cached for it.
        resolver = make_resolver()
        cir = noisy_cir(0, (1.0, 0.4j))
        relative = resolver.relative_delays_s
        assert resolver._fit({-1e-6}, relative, cir) is None
        assert len(resolver._factorizations) == 0
        assert resolver._fit({25e-9}, relative, cir) is not None
        assert resolver._fit({25e-9}, relative[:1], cir) is not None
        assert len(resolver._factorizations) == 2


class TestTieBreaking:
    @pytest.mark.parametrize("tracked", [25e-9, None])
    @pytest.mark.parametrize("kernel", ["dirichlet", "sinc"])
    def test_equal_objective_tie_matches_oracle(self, tracked, kernel):
        # A silent CIR fits every candidate with zero alphas: each one
        # scores exactly 0, so every candidate ties.  Tracked, several
        # candidates sit at the tracked anchor (one per spacing offset)
        # and the first of them must win; untracked, the first
        # candidate overall.
        cir = np.zeros(64, dtype=complex)
        ours = make_resolver(kernel=kernel, initial_base_s=tracked)
        theirs = make_resolver(kernel=kernel, initial_base_s=tracked)
        result = ours.estimate(cir)
        expected = oracle.estimate(theirs, cir)
        np.testing.assert_array_equal(result.delays_s, expected.delays_s)
        np.testing.assert_array_equal(result.alphas, expected.alphas)
        assert ours._last_base_s == theirs._last_base_s

    def test_tolerance_ties_go_to_the_tracked_anchor(self):
        # A wide tolerance turns every candidate into a tie with distinct
        # objectives: the candidate closest to the tracked anchor wins.
        cir = noisy_cir(4, [1.0 + 0j, 0.4 * np.exp(0.7j)], base=25.6e-9)
        ours = make_resolver(initial_base_s=25e-9, tie_tolerance=1e6)
        theirs = make_resolver(initial_base_s=25e-9, tie_tolerance=1e6)
        result = ours.estimate(cir)
        expected = oracle.estimate(theirs, cir)
        np.testing.assert_array_equal(result.delays_s, expected.delays_s)
        assert ours._last_base_s == theirs._last_base_s == 25e-9


class TestEstimatePulseTof:
    @pytest.mark.parametrize("kernel", ["dirichlet", "sinc"])
    def test_fast_matches_naive(self, kernel):
        cir = sampled_cir([1.0 + 0.2j], [25.4e-9], BANDWIDTH, 64)
        fast = estimate_pulse_tof(cir, BANDWIDTH, kernel=kernel)
        naive = oracle.estimate_pulse_tof(cir, BANDWIDTH, kernel=kernel)
        assert fast == naive

    def test_keeps_first_of_tied_maxima(self):
        # A symmetric on-grid pulse scores its true delay best on both
        # paths; equality here pins the shared argmax/first-tie rule.
        cir = sampled_cir([1.0], [10 / BANDWIDTH], BANDWIDTH, 64)
        fast = estimate_pulse_tof(cir, BANDWIDTH)
        naive = oracle.estimate_pulse_tof(cir, BANDWIDTH)
        assert fast == naive == pytest.approx(10 / BANDWIDTH, abs=1e-12)

    @pytest.mark.parametrize("taps", [64, 128])
    @pytest.mark.parametrize("kernel", ["dirichlet", "sinc"])
    def test_warm_grid_matches_cold_and_oracle(self, kernel, taps):
        # The scoring grid is cached per coarse tap: a hit must return
        # what a cold build and the per-delay oracle return, and the
        # cache must show in cache_stats().
        for seed, delay in enumerate((25.4e-9, 25.47e-9, 60.1e-9, 0.8e-9)):
            rng = np.random.default_rng(seed)
            cir = sampled_cir([1.0 + 0.2j], [delay], BANDWIDTH, taps)
            cir = cir + 1e-3 * rng.standard_normal(taps)
            clear_caches("superres.tof_grid")
            before = cache_stats()["superres.tof_grid"]
            cold = estimate_pulse_tof(cir, BANDWIDTH, kernel=kernel)
            warm = estimate_pulse_tof(cir, BANDWIDTH, kernel=kernel)
            after = cache_stats()["superres.tof_grid"]
            naive = oracle.estimate_pulse_tof(cir, BANDWIDTH, kernel=kernel)
            assert cold.hex() == warm.hex() == naive.hex()
            assert after["misses"] - before["misses"] == 1
            assert after["hits"] - before["hits"] == 1
            assert after["size"] == 1

    def test_grid_key_separates_kernels_and_tap_counts(self):
        clear_caches("superres.tof_grid")
        for taps in (64, 128):
            cir = sampled_cir([1.0], [25.4e-9], BANDWIDTH, taps)
            for kernel in ("dirichlet", "sinc"):
                assert estimate_pulse_tof(cir, BANDWIDTH, kernel=kernel) == (
                    oracle.estimate_pulse_tof(cir, BANDWIDTH, kernel=kernel)
                )
        assert cache_stats()["superres.tof_grid"]["size"] == 4

    @pytest.mark.parametrize("kernel", ["Dirichlet", "sync", ""])
    def test_unknown_kernel_is_rejected_before_the_grid_cache(self, kernel):
        clear_caches("superres.tof_grid")
        cir = sampled_cir([1.0], [25.43e-9], BANDWIDTH, 64)
        with pytest.raises(ValueError, match="kernel"):
            estimate_pulse_tof(cir, BANDWIDTH, kernel=kernel)
        assert cache_stats()["superres.tof_grid"]["size"] == 0
