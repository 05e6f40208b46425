"""The sparse geometric multipath channel (paper Eqs. 7, 16, 25-26).

:class:`GeometricChannel` turns a list of :class:`~repro.channel.paths.Path`
objects into the quantities every algorithm consumes:

* the per-element narrowband channel vector ``h[n]`` (Eq. 7),
* the per-element wideband channel matrix ``h(f, n)`` (Eq. 26),
* the scalar beamformed response ``y(f) = h(f,:)^T w`` for a given weight
  vector — optionally through a directional UE array as well.

The channel object is immutable; time evolution (blockage, mobility) is
expressed by deriving new channels via :meth:`with_path_scaling` and
:meth:`rotated`, which keeps simulation state transitions explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.arrays.steering import steering_vector
from repro.channel.paths import Path, sort_by_power

__all__ = [
    "GeometricChannel",
]


@dataclass(frozen=True)
class GeometricChannel:
    """A sparse multipath channel between a gNB array and a UE.

    Parameters
    ----------
    tx_array:
        The gNB phased array.
    paths:
        The propagation paths.  Order is preserved; use
        :meth:`strongest_paths` for power ordering.
    rx_array:
        The UE array, or ``None`` for the paper's default quasi-omni UE.
    """

    tx_array: UniformLinearArray
    paths: Tuple[Path, ...]
    rx_array: Optional[UniformLinearArray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.paths:
            raise ValueError("channel needs at least one path")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def strongest_paths(self, count: Optional[int] = None) -> Tuple[Path, ...]:
        """Paths sorted strongest-first, optionally truncated to ``count``."""
        ordered = sort_by_power(self.paths)
        return ordered if count is None else ordered[:count]

    def aods(self) -> np.ndarray:
        """Angles of departure of each path [rad], in stored order."""
        return np.array([p.aod_rad for p in self.paths])

    def gains(self) -> np.ndarray:
        """Complex gains of each path, in stored order."""
        return np.array([p.gain for p in self.paths], dtype=complex)

    def delays(self) -> np.ndarray:
        """Times of flight of each path [s], in stored order."""
        return np.array([p.delay_s for p in self.paths])

    # ------------------------------------------------------------------
    # Derived channels (time evolution)
    # ------------------------------------------------------------------
    def with_paths(self, paths: Sequence[Path]) -> "GeometricChannel":
        # Direct construction, like Path's copy helpers (per-tick path).
        return GeometricChannel(
            tx_array=self.tx_array, paths=tuple(paths), rx_array=self.rx_array
        )

    def with_path_scaling(self, amplitude_factors) -> "GeometricChannel":
        """Scale each path's gain — the blockage hook.

        ``amplitude_factors`` is one linear amplitude multiplier per path
        (stored order).
        """
        factors = np.asarray(amplitude_factors, dtype=float)
        if factors.shape != (self.num_paths,):
            raise ValueError(
                f"expected {self.num_paths} factors, got shape {factors.shape}"
            )
        return self.with_paths(
            p.attenuated(float(f)) for p, f in zip(self.paths, factors)
        )

    def rotated(self, aod_offsets, aoa_offsets=None) -> "GeometricChannel":
        """Shift each path's AoD (and optionally AoA) — the mobility hook."""
        aod = np.broadcast_to(
            np.asarray(aod_offsets, dtype=float), (self.num_paths,)
        )
        if aoa_offsets is None:
            aoa = np.zeros(self.num_paths)
        else:
            aoa = np.broadcast_to(
                np.asarray(aoa_offsets, dtype=float), (self.num_paths,)
            )
        return self.with_paths(
            p.rotated(float(da), float(db))
            for p, da, db in zip(self.paths, aod, aoa)
        )

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    # The channel is immutable, and sounding evaluates the same instance
    # several times per maintenance round (once per probe beam).  The
    # weight-independent tensors — steering matrix, gain vector, and the
    # per-frequency delay rotation — are therefore memoized on first use.
    # Cached arrays are read-only and never returned by public accessors.

    def _steering_matrix(self) -> np.ndarray:
        cached = getattr(self, "_steering_cache", None)
        if cached is None:
            cached = steering_vector(self.tx_array, self.aods())  # (L, N)
            cached.setflags(write=False)
            object.__setattr__(self, "_steering_cache", cached)  # repro-lint: disable=RL302 (lazy read-only cache)
        return cached

    def _gain_vector(self) -> np.ndarray:
        cached = getattr(self, "_gains_cache", None)
        if cached is None:
            cached = self.gains()
            cached.setflags(write=False)
            object.__setattr__(self, "_gains_cache", cached)  # repro-lint: disable=RL302 (lazy read-only cache)
        return cached

    def _delay_rotation(self, freqs: np.ndarray) -> np.ndarray:
        cached = getattr(self, "_rotation_cache", None)
        if cached is not None:
            key, value = cached
            if key is freqs or np.array_equal(key, freqs):
                return value
        value = np.exp(-2j * np.pi * np.outer(freqs, self.delays()))  # (F, L)
        value.setflags(write=False)
        object.__setattr__(self, "_rotation_cache", (freqs, value))  # repro-lint: disable=RL302 (lazy read-only cache)
        return value

    def narrowband_vector(self) -> np.ndarray:
        """Per-tx-element narrowband channel ``h[n]`` (Eq. 7), shape (N,).

        Delays are folded into each path's complex gain at the carrier, so
        this is the channel at the band center.
        """
        return self._gain_vector() @ self._steering_matrix()

    def element_response(self, baseband_frequencies_hz) -> np.ndarray:
        """Wideband per-element channel ``h(f, n)`` (Eq. 26), shape (F, N)."""
        freqs = np.atleast_1d(np.asarray(baseband_frequencies_hz, dtype=float))
        rotation = self._delay_rotation(freqs)  # (F, L)
        return (rotation * self._gain_vector()) @ self._steering_matrix()

    def path_tx_gains(self, tx_weights: np.ndarray) -> np.ndarray:
        """Per-path complex transmit beam response ``a(phi_l)^T w``."""
        return self._steering_matrix() @ np.asarray(tx_weights, dtype=complex)

    def path_rx_gains(self, rx_weights: Optional[np.ndarray]) -> np.ndarray:
        """Per-path complex receive beam response, 1 for a quasi-omni UE."""
        if rx_weights is None or self.rx_array is None:
            return np.ones(self.num_paths, dtype=complex)
        aoas = np.array([p.aoa_rad for p in self.paths])
        a = steering_vector(self.rx_array, aoas)
        return a @ np.asarray(rx_weights, dtype=complex)

    def beamformed_path_gains(
        self,
        tx_weights: np.ndarray,
        rx_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-path end-to-end complex gain ``alpha_l`` through both beams.

        These are the ``alpha_k`` of the effective multi-beam channel in
        Eq. (21): each surviving path contributes one delayed, attenuated
        copy of the transmit signal.
        """
        return (
            self._gain_vector()
            * self.path_tx_gains(tx_weights)
            * self.path_rx_gains(rx_weights)
        )

    def frequency_response(
        self,
        tx_weights: np.ndarray,
        baseband_frequencies_hz,
        rx_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Scalar beamformed response ``y(f)``, shape matching the grid.

        ``y(f) = sum_l alpha_l exp(-j 2 pi f tau_l)`` — the per-subcarrier
        channel a receiver estimates from OFDM reference signals.
        """
        freqs = np.atleast_1d(np.asarray(baseband_frequencies_hz, dtype=float))
        alphas = self.beamformed_path_gains(tx_weights, rx_weights)
        return self._delay_rotation(freqs) @ alphas

    def frequency_response_many(
        self,
        tx_weights_list,
        baseband_frequencies_hz,
        rx_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`frequency_response` for several transmit beams at once.

        Returns shape ``(B, F)`` — one row per weight vector, matching
        the per-beam calls to the last ulp (the stacked matmuls may pick
        different BLAS kernels than the single-vector contractions).
        """
        freqs = np.atleast_1d(np.asarray(baseband_frequencies_hz, dtype=float))
        stacked = np.stack(
            [np.asarray(w, dtype=complex) for w in tx_weights_list], axis=1
        )  # (N, B)
        tx_gains = self._steering_matrix() @ stacked  # (L, B)
        alphas = (
            self._gain_vector()[:, None]
            * tx_gains
            * self.path_rx_gains(rx_weights)[:, None]
        )  # (L, B)
        return (self._delay_rotation(freqs) @ alphas).T  # (B, F)

    def frequency_response_with_array_weights(
        self,
        weights_over_band: np.ndarray,
        baseband_frequencies_hz,
        rx_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Response when the weight vector itself varies with frequency.

        Needed for the delay phased array, whose true-time-delay lines make
        ``w`` a function of baseband frequency.  ``weights_over_band`` has
        shape ``(F, N)`` aligned with the frequency grid.
        """
        freqs = np.atleast_1d(np.asarray(baseband_frequencies_hz, dtype=float))
        weights = np.asarray(weights_over_band, dtype=complex)
        if weights.shape != (freqs.shape[0], self.tx_array.num_elements):
            raise ValueError(
                f"weights_over_band shape {weights.shape} does not match "
                f"({freqs.shape[0]}, {self.tx_array.num_elements})"
            )
        a = steering_vector(self.tx_array, self.aods())  # (L, N)
        tx_gain = a @ weights.T  # (L, F)
        rx_gain = self.path_rx_gains(rx_weights)  # (L,)
        rotation = np.exp(
            -2j * np.pi * np.outer(self.delays(), freqs)
        )  # (L, F)
        per_path = (self.gains() * rx_gain)[:, None] * tx_gain * rotation
        return per_path.sum(axis=0)

    def received_snr(
        self,
        tx_weights: np.ndarray,
        transmit_power_watt: float,
        noise_power_watt: float,
        rx_weights: Optional[np.ndarray] = None,
    ) -> float:
        """Narrowband received SNR (linear) for given weights (Eq. 3)."""
        alphas = self.beamformed_path_gains(tx_weights, rx_weights)
        delays = self.delays()
        # Narrowband: evaluate at band center (f = 0), where the residual
        # per-path delay phases are already folded into the gains.
        response = np.sum(alphas * np.exp(-2j * np.pi * 0.0 * delays))
        return float(
            (abs(response) ** 2) * transmit_power_watt / noise_power_watt
        )
