"""Batched channel evaluation: many time samples in one tensor.

The sample clock of :class:`~repro.sim.link.LinkSimulator` evaluates the
*noiseless* link SNR at every sample — a pure function of the channel
state and the (piecewise-constant) beam weights.  Evaluating each sample
through a fresh :class:`~repro.channel.geometric.GeometricChannel` costs
one steering-matrix build, one ``(F, L)`` rotation, and one small matmul
per sample.  :class:`ChannelBatch` carries the per-sample path parameters
``(aods, gains, delays)`` as ``(T, L)`` tensors instead, so a whole span
of constant weights collapses into three broadcasted array ops.  When no
delay moves over the batch, the delay rotation is one ``(F, L)`` row
broadcast over ``T`` (stride 0), not ``T`` copies.

The arithmetic mirrors :meth:`GeometricChannel.frequency_response`
elementwise (bitwise-identical phase/rotation entries); only the final
contractions run as batched matmuls, which may differ from the
per-sample BLAS calls in the last floating-point ulp, and do not depend
on how many samples share one call.  Differential tests pin the
agreement at ``rtol=1e-9``.

Receive-side beams are *not* modelled here: every consumer of the batch
path (link SNR through the manager's transmit weights) sounds a
quasi-omni UE, for which :meth:`GeometricChannel.path_rx_gains` is an
exact multiply-by-one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.arrays.steering import steering_vector
from repro.channel.geometric import GeometricChannel

__all__ = [
    "ChannelBatch",
    "batch_from_channels",
]


@dataclass(frozen=True)
class ChannelBatch:
    """Per-sample sparse-channel parameters for ``T`` time instants.

    Parameters
    ----------
    tx_array:
        The gNB phased array (shared across the batch).
    times_s:
        Sample instants, shape ``(T,)``.
    aods_rad / gains / delays_s:
        Per-sample path parameters, each shape ``(T, L)``.
    """

    tx_array: UniformLinearArray
    times_s: np.ndarray
    aods_rad: np.ndarray
    gains: np.ndarray
    delays_s: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times_s, dtype=float)
        if times.ndim != 1:
            raise ValueError(f"times_s must be 1-D, got shape {times.shape}")
        object.__setattr__(self, "times_s", times)
        shape = np.shape(self.aods_rad)
        if len(shape) != 2 or shape[0] != times.shape[0]:
            raise ValueError(
                f"aods_rad must have shape (T, L) with T={times.shape[0]}, "
                f"got {shape}"
            )
        for field in ("gains", "delays_s"):
            if np.shape(getattr(self, field)) != shape:
                raise ValueError(
                    f"{field} shape {np.shape(getattr(self, field))} does "
                    f"not match aods_rad shape {shape}"
                )

    def __len__(self) -> int:
        return int(self.times_s.shape[0])

    @property
    def num_paths(self) -> int:
        return int(np.shape(self.aods_rad)[1])

    def sliced(self, start: int, stop: int) -> "ChannelBatch":
        """A view batch over samples ``[start, stop)`` (no copies).

        Tensors prepared by :meth:`precompute` are propagated as views,
        so slices of a precomputed chunk stay on the hoisted fast path.
        """
        batch = ChannelBatch(
            tx_array=self.tx_array,
            times_s=self.times_s[start:stop],
            aods_rad=self.aods_rad[start:stop],
            gains=self.gains[start:stop],
            delays_s=self.delays_s[start:stop],
        )
        if getattr(self, "_freqs", None) is not None:
            object.__setattr__(batch, "_freqs", self._freqs)  # repro-lint: disable=RL302 (precompute/slice cache)
            object.__setattr__(batch, "_steering", self._steering[start:stop])  # repro-lint: disable=RL302 (precompute/slice cache)
            object.__setattr__(batch, "_rotation", self._rotation[start:stop])  # repro-lint: disable=RL302 (precompute/slice cache)
        return batch

    def precompute(self, baseband_frequencies_hz) -> "ChannelBatch":
        """Hoist the weight-independent response tensors for this batch.

        The steering tensor ``a(phi_{t,l})`` and delay rotation
        ``e^{-j 2 pi f tau_{t,l}}`` do not depend on the beam weights, so
        a simulator that evaluates the same samples under
        piecewise-constant weights (one weight vector per span) builds
        them once per chunk and shares them across every :meth:`sliced`
        piece.  A batch that already holds this grid returns at once, so
        links sharing one batch build them once.  Returns ``self`` for
        chaining.
        """
        freqs = np.atleast_1d(np.asarray(baseband_frequencies_hz, dtype=float))
        if self._holds_grid(freqs):
            return self
        object.__setattr__(  # repro-lint: disable=RL302 (precompute/slice cache)
            self, "_steering", steering_vector(self.tx_array, self.aods_rad)
        )
        object.__setattr__(self, "_rotation", self._delay_rotation(freqs))  # repro-lint: disable=RL302 (precompute/slice cache)
        object.__setattr__(self, "_freqs", freqs)  # repro-lint: disable=RL302 (precompute/slice cache)
        return self

    def _holds_grid(self, freqs: np.ndarray) -> bool:
        """Whether :meth:`precompute` already ran for grid ``freqs``."""
        cached = getattr(self, "_freqs", None)
        return cached is not None and (
            cached is freqs or np.array_equal(cached, freqs)
        )

    def _delay_rotation(self, freqs: np.ndarray) -> np.ndarray:
        """``e^{-j 2 pi f tau_{t,l}}``, shape ``(T, F, L)``; one broadcast
        ``(F, L)`` row when no delay moves over the batch."""
        delays = self.delays_s
        if len(self) > 1 and np.all(delays == delays[:1]):
            row = np.exp(-2j * np.pi * freqs[:, None] * delays[0][None, :])
            return np.broadcast_to(row, (len(self),) + row.shape)
        return np.exp(
            -2j * np.pi * freqs[None, :, None] * delays[:, None, :]
        )

    def frequency_response(
        self, tx_weights: np.ndarray, baseband_frequencies_hz
    ) -> np.ndarray:
        """Beamformed response ``y_t(f)`` for every sample, shape ``(T, F)``.

        Per-sample this computes exactly
        :meth:`GeometricChannel.frequency_response` with a quasi-omni UE:
        ``y_t(f) = sum_l g_{t,l} (a(phi_{t,l})^T w) e^{-j 2 pi f tau_{t,l}}``.
        """
        freqs = np.atleast_1d(np.asarray(baseband_frequencies_hz, dtype=float))
        if self._holds_grid(freqs):
            a = self._steering
            rotation = self._rotation
        else:
            a = steering_vector(self.tx_array, self.aods_rad)  # (T, L, N)
            rotation = self._delay_rotation(freqs)  # (T, F, L)
        tx_gains = a @ np.asarray(tx_weights, dtype=complex)  # (T, L)
        alphas = np.asarray(self.gains, dtype=complex) * tx_gains
        return (rotation @ alphas[:, :, None])[:, :, 0]

    def channel_at_index(self, index: int) -> GeometricChannel:
        """Materialize one sample as a plain :class:`GeometricChannel`.

        Path labels/AoAs are not carried by the batch, so the result is
        suitable for response math, not for label-based bookkeeping.
        """
        from repro.channel.paths import Path

        paths = tuple(
            Path(
                aod_rad=float(self.aods_rad[index, l]),
                gain=complex(self.gains[index, l]),
                delay_s=float(self.delays_s[index, l]),
            )
            for l in range(self.num_paths)
        )
        return GeometricChannel(tx_array=self.tx_array, paths=paths)


def batch_from_channels(
    channels: Sequence[GeometricChannel],
) -> Optional[ChannelBatch]:
    """Stack per-sample channels into a :class:`ChannelBatch`, if possible.

    The batch's sample times are zeros: only the response math reads it.

    Returns ``None`` when the list cannot be represented as one tensor —
    empty input, differing path counts over time, or any directional-UE
    channel (``rx_array`` set), for which the batch's quasi-omni response
    would be wrong if receive weights were ever applied.
    """
    channels = list(channels)
    if not channels:
        return None
    num_paths = channels[0].num_paths
    tx_array = channels[0].tx_array
    for channel in channels:
        if (
            channel.num_paths != num_paths
            or channel.rx_array is not None
            or channel.tx_array != tx_array
        ):
            return None
    return ChannelBatch(
        tx_array=tx_array,
        times_s=np.zeros(len(channels)),
        aods_rad=np.stack([c.aods() for c in channels]),
        gains=np.stack([c.gains() for c in channels]),
        delays_s=np.stack([c.delays() for c in channels]),
    )
