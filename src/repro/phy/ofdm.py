"""OFDM channel sounding: per-subcarrier CSI with noise and CFO/SFO.

The testbed reports the complex channel per subcarrier from NR reference
signals; every mmReliable algorithm consumes those estimates.  The power
convention keeps per-subcarrier SNR equal to the full-band SNR for a flat
channel: transmit power and noise both split evenly across subcarriers, so

    SNR(f) = P_tx |H(f)|^2 / P_noise_total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.geometric import GeometricChannel
from repro.channel.impairments import CfoSfoModel, awgn_noise_power_watt, complex_awgn
from repro.channel.wideband import ofdm_frequency_grid
from repro.faults import get_injector
from repro.phy.numerology import FR2_120KHZ, Numerology
from repro.utils import ensure_rng
from repro.utils.units import power_linear_to_db


@dataclass(frozen=True)
class OfdmConfig:
    """Static OFDM link parameters.

    Parameters
    ----------
    bandwidth_hz:
        Occupied bandwidth (the paper uses 400 MHz, or 100 MHz outdoors).
    num_subcarriers:
        CSI grid size.  Real CSI-RS occupies a subset of subcarriers; 64 or
        128 points is plenty to resolve the sparse channel.
    transmit_power_watt:
        Total radiated power (conserved across all beam shapes).
    noise_figure_db:
        Receiver noise figure used for the thermal noise floor.
    """

    bandwidth_hz: float = 400e6
    num_subcarriers: int = 128
    transmit_power_watt: float = 1.0
    noise_figure_db: float = 7.0
    numerology: Numerology = FR2_120KHZ

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.num_subcarriers < 1:
            raise ValueError("num_subcarriers must be >= 1")
        if self.transmit_power_watt <= 0:
            raise ValueError("transmit_power_watt must be positive")
        # Read by every sound/SNR call; not a field (equality, hashing).
        object.__setattr__(self, "_noise_power_watt", awgn_noise_power_watt(
            self.bandwidth_hz, self.noise_figure_db
        ))

    def frequency_grid(self) -> np.ndarray:
        """Baseband subcarrier frequencies, centered on 0 Hz.

        Memoized per config (read-only): the sounder asks for the grid on
        every sound/SNR call, and returning the same array object lets
        downstream response caches key on identity instead of comparing
        contents.
        """
        grid = getattr(self, "_grid_cache", None)
        if grid is None:
            grid = ofdm_frequency_grid(self.bandwidth_hz, self.num_subcarriers)
            grid.setflags(write=False)
            object.__setattr__(self, "_grid_cache", grid)  # repro-lint: disable=RL302 (lazy read-only cache)
        return grid

    @property
    def noise_power_watt(self) -> float:
        """Full-band receiver noise power (computed once, at construction)."""
        return self._noise_power_watt

    def snr_db(self, mean_channel_power: float) -> float:
        """Link SNR [dB] for a given mean beamformed channel power."""
        if mean_channel_power <= 0:
            return -np.inf
        return float(power_linear_to_db(
            self.transmit_power_watt * mean_channel_power / self.noise_power_watt
        ))

    def snr_db_array(self, mean_channel_powers) -> np.ndarray:
        """Vectorized :meth:`snr_db`: ``-inf`` wherever power is <= 0.

        Positive entries go through the same multiply/divide/log10 chain
        as the scalar path, so they are bitwise-identical per element.
        """
        powers = np.asarray(mean_channel_powers, dtype=float)
        snrs = np.full(powers.shape, -np.inf)
        positive = powers > 0
        if np.any(positive):
            snrs[positive] = power_linear_to_db(
                self.transmit_power_watt * powers[positive]
                / self.noise_power_watt
            )
        return snrs


def _mean_power(values: np.ndarray) -> float:
    """``np.mean(np.abs(values) ** 2)`` without its wrapper.

    numpy's mean is exactly ``add.reduce`` over every element followed
    by one division by the count; calling those two directly gives the
    same bits at a fraction of the per-probe overhead.
    """
    power = np.abs(values) ** 2
    return float(np.add.reduce(power, axis=None) / power.size)


@dataclass(frozen=True)
class ChannelEstimate:
    """One sounded CSI snapshot."""

    csi: np.ndarray
    frequencies_hz: np.ndarray
    time_s: float = 0.0

    @property
    def mean_power(self) -> float:
        """Mean per-subcarrier power ``E[|h(f)|^2]``."""
        return _mean_power(self.csi)

    def power_db(self) -> float:
        power = self.mean_power
        return -np.inf if power == 0 else float(power_linear_to_db(power))


@dataclass
class ChannelSounder:
    """Produces noisy, CFO-rotated CSI estimates from a geometric channel.

    Each :meth:`sound` call models one reference-signal probe: the true
    beamformed frequency response plus complex AWGN (scaled so the estimate
    error matches the link SNR) and a common-mode CFO/SFO phase rotation.

    Under a scoped :class:`repro.faults.FaultInjector`
    (:func:`repro.faults.use_injector`), transmit weights pass through
    its stuck-element mask and every sounded CSI snapshot through its
    probe filter.  The injector keeps its own RNG streams, so no
    injector and a zero-rate injector are bitwise identical.
    """

    config: OfdmConfig
    cfo_model: Optional[CfoSfoModel] = None
    rng: object = None

    def __post_init__(self) -> None:
        self.rng = ensure_rng(self.rng)

    def sound(
        self,
        channel: GeometricChannel,
        tx_weights: np.ndarray,
        rx_weights: Optional[np.ndarray] = None,
        time_s: float = 0.0,
    ) -> ChannelEstimate:
        """Sound the channel through the given beams once."""
        injector = get_injector()
        if injector is not None:
            tx_weights = injector.apply_element_faults(tx_weights)
        freqs = self.config.frequency_grid()
        response = channel.frequency_response(tx_weights, freqs, rx_weights)
        noise_variance = (
            self.config.noise_power_watt / self.config.transmit_power_watt
        )
        noisy = response + complex_awgn(response.shape, noise_variance, self.rng)
        if self.cfo_model is not None:
            noisy = self.cfo_model.apply(noisy)
        if injector is not None:
            noisy = injector.filter_probe(noisy, time_s)
        return ChannelEstimate(csi=noisy, frequencies_hz=freqs, time_s=time_s)

    def sound_many(
        self,
        channel: GeometricChannel,
        tx_weights_list,
        rx_weights: Optional[np.ndarray] = None,
        time_s: float = 0.0,
    ) -> list:
        """Sound the channel once through each of several transmit beams.

        The noiseless responses are computed with one stacked evaluation;
        noise, CFO rotation, and fault filtering are then applied per
        probe in list order.  The sounder, CFO, and fault-injector RNGs
        are separate streams and each sees the same draw sequence as the
        equivalent series of :meth:`sound` calls (element-fault masks are
        drawn per beam in list order before any probe-level draws, which
        only reorders draws *across* the independent streams), so the
        estimates match per-beam sounding to the documented last-ulp
        tolerance of the stacked response.
        """
        injector = get_injector()
        weights = list(tx_weights_list)
        if not weights:
            return []
        if injector is not None:
            weights = [injector.apply_element_faults(w) for w in weights]
        freqs = self.config.frequency_grid()
        responses = channel.frequency_response_many(
            weights, freqs, rx_weights
        )  # (B, F)
        noise_variance = (
            self.config.noise_power_watt / self.config.transmit_power_watt
        )
        estimates = []
        for response in responses:
            noisy = response + complex_awgn(
                response.shape, noise_variance, self.rng
            )
            if self.cfo_model is not None:
                noisy = self.cfo_model.apply(noisy)
            if injector is not None:
                noisy = injector.filter_probe(noisy, time_s)
            estimates.append(
                ChannelEstimate(csi=noisy, frequencies_hz=freqs, time_s=time_s)
            )
        return estimates

    def sound_with_band_weights(
        self,
        channel: GeometricChannel,
        weights_over_band: np.ndarray,
        rx_weights: Optional[np.ndarray] = None,
        time_s: float = 0.0,
    ) -> ChannelEstimate:
        """Sound through frequency-dependent weights (delay phased array)."""
        freqs = self.config.frequency_grid()
        response = channel.frequency_response_with_array_weights(
            weights_over_band, freqs, rx_weights
        )
        noise_variance = (
            self.config.noise_power_watt / self.config.transmit_power_watt
        )
        noisy = response + complex_awgn(response.shape, noise_variance, self.rng)
        if self.cfo_model is not None:
            noisy = self.cfo_model.apply(noisy)
        return ChannelEstimate(csi=noisy, frequencies_hz=freqs, time_s=time_s)

    def link_snr_db(
        self,
        channel: GeometricChannel,
        tx_weights: np.ndarray,
        rx_weights: Optional[np.ndarray] = None,
    ) -> float:
        """Noiseless (true) link SNR [dB] through the given beams.

        Stuck-element faults apply here too — dead phase shifters shape
        the data beam, not just the probes — but probe-level faults do
        not: this is the physical link, not a measurement of it.
        """
        injector = get_injector()
        if injector is not None:
            tx_weights = injector.apply_element_faults(tx_weights)
        freqs = self.config.frequency_grid()
        response = channel.frequency_response(tx_weights, freqs, rx_weights)
        return self.config.snr_db(_mean_power(response))

    def link_snr_db_batch(
        self, channels, tx_weights: np.ndarray
    ) -> np.ndarray:
        """Noiseless link SNR [dB] for many channel states at once.

        ``channels`` is either a :class:`~repro.channel.batch.ChannelBatch`
        or a sequence of :class:`GeometricChannel` (which is stacked into a
        batch when possible and otherwise evaluated one by one).  The
        element-fault mask is deterministic per run, so applying it once
        per call matches the per-sample path exactly.  Like
        :meth:`link_snr_db`, this draws no noise — call order relative to
        :meth:`sound` does not affect RNG streams.
        """
        from repro.channel.batch import ChannelBatch, batch_from_channels

        if not isinstance(channels, ChannelBatch):
            batch = batch_from_channels(channels)
            if batch is None:
                return np.array(
                    [
                        self.link_snr_db(channel, tx_weights)
                        for channel in channels
                    ],
                    dtype=float,
                )
            channels = batch
        injector = get_injector()
        if injector is not None:
            tx_weights = injector.apply_element_faults(tx_weights)
        freqs = self.config.frequency_grid()
        response = channels.frequency_response(tx_weights, freqs)
        powers = np.mean(np.abs(response) ** 2, axis=1)
        return self.config.snr_db_array(powers)
