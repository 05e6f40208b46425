"""Scenario builders: channels that evolve under mobility and blockage.

Two scenario families cover everything in the evaluation:

* :class:`SyntheticScenario` — paths specified directly (angle, relative
  gain, delay) with per-path angular drift rates and a blockage schedule.
  This mirrors the controlled gantry experiments (known ground truth).
* :class:`GeometricScenario` — paths ray-traced from a 2-D environment as
  the UE follows a trajectory.  This mirrors the free-motion end-to-end
  runs.

:func:`memoize_channels` wraps either one so that several links reading
the same seed's scenario compute each channel once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.channel.blockage import BlockageSchedule, EMPTY_SCHEDULE
from repro.channel.environment import Environment, trace_paths
from repro.channel.geometric import GeometricChannel
from repro.channel.mobility import Trajectory
from repro.channel.paths import Path
from repro.channel.pathloss import friis_path_loss_db
from repro.utils import SPEED_OF_LIGHT, complex_from_polar
from repro.utils.units import db_to_linear

#: Implementation losses (cabling, elevation mismatch, back-off) folded
#: into scenario link budgets so simulated SNRs land in the paper's
#: regime (~27 dB at 7 m indoor with a single 8-element azimuth beam).
DEFAULT_IMPLEMENTATION_LOSS_DB = 16.0


def _los_gain(
    distance_m: float, carrier_hz: float, extra_loss_db: float
) -> complex:
    """Complex LOS amplitude with carrier phase folded in."""
    loss_db = friis_path_loss_db(distance_m, carrier_hz) + extra_loss_db
    amplitude = float(db_to_linear(-loss_db))
    delay = distance_m / SPEED_OF_LIGHT
    return amplitude * np.exp(-2j * np.pi * carrier_hz * delay)


def two_path_channel(
    array: UniformLinearArray,
    los_angle_rad: float = 0.0,
    nlos_angle_rad: float = np.deg2rad(30.0),
    delta_db: float = -5.0,
    sigma_rad: float = 1.0,
    distance_m: float = 7.0,
    excess_delay_s: float = 1.2e-9,
    extra_loss_db: float = DEFAULT_IMPLEMENTATION_LOSS_DB,
) -> GeometricChannel:
    """The canonical indoor channel: LOS at 0 deg, one reflection at 30 deg.

    ``delta_db`` (relative amplitude, <= 0) and ``sigma_rad`` (relative
    phase) parameterize the reflection exactly as in Eq. (7); the paper's
    micro-benchmarks use -3 to -6 dB.
    """
    los_gain = _los_gain(distance_m, array.carrier_frequency_hz, extra_loss_db)
    relative = complex_from_polar(float(db_to_linear(delta_db)), sigma_rad)
    los_delay = distance_m / SPEED_OF_LIGHT
    paths = (
        Path(aod_rad=los_angle_rad, gain=los_gain, delay_s=los_delay, label="los"),
        Path(
            aod_rad=nlos_angle_rad,
            gain=los_gain * relative,
            delay_s=los_delay + excess_delay_s,
            label="reflection:synthetic",
        ),
    )
    return GeometricChannel(tx_array=array, paths=paths)


def three_path_channel(
    array: UniformLinearArray,
    angles_rad: Sequence[float] = (0.0, np.deg2rad(30.0), np.deg2rad(-25.0)),
    deltas_db: Sequence[float] = (0.0, -4.0, -7.0),
    sigmas_rad: Sequence[float] = (0.0, 1.0, -2.0),
    distance_m: float = 7.0,
    excess_delays_s: Sequence[float] = (0.0, 1.2e-9, 2.2e-9),
    extra_loss_db: float = DEFAULT_IMPLEMENTATION_LOSS_DB,
) -> GeometricChannel:
    """A three-path indoor channel (LOS + two reflections)."""
    if not (
        len(angles_rad) == len(deltas_db) == len(sigmas_rad)
        == len(excess_delays_s)
    ):
        raise ValueError("per-path parameter lists must have equal length")
    los_gain = _los_gain(distance_m, array.carrier_frequency_hz, extra_loss_db)
    los_delay = distance_m / SPEED_OF_LIGHT
    paths = []
    for i, (angle, delta_db, sigma, excess) in enumerate(
        zip(angles_rad, deltas_db, sigmas_rad, excess_delays_s)
    ):
        relative = complex_from_polar(float(db_to_linear(delta_db)), sigma)
        paths.append(
            Path(
                aod_rad=float(angle),
                gain=los_gain * relative,
                delay_s=los_delay + float(excess),
                label="los" if i == 0 else f"reflection:synthetic{i}",
            )
        )
    return GeometricChannel(tx_array=array, paths=tuple(paths))


@dataclass(frozen=True)
class SyntheticScenario:
    """A base channel evolving by per-path drift plus blockage.

    ``angular_rates_rad_s[l]`` is path ``l``'s AoD drift (mobility seen
    from the gNB); ``phase_drift_rad_s[l]`` rotates path ``l``'s complex
    gain over time — the carrier-phase evolution caused by the path
    length changing as the user moves (at 28 GHz a centimetre of extra
    path length is already half a turn, which is why the constructive
    gains must be re-probed periodically).  The blockage schedule
    multiplies per-path amplitudes.
    """

    base_channel: GeometricChannel
    angular_rates_rad_s: Tuple[float, ...] = ()
    #: AoA drift per path (only meaningful for directional-UE channels).
    aoa_rates_rad_s: Tuple[float, ...] = ()
    phase_drift_rad_s: Tuple[float, ...] = ()
    blockage: BlockageSchedule = EMPTY_SCHEDULE
    name: str = "synthetic"

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.angular_rates_rad_s)
        if not rates:
            rates = (0.0,) * self.base_channel.num_paths
        if len(rates) != self.base_channel.num_paths:
            raise ValueError(
                f"{len(rates)} angular rates for "
                f"{self.base_channel.num_paths} paths"
            )
        object.__setattr__(self, "angular_rates_rad_s", rates)
        aoa_rates = tuple(float(r) for r in self.aoa_rates_rad_s)
        if not aoa_rates:
            aoa_rates = (0.0,) * self.base_channel.num_paths
        if len(aoa_rates) != self.base_channel.num_paths:
            raise ValueError(
                f"{len(aoa_rates)} AoA rates for "
                f"{self.base_channel.num_paths} paths"
            )
        object.__setattr__(self, "aoa_rates_rad_s", aoa_rates)
        drifts = tuple(float(r) for r in self.phase_drift_rad_s)
        if not drifts:
            drifts = (0.0,) * self.base_channel.num_paths
        if len(drifts) != self.base_channel.num_paths:
            raise ValueError(
                f"{len(drifts)} phase drifts for "
                f"{self.base_channel.num_paths} paths"
            )
        object.__setattr__(self, "phase_drift_rad_s", drifts)

    def channel_at(self, time_s: float) -> GeometricChannel:
        """The channel as it stands at simulation time ``time_s``."""
        offsets = np.asarray(self.angular_rates_rad_s) * time_s
        aoa_offsets = np.asarray(self.aoa_rates_rad_s) * time_s
        channel = self.base_channel.rotated(offsets, aoa_offsets)
        if any(self.phase_drift_rad_s):
            rotations = np.exp(
                1j * np.asarray(self.phase_drift_rad_s) * time_s
            )
            channel = channel.with_paths(
                p.with_gain(p.gain * r)
                for p, r in zip(channel.paths, rotations)
            )
        factors = self.blockage.amplitude_factors(
            time_s, channel.num_paths
        )
        return channel.with_path_scaling(factors)

    def channel_batch(self, times_s) -> "ChannelBatch":
        """Per-sample path parameters for a whole time array at once.

        Mirrors :meth:`channel_at` operation-for-operation (drift add,
        phase rotation, blockage scaling) so each row of the returned
        batch matches the corresponding per-sample channel's parameters —
        bitwise for angles/delays/blockage, and to the last ulp for the
        phase-drift gain multiply (numpy's array loop may fuse the
        complex multiply differently than the scalar path).
        """
        from repro.channel.batch import ChannelBatch

        times = np.asarray(times_s, dtype=float)
        if times.ndim != 1:
            raise ValueError(f"times_s must be 1-D, got shape {times.shape}")
        base = self.base_channel
        offsets = np.asarray(self.angular_rates_rad_s)[None, :] * times[:, None]
        aods = base.aods()[None, :] + offsets
        gains = np.broadcast_to(
            base.gains(), offsets.shape
        )
        if any(self.phase_drift_rad_s):
            rotations = np.exp(
                1j * np.asarray(self.phase_drift_rad_s)[None, :]
                * times[:, None]
            )
            gains = gains * rotations
        factors = self.blockage.amplitude_factors_batch(
            times, base.num_paths
        )
        gains = gains * factors
        delays = np.broadcast_to(base.delays(), offsets.shape)
        return ChannelBatch(
            tx_array=base.tx_array,
            times_s=times,
            aods_rad=aods,
            gains=gains,
            delays_s=delays,
        )


@dataclass(frozen=True)
class GeometricScenario:
    """Ray-traced channel following a UE trajectory through an environment."""

    environment: Environment
    array: UniformLinearArray
    tx_position: Tuple[float, float]
    trajectory: Trajectory
    tx_boresight_rad: float = np.pi / 2.0
    blockage: BlockageSchedule = EMPTY_SCHEDULE
    extra_loss_db: float = DEFAULT_IMPLEMENTATION_LOSS_DB
    name: str = "geometric"

    def channel_at(self, time_s: float) -> GeometricChannel:
        pose = self.trajectory.pose(time_s)
        paths = trace_paths(
            self.environment,
            self.tx_position,
            pose.as_array(),
            tx_boresight_rad=self.tx_boresight_rad,
            rx_boresight_rad=pose.orientation_rad,
        )
        scale = float(db_to_linear(-self.extra_loss_db))
        paths = tuple(p.attenuated(scale) for p in paths)
        channel = GeometricChannel(tx_array=self.array, paths=paths)
        factors = self.blockage.amplitude_factors(time_s, channel.num_paths)
        return channel.with_path_scaling(factors)


class ChannelMemo:
    """One seed's channels, computed once for every link that reads them.

    A comparison seed-run (:class:`repro.sim.link.LinkComparison`) hands
    one memo to each compared system's link in turn, so ``channel_at(t)``
    runs once per distinct time however many systems ask for it.
    Channels are immutable, so reading a shared one is the same as
    building a fresh one; only its lazy response memos stay warm.  The
    memo lives as long as the seed-run holding it and stores no bound
    method of itself, so dropping the seed-run frees it at once.
    """

    __slots__ = ("scenario", "_channels")

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self._channels: Dict[float, GeometricChannel] = {}

    def channel_at(self, time_s: float) -> GeometricChannel:
        """The scenario's channel at ``time_s``, built on first request."""
        channel = self._channels.get(time_s)
        if channel is None:
            channel = self.scenario.channel_at(time_s)
            self._channels[time_s] = channel
        return channel


class BatchChannelMemo(ChannelMemo):
    """A :class:`ChannelMemo` that also memoizes ``channel_batch`` by the
    exact sample times (one entry per sample-clock chunk)."""

    __slots__ = ("_batches",)

    def __init__(self, scenario) -> None:
        super().__init__(scenario)
        self._batches: Dict[bytes, object] = {}

    def channel_batch(self, times_s):
        """The scenario's batch over ``times_s``, built on first request."""
        key = np.asarray(times_s, dtype=float).tobytes()
        batch = self._batches.get(key)
        if batch is None:
            batch = self.scenario.channel_batch(times_s)
            self._batches[key] = batch
        return batch


def memoize_channels(scenario) -> ChannelMemo:
    """A memo over ``scenario`` offering exactly the channel calls it does.

    Only a scenario with ``channel_batch`` gets a memo with one, because
    the link simulator picks its sample-clock path by that attribute.
    """
    if hasattr(scenario, "channel_batch"):
        return BatchChannelMemo(scenario)
    return ChannelMemo(scenario)


def indoor_two_path_scenario(
    array: UniformLinearArray,
    translation_speed_mps: float = 0.0,
    blockage: BlockageSchedule = EMPTY_SCHEDULE,
    distance_m: float = 7.0,
    delta_db: float = -5.0,
    sigma_rad: float = 1.0,
    name: str = "indoor-2path",
) -> SyntheticScenario:
    """The paper's indoor micro-benchmark setup as a scenario.

    A user translating at ``v`` perpendicular to a link of length ``d``
    sweeps the LOS departure angle at ``v / d`` rad/s; the wall-reflected
    path's image geometry sweeps more slowly (the image is farther away),
    modelled here at 60% of the LOS rate.
    """
    channel = two_path_channel(
        array, delta_db=delta_db, sigma_rad=sigma_rad, distance_m=distance_m
    )
    los_rate = translation_speed_mps / distance_m
    return SyntheticScenario(
        base_channel=channel,
        angular_rates_rad_s=(los_rate, 0.6 * los_rate),
        blockage=blockage,
        name=name,
    )


def indoor_mobile_scenario(
    array: UniformLinearArray,
    trajectory: Trajectory,
    blockage: BlockageSchedule = EMPTY_SCHEDULE,
    rng=None,
    name: str = "indoor-mobile",
) -> GeometricScenario:
    """A ray-traced indoor run: random room, gNB on the near wall."""
    from repro.channel.environment import random_indoor_environment

    environment = random_indoor_environment(rng)
    return GeometricScenario(
        environment=environment,
        array=array,
        tx_position=(3.5, 0.5),
        trajectory=trajectory,
        tx_boresight_rad=np.pi / 2.0,
        blockage=blockage,
        name=name,
    )
