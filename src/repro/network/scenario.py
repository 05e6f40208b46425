"""Network-scale scenario configuration: cells, users, per-link channels.

A :class:`NetworkScenario` generalizes the single TX–RX pair of
:mod:`repro.sim.scenarios` to N base stations serving M users in one
shared 2-D environment.  It is declarative and frozen: everything a run
needs — cell layout, user placement statistics, per-user channel and
manager construction — derives deterministically from ``(scenario,
seed)``, so network ensembles replay bitwise like link ensembles do.

Per-link channels are built *on top of* the existing scenario family:
each (cell, user) attachment becomes a
:class:`~repro.sim.scenarios.SyntheticScenario` whose LOS geometry
(distance, bearing) comes from the shared placement and whose secondary
path, drift, and blockage schedule come from per-user registered RNG
substreams.  A 1x1 network's lone user runs through the plain
:class:`~repro.sim.link.LinkSimulator` path with no interference and a
full slot share, so its trace equals a ``LinkSimulator`` over the same
link scenario and manager bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.arrays import UniformLinearArray
from repro.channel.blockage import random_blockage_schedule
from repro.network.state import UserBatch
from repro.sim.scenarios import SyntheticScenario, two_path_channel

__all__ = [
    "CellConfig",
    "NetworkScenario",
    "row_of_cells",
]

#: Mixed into every network RNG stream so placement/channel randomness can
#: never collide with sounder or fault streams seeded from the same run
#: seed (same discipline as ``repro.faults``'s ``_FAULT_SALT``).
_NETWORK_SALT = 0x6D6D4E57  # "mmNW"

#: Purpose indices inside the salted stream key, frozen once published.
_STREAM_PLACEMENT = 0
_STREAM_CHANNEL = 1
_STREAM_BLOCKAGE = 2
_STREAM_SOUNDER = 3


def _user_stream(seed: int, purpose: int, user: int) -> np.random.Generator:
    """The registered per-(seed, purpose, user) RNG substream.

    Keyed as a seed sequence so streams are independent for every user
    index — adding users never perturbs the draws of existing ones,
    which is what makes the interference-monotonicity tests meaningful.
    """
    return np.random.default_rng(
        [_NETWORK_SALT, int(seed), int(purpose), int(user)]
    )


@dataclass(frozen=True)
class CellConfig:
    """One base station: position, boresight, array, and radio config."""

    position_m: Tuple[float, float]
    boresight_rad: float = np.pi / 2.0
    num_elements: int = 8
    bandwidth_hz: float = 400e6
    carrier_frequency_hz: float = 28e9

    def __post_init__(self) -> None:
        if self.num_elements < 1:
            raise ValueError("num_elements must be >= 1")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        object.__setattr__(
            self,
            "position_m",
            (float(self.position_m[0]), float(self.position_m[1])),
        )

    def array(self) -> UniformLinearArray:
        """The cell's phased array (hashable, so weight caches key on it)."""
        return UniformLinearArray(
            num_elements=self.num_elements,
            carrier_frequency_hz=self.carrier_frequency_hz,
        )


def row_of_cells(
    num_cells: int,
    spacing_m: float = 14.0,
    num_elements: int = 8,
    bandwidth_hz: float = 400e6,
) -> Tuple[CellConfig, ...]:
    """A row of wall-mounted cells all facing the same service area.

    The canonical network layout: cells along the x-axis, boresights at
    +90 deg (into the room/street), so neighbouring cells' sidelobes are
    what interference is made of.
    """
    if num_cells < 1:
        raise ValueError("num_cells must be >= 1")
    return tuple(
        CellConfig(
            position_m=(i * spacing_m, 0.0),
            boresight_rad=np.pi / 2.0,
            num_elements=num_elements,
            bandwidth_hz=bandwidth_hz,
        )
        for i in range(num_cells)
    )


@dataclass(frozen=True)
class NetworkScenario:
    """Declarative N-cell x M-user scenario.

    Users are placed per-seed in each home cell's service sector
    (user ``u``'s home cell is ``u % num_cells``, so growing the user
    count fills cells round-robin and never moves existing users), then
    attached to their *nearest* cell.  Each attachment becomes a
    two-path :class:`~repro.sim.scenarios.SyntheticScenario` driven by
    the shared geometry plus per-user random reflection, drift, and
    blockage draws.

    ``manager_kind`` selects the per-user beam manager (any kind
    :func:`repro.experiments.common.make_manager` builds: ``mmreliable``,
    ``reactive``, ``beamspy``, ``widebeam``, ``oracle``, ...);
    ``num_beams`` applies to multi-beam kinds.  ``probe_slot_budget``
    bounds how many probe slots one cell may grant per maintenance
    period (shared across its users).
    """

    cells: Tuple[CellConfig, ...]
    num_users: int
    manager_kind: str = "mmreliable"
    num_beams: int = 2
    duration_s: float = 0.5
    sample_period_s: float = 1e-3
    maintenance_period_s: float = 5e-3
    #: Piecewise-constant interference is recomputed on this cadence.
    interference_update_period_s: float = 5e-3
    #: Service-sector depth: users land at y in [min, max] in front of
    #: their home cell, x within +-half the cell spacing.
    user_range_m: Tuple[float, float] = (4.0, 12.0)
    user_speed_mps: float = 1.0
    blockage_events_per_user: int = 1
    blockage_depth_db: float = 25.0
    #: Max probe slots one cell may schedule per maintenance period.
    probe_slot_budget: int = 64
    codebook_size: int = 33
    name: str = "network"

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("need at least one cell")
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.maintenance_period_s < self.sample_period_s:
            raise ValueError("maintenance_period_s must be >= sample_period_s")
        if self.interference_update_period_s <= 0:
            raise ValueError("interference_update_period_s must be positive")
        if not 0 < self.user_range_m[0] < self.user_range_m[1]:
            raise ValueError("user_range_m must satisfy 0 < min < max")
        if self.probe_slot_budget < 1:
            raise ValueError("probe_slot_budget must be >= 1")
        object.__setattr__(self, "cells", tuple(self.cells))

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    # ------------------------------------------------------------------
    # per-seed realization

    def cell_spacing_m(self) -> float:
        """Median inter-cell spacing (placement jitter half-width)."""
        if len(self.cells) == 1:
            return 2.0 * self.user_range_m[1]
        positions = np.asarray([c.position_m for c in self.cells])
        gaps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        return float(np.median(gaps))

    def user_batch(self, seed: int) -> UserBatch:
        """Place every user and derive the geometry columns, per seed.

        User ``u`` draws from its own registered substream, so the
        placement of users ``0..k-1`` is identical whether the scenario
        has ``k`` or ``k + m`` users.
        """
        half_span = 0.5 * self.cell_spacing_m()
        y_min, y_max = self.user_range_m
        positions = np.empty((self.num_users, 2))
        for user in range(self.num_users):
            home = self.cells[user % self.num_cells]
            rng = _user_stream(seed, _STREAM_PLACEMENT, user)
            dx = float(rng.uniform(-half_span, half_span))
            dy = float(rng.uniform(y_min, y_max))
            positions[user] = (home.position_m[0] + dx, home.position_m[1] + dy)
        return UserBatch.from_geometry(
            positions_m=positions,
            cell_positions_m=np.asarray([c.position_m for c in self.cells]),
            cell_boresights_rad=np.asarray(
                [c.boresight_rad for c in self.cells]
            ),
        )

    def link_scenario(
        self, seed: int, batch: UserBatch, user_index: int
    ) -> SyntheticScenario:
        """The serving-link scenario for one user.

        LOS geometry (bearing, distance) comes from the shared
        placement; the reflected path, angular drift, and blockage
        schedule come from the user's own substreams.  This mirrors
        :func:`repro.sim.scenarios.indoor_two_path_scenario` — the LOS
        departure angle sweeps at ``v / d`` and the wall image at 60% of
        that — with the network's geometry substituted in.
        """
        cell = self.cells[int(batch.serving_cell[user_index])]
        distance = batch.serving_distance_m(user_index)
        los_angle = batch.serving_angle_rad(user_index)
        rng = _user_stream(seed, _STREAM_CHANNEL, user_index)
        side = 1.0 if rng.random() < 0.5 else -1.0
        nlos_offset = side * float(np.deg2rad(rng.uniform(18.0, 35.0)))
        delta_db = float(rng.uniform(-6.0, -3.0))
        sigma_rad = float(rng.uniform(-np.pi, np.pi))
        excess_delay = float(rng.uniform(0.8e-9, 2.5e-9))
        channel = two_path_channel(
            cell.array(),
            los_angle_rad=los_angle,
            nlos_angle_rad=los_angle + nlos_offset,
            delta_db=delta_db,
            sigma_rad=sigma_rad,
            distance_m=distance,
            excess_delay_s=excess_delay,
        )
        drift_sign = 1.0 if rng.random() < 0.5 else -1.0
        los_rate = drift_sign * self.user_speed_mps / distance
        blockage_rng = _user_stream(seed, _STREAM_BLOCKAGE, user_index)
        max_block = min(0.4 * self.duration_s, 0.5)
        schedule = random_blockage_schedule(
            num_paths=channel.num_paths,
            observation_s=self.duration_s,
            min_duration_s=0.25 * max_block,
            max_duration_s=max_block,
            num_events=self.blockage_events_per_user,
            depth_db=self.blockage_depth_db,
            rng=blockage_rng,
        )
        return SyntheticScenario(
            base_channel=channel,
            angular_rates_rad_s=(los_rate, 0.6 * los_rate),
            blockage=schedule,
            name=f"{self.name}/user{user_index}",
        )

    def build_manager(
        self, seed: int, batch: UserBatch, user_index: int
    ) -> object:
        """The per-user beam manager, seeded from the user's substream."""
        # Imported here, as in repro.serve.runner: repro.experiments sits
        # above repro.network in the layering.
        from repro.experiments.common import make_manager

        cell = self.cells[int(batch.serving_cell[user_index])]
        return make_manager(
            self.manager_kind,
            _user_stream(seed, _STREAM_SOUNDER, user_index),
            array=cell.array(),
            bandwidth_hz=cell.bandwidth_hz,
            num_beams=self.num_beams,
            codebook_size=self.codebook_size,
        )
