"""Inter-cell interference folded into the SNR -> MCS mapping.

Each cell transmits continuously (data or probe slots), so every other
cell's beam leaks sidelobe power toward every user.  The model is
piecewise-constant in time: on an epoch grid (default one epoch per
maintenance period) it recomputes, for each victim user ``u``,

    I_u = sum over cells c != serving(u) of
            P_tx * g(c -> u) * sum_{v in A_c} share_v |AF_c(theta_cu; w_v)|^2

where ``g`` is the Friis + implementation-loss power gain over the
cell-to-victim distance, ``A_c`` the users attached to ``c``,
``share_v`` user ``v``'s slot share (the fraction of time cell ``c``
transmits with ``v``'s serving weights ``w_v``), and ``theta_cu`` the
victim's bearing in cell ``c``'s boresight frame — straight from
:class:`~repro.network.state.UserBatch`'s geometry columns and
:func:`repro.arrays.patterns.array_factor`.

The victim's SNR trace then becomes SINR via

    penalty_db = 10 log10(1 + I_u / P_noise),
    sinr_db    = snr_db - penalty_db,

applied only where the penalty is strictly positive, so a run with zero
interference (any single-cell network, in particular a 1x1 one) keeps
its SNR samples bitwise untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.arrays.patterns import array_factor
from repro.arrays.steering import single_beam_weights
from repro.channel.pathloss import friis_path_loss_db
from repro.core.multibeam import multibeam_from_channel
from repro.network.scheduler import CellSlotPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.scenario import CellConfig
    from repro.phy.ofdm import OfdmConfig
from repro.utils.units import power_db_to_linear, power_linear_to_db
from repro.network.state import UserBatch
from repro.sim.scenarios import DEFAULT_IMPLEMENTATION_LOSS_DB
from repro.telemetry import EventKind, get_recorder

__all__ = [
    "InterferenceModel",
    "apply_penalty_db",
]

#: Beam kinds that serve users with constructive multi-beam weights; all
#: other kinds are modelled as a single beam toward the strongest path.
_MULTIBEAM_KINDS = frozenset(
    {"mmreliable", "mmreliable-static", "mmreliable-nocc",
     "mmreliable-notrack-nocc"}
)


@dataclass(frozen=True)
class InterferenceModel:
    """Piecewise-constant inter-cell interference for one network run.

    Built once per run from the placed :class:`UserBatch`, the per-user
    serving-link scenarios (whose channels say where each cell points its
    beams over time), and the per-cell slot plans (whose shares say how
    often it points there).
    """

    scenario: object  # NetworkScenario (duck-typed to avoid an import cycle)
    batch: UserBatch
    link_scenarios: Tuple[object, ...]
    plans: Tuple[CellSlotPlan, ...]

    def __post_init__(self) -> None:
        if len(self.link_scenarios) != self.batch.num_users:
            raise ValueError("one link scenario per user required")
        if len(self.plans) != self.batch.num_cells:
            raise ValueError("one slot plan per cell required")

    def epoch_times_s(self) -> np.ndarray:
        """The epoch grid on which interference is recomputed."""
        return np.arange(
            0.0,
            self.scenario.duration_s,
            self.scenario.interference_update_period_s,
        )

    def _serving_weights(self, user_index: int, time_s: float) -> np.ndarray:
        """The weights user ``user_index``'s serving cell uses for it.

        Genie weights from the true channel at ``time_s``: constructive
        multi-beam for multi-beam manager kinds, a single beam toward
        the strongest path otherwise.  Interference is a sidelobe-level
        aggregate, so the genie approximation (vs. the manager's
        estimated weights) changes it well below the dB level the MCS
        mapping resolves.
        """
        cell = self.scenario.cells[int(self.batch.serving_cell[user_index])]
        channel = self.link_scenarios[user_index].channel_at(float(time_s))
        kind = getattr(self.scenario, "manager_kind", "mmreliable")
        if kind in _MULTIBEAM_KINDS:
            beams = min(int(self.scenario.num_beams), channel.num_paths)
            return multibeam_from_channel(channel, beams).weights().vector
        strongest = channel.strongest_paths(1)[0]
        return single_beam_weights(cell.array(), float(strongest.aod_rad))

    def penalties_db(self) -> np.ndarray:
        """Per-user, per-epoch SINR penalty [dB], shape ``(U, E)``.

        Entries are ``>= 0`` everywhere and exactly ``0.0`` for users
        with no active interfering cell.
        """
        epochs = self.epoch_times_s()
        users = self.batch.num_users
        cells = self.batch.num_cells
        penalties = np.zeros((users, epochs.shape[0]))
        if cells < 2:
            return penalties
        recorder = get_recorder()
        # Per-cell transmit mix: (attached users, shares, per-epoch weights).
        active = []
        for c in range(cells):
            attached = self.batch.attached(c)
            if attached.size == 0:
                active.append(None)
                continue
            shares = self.plans[c].shares(attached)
            weights = [
                [self._serving_weights(int(v), float(t)) for t in epochs]
                for v in attached
            ]
            active.append((attached, shares, weights))
        for c, mix in enumerate(active):
            if mix is None:
                continue
            attached, shares, weights = mix
            cell = self.scenario.cells[c]
            array = cell.array()
            config = self._victim_noise_config(cell)
            victims = np.flatnonzero(self.batch.serving_cell != c)
            if victims.size == 0:
                continue
            angles = self.batch.angles_rad[victims, c]  # boresight frame
            distances = self.batch.distances_m[victims, c]
            loss_db = (
                np.array([
                    friis_path_loss_db(float(d), cell.carrier_frequency_hz)
                    for d in distances
                ])
                + DEFAULT_IMPLEMENTATION_LOSS_DB
            )
            path_gain = power_db_to_linear(-loss_db)  # (V,)
            for e in range(epochs.shape[0]):
                # Share-weighted sidelobe power toward every victim.
                beam_power = np.zeros(victims.shape[0])
                for k in range(attached.size):
                    factors = array_factor(array, weights[k][e], angles)
                    beam_power += shares[k] * np.abs(factors) ** 2
                interference_watt = (
                    config.transmit_power_watt * path_gain * beam_power
                )
                penalties[victims, e] += interference_watt / (
                    config.noise_power_watt
                )
        # Accumulated I/N ratios -> dB penalty in one pass.
        penalties = power_linear_to_db(1.0 + penalties)
        if recorder.enabled:
            for e, t in enumerate(epochs):
                recorder.emit(
                    EventKind.INTERFERENCE_UPDATE,
                    float(t),
                    epoch=int(e),
                    mean_penalty_db=float(np.mean(penalties[:, e])),
                    max_penalty_db=float(np.max(penalties[:, e])),
                )
        return penalties

    def _victim_noise_config(self, cell: "CellConfig") -> "OfdmConfig":
        """OFDM power/noise convention matching the per-link sounders."""
        from repro.phy.ofdm import OfdmConfig

        return OfdmConfig(bandwidth_hz=cell.bandwidth_hz, num_subcarriers=64)


def apply_penalty_db(
    snr_db: np.ndarray,
    times_s: np.ndarray,
    epoch_times_s: np.ndarray,
    penalty_db: np.ndarray,
) -> np.ndarray:
    """SINR trace: subtract each sample's epoch penalty from its SNR.

    Samples map to the most recent epoch boundary.  Samples whose
    penalty is exactly zero are passed through bitwise (the array is
    only copied where a positive penalty applies), so an all-zero
    penalty row returns the input array object unchanged.
    """
    penalty = np.asarray(penalty_db, dtype=float)
    if penalty.shape != epoch_times_s.shape:
        raise ValueError(
            f"penalty shape {penalty.shape} does not match epoch grid "
            f"{epoch_times_s.shape}"
        )
    if not np.any(penalty > 0.0):
        return snr_db
    indices = np.searchsorted(epoch_times_s, times_s, side="right") - 1
    indices = np.clip(indices, 0, epoch_times_s.shape[0] - 1)
    per_sample = penalty[indices]
    adjusted = snr_db.copy()
    hit = per_sample > 0.0
    adjusted[hit] = adjusted[hit] - per_sample[hit]
    return adjusted
