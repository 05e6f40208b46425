"""Inter-cell interference folded into the SNR -> MCS mapping.

Each cell transmits continuously (data or probe slots), so every other
cell's beam leaks sidelobe power toward every user.  The model is
piecewise-constant in time: on an epoch grid (default one epoch per
maintenance period) it recomputes, for each victim user ``u``,

    I_u = sum over cells c != serving(u) of
            P_tx * g(c -> u) * sum_{v in A_c} share_v |AF_c(theta_cu; w_v)|^2

where ``g`` is the Friis + implementation-loss power gain over the
cell-to-victim distance, ``A_c`` the users attached to ``c``,
``share_v`` user ``v``'s slot share, ``theta_cu`` the victim's bearing
in cell ``c``'s boresight frame (from :class:`~repro.network.state.
UserBatch`'s geometry columns), and ``w_v`` the weights ``v``'s link
transmitted: from its trace's weight record, the span holding the
epoch's first sample.  A link not established there radiates nothing.
The record holds commanded weights, so stuck-element faults (which each
sounder applies to its own link's SNR) do not shape interference.

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

from repro.arrays.steering import steering_vector
from repro.channel.pathloss import friis_path_loss_db
from repro.network.scheduler import CellSlotPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.scenario import CellConfig
    from repro.phy.ofdm import OfdmConfig
    from repro.sim.link import SimulationTrace
from repro.utils.units import power_db_to_linear, power_linear_to_db
from repro.network.state import UserBatch
from repro.sim.scenarios import DEFAULT_IMPLEMENTATION_LOSS_DB
from repro.telemetry import EventKind, get_recorder

__all__ = [
    "InterferenceModel",
    "apply_penalty_db",
]


@dataclass(frozen=True)
class InterferenceModel:
    """Piecewise-constant inter-cell interference for one network run.

    Built once per run from the placed :class:`UserBatch`, every user's
    link trace (whose weight record says where its cell pointed), and
    the per-cell slot plans (whose shares say how often).
    """

    scenario: object  # NetworkScenario (duck-typed to avoid an import cycle)
    batch: UserBatch
    traces: Tuple["SimulationTrace", ...]
    plans: Tuple[CellSlotPlan, ...]

    def __post_init__(self) -> None:
        if len(self.traces) != self.batch.num_users:
            raise ValueError("one link trace per user required")
        if len(self.plans) != self.batch.num_cells:
            raise ValueError("one slot plan per cell required")

    def epoch_times_s(self) -> np.ndarray:
        """The epoch grid on which interference is recomputed."""
        return np.arange(
            0.0,
            self.scenario.duration_s,
            self.scenario.interference_update_period_s,
        )

    def _transmitted_weights(
        self, users: np.ndarray, epochs: np.ndarray, num_elements: int
    ) -> np.ndarray:
        """Recorded weights per user and epoch, ``(K, E, N)``; zero where
        a link was not established at the epoch's first sample."""
        weights = np.zeros(
            (users.size, epochs.shape[0], num_elements), dtype=complex
        )
        for k, user in enumerate(users):
            trace = self.traces[int(user)]
            firsts = np.searchsorted(trace.times_s, epochs, side="left")
            for e, index in enumerate(firsts):
                recorded = trace.weights_at(int(index))
                if recorded is not None:
                    weights[k, e] = recorded
        return weights

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
        for c in range(cells):
            attached = self.batch.attached(c)
            victims = np.flatnonzero(self.batch.serving_cell != c)
            if attached.size == 0 or victims.size == 0:
                continue
            cell = self.scenario.cells[c]
            array = cell.array()
            config = self._victim_noise_config(cell)
            shares = self.plans[c].shares(attached)  # (K,)
            weights = self._transmitted_weights(
                attached, epochs, array.num_elements
            )  # (K, E, N)
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
            # Array factor of every (user, epoch) beam toward every victim.
            factors = steering_vector(array, angles) @ weights.reshape(
                -1, array.num_elements
            ).T  # (V, K * E)
            power = np.abs(
                factors.reshape(victims.size, *weights.shape[:2])
            ) ** 2  # (V, K, E)
            # Share-weighted sidelobe power toward every victim, (V, E).
            beam_power = np.einsum("k,vke->ve", shares, power)
            interference_watt = (
                config.transmit_power_watt * path_gain[:, None] * beam_power
            )
            penalties[victims] += interference_watt / config.noise_power_watt
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
