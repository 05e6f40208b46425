"""Slot-level arbitration of probe and data airtime within one cell.

The network engine divides each cell's airtime into slots on the sample
grid (one slot per sample period).  Per maintenance period every
attached user asks for one probe slot (its CSI-RS maintenance
opportunity, mirroring the link simulator's maintenance clock); the
scheduler grants them in user order against the cell's shared
:class:`~repro.phy.reference_signals.ProbeBudget` until the per-period
cap is hit, charging one CSI-RS per grant.  Every remaining slot is a
data slot handed out round-robin across the attached users.

The resulting :class:`CellSlotPlan` is pure data: the simulator scales
each user's throughput by its slot share and the tests assert fairness
and budget invariants directly on the plan.  With a single attached
user the plan degenerates to "that user owns every slot" and its share
is exactly ``1.0`` — the bitwise anchor for the 1x1 differential test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.state import UserBatch
from repro.phy.reference_signals import ProbeBudget, ProbeKind
from repro.telemetry import EventKind, get_recorder

__all__ = [
    "CellSlotPlan",
    "SlotScheduler",
    "jain_fairness_index",
]


def jain_fairness_index(shares: np.ndarray) -> float:
    """Jain's fairness index ``(sum x)^2 / (n sum x^2)`` in ``(0, 1]``.

    1.0 means perfectly equal allocation; ``1/n`` means one user owns
    everything.  Defined as 1.0 for an empty or all-zero allocation.
    """
    shares = np.asarray(shares, dtype=float)
    if shares.size == 0:
        return 1.0
    total_sq = float(np.sum(shares)) ** 2
    denom = shares.size * float(np.sum(shares**2))
    if denom == 0.0:
        return 1.0
    return total_sq / denom


@dataclass(frozen=True)
class CellSlotPlan:
    """One cell's slot allocation for a whole run.

    ``owners[s]`` is the global user index owning slot ``s`` (``-1`` for
    an idle slot, only possible with no attached users); ``is_probe[s]``
    marks the user's own maintenance-probe slots.  A user's *share*
    counts both its data and its probe slots — its own probing cost is
    already discounted inside its link metrics (training windows, probe
    airtime), so counting probe slots here would double-charge it.
    """

    cell_index: int
    slot_times_s: np.ndarray
    owners: np.ndarray
    is_probe: np.ndarray
    probe_slots_denied: int

    def __post_init__(self) -> None:
        if not (
            self.slot_times_s.shape
            == self.owners.shape
            == self.is_probe.shape
        ):
            raise ValueError("slot columns must share one shape")

    @property
    def num_slots(self) -> int:
        return int(self.owners.shape[0])

    @property
    def num_probe_slots(self) -> int:
        return int(np.count_nonzero(self.is_probe))

    def slots_owned(self, user_index: int) -> int:
        """Total slots (data + probe) owned by a user."""
        return int(np.count_nonzero(self.owners == int(user_index)))

    def share(self, user_index: int) -> float:
        """Fraction of the cell's slots owned by a user.

        Exactly ``1.0`` when the user owns every slot (the 1x1 case):
        ``S / S`` is an exact float division.
        """
        if self.num_slots == 0:
            return 0.0
        return self.slots_owned(user_index) / self.num_slots

    def shares(self, user_indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`share` over many users."""
        users = np.asarray(user_indices, dtype=int)
        if self.num_slots == 0:
            return np.zeros(users.shape)
        counts = (self.owners[None, :] == users[:, None]).sum(axis=1)
        return counts / self.num_slots

    def fairness(self, user_indices: np.ndarray) -> float:
        """Jain fairness of the slot allocation across the given users."""
        return jain_fairness_index(self.shares(user_indices))


@dataclass(frozen=True)
class SlotScheduler:
    """Deterministic per-cell probe/data slot arbiter.

    Parameters mirror the simulator clocks: slots live on the sample
    grid, probe opportunities on the maintenance grid.
    ``probe_slot_budget`` caps probe-slot grants per maintenance period
    per cell.
    """

    duration_s: float
    sample_period_s: float
    maintenance_period_s: float
    probe_slot_budget: int

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.maintenance_period_s < self.sample_period_s:
            raise ValueError("maintenance_period_s must be >= sample_period_s")
        if self.probe_slot_budget < 1:
            raise ValueError("probe_slot_budget must be >= 1")

    def slot_times(self) -> np.ndarray:
        """The slot grid — identical to the link simulator's sample grid."""
        return np.arange(0.0, self.duration_s, self.sample_period_s)

    def plan_cell(
        self,
        batch: UserBatch,
        cell_index: int,
        probe_budget: ProbeBudget,
    ) -> CellSlotPlan:
        """Allocate every slot of one cell for the whole run.

        Probe slots first: per maintenance tick, each attached user (in
        ascending user order) requests one slot at the tick boundary;
        grants take the next free slot and charge one CSI-RS to the
        cell's shared budget, denials are counted.  Data slots then go
        round-robin over the attached users in one vectorized pass.
        """
        times = self.slot_times()
        num_slots = times.shape[0]
        owners = np.full(num_slots, -1, dtype=int)
        is_probe = np.zeros(num_slots, dtype=bool)
        attached = batch.attached(cell_index)
        denied = 0
        if attached.size:
            tick = 1
            cursor = 0
            while True:
                threshold = tick * self.maintenance_period_s
                base = int(np.searchsorted(times, threshold, side="left"))
                if base >= num_slots:
                    break
                cursor = max(cursor, base)
                granted = 0
                for user in attached:
                    if float(batch.arrivals_s[user]) > threshold:
                        continue  # not attached yet at this tick
                    if granted >= self.probe_slot_budget:
                        denied += 1
                        continue
                    while cursor < num_slots and owners[cursor] != -1:
                        cursor += 1
                    if cursor >= num_slots:
                        denied += 1
                        continue
                    owners[cursor] = int(user)
                    is_probe[cursor] = True
                    probe_budget.charge(
                        ProbeKind.CSI_RS, time_s=float(times[cursor])
                    )
                    granted += 1
                tick += 1
            free = np.flatnonzero(owners == -1)
            owners[free] = attached[np.arange(free.size) % attached.size]
        plan = CellSlotPlan(
            cell_index=int(cell_index),
            slot_times_s=times,
            owners=owners,
            is_probe=is_probe,
            probe_slots_denied=denied,
        )
        recorder = get_recorder()
        if recorder.enabled:
            recorder.emit(
                EventKind.SLOT_SCHEDULED,
                0.0,
                cell=int(cell_index),
                slots=num_slots,
                probe_slots=plan.num_probe_slots,
                probe_slots_denied=denied,
                users=int(attached.size),
                fairness=plan.fairness(attached),
            )
        return plan
