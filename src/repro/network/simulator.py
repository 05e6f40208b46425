"""The network simulator: N cells x M users over the link engine.

:class:`NetworkSimulator` composes the pieces of the network layer into
one deterministic run:

1. place users (:meth:`NetworkScenario.user_batch`) and emit a
   ``user_attach`` event per user;
2. plan every cell's slots (:class:`~repro.network.scheduler.
   SlotScheduler`), charging probe slots to per-cell shared budgets;
3. drive one :class:`~repro.sim.link.LinkSimulator` per user over its
   serving-link scenario — the exact single-link engine, weight-span
   sample clock, degraded-mode handling and all;
4. fold inter-cell interference into every SNR trace
   (:class:`~repro.network.interference.InterferenceModel`, which reads
   what every link transmitted from its trace's weight record), turning
   SNR into SINR before the MCS mapping sees it;
5. summarize per-user link metrics, scaled by slot share, into
   :class:`NetworkRunMetrics` — attribute-compatible with
   :class:`~repro.sim.metrics.LinkMetrics` so the ensemble executor
   aggregates network runs unchanged.

A 1x1 network takes the same path with one cell, one user, no
interference, and a slot share of exactly ``1.0`` — bitwise identical to
running its link scenario and manager through :class:`LinkSimulator`
directly (enforced by the differential test).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

import numpy as np

from repro.network.interference import InterferenceModel, apply_penalty_db
from repro.network.scenario import NetworkScenario
from repro.network.scheduler import (
    CellSlotPlan,
    SlotScheduler,
    jain_fairness_index,
)
from repro.network.state import UserBatch
from repro.phy.reference_signals import ProbeBudget
from repro.sim.link import LinkSimulator, SimulationTrace
from repro.sim.metrics import LinkMetrics
from repro.telemetry import EventKind, get_recorder

__all__ = [
    "NetworkRunMetrics",
    "NetworkSimulator",
    "NetworkTrace",
    "NetworkUserMetrics",
    "build_network_simulator",
]


def build_network_simulator(
    scenario: NetworkScenario, seed: int
) -> "NetworkSimulator":
    """Module-level simulator factory for ensemble specs.

    ``functools.partial(build_network_simulator, scenario)`` is
    picklable (scenario is a frozen dataclass of plain data), so network
    ensembles can use the executor's process pool.
    """
    return NetworkSimulator(scenario=scenario, seed=int(seed))


@dataclass(frozen=True)
class NetworkUserMetrics:
    """One user's link metrics plus its place in the network."""

    user_index: int
    cell_index: int
    #: Fraction of the serving cell's slots this user owned.
    slot_share: float
    link: LinkMetrics

    @property
    def throughput_bps(self) -> float:
        """Slot-share-scaled throughput the network actually delivered.

        ``share == 1.0`` (sole user on a cell) multiplies by exactly 1.0,
        preserving the link value bitwise.
        """
        return self.link.mean_throughput_bps * self.slot_share

    @property
    def reliability(self) -> float:
        """Link availability — probing and outage cost, not slot share.

        Waiting for another user's data slot is queueing delay, not link
        unavailability, so reliability is not share-scaled.
        """
        return self.link.reliability


@dataclass(frozen=True)
class NetworkRunMetrics:
    """Cell-level aggregate over every user of one network run.

    Exposes the same attribute names :class:`LinkMetrics` does
    (``reliability``, ``mean_throughput_bps``,
    ``mean_spectral_efficiency``, ``mean_snr_db``, ``product``,
    ``training_rounds``, ``probe_airtime_s``), so
    :class:`repro.sim.executor.EnsembleSummary` aggregates network runs
    without knowing they are networks.
    """

    users: Tuple[NetworkUserMetrics, ...]
    bandwidth_hz: float
    probe_slots_denied: int
    fairness: float

    def __post_init__(self) -> None:
        if not self.users:
            raise ValueError("a network run needs at least one user")

    def _user_values(
        self, getter: Callable[[NetworkUserMetrics], float]
    ) -> np.ndarray:
        return np.asarray([getter(u) for u in self.users], dtype=float)

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def reliability(self) -> float:
        return float(np.mean(self._user_values(lambda u: u.reliability)))

    @property
    def mean_throughput_bps(self) -> float:
        """Mean per-user delivered throughput (share-scaled)."""
        return float(np.mean(self._user_values(lambda u: u.throughput_bps)))

    @property
    def cell_throughput_bps(self) -> float:
        """Summed delivered throughput across all users."""
        return float(np.sum(self._user_values(lambda u: u.throughput_bps)))

    @property
    def mean_spectral_efficiency(self) -> float:
        return self.mean_throughput_bps / self.bandwidth_hz

    @property
    def mean_snr_db(self) -> float:
        return float(
            np.mean(self._user_values(lambda u: u.link.mean_snr_db))
        )

    @property
    def product(self) -> float:
        """Throughput x reliability, the paper's figure of merit."""
        return self.mean_throughput_bps * self.reliability

    @property
    def training_rounds(self) -> int:
        return int(
            sum(u.link.training_rounds for u in self.users)
        )

    @property
    def probe_airtime_s(self) -> float:
        return float(sum(u.link.probe_airtime_s for u in self.users))

    def throughput_values_bps(self) -> np.ndarray:
        """Per-user delivered throughput, for CDFs."""
        return self._user_values(lambda u: u.throughput_bps)

    def reliability_values(self) -> np.ndarray:
        """Per-user reliability, for CDFs."""
        return self._user_values(lambda u: u.reliability)

    def describe(self) -> str:
        line = (
            f"{self.num_users} user(s): "
            f"cell {self.cell_throughput_bps / 1e9:.2f} Gbps, "
            f"per-user {self.mean_throughput_bps / 1e6:.0f} Mbps, "
            f"reliability {self.reliability:.3f}, "
            f"fairness {self.fairness:.3f}"
        )
        if self.probe_slots_denied:
            line += f" [{self.probe_slots_denied} probe slot(s) denied]"
        return line


@dataclass(frozen=True)
class NetworkTrace:
    """Everything one network run recorded."""

    batch: UserBatch
    user_traces: Tuple[SimulationTrace, ...]
    plans: Tuple[CellSlotPlan, ...]
    probe_budgets: Tuple[ProbeBudget, ...]
    epoch_times_s: np.ndarray
    #: Per-user, per-epoch SINR penalty [dB]; all-zero for single-cell
    #: networks.
    penalties_db: np.ndarray

    def metrics(self) -> NetworkRunMetrics:
        """Summarize the run — one :class:`LinkMetrics` per user, scaled."""
        users: List[NetworkUserMetrics] = []
        shares = np.empty(self.batch.num_users)
        for u, trace in enumerate(self.user_traces):
            cell = int(self.batch.serving_cell[u])
            share = self.plans[cell].share(u)
            shares[u] = share
            users.append(
                NetworkUserMetrics(
                    user_index=u,
                    cell_index=cell,
                    slot_share=share,
                    link=trace.metrics(),
                )
            )
        return NetworkRunMetrics(
            users=tuple(users),
            bandwidth_hz=self.user_traces[0].bandwidth_hz,
            probe_slots_denied=int(
                sum(p.probe_slots_denied for p in self.plans)
            ),
            fairness=jain_fairness_index(shares),
        )


@dataclass
class NetworkSimulator:
    """Runs one :class:`NetworkScenario` end to end for one seed.

    Implements the same contract as :class:`LinkSimulator` — ``run()``
    returning a trace with ``metrics()`` — so the ensemble executor,
    telemetry, and fault machinery drive it unchanged via
    ``EnsembleSpec.simulator_factory``.  Every user's link reads the one
    injector scoped around the run, so one campaign stresses the whole
    network the way it stresses a single link.
    """

    scenario: NetworkScenario
    seed: int = 0

    def _build_link(self, batch: UserBatch, user_index: int) -> LinkSimulator:
        return LinkSimulator(
            scenario=self.scenario.link_scenario(self.seed, batch, user_index),
            manager=self.scenario.build_manager(
                self.seed, batch, user_index
            ),
            duration_s=self.scenario.duration_s,
            sample_period_s=self.scenario.sample_period_s,
            maintenance_period_s=self.scenario.maintenance_period_s,
        )

    def run(self) -> NetworkTrace:
        """Place, schedule, simulate every link, and fold in interference."""
        scenario = self.scenario
        recorder = get_recorder()
        batch = scenario.user_batch(self.seed)
        if recorder.enabled:
            for u in range(batch.num_users):
                recorder.emit(
                    EventKind.USER_ATTACH,
                    float(batch.arrivals_s[u]),
                    user=u,
                    cell=int(batch.serving_cell[u]),
                    distance_m=batch.serving_distance_m(u),
                )

        scheduler = SlotScheduler(
            duration_s=scenario.duration_s,
            sample_period_s=scenario.sample_period_s,
            maintenance_period_s=scenario.maintenance_period_s,
            probe_slot_budget=scenario.probe_slot_budget,
        )
        probe_budgets = tuple(
            ProbeBudget() for _ in range(scenario.num_cells)
        )
        plans = tuple(
            scheduler.plan_cell(batch, c, probe_budgets[c])
            for c in range(scenario.num_cells)
        )

        traces: List[SimulationTrace] = [
            self._build_link(batch, u).run() for u in range(batch.num_users)
        ]

        # Single-cell networks get an all-zero penalty, which leaves
        # every SNR sample bitwise untouched.
        model = InterferenceModel(
            scenario=scenario, batch=batch, traces=tuple(traces), plans=plans
        )
        epoch_times = model.epoch_times_s()
        penalties = model.penalties_db()
        traces = [
            replace(
                trace,
                snr_db=apply_penalty_db(
                    trace.snr_db, trace.times_s, epoch_times, penalties[u]
                ),
            )
            for u, trace in enumerate(traces)
        ]

        if recorder.enabled:
            for u in range(batch.num_users):
                recorder.emit(
                    EventKind.USER_DETACH,
                    float(scenario.duration_s),
                    user=u,
                    cell=int(batch.serving_cell[u]),
                    mean_penalty_db=float(np.mean(penalties[u])),
                )
        return NetworkTrace(
            batch=batch,
            user_traces=tuple(traces),
            plans=plans,
            probe_budgets=probe_budgets,
            epoch_times_s=epoch_times,
            penalties_db=penalties,
        )
