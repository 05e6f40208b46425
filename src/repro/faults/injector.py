"""Deterministic, seed-driven fault injection.

The :class:`FaultInjector` turns a tuple of :class:`FaultSpec`s into
concrete fault decisions.  Every decision comes from a dedicated RNG
stream keyed by ``(salt, seed, kind)`` — separate from the sounder's
noise stream — so installing an injector never perturbs the simulated
physics, a zero rate never draws at all, and the full fault schedule is
reproducible from ``(seed, fault_spec)`` alone, independent of worker
count or scheduling order.

Probe-level kinds draw exactly once per sounding from their own stream,
so the schedule of one kind does not shift when another kind's rate
changes.  Chaos kinds (worker crash, slow run) draw once per run, from
streams keyed like every other kind's.

Consumers stay decoupled: the sounder exposes an optional
``fault_injector`` attribute for probe-level and element faults, and
simulators that accept chaos implement the :class:`FaultTarget`
protocol — a single typed ``install_fault_injector`` method.  The link
simulator owns the control-plane hook: it asks
:meth:`FaultInjector.feedback_dropped` once per maintenance round and
skips the round of whichever beam manager it drives.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np
import numpy.typing as npt

from repro.faults.spec import KNOWN_FAULT_KINDS, FaultKind, FaultSpec
from repro.telemetry import EventKind, get_recorder
from repro.utils import db_to_linear

#: Mixed into every injector stream so fault randomness can never collide
#: with the sounder streams seeded from the same run seed.
_FAULT_SALT = 0x6D6D4656  # "mmFV"


class InjectedWorkerCrash(RuntimeError):
    """Raised inside a worker when ``worker_crash`` chaos fires."""


class FaultInjector:
    """Draws deterministic fault decisions for one run.

    Parameters
    ----------
    seed:
        The run's seed.  Identical ``(seed, specs)`` pairs produce
        identical fault schedules everywhere.
    specs:
        The chaos campaign.  At most one spec per kind.
    """

    def __init__(self, seed: int, specs: Sequence[FaultSpec] = ()) -> None:
        self.seed = int(seed)
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._spec_by_kind: Dict[str, FaultSpec] = {}
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected FaultSpec, got {spec!r}")
            if spec.kind in self._spec_by_kind:
                raise ValueError(f"duplicate fault spec for kind {spec.kind!r}")
            self._spec_by_kind[spec.kind] = spec
        self._rngs: Dict[str, np.random.Generator] = {}
        self._stuck_masks: Dict[int, npt.NDArray[np.bool_]] = {}
        self._last_clean_csi: Optional[npt.NDArray[Any]] = None
        self._chaos: Optional[Tuple[float, bool]] = None
        #: Chronological ``(time_s, kind)`` log of every fault that fired,
        #: the ground truth for schedule-reproducibility tests.
        self.injected: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    # stream plumbing

    @property
    def enabled(self) -> bool:
        """True when any spec can actually fire."""
        return any(spec.rate > 0.0 for spec in self.specs)

    def rate(self, kind: str) -> float:
        spec = self._spec_by_kind.get(kind)
        return 0.0 if spec is None else spec.rate

    def _rng(self, kind: str) -> np.random.Generator:
        rng = self._rngs.get(kind)
        if rng is None:
            rng = np.random.default_rng(
                [_FAULT_SALT, self.seed, KNOWN_FAULT_KINDS.index(kind)]
            )
            self._rngs[kind] = rng
        return rng

    def _draw(self, kind: str) -> bool:
        """One Bernoulli draw from ``kind``'s stream; never draws at rate 0."""
        spec = self._spec_by_kind.get(kind)
        if spec is None or spec.rate <= 0.0:
            return False
        return bool(self._rng(kind).random() < spec.rate)

    def _record(self, kind: str, time_s: float, **fields: object) -> None:
        self.injected.append((float(time_s), kind))
        recorder = get_recorder()
        if recorder.enabled:
            recorder.emit(EventKind.FAULT_INJECTED, time_s, fault=kind, **fields)

    # ------------------------------------------------------------------
    # probe-level hooks (called by ChannelSounder.sound)

    def filter_probe(
        self, csi: npt.NDArray[Any], time_s: float = 0.0
    ) -> npt.NDArray[Any]:
        """Apply probe-level faults to one sounded CSI snapshot.

        Each probe-level kind draws exactly once per call so schedules
        stay independent across kinds; when several fire at once, loss
        beats staleness beats corruption.
        """
        lost = self._draw(FaultKind.PROBE_LOSS)
        stale = self._draw(FaultKind.STALE_CSI)
        corrupt = self._draw(FaultKind.PROBE_CORRUPTION)
        if lost:
            self._record(FaultKind.PROBE_LOSS, time_s)
            return np.zeros_like(csi)
        if stale:
            cached = self._last_clean_csi
            if cached is not None and cached.shape == csi.shape:
                self._record(FaultKind.STALE_CSI, time_s)
                return cached.copy()
        if corrupt:
            sigma_db = self._spec_by_kind[FaultKind.PROBE_CORRUPTION].param(
                "sigma_db", 6.0
            )
            offset_db = float(
                self._rng(FaultKind.PROBE_CORRUPTION).normal(0.0, sigma_db)
            )
            self._record(
                FaultKind.PROBE_CORRUPTION, time_s, offset_db=offset_db
            )
            return csi * float(db_to_linear(offset_db))
        self._last_clean_csi = csi.copy()
        return csi

    def apply_element_faults(
        self, weights: npt.NDArray[Any]
    ) -> npt.NDArray[Any]:
        """Force stuck array elements to a constant weight.

        The stuck mask is drawn once per array size and then held for the
        run's lifetime — stuck phase shifters are hardware, not noise.
        """
        if self.rate(FaultKind.STUCK_ELEMENTS) <= 0.0:
            return weights
        num_elements = int(weights.shape[0])
        mask = self._stuck_masks.get(num_elements)
        if mask is None:
            spec = self._spec_by_kind[FaultKind.STUCK_ELEMENTS]
            draws = self._rng(FaultKind.STUCK_ELEMENTS).random(num_elements)
            mask = draws < spec.rate
            self._stuck_masks[num_elements] = mask
            if mask.any():
                self._record(
                    FaultKind.STUCK_ELEMENTS,
                    0.0,
                    num_stuck=int(mask.sum()),
                    num_elements=num_elements,
                )
        if not mask.any():
            return weights
        value = self._spec_by_kind[FaultKind.STUCK_ELEMENTS].param("value", 0.0)
        faulty = np.array(weights, copy=True)
        faulty[mask] = value
        return faulty

    # ------------------------------------------------------------------
    # control-plane hook (called by LinkSimulator once per maintenance round)

    def feedback_dropped(self, time_s: float = 0.0) -> bool:
        """Whether this round's SNR/CQI feedback report was lost."""
        if self._draw(FaultKind.FEEDBACK_DROPOUT):
            self._record(FaultKind.FEEDBACK_DROPOUT, time_s)
            return True
        return False

    # ------------------------------------------------------------------
    # executor chaos (drawn once per run)

    def _chaos_draws(self) -> Tuple[float, bool]:
        if self._chaos is None:
            delay_s = 0.0
            if self._draw(FaultKind.SLOW_RUN):
                delay_s = self._spec_by_kind[FaultKind.SLOW_RUN].param(
                    "delay_s", 0.25
                )
                self._record(FaultKind.SLOW_RUN, 0.0, delay_s=delay_s)
            crash = self._draw(FaultKind.WORKER_CRASH)
            if crash:
                self._record(FaultKind.WORKER_CRASH, 0.0)
            self._chaos = (delay_s, crash)
        return self._chaos

    def chaos_delay_s(self) -> float:
        """Artificial per-run delay, 0.0 when ``slow_run`` did not fire."""
        return self._chaos_draws()[0]

    def chaos_crash(self) -> bool:
        """Whether ``worker_crash`` fires for this run."""
        return self._chaos_draws()[1]


@runtime_checkable
class FaultTarget(Protocol):
    """Anything chaos can be installed on — simulators, link or network.

    The executor wires an injector into whatever it is about to run via
    this single typed method, instead of reaching into the object's
    manager/sounder attributes.  :class:`repro.sim.link.LinkSimulator`
    implements it by wiring its manager's sounder and keeping the
    injector for its maintenance rounds;
    :class:`repro.network.simulator.NetworkSimulator` fans the same
    injector out to every per-user manager.
    """

    def install_fault_injector(self, injector: FaultInjector) -> None:
        """Attach ``injector`` to every fault hook this target owns."""
        ...  # pragma: no cover - protocol

