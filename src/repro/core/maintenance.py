"""The mmReliable beam-management state machine (paper Fig. 9).

One :class:`MultiBeamManager` owns the full life cycle of a multi-beam
link:

* **establish** — beam training finds the viable directions; the
  two-probe estimator fits per-beam relative gains; per-beam ToFs are
  anchored for the super-resolver.
* **step** (every CSI-RS opportunity) — sound the live multi-beam, split
  the CIR into per-beam powers by super-resolution, then:

  - a *fast* per-beam drop -> blockage: re-purpose power to the survivors;
  - a *slow* drift -> mobility: invert the beam pattern for the angular
    offset and realign (probe-resolved sign ambiguity);
  - everything dead -> full outage: fall back to beam training.

* periodically — refresh the constructive phases/amplitudes with a
  two-probe round, and probe dropped beams for recovery (a beam whose
  path has returned is restored to the multi-beam).

All probe spends are charged to a :class:`ProbeBudget` so experiments can
account reliability and overhead exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.arrays.steering import single_beam_weights
from repro.arrays.weights import WeightQuantizer
from repro.beamtraining.base import top_k_directions
from repro.channel.geometric import GeometricChannel
from repro.channel.wideband import cir_from_frequency_response
from repro.core.blockage import BlockageDetector, reallocate_gains
from repro.core.multibeam import MultiBeam
from repro.core.probing import ProbeController
from repro.core.superres import SuperResolver, estimate_pulse_tof
from repro.core.tracking import MultiBeamTracker
from repro.phy.mcs import OUTAGE_SNR_DB
from repro.phy.ofdm import ChannelSounder
from repro.phy.reference_signals import ProbeBudget, ProbeKind, ssb_duration_s
from repro.telemetry import EventKind, get_recorder
from repro.utils.units import power_linear_to_db

#: Placeholder per-beam power [dB] for beams not transmitting this round.
SILENT_POWER_DB = -300.0


@dataclass(frozen=True)
class MaintenanceReport:
    """What one maintenance round observed and did."""

    time_s: float
    snr_db: float
    action: str
    per_beam_power_db: np.ndarray
    blocked_mask: np.ndarray
    probes_used: int


@dataclass
class MultiBeamManager:
    """Creates and maintains a constructive multi-beam link.

    Parameters
    ----------
    array / sounder / trainer:
        The gNB array, the channel sounder, and any beam trainer exposing
        ``train(channel, budget, time_s) -> BeamTrainingResult``.
    num_beams:
        Beams in the multi-beam (2-3 suffice; Section 6.1).
    reprobe_interval_s:
        How often the constructive gains are refreshed (and dropped beams
        probed for recovery).
    quantizer:
        Optional hardware weight quantizer applied to every pattern.
    recovery_margin_db:
        A dropped beam is restored once its probed power is back within
        this margin of its healthy level.
    """

    array: UniformLinearArray
    sounder: ChannelSounder
    trainer: object
    num_beams: int = 2
    reprobe_interval_s: float = 100e-3
    quantizer: Optional[WeightQuantizer] = None
    min_beam_separation_rad: float = np.deg2rad(10.0)
    recovery_margin_db: float = 6.0
    #: Ablation switches (Fig. 17c): disable mobility tracking, blockage
    #: response, or constructive combining (equal-split gains instead of
    #: the probed relative gains).
    enable_tracking: bool = True
    enable_blockage_response: bool = True
    constructive: bool = True
    #: Minimum spacing between retrains during a full outage.  SSB bursts
    #: only come every 20 ms; retraining every CSI-RS slot while all
    #: paths are dark would only multiply the training airtime.
    retrain_cooldown_s: float = 20e-3
    #: Tracking-divergence watchdog: when the link SNR sits more than
    #: ``watchdog_drop_db`` below its healthy reference for
    #: ``watchdog_rounds`` consecutive rounds *without* a blockage
    #: explanation (or that many consecutive dropped measurements), the
    #: control loop has lost the plot and a full retrain is forced.
    watchdog_drop_db: float = 12.0
    watchdog_rounds: int = 4
    #: Optional :class:`repro.faults.FaultInjector` for control-plane
    #: faults (feedback dropouts).  Probe-level faults ride the sounder.
    fault_injector: Optional[object] = None
    budget: ProbeBudget = field(default_factory=ProbeBudget)

    multibeam: Optional[MultiBeam] = field(default=None, init=False)
    _healthy_gains: Optional[tuple] = field(default=None, init=False)
    _healthy_power_db: Optional[np.ndarray] = field(default=None, init=False)
    _tracker: Optional[MultiBeamTracker] = field(default=None, init=False)
    _detector: Optional[BlockageDetector] = field(default=None, init=False)
    _resolver: Optional[SuperResolver] = field(default=None, init=False)
    _last_reprobe_s: float = field(default=0.0, init=False)
    _last_retrain_s: float = field(default=-np.inf, init=False)
    _anchor_pending: bool = field(default=True, init=False)
    _watchdog_ref_db: float = field(default=-np.inf, init=False)
    _watchdog_streak: int = field(default=0, init=False)
    _invalid_streak: int = field(default=0, init=False)
    #: Maintenance rounds that ran in a degraded mode (dropped
    #: measurements, single-beam fallbacks, feedback dropouts).
    degraded_rounds: int = field(default=0, init=False)
    training_rounds: int = field(default=0, init=False)
    #: (start_s, duration_s) of every beam-training episode; the link is
    #: unavailable for data during these windows (reliability accounting).
    training_windows: List[tuple] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.num_beams < 1:
            raise ValueError(f"num_beams must be >= 1, got {self.num_beams!r}")
        if self.reprobe_interval_s <= 0:
            raise ValueError("reprobe_interval_s must be positive")

    # ------------------------------------------------------------------
    # Establishment
    # ------------------------------------------------------------------
    def establish(self, channel: GeometricChannel, time_s: float = 0.0) -> MultiBeam:
        """Beam-train, probe, and stand up the constructive multi-beam."""
        recorder = get_recorder()
        result = self.trainer.train(
            channel, budget=self.budget, time_s=time_s
        )
        self.training_rounds += 1
        self.training_windows.append(
            (time_s, result.num_probes * ssb_duration_s(self.budget.numerology))
        )
        if recorder.enabled:
            recorder.emit(
                EventKind.BEAM_RETRAIN,
                time_s,
                manager=type(self).__name__,
                num_probes=int(result.num_probes),
                round=self.training_rounds,
            )
        angles, _powers = top_k_directions(
            result, self.num_beams, self.min_beam_separation_rad,
            interpolate=True,
        )
        controller = ProbeController(array=self.array, sounder=self.sounder)
        reference_powers = controller.measure_reference_powers(
            channel, angles, budget=self.budget, time_s=time_s
        )
        outcome = controller.probe_relative_gains(
            channel, angles, reference_powers=reference_powers,
            budget=self.budget, time_s=time_s,
        )
        estimate = outcome.estimate
        if outcome.degraded:
            self.degraded_rounds += 1
            if recorder.enabled:
                recorder.emit(
                    EventKind.FALLBACK_ENGAGED,
                    time_s,
                    fallback="establish_degraded_probe",
                    valid=[bool(v) for v in outcome.valid],
                )
        if self.constructive:
            gains = estimate.relative_gains
        else:
            # Ablation: naive equal-split multi-beam, no phase/amplitude
            # optimization (the "tracking alone" curve of Fig. 17c).
            gains = tuple(1.0 + 0.0j for _ in estimate.relative_gains)
        self.multibeam = MultiBeam(
            array=self.array,
            angles_rad=estimate.angles_rad,
            relative_gains=gains,
        )
        self._healthy_gains = self.multibeam.relative_gains
        self._healthy_power_db = np.array(
            [float(power_linear_to_db(max(np.mean(p), 1e-30))) for p in reference_powers]
        )
        absolute_delays = self._measure_beam_tofs(channel, angles, time_s)
        self._resolver = SuperResolver(
            bandwidth_hz=self.sounder.config.bandwidth_hz,
            relative_delays_s=absolute_delays - absolute_delays[0],
            initial_base_s=float(absolute_delays[0]),
        )
        self._tracker = MultiBeamTracker.for_multibeam(self.multibeam)
        self._detector = BlockageDetector(
            num_beams=len(angles), recovery_margin_db=self.recovery_margin_db
        )
        self._anchor_pending = True
        self._last_reprobe_s = time_s
        self._watchdog_ref_db = -np.inf
        self._watchdog_streak = 0
        self._invalid_streak = 0
        return self.multibeam

    def _measure_beam_tofs(
        self,
        channel: GeometricChannel,
        angles: Sequence[float],
        time_s: float,
    ) -> np.ndarray:
        """Sub-tap absolute ToF per beam from single-beam CIRs.

        Each beam's CIR is dominated by its own path; a fine single-pulse
        fit (:func:`estimate_pulse_tof`) recovers its ToF well below the
        ``1/B`` tap spacing.  Charged as CSI-RS probes.
        """
        delays = []
        bandwidth = self.sounder.config.bandwidth_hz
        for angle in angles:
            weights = single_beam_weights(self.array, float(angle))
            estimate = self.sounder.sound(channel, weights, time_s=time_s)
            cir = cir_from_frequency_response(estimate.csi)
            delays.append(estimate_pulse_tof(cir, bandwidth))
        self.budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=len(delays))
        return np.asarray(delays)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def current_weights(self) -> np.ndarray:
        """The live multi-beam weight vector."""
        if self.multibeam is None:
            raise RuntimeError("call establish() first")
        return self.multibeam.weights(self.quantizer).vector

    def step(self, channel: GeometricChannel, time_s: float) -> MaintenanceReport:
        """One maintenance round at a CSI-RS opportunity."""
        if (
            self.multibeam is None
            or self._tracker is None
            or self._detector is None
            or self._resolver is None
        ):
            raise RuntimeError("call establish() first")
        probes = 1  # the monitoring CSI-RS itself
        self.budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=1)
        recorder = get_recorder()
        num_beams = self.multibeam.num_beams

        if self.fault_injector is not None and self.fault_injector.feedback_dropped(
            time_s
        ):
            # The SNR/CQI report for this round never arrived: hold every
            # decision (acting on a missing report would be guessing).
            self.degraded_rounds += 1
            return MaintenanceReport(
                time_s=time_s,
                snr_db=float("nan"),
                action="feedback_dropout",
                per_beam_power_db=np.full(num_beams, SILENT_POWER_DB),
                blocked_mask=self._detector.blocked_mask,
                probes_used=probes,
            )

        weights = self.current_weights()
        estimate = self.sounder.sound(channel, weights, time_s=time_s)
        snr_db = self.sounder.config.snr_db(estimate.mean_power)

        if not (np.all(np.isfinite(estimate.csi)) and estimate.mean_power > 0.0):
            # A lost or poisoned probe, not a channel condition: real CSI
            # always carries receiver noise, so an exactly-zero snapshot
            # means the measurement itself is gone.  Skip the round rather
            # than mistake it for an outage and burn a retrain.
            return self._handle_dropped_measurement(channel, time_s, probes)
        self._invalid_streak = 0

        cir = cir_from_frequency_response(estimate.csi)
        previous_mask = self._detector.blocked_mask
        active = ~previous_mask
        try:
            sr = self._resolver.estimate(cir, active_indices=np.where(active)[0])
            powers_db = sr.per_beam_power_db(floor_db=SILENT_POWER_DB)
        except (ValueError, FloatingPointError, np.linalg.LinAlgError):
            powers_db = None
        if powers_db is None or not np.all(np.isfinite(powers_db)):
            # Per-beam estimates are unusable: keep the link alive on the
            # single strongest surviving beam until the next clean round.
            self._fallback_single_beam(time_s, reason="invalid_beam_estimate")
            return MaintenanceReport(
                time_s=time_s,
                snr_db=snr_db,
                action="estimate_fallback",
                per_beam_power_db=np.full(num_beams, SILENT_POWER_DB),
                blocked_mask=previous_mask,
                probes_used=probes,
            )
        powers_db = np.where(active, powers_db, SILENT_POWER_DB)
        if recorder.enabled:
            recorder.emit(
                EventKind.PER_BEAM_POWER_ESTIMATE,
                time_s,
                powers_db=[float(p) for p in powers_db],
                active=[bool(a) for a in active],
                snr_db=float(snr_db),
            )
        blocked = self._detector.update(time_s, powers_db, active_mask=active)

        if blocked.all() or snr_db < OUTAGE_SNR_DB - 3.0:
            # Unrecoverable: every path dead or deep outage -> retrain,
            # rate-limited to the SSB cadence.
            if time_s - self._last_retrain_s >= self.retrain_cooldown_s:
                self._last_retrain_s = time_s
                self.establish(channel, time_s=time_s)
                action = "retrain"
            else:
                action = "outage_wait"
            return MaintenanceReport(
                time_s=time_s,
                snr_db=snr_db,
                action=action,
                per_beam_power_db=powers_db,
                blocked_mask=blocked,
                probes_used=probes,
            )

        # Tracking-divergence watchdog: an SNR collapse that blockage
        # detection cannot explain, sustained across several rounds, means
        # the control loop itself has diverged (e.g. tracking walked the
        # beams off the paths).  Force a full retrain.
        self._watchdog_ref_db = max(self._watchdog_ref_db, snr_db)
        diverged = (
            snr_db < self._watchdog_ref_db - self.watchdog_drop_db
            and not blocked.any()
            and not self._detector.breach_pending
        )
        self._watchdog_streak = self._watchdog_streak + 1 if diverged else 0
        if (
            self._watchdog_streak >= self.watchdog_rounds
            and time_s - self._last_retrain_s >= self.retrain_cooldown_s
        ):
            if recorder.enabled:
                recorder.emit(
                    EventKind.WATCHDOG_TRIP,
                    time_s,
                    snr_db=float(snr_db),
                    reference_db=float(self._watchdog_ref_db),
                    streak=int(self._watchdog_streak),
                )
            self._last_retrain_s = time_s
            self.establish(channel, time_s=time_s)
            return MaintenanceReport(
                time_s=time_s,
                snr_db=snr_db,
                action="watchdog_retrain",
                per_beam_power_db=powers_db,
                blocked_mask=self._detector.blocked_mask,
                probes_used=probes,
            )

        if self.enable_blockage_response and not np.array_equal(
            blocked, previous_mask
        ):
            # Blockage state changed: re-purpose power accordingly.
            self._apply_blockage_mask(blocked, time_s)
            return MaintenanceReport(
                time_s=time_s,
                snr_db=snr_db,
                action="blockage_drop",
                per_beam_power_db=powers_db,
                blocked_mask=blocked,
                probes_used=probes,
            )

        if self._anchor_pending:
            self._tracker.anchor(self._tracking_powers(powers_db, blocked))
            self._anchor_pending = False
            return MaintenanceReport(
                time_s=time_s,
                snr_db=snr_db,
                action="anchor",
                per_beam_power_db=powers_db,
                blocked_mask=blocked,
                probes_used=probes,
            )

        action = "none"

        # Mobility tracking on the unblocked beams.
        def snr_probe(candidate: MultiBeam) -> float:
            probe_estimate = self.sounder.sound(
                channel, candidate.weights(self.quantizer).vector, time_s=time_s
            )
            return self.sounder.config.snr_db(probe_estimate.mean_power)

        # Hold tracking while a suspected blockage awaits confirmation —
        # steering against a blockage-scale drop chases a phantom rotation.
        if self.enable_tracking and not self._detector.breach_pending:
            refined, tracking_probes = self._tracker.refine(
                self.multibeam,
                time_s,
                self._tracking_powers(powers_db, blocked),
                snr_probe,
                snr_db,
            )
        else:
            refined, tracking_probes = self.multibeam, 0
        if tracking_probes:
            probes += tracking_probes
            self.budget.charge(
                ProbeKind.CSI_RS, time_s=time_s, count=tracking_probes
            )
        if refined is not self.multibeam:
            self.multibeam = refined
            self._anchor_pending = True
            action = "tracking_refine"

        # Periodic constructive-gain refresh + dropped-beam recovery probe.
        if time_s - self._last_reprobe_s >= self.reprobe_interval_s:
            reprobe_count = 0
            if self.enable_blockage_response:
                reprobe_count += self._recover_beams(channel, time_s, blocked)
            if self.constructive:
                reprobe_count += self._reprobe_gains(
                    channel, time_s, self._detector.blocked_mask
                )
            probes += reprobe_count
            self._last_reprobe_s = time_s
            action = "reprobe" if action == "none" else action + "+reprobe"

        return MaintenanceReport(
            time_s=time_s,
            snr_db=snr_db,
            action=action,
            per_beam_power_db=powers_db,
            blocked_mask=self._detector.blocked_mask,
            probes_used=probes,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _handle_dropped_measurement(
        self, channel: GeometricChannel, time_s: float, probes: int
    ) -> MaintenanceReport:
        """Skip a round whose monitoring probe never arrived.

        A run of consecutive dropped measurements means the control loop
        is flying blind; after ``watchdog_rounds`` of them the watchdog
        forces a retrain (rate-limited to the SSB cadence).
        """
        recorder = get_recorder()
        self._invalid_streak += 1
        self.degraded_rounds += 1
        action = "measurement_dropped"
        if (
            self._invalid_streak >= self.watchdog_rounds
            and time_s - self._last_retrain_s >= self.retrain_cooldown_s
        ):
            if recorder.enabled:
                recorder.emit(
                    EventKind.WATCHDOG_TRIP,
                    time_s,
                    streak=int(self._invalid_streak),
                    reason="blind",
                )
            self._last_retrain_s = time_s
            self.establish(channel, time_s=time_s)
            action = "watchdog_retrain"
        return MaintenanceReport(
            time_s=time_s,
            snr_db=-np.inf,
            action=action,
            per_beam_power_db=np.full(self.multibeam.num_beams, SILENT_POWER_DB),
            blocked_mask=self._detector.blocked_mask,
            probes_used=probes,
        )

    def _fallback_single_beam(self, time_s: float, reason: str) -> None:
        """Collapse the multi-beam onto its single strongest surviving beam.

        Used when per-beam estimates are invalid: a one-beam pattern needs
        no relative gains, so it stays safe to transmit until the next
        clean probing round restores the constructive multi-beam.
        """
        blocked = self._detector.blocked_mask
        scores = np.where(blocked, -np.inf, self._healthy_power_db)
        if not np.any(np.isfinite(scores)):
            scores = np.asarray(self._healthy_power_db, dtype=float)
        strongest = int(np.argmax(scores))
        gains = [0.0 + 0.0j] * self.multibeam.num_beams
        gains[strongest] = 1.0 + 0.0j
        self.multibeam = self.multibeam.with_relative_gains(tuple(gains))
        self._anchor_pending = True
        self.degraded_rounds += 1
        recorder = get_recorder()
        if recorder.enabled:
            recorder.emit(
                EventKind.FALLBACK_ENGAGED,
                time_s,
                fallback="single_beam",
                beam=strongest,
                reason=reason,
            )

    def _tracking_powers(
        self, powers_db: np.ndarray, blocked: np.ndarray
    ) -> np.ndarray:
        """Per-beam powers for the tracker: blocked beams hold reference.

        A dropped beam produces no observation, so feeding its reference
        power keeps its tracker inert until restoration.
        """
        held = np.array(
            [
                t.reference_power_db if t.reference_power_db is not None else p
                for t, p in zip(self._tracker.trackers, powers_db)
            ]
        )
        return np.where(blocked, held, powers_db)

    def _apply_blockage_mask(self, blocked: np.ndarray, time_s: float) -> None:
        """Rebuild the live multi-beam from healthy gains + blocked mask.

        When no unblocked beam has a healthy gain (an establish whose
        probe of the survivor stayed degenerate), there is nothing to
        re-reference on: collapse onto the strongest survivor instead.
        """
        base = self.multibeam.with_relative_gains(self._healthy_gains)
        try:
            self.multibeam = reallocate_gains(base, blocked)
        except RuntimeError:
            self._fallback_single_beam(time_s, reason="no_live_gain")
            return
        self._anchor_pending = True

    def _recover_beams(
        self, channel: GeometricChannel, time_s: float, blocked: np.ndarray
    ) -> int:
        """Probe each dropped beam; restore the ones whose path is back.

        The path may have drifted while the beam was dark (its tracker was
        frozen), so each recovery check is a small 3-point scan around the
        last known direction; on success the beam is restored *at the
        angle that responded*.
        """
        probes = 0
        restored = False
        scan_offsets = (0.0, np.deg2rad(2.0), -np.deg2rad(2.0))
        for k in np.where(blocked)[0]:
            base_angle = self.multibeam.angles_rad[int(k)]
            best_angle, best_power_db = base_angle, -np.inf
            center_power_db = -np.inf
            for offset in scan_offsets:
                weights = single_beam_weights(self.array, base_angle + offset)
                estimate = self.sounder.sound(
                    channel, weights, time_s=time_s
                )
                probes += 1
                self.budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=1)
                power_db = float(power_linear_to_db(max(estimate.mean_power, 1e-30)))
                if offset == 0.0:
                    center_power_db = power_db
                if power_db > best_power_db:
                    best_angle, best_power_db = base_angle + offset, power_db
            # Moving off the last known direction needs real evidence, not
            # probe noise: require a 1 dB advantage over the center.
            if best_angle != base_angle and best_power_db < center_power_db + 1.0:
                best_angle, best_power_db = base_angle, center_power_db
            if (
                best_power_db
                >= self._healthy_power_db[int(k)] - self.recovery_margin_db
            ):
                self._detector.mark_recovered(int(k), time_s=time_s)
                if best_angle != base_angle:
                    angles = list(self.multibeam.angles_rad)
                    angles[int(k)] = best_angle
                    self.multibeam = self.multibeam.with_angles(angles)
                restored = True
        if restored:
            self._apply_blockage_mask(self._detector.blocked_mask, time_s)
        return probes

    def _reprobe_gains(
        self, channel: GeometricChannel, time_s: float, blocked: np.ndarray
    ) -> int:
        """Refresh relative gains of the unblocked beams (2 probes/beam)."""
        live = [i for i in range(self.multibeam.num_beams) if not blocked[i]]
        if len(live) < 2:
            return 0
        angles = [self.multibeam.angles_rad[i] for i in live]
        controller = ProbeController(array=self.array, sounder=self.sounder)
        outcome = controller.probe_relative_gains(
            channel, angles, reference_powers=None, budget=self.budget,
            time_s=time_s,
        )
        estimate = outcome.estimate
        if not outcome.valid[0]:
            # The reference beam itself could not be measured; nothing in
            # this round is trustworthy.  Drop to the strongest survivor.
            self._fallback_single_beam(time_s, reason="reprobe_reference_invalid")
            return estimate.num_probes
        # Refresh the healthy state for the probed beams, keeping the
        # overall reference on the live reference beam.  Beams whose
        # estimates stayed degenerate keep their previous healthy gains
        # but transmit nothing this interval (gain 0 on the live beam).
        healthy = list(self._healthy_gains)
        for slot, gain, ok in zip(live, estimate.relative_gains, outcome.valid):
            if ok:
                healthy[slot] = gain
        self._healthy_gains = tuple(healthy)
        gains = list(self.multibeam.relative_gains)
        for slot, gain, ok in zip(live, estimate.relative_gains, outcome.valid):
            gains[slot] = gain if ok else 0.0 + 0.0j
        self.multibeam = self.multibeam.with_relative_gains(gains)
        if outcome.degraded:
            self.degraded_rounds += 1
            recorder = get_recorder()
            if recorder.enabled:
                recorder.emit(
                    EventKind.FALLBACK_ENGAGED,
                    time_s,
                    fallback="survivor_beams",
                    valid=[bool(v) for v in outcome.valid],
                )
        return estimate.num_probes
