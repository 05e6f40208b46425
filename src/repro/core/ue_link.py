"""End-to-end link management with a directional multi-beam UE (Sec. 4.4).

When the UE also beamforms, the link gains the UE's aperture (needed for
long outdoor links) but mobility now misaligns *both* ends.  The manager
here coordinates the two multi-beams:

* **establishment** — beam training at both ends yields per-path AoD
  (gNB) and AoA (UE); the gNB probes constructive gains with the UE in
  quasi-omni mode.  A useful identity sets the UE-side gains: once the
  gNB transmits its constructive multi-beam, the per-path phases arriving
  at the UE are already aligned, so the UE's constructive gains are the
  *real, non-negative* ``|c_l|^2`` — no UE-side phase probing needed.
* **association** — each end's super-resolver observes the same physical
  paths; matching per-beam ToFs associates gNB beam ``a_k`` with UE beam
  ``b_k`` (ToF unicity).
* **realignment** — translation swings a path's bearing at both ends by
  the same angle; the misalignment estimator inverts the combined
  pattern drop and the manager counter-rotates both ends, resolving the
  sign with one SNR probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.arrays.geometry import UniformLinearArray
from repro.channel.geometric import GeometricChannel
from repro.core.multibeam import MultiBeam
from repro.core.probing import ProbeController
from repro.core.ue import UeMisalignmentEstimator, associate_beams
from repro.phy.ofdm import ChannelSounder
from repro.phy.reference_signals import ProbeBudget, ProbeKind


@dataclass
class DirectionalUeLinkManager:
    """Maintains a gNB multi-beam and a UE multi-beam jointly.

    The channel must carry both AoD and AoA per path (``rx_array`` set on
    the :class:`GeometricChannel`).
    """

    gnb_array: UniformLinearArray
    ue_array: UniformLinearArray
    sounder: ChannelSounder
    num_beams: int = 2
    budget: ProbeBudget = field(default_factory=ProbeBudget)
    #: Beam training is modelled by the channel's strongest paths, so no
    #: training round ever runs; kept for the beam-manager contract.
    training_rounds: int = field(default=0, init=False)
    training_windows: List[Tuple[float, float]] = field(
        default_factory=list, init=False
    )

    gnb_multibeam: Optional[MultiBeam] = field(default=None, init=False)
    ue_multibeam: Optional[MultiBeam] = field(default=None, init=False)
    _estimator: Optional[UeMisalignmentEstimator] = field(
        default=None, init=False
    )
    _reference_snr_db: Optional[float] = field(default=None, init=False)
    _association: List[Tuple[int, int]] = field(
        default_factory=list, init=False
    )

    def __post_init__(self) -> None:
        if self.num_beams < 1:
            raise ValueError(f"num_beams must be >= 1, got {self.num_beams!r}")
        self._estimator = UeMisalignmentEstimator(
            gnb_elements=self.gnb_array.num_elements,
            ue_elements=self.ue_array.num_elements,
            spacing_wavelengths=self.gnb_array.spacing_wavelengths,
        )

    # ------------------------------------------------------------------
    # Establishment
    # ------------------------------------------------------------------
    def establish(
        self, channel: GeometricChannel, time_s: float = 0.0
    ) -> Tuple[MultiBeam, MultiBeam]:
        """Stand up both multi-beams against the current channel.

        Beam training supplies the per-path directions at each end (here
        taken from the channel's strongest paths, as any trainer would
        find them); the gNB-side constructive gains come from the
        two-probe estimator with the UE quasi-omni.
        """
        if channel.rx_array is None:
            raise ValueError(
                "directional UE link needs a channel with rx_array set"
            )
        paths = channel.strongest_paths(self.num_beams)
        if len(paths) < self.num_beams:
            raise ValueError(
                f"channel has {len(paths)} paths, need {self.num_beams}"
            )
        aods = [p.aod_rad for p in paths]
        aoas = [p.aoa_rad for p in paths]
        controller = ProbeController(
            array=self.gnb_array, sounder=self.sounder
        )
        estimate = controller.estimate_relative_gains(
            channel, aods, budget=self.budget, time_s=time_s
        )
        self.gnb_multibeam = MultiBeam(
            array=self.gnb_array,
            angles_rad=tuple(aods),
            relative_gains=estimate.relative_gains,
        )
        # With the gNB transmitting constructively, the copies arrive at
        # the UE phase-aligned with relative amplitudes |c_l|^2.
        ue_gains = tuple(
            abs(g) ** 2 for g in estimate.relative_gains
        )
        self.ue_multibeam = MultiBeam(
            array=self.ue_array,
            angles_rad=tuple(aoas),
            relative_gains=ue_gains,
        )
        # Associate beams by per-path ToF (both ends observe the same
        # delays; unicity makes rank-matching exact).
        delays = [p.delay_s for p in paths]
        self._association = associate_beams(delays, delays)
        self._reference_snr_db = self.link_snr_db(channel)
        return self.gnb_multibeam, self.ue_multibeam

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def current_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.gnb_multibeam is None or self.ue_multibeam is None:
            raise RuntimeError("call establish() first")
        return (
            self.gnb_multibeam.weights().vector,
            self.ue_multibeam.weights().vector,
        )

    def link_snr_db(self, channel: GeometricChannel) -> float:
        """True bidirectional link SNR through both multi-beams."""
        tx, rx = self.current_weights()
        return self.sounder.link_snr_db(channel, tx, rx_weights=rx)

    def step(self, channel: GeometricChannel, time_s: float) -> str:
        """One maintenance round: detect drop, invert, realign both ends."""
        if self._reference_snr_db is None:
            raise RuntimeError("call establish() first")
        self.budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=1)
        snr_db = self.link_snr_db(channel)
        drop_db = self._reference_snr_db - snr_db
        if drop_db < 0.5:
            self._reference_snr_db = max(self._reference_snr_db, snr_db)
            return "none"
        # Translation misaligns both ends by the same angle (Fig. 12):
        # invert the combined-pattern drop.
        misalignment = self._estimator.translation_angle(drop_db)
        plan = self._estimator.realignment_plan(
            self._association,
            [misalignment] * len(self._association),
            motion="translation",
        )
        best = (snr_db, self.gnb_multibeam, self.ue_multibeam)
        for sign in (+1.0, -1.0):
            gnb_angles = list(self.gnb_multibeam.angles_rad)
            ue_angles = list(self.ue_multibeam.angles_rad)
            for gnb_beam, gnb_corr, ue_beam, ue_corr in plan:
                gnb_angles[gnb_beam] += sign * gnb_corr
                ue_angles[ue_beam] += sign * ue_corr
            gnb_candidate = self.gnb_multibeam.with_angles(gnb_angles)
            ue_candidate = self.ue_multibeam.with_angles(ue_angles)
            self.budget.charge(ProbeKind.CSI_RS, time_s=time_s, count=1)
            candidate_snr = self.sounder.link_snr_db(
                channel,
                gnb_candidate.weights().vector,
                rx_weights=ue_candidate.weights().vector,
            )
            if candidate_snr > best[0]:
                best = (candidate_snr, gnb_candidate, ue_candidate)
            if candidate_snr > snr_db + 0.5:
                break  # first hypothesis already explains the drop
        if best[0] <= snr_db:
            return "hold"
        _, self.gnb_multibeam, self.ue_multibeam = best
        self._reference_snr_db = best[0]
        return "realign"
