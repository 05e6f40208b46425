"""mmReliable core: the paper's contribution.

* :mod:`~repro.core.multibeam` — constructive multi-beam synthesis (Eq. 10,
  Appendix A) and the optimal (MRT) reference beamformer.
* :mod:`~repro.core.probing` — the CFO-robust two-probe estimator of the
  per-beam relative amplitude and phase (Eqs. 11-12, wideband Eq. 14).
* :mod:`~repro.core.superres` — sinc-dictionary ridge regression that
  splits the combined CIR into per-beam complex gains (Eq. 23).
* :mod:`~repro.core.tracking` — model-driven per-beam angle tracking by
  inverting the beam pattern (Eqs. 18-20) with probe-based ambiguity
  resolution.
* :mod:`~repro.core.blockage` — per-beam blockage detection and power
  reallocation (Section 4.1).
* :mod:`~repro.core.maintenance` — the beam-management state machine that
  ties it all together (Fig. 9).
* :mod:`~repro.core.delay_opt` — true-time-delay optimization for the
  delay phased array (Section 3.4).
* :mod:`~repro.core.ue` — extension to directional multi-beam UEs
  (Section 4.4).
"""

from repro.core.multibeam import (
    MultiBeam,
    constructive_multibeam,
    equal_split_probe_weights,
    optimal_mrt_weights,
    multibeam_from_channel,
)
from repro.core.probing import (
    two_probe_ratio,
    wideband_relative_gain,
    ProbeController,
    RelativeGainEstimate,
)
from repro.core.superres import SuperResolver, superres_gains
from repro.core.tracking import BeamTracker, MultiBeamTracker, PowerSmoother
from repro.core.blockage import BlockageDetector, reallocate_gains
from repro.core.maintenance import MultiBeamManager
from repro.core.delay_opt import compensating_delays, build_delay_array
from repro.core.ue import associate_beams, UeMisalignmentEstimator
from repro.core.ue_link import DirectionalUeLinkManager
from repro.core.handover import MultiGnbManager

__all__ = [
    "MultiBeam",
    "constructive_multibeam",
    "equal_split_probe_weights",
    "optimal_mrt_weights",
    "multibeam_from_channel",
    "two_probe_ratio",
    "wideband_relative_gain",
    "ProbeController",
    "RelativeGainEstimate",
    "SuperResolver",
    "superres_gains",
    "BeamTracker",
    "MultiBeamTracker",
    "PowerSmoother",
    "BlockageDetector",
    "reallocate_gains",
    "MultiBeamManager",
    "compensating_delays",
    "build_delay_array",
    "associate_beams",
    "UeMisalignmentEstimator",
    "DirectionalUeLinkManager",
    "MultiGnbManager",
]
