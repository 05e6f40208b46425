"""Comparison baselines from the paper's evaluation (Section 6.2).

* :class:`~repro.baselines.reactive.ReactiveSingleBeam` — the conventional
  single-beam link with fast reactive re-training on outage (Hassanieh et
  al. style).
* :class:`~repro.baselines.beamspy.BeamSpySingleBeam` — single beam that
  switches to the best alternate direction from its stored spatial profile
  when blocked, without a full re-scan (Sur et al., BeamSpy).
* :class:`~repro.baselines.widebeam.WideBeam` — a widened sector beam that
  trades gain for angular robustness.
* :class:`~repro.baselines.oracle.OracleBeam` — the per-antenna MRT
  upper bound with genie channel knowledge.

Every baseline implements the beam-manager contract of
:mod:`repro.sim.link`: ``establish(channel, time_s)``,
``step(channel, time_s)`` returning the action it took,
``current_weights()``, and ``sounder``, ``budget``, ``training_rounds``
and ``training_windows``.  The training baselines charge each training
episode through :func:`repro.beamtraining.base.train_and_record`.
"""

from repro.baselines.reactive import ReactiveSingleBeam
from repro.baselines.beamspy import BeamSpySingleBeam
from repro.baselines.widebeam import WideBeam
from repro.baselines.oracle import OracleBeam

__all__ = [
    "ReactiveSingleBeam",
    "BeamSpySingleBeam",
    "WideBeam",
    "OracleBeam",
]
