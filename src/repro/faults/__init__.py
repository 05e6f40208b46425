"""Deterministic seed-driven fault injection ("chaos") subsystem.

``repro.faults`` lets an ensemble ask "what happens to mmReliable when
probes drop, phase shifters stick, or workers die?" without giving up
reproducibility: every fault decision comes from RNG streams keyed by
``(seed, fault kind)``, so rate ``0.0`` is bitwise identical to no
injector and any observed failure replays exactly from
``(seed, fault_spec)``.

Layering: this package depends only on numpy and ``repro.telemetry``.
The sounder (:mod:`repro.phy.ofdm`) exposes an optional
``fault_injector`` hook, the link simulator (:mod:`repro.sim.link`)
asks it whether each maintenance round's report was lost, and the
ensemble executor (:mod:`repro.sim.executor`) constructs one injector
per run from ``EnsembleSpec.faults``.
"""

from repro.faults.injector import (
    FaultInjector,
    FaultTarget,
    InjectedWorkerCrash,
)
from repro.faults.spec import (
    KNOWN_FAULT_KINDS,
    FaultKind,
    FaultSpec,
    load_fault_specs,
    parse_fault,
    parse_fault_specs,
)

__all__ = [
    "KNOWN_FAULT_KINDS",
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "FaultTarget",
    "InjectedWorkerCrash",
    "load_fault_specs",
    "parse_fault",
    "parse_fault_specs",
]
