"""Deterministic seed-driven fault injection ("chaos") subsystem.

``repro.faults`` lets an ensemble ask "what happens to mmReliable when
probes drop, phase shifters stick, or workers die?" without giving up
reproducibility: every fault decision comes from RNG streams keyed by
``(seed, fault kind)``, so rate ``0.0`` is bitwise identical to no
injector and any observed failure replays exactly from
``(seed, fault_spec)``.

Layering: this package depends only on numpy and ``repro.telemetry``.
The active injector sits in a thread-scoped slot (:func:`get_injector`,
:func:`use_injector`), as the telemetry recorder does.  The ensemble
executor (:mod:`repro.sim.executor`) builds one injector per seed-run
from ``EnsembleSpec.faults`` and scopes it around the run; the sounder
(:mod:`repro.phy.ofdm`) reads the slot for probe and element faults,
and the link simulator (:mod:`repro.sim.link`) for whether each
maintenance round's report was lost.
"""

from repro.faults.injector import (
    FaultInjector,
    InjectedWorkerCrash,
    get_injector,
    use_injector,
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
    "InjectedWorkerCrash",
    "get_injector",
    "load_fault_specs",
    "parse_fault",
    "parse_fault_specs",
    "use_injector",
]
