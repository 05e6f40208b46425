"""Declarative fault specifications for the chaos subsystem.

A :class:`FaultSpec` names one fault kind and the per-opportunity rate at
which it fires; a tuple of specs describes a whole chaos campaign.  Specs
are frozen, hashable, and picklable so the ensemble executor can ship
them to process-pool workers unchanged, and ``rate=0.0`` is an explicit
no-op: injectors never draw randomness for a zero-rate spec, so a run
with all-zero rates is bitwise identical to a run with no injector.

The CLI accepts the compact ``kind:rate`` (optionally
``kind:rate:key=value,key=value``) form via :func:`parse_fault`, and JSON
campaign files via :func:`load_fault_specs`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union


class FaultKind:
    """The fault taxonomy (string constants, stable across versions)."""

    #: A reference-signal probe never arrives: the CSI snapshot is zeroed.
    PROBE_LOSS = "probe_loss"
    #: A probe arrives with a random per-snapshot power error [dB].
    PROBE_CORRUPTION = "probe_corruption"
    #: Array elements stuck at a constant weight (dead phase shifters).
    STUCK_ELEMENTS = "stuck_elements"
    #: The receiver serves a cached CSI snapshot instead of a fresh one.
    STALE_CSI = "stale_csi"
    #: An SNR/CQI feedback report is lost; maintenance skips the round.
    FEEDBACK_DROPOUT = "feedback_dropout"
    #: Executor chaos: the worker process dies mid-run.
    WORKER_CRASH = "worker_crash"
    #: Executor chaos: the run is artificially delayed by ``delay_s``.
    SLOW_RUN = "slow_run"

    @classmethod
    def all(cls) -> Tuple[str, ...]:
        return tuple(
            value
            for name, value in vars(cls).items()
            if not name.startswith("_") and isinstance(value, str)
        )


#: Every kind the injector implements, for validation.
KNOWN_FAULT_KINDS: Tuple[str, ...] = FaultKind.all()

ParamsLike = Union[
    Mapping[str, float], Iterable[Tuple[str, float]], Tuple[Tuple[str, float], ...]
]


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind plus its firing rate and kind-specific parameters.

    Parameters
    ----------
    kind:
        One of :data:`KNOWN_FAULT_KINDS`.
    rate:
        Probability in ``[0, 1]`` that the fault fires at each
        opportunity (per probe for probe-level kinds, per array element
        for ``stuck_elements``, per run for chaos kinds).  ``0.0``
        disables the fault without consuming any randomness.
    params:
        Kind-specific knobs (e.g. ``sigma_db`` for ``probe_corruption``,
        ``value`` for ``stuck_elements``, ``delay_s`` for ``slow_run``).
        Stored as a sorted tuple of pairs so specs stay hashable.
    """

    kind: str
    rate: float
    params: Tuple[Tuple[str, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(KNOWN_FAULT_KINDS)}"
            )
        rate = float(self.rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate!r}")
        object.__setattr__(self, "rate", rate)
        params = self.params
        if isinstance(params, Mapping):
            items = params.items()
        else:
            items = tuple(params)
        normalized = tuple(
            sorted((str(key), float(value)) for key, value in items)
        )
        object.__setattr__(self, "params", normalized)

    def param(self, name: str, default: float) -> float:
        """Look up one parameter, falling back to ``default``."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form, inverse of the mapping accepted by
        :func:`load_fault_specs`."""
        payload: Dict[str, object] = {"kind": self.kind, "rate": self.rate}
        payload.update({key: value for key, value in self.params})
        return payload


def parse_fault(text: str) -> FaultSpec:
    """Parse the CLI ``kind:rate[:key=value,...]`` form.

    >>> parse_fault("probe_loss:0.1")
    FaultSpec(kind='probe_loss', rate=0.1, params=())
    >>> parse_fault("slow_run:1.0:delay_s=0.5").param("delay_s", 0.0)
    0.5
    """
    pieces = text.strip().split(":")
    if len(pieces) < 2 or not pieces[0]:
        raise ValueError(
            f"fault must look like kind:rate (got {text!r}); "
            f"kinds: {', '.join(KNOWN_FAULT_KINDS)}"
        )
    kind, rate_text = pieces[0], pieces[1]
    try:
        rate = float(rate_text)
    except ValueError:
        raise ValueError(f"fault rate must be a number, got {rate_text!r}")
    params: List[Tuple[str, float]] = []
    if len(pieces) > 2:
        for item in ":".join(pieces[2:]).split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"fault parameter must look like key=value, got {item!r}"
                )
            key, value_text = item.split("=", 1)
            try:
                value = float(value_text)
            except ValueError:
                raise ValueError(
                    f"fault parameter {key!r} must be a number, "
                    f"got {value_text!r}"
                )
            params.append((key.strip(), value))
    return FaultSpec(kind=kind, rate=rate, params=tuple(params))


def load_fault_specs(source: Any) -> Tuple[FaultSpec, ...]:
    """Load a chaos campaign from JSON.

    ``source`` is a path, an open text stream, or an already-parsed
    object.  The document is either a list of spec mappings or a mapping
    with a ``"faults"`` list; each spec mapping carries ``kind``,
    ``rate``, and any extra keys as parameters::

        [{"kind": "probe_loss", "rate": 0.1},
         {"kind": "slow_run", "rate": 1.0, "delay_s": 0.5}]
    """
    if hasattr(source, "read"):
        document = json.load(source)
    elif isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as stream:
            document = json.load(stream)
    else:
        document = source
    return parse_fault_specs(document)


def parse_fault_specs(document: Any) -> Tuple[FaultSpec, ...]:
    """Validate an already-parsed campaign document (no I/O ever).

    This is the half of :func:`load_fault_specs` that event-loop code may
    call directly: it never touches the filesystem, so converting wire
    payloads (e.g. ``JobSpec.from_dict``) stays non-blocking.
    """
    if isinstance(document, Mapping):
        document = document.get("faults", None)
        if document is None:
            raise ValueError('fault spec object must carry a "faults" list')
    if not isinstance(document, list):
        raise ValueError("fault spec document must be a list of specs")
    specs: List[FaultSpec] = []
    for entry in document:
        if not isinstance(entry, Mapping):
            raise ValueError(f"each fault spec must be a mapping, got {entry!r}")
        if "kind" not in entry or "rate" not in entry:
            raise ValueError(f"fault spec needs kind and rate, got {entry!r}")
        params = tuple(
            (str(key), float(value))
            for key, value in entry.items()
            if key not in ("kind", "rate")
        )
        specs.append(
            FaultSpec(
                kind=str(entry["kind"]),
                rate=float(entry["rate"]),
                params=params,
            )
        )
    return tuple(specs)
