"""The job model: what a submission is, and how it is identified.

A :class:`JobSpec` is the frozen, JSON-portable description of one unit
of serving work — either a registered experiment run or a raw micro
ensemble on the executor.  Its identity for *coalescing* is the content
hash of the fields that determine the computed result
(:func:`job_key`): two submissions with the same key provably compute
the same thing (the executor's output is backend-independent by
design), so the server runs one execution and both submissions share
it.  Serving metadata — priority class and worker count — is
deliberately excluded from the key.

A :class:`JobRecord` is the server-side mutable lifecycle of one
accepted submission: state machine ``pending -> running -> terminal``,
where terminal is one of ``succeeded`` / ``failed`` / ``shed``; journal
replay returns a job interrupted mid-run to ``pending``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults import FaultSpec, parse_fault_specs
from repro.sim.spec import ScenarioSpec

__all__ = [
    "JOB_KINDS",
    "PRIORITIES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ServiceOverload",
    "job_key",
]


#: Priority classes, best first.  Rank = index: lower is more urgent.
PRIORITIES: Tuple[str, ...] = ("interactive", "batch", "bulk")

#: What a job executes: a registered experiment, or a micro ensemble
#: driven straight through the executor (cheap, used by load tests and
#: health probes).
JOB_KINDS: Tuple[str, ...] = ("experiment", "ensemble")


class JobState:
    """Lifecycle states (string constants, stable across versions)."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    SHED = "shed"


TERMINAL_STATES: Tuple[str, ...] = (
    JobState.SUCCEEDED,
    JobState.FAILED,
    JobState.SHED,
)


class ServiceOverload(Exception):
    """The server refused a submission to protect itself.

    Carries a structured payload so clients get an actionable rejection
    (queue depth, limit, suggested retry delay) instead of a timeout.
    """

    def __init__(
        self,
        reason: str,
        queue_depth: int,
        queue_limit: int,
        retry_after_s: float = 1.0,
    ) -> None:
        self.reason = reason
        self.queue_depth = int(queue_depth)
        self.queue_limit = int(queue_limit)
        self.retry_after_s = float(retry_after_s)
        super().__init__(reason)

    def to_dict(self) -> Dict[str, object]:
        return {
            "error": "overload",
            "reason": self.reason,
            "queue_depth": self.queue_depth,
            "queue_limit": self.queue_limit,
            "retry_after_s": self.retry_after_s,
        }


@dataclass(frozen=True)
class JobSpec:
    """One JSON-portable unit of serving work.

    ``kind="experiment"`` runs ``experiment`` from the registry with an
    :class:`~repro.experiments.registry.ExperimentConfig` built from the
    knob fields.  ``kind="ensemble"`` runs a micro link ensemble
    straight on the executor (see :mod:`repro.serve.runner`) — cheap
    enough that load tests can push hundreds of them.
    """

    kind: str = "experiment"
    experiment: Optional[str] = None
    scenario: Optional[ScenarioSpec] = None
    seeds: Optional[int] = None
    workers: int = 1
    faults: Tuple[FaultSpec, ...] = ()
    #: Per-run duration for ``kind="ensemble"`` micro jobs [s].
    duration_s: float = 0.02
    priority: str = "batch"

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of "
                f"{', '.join(JOB_KINDS)}"
            )
        if self.kind == "experiment" and not self.experiment:
            raise ValueError("experiment jobs need an experiment id")
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {self.priority!r}; expected one of "
                f"{', '.join(PRIORITIES)}"
            )
        if self.seeds is not None and self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s!r}"
            )
        faults = tuple(self.faults)
        for spec in faults:
            if not isinstance(spec, FaultSpec):
                raise TypeError(
                    f"faults must be FaultSpec instances, got {spec!r}"
                )
        object.__setattr__(self, "faults", faults)
        if self.scenario is not None and not isinstance(
            self.scenario, ScenarioSpec
        ):
            raise TypeError(
                f"scenario must be a ScenarioSpec, got {self.scenario!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """Plain-scalar dict; :meth:`from_dict` inverts it exactly."""
        payload: Dict[str, object] = {
            "kind": self.kind,
            "workers": self.workers,
            "duration_s": self.duration_s,
            "priority": self.priority,
        }
        if self.experiment is not None:
            payload["experiment"] = self.experiment
        if self.scenario is not None:
            payload["scenario"] = self.scenario.to_dict()
        if self.seeds is not None:
            payload["seeds"] = self.seeds
        if self.faults:
            payload["faults"] = [spec.to_dict() for spec in self.faults]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobSpec":
        """Build a spec from a submission dict, loudly on bad keys."""
        known = {
            "kind", "experiment", "scenario", "seeds", "workers",
            "faults", "duration_s", "priority",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown job spec keys {unknown}; known keys: "
                f"{sorted(known)}"
            )
        fields_in: Dict[str, Any] = dict(payload)
        scenario = fields_in.pop("scenario", None)
        if scenario is not None:
            if not isinstance(scenario, dict):
                raise ValueError("scenario must be a JSON object")
            fields_in["scenario"] = ScenarioSpec.from_dict(scenario)
        faults = fields_in.pop("faults", None)
        if faults is not None:
            fields_in["faults"] = parse_fault_specs(list(faults))
        return cls(**fields_in)


#: JobSpec fields that do NOT change the computed result and are
#: therefore excluded from the coalescing key.  ``workers`` is excluded
#: because the executor's output is bitwise identical at any worker
#: count.
_NON_CONTENT_FIELDS = frozenset({"workers", "priority"})


def job_key(spec: JobSpec) -> str:
    """The content-derived coalescing key for a spec.

    Canonical JSON over the result-determining fields, hashed; never
    ``id()``/``repr()`` based, so equal submissions coalesce across
    processes and server restarts.
    """
    payload = {
        name: value
        for name, value in spec.to_dict().items()
        if name not in _NON_CONTENT_FIELDS
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class JobRecord:
    """Server-side lifecycle of one accepted submission."""

    job_id: str
    key: str
    spec: JobSpec
    state: str = JobState.PENDING
    #: Attempt counter: 0 before the first start, then 1, 2, ...
    attempts: int = 0
    #: How many submissions (1 + duplicates) share this execution.
    submissions: int = 1
    #: Server-clock timestamps [s since server start].
    submitted_at_s: float = 0.0
    finished_at_s: Optional[float] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    #: Lifecycle transitions, for exactly-once audits.
    history: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, state: str, time_s: float) -> None:
        """Move to ``state``; refuses to leave a terminal state."""
        if self.terminal:
            raise ValueError(
                f"job {self.job_id} is already terminal ({self.state}); "
                f"cannot move to {state}"
            )
        self.state = state
        self.history.append((state, float(time_s)))
        if state in TERMINAL_STATES:
            self.finished_at_s = float(time_s)

    def apply(self, op: Dict[str, Any]) -> None:
        """Fold one journal op (any but ``submit``, which builds the
        record) into the record.  The server commits every transition
        and journal replay folds every op through this one method, so a
        live record equals the replay of its journal.  Only older
        servers wrote ``retry``."""
        kind = op["op"]
        time_s = float(op.get("t", 0.0))
        if kind == "coalesce":
            self.submissions += 1
        elif kind == "start":
            self.attempts = int(op.get("attempt", self.attempts + 1))
            self.transition(JobState.RUNNING, time_s)
        elif kind == "retry":
            self.error = op.get("error")
            self.transition(JobState.PENDING, time_s)
        elif kind == "done":
            self.error = op.get("error")
            self.result = op.get("result")
            self.transition(str(op.get("state", JobState.SUCCEEDED)), time_s)
        elif kind == "shed":
            self.error = str(op.get("reason", "shed"))
            self.transition(JobState.SHED, time_s)

    def to_dict(self) -> Dict[str, object]:
        """Status payload served to clients (JSON-safe)."""
        payload: Dict[str, object] = {
            "id": self.job_id,
            "key": self.key,
            "state": self.state,
            "attempts": self.attempts,
            "submissions": self.submissions,
            "priority": self.spec.priority,
            "submitted_at_s": self.submitted_at_s,
        }
        if self.finished_at_s is not None:
            payload["finished_at_s"] = self.finished_at_s
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        return payload
