"""Declarative scenario specs: JSON-portable descriptions of a network run.

A :class:`ScenarioSpec` is the serializable face of the scenario layer:
a flat, frozen record of the knobs that define a network-scale run
(cells, users, manager kind, clocks, budgets).  Specs round-trip through
plain dicts (``to_dict`` / ``from_dict``) and therefore through JSON
files, and the built-in named specs live in :data:`SCENARIO_SPECS`, so

    repro run --scenario quad-cell
    repro run --scenario my_campaign.json

both resolve to the same :class:`~repro.network.NetworkScenario` via
:meth:`ScenarioSpec.to_network_scenario`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType
from typing import Dict, Mapping

__all__ = [
    "SCENARIO_SPECS",
    "ScenarioSpec",
    "get_scenario_spec",
    "load_scenario_spec",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One JSON-portable network scenario description.

    Every field is a plain scalar so ``to_dict`` round-trips exactly:
    ``ScenarioSpec.from_dict(spec.to_dict()) == spec`` for any valid
    spec (the round-trip test enforces it field-for-field).
    """

    name: str
    cells: int = 1
    users: int = 1
    manager_kind: str = "mmreliable"
    num_beams: int = 2
    duration_s: float = 0.5
    sample_period_s: float = 1e-3
    maintenance_period_s: float = 5e-3
    interference_update_period_s: float = 5e-3
    cell_spacing_m: float = 14.0
    num_elements: int = 8
    bandwidth_hz: float = 400e6
    user_range_min_m: float = 4.0
    user_range_max_m: float = 12.0
    user_speed_mps: float = 1.0
    blockage_events_per_user: int = 1
    blockage_depth_db: float = 25.0
    probe_slot_budget: int = 64
    codebook_size: int = 33

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if self.cells < 1:
            raise ValueError("cells must be >= 1")
        if self.users < 1:
            raise ValueError("users must be >= 1")
        # Clock/geometry bounds are re-validated by NetworkScenario; the
        # cheap ones are caught here so bad JSON fails at load time.
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0 < self.user_range_min_m < self.user_range_max_m:
            raise ValueError(
                "user range must satisfy 0 < min < max"
            )

    def to_dict(self) -> Dict[str, object]:
        """A plain-scalar dict that :meth:`from_dict` inverts exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        """Build a spec from a dict, rejecting unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario spec keys {unknown}; known keys: "
                f"{sorted(known)}"
            )
        if "name" not in payload:
            raise ValueError("scenario spec requires a 'name'")
        return cls(**payload)

    def to_network_scenario(self):
        """The runnable :class:`~repro.network.NetworkScenario`."""
        # Imported here: repro.network sits above repro.sim in the
        # layering, and this is the one downward-facing bridge.
        from repro.network import NetworkScenario, row_of_cells

        return NetworkScenario(
            cells=row_of_cells(
                self.cells,
                spacing_m=self.cell_spacing_m,
                num_elements=self.num_elements,
                bandwidth_hz=self.bandwidth_hz,
            ),
            num_users=self.users,
            manager_kind=self.manager_kind,
            num_beams=self.num_beams,
            duration_s=self.duration_s,
            sample_period_s=self.sample_period_s,
            maintenance_period_s=self.maintenance_period_s,
            interference_update_period_s=self.interference_update_period_s,
            user_range_m=(self.user_range_min_m, self.user_range_max_m),
            user_speed_mps=self.user_speed_mps,
            blockage_events_per_user=self.blockage_events_per_user,
            blockage_depth_db=self.blockage_depth_db,
            probe_slot_budget=self.probe_slot_budget,
            codebook_size=self.codebook_size,
            name=self.name,
        )


#: The built-in named specs, the configurations the experiments and
#: docs use.  Anything else is a JSON spec file.
SCENARIO_SPECS: Mapping[str, ScenarioSpec] = MappingProxyType({
    spec.name: spec
    for spec in (
        ScenarioSpec(name="single-cell", cells=1, users=1, duration_s=0.5),
        ScenarioSpec(name="dual-cell", cells=2, users=8, duration_s=0.5),
        ScenarioSpec(name="quad-cell", cells=4, users=32, duration_s=0.5),
        ScenarioSpec(name="network-smoke", cells=2, users=4, duration_s=0.1),
    )
})


def get_scenario_spec(name: str) -> ScenarioSpec:
    """Look up a built-in spec, with a helpful error on typos."""
    try:
        return SCENARIO_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_SPECS))
        raise KeyError(
            f"unknown scenario {name!r}; known scenarios: {known}"
        ) from None


def load_scenario_spec(name_or_path: str) -> ScenarioSpec:
    """Resolve ``--scenario``'s argument: built-in name or JSON file.

    Anything that looks like a file (ends in ``.json`` or exists on
    disk) is parsed as a JSON object; everything else is a built-in
    name lookup.
    """
    if name_or_path.endswith(".json") or os.path.exists(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
        if not isinstance(payload, dict):
            raise ValueError(
                f"{name_or_path}: expected a JSON object, got "
                f"{type(payload).__name__}"
            )
        return ScenarioSpec.from_dict(payload)
    return get_scenario_spec(name_or_path)
