"""ScenarioSpec round-trip, built-in specs, and file loading."""

import dataclasses
import json

import pytest

from repro.sim.spec import (
    SCENARIO_SPECS,
    ScenarioSpec,
    get_scenario_spec,
    load_scenario_spec,
)


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = ScenarioSpec(
            name="rt", cells=3, users=12, manager_kind="reactive",
            duration_s=0.25, probe_slot_budget=7,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_through_json_text(self):
        spec = get_scenario_spec("quad-cell")
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec

    def test_every_field_survives(self):
        spec = ScenarioSpec(name="fields")
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        for field in dataclasses.fields(ScenarioSpec):
            assert getattr(rebuilt, field.name) == getattr(
                spec, field.name
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario spec keys"):
            ScenarioSpec.from_dict({"name": "x", "warp_factor": 9})

    def test_name_required(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec.from_dict({"cells": 2})

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", cells=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", users=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", duration_s=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="bad", user_range_min_m=5.0, user_range_max_m=4.0
            )


class TestRegistry:
    def test_builtins_registered(self):
        assert sorted(SCENARIO_SPECS) == [
            "dual-cell", "network-smoke", "quad-cell", "single-cell",
        ]
        for name, spec in SCENARIO_SPECS.items():
            assert get_scenario_spec(name) is spec
            assert spec.name == name

    def test_lookup_error_lists_known(self):
        with pytest.raises(KeyError, match="known scenarios: dual-cell"):
            get_scenario_spec("no-such-scenario")

    def test_builtins_are_constant(self):
        with pytest.raises(TypeError):
            SCENARIO_SPECS["dual-cell"] = ScenarioSpec(name="dual-cell")


class TestLoad:
    def test_load_by_name(self):
        assert load_scenario_spec("quad-cell").cells == 4

    def test_load_from_json_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        spec = ScenarioSpec(name="campaign", cells=2, users=6)
        path.write_text(json.dumps(spec.to_dict()))
        assert load_scenario_spec(str(path)) == spec

    def test_load_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_scenario_spec(str(path))


class TestToNetworkScenario:
    def test_builds_matching_network_scenario(self):
        spec = ScenarioSpec(
            name="net", cells=3, users=9, manager_kind="reactive",
            cell_spacing_m=20.0, probe_slot_budget=5,
        )
        scenario = spec.to_network_scenario()
        assert scenario.num_cells == 3
        assert scenario.num_users == 9
        assert scenario.manager_kind == "reactive"
        assert scenario.probe_slot_budget == 5
        assert scenario.cells[1].position_m == (20.0, 0.0)
        assert scenario.name == "net"

    def test_runs_end_to_end(self):
        spec = ScenarioSpec(
            name="tiny", cells=1, users=1, duration_s=0.02
        )
        from repro.network import NetworkSimulator

        metrics = NetworkSimulator(
            scenario=spec.to_network_scenario(), seed=0
        ).run().metrics()
        assert metrics.num_users == 1
