"""Tests for the declarative fault-spec layer (parse, validate, load)."""

import io
import json

import pytest

from repro.faults import (
    KNOWN_FAULT_KINDS,
    FaultKind,
    FaultSpec,
    load_fault_specs,
    parse_fault,
)


class TestFaultKind:
    def test_taxonomy_is_complete(self):
        assert set(KNOWN_FAULT_KINDS) == {
            "probe_loss", "probe_corruption", "stuck_elements",
            "stale_csi", "feedback_dropout", "worker_crash", "slow_run",
        }

    def test_chaos_kinds_are_known(self):
        for kind in (FaultKind.WORKER_CRASH, FaultKind.SLOW_RUN):
            assert kind in KNOWN_FAULT_KINDS

    def test_all_matches_constants(self):
        assert FaultKind.PROBE_LOSS in FaultKind.all()
        assert FaultKind.WORKER_CRASH in FaultKind.all()


class TestFaultSpec:
    def test_basic_construction(self):
        spec = FaultSpec(kind=FaultKind.PROBE_LOSS, rate=0.1)
        assert spec.kind == "probe_loss"
        assert spec.rate == 0.1
        assert spec.params == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_ray", rate=0.1)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="probe_loss", rate=-0.1)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="probe_loss", rate=1.5)
        assert FaultSpec(kind="probe_loss", rate=0.0).rate == 0.0
        assert FaultSpec(kind="probe_loss", rate=1.0).rate == 1.0

    def test_params_normalized_and_hashable(self):
        from_mapping = FaultSpec(
            kind="slow_run", rate=1.0, params={"delay_s": 0.5, "a": 1}
        )
        from_pairs = FaultSpec(
            kind="slow_run", rate=1.0, params=(("a", 1.0), ("delay_s", 0.5))
        )
        assert from_mapping == from_pairs
        assert hash(from_mapping) == hash(from_pairs)
        assert from_mapping.params == (("a", 1.0), ("delay_s", 0.5))

    def test_param_lookup_with_default(self):
        spec = FaultSpec(kind="slow_run", rate=1.0, params={"delay_s": 0.5})
        assert spec.param("delay_s", 0.0) == 0.5
        assert spec.param("missing", 7.0) == 7.0

    def test_to_dict_roundtrips_through_loader(self):
        spec = FaultSpec(
            kind="probe_corruption", rate=0.2, params={"sigma_db": 3.0}
        )
        (loaded,) = load_fault_specs([spec.to_dict()])
        assert loaded == spec

    def test_specs_are_picklable(self):
        import pickle

        spec = FaultSpec(kind="stuck_elements", rate=0.1, params={"value": 0.0})
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestParseFault:
    def test_simple_form(self):
        spec = parse_fault("probe_loss:0.1")
        assert spec == FaultSpec(kind="probe_loss", rate=0.1)

    def test_with_params(self):
        spec = parse_fault("slow_run:1.0:delay_s=0.5")
        assert spec.kind == "slow_run"
        assert spec.param("delay_s", 0.0) == 0.5

    def test_multiple_params(self):
        spec = parse_fault("stuck_elements:0.2:value=0.0,seed_bias=2")
        assert spec.param("value", -1.0) == 0.0
        assert spec.param("seed_bias", -1.0) == 2.0

    @pytest.mark.parametrize(
        "text", ["", "probe_loss", ":0.1", "probe_loss:abc",
                 "bogus:0.1", "probe_loss:2.0", "slow_run:1.0:delay_s"]
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_fault(text)


class TestLoadFaultSpecs:
    DOCUMENT = [
        {"kind": "probe_loss", "rate": 0.1},
        {"kind": "slow_run", "rate": 1.0, "delay_s": 0.5},
    ]

    def test_from_parsed_list(self):
        specs = load_fault_specs(self.DOCUMENT)
        assert len(specs) == 2
        assert specs[0] == FaultSpec(kind="probe_loss", rate=0.1)
        assert specs[1].param("delay_s", 0.0) == 0.5

    def test_from_stream(self):
        stream = io.StringIO(json.dumps(self.DOCUMENT))
        assert load_fault_specs(stream) == load_fault_specs(self.DOCUMENT)

    def test_from_path(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"faults": self.DOCUMENT}))
        assert load_fault_specs(str(path)) == load_fault_specs(self.DOCUMENT)

    def test_mapping_without_faults_key_rejected(self):
        with pytest.raises(ValueError, match="faults"):
            load_fault_specs({"chaos": []})

    def test_non_list_rejected(self):
        with pytest.raises(ValueError, match="list"):
            load_fault_specs("not json at all" and {"faults": "nope"})

    def test_entry_without_rate_rejected(self):
        with pytest.raises(ValueError, match="kind and rate"):
            load_fault_specs([{"kind": "probe_loss"}])

    def test_non_mapping_entry_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            load_fault_specs(["probe_loss:0.1"])
