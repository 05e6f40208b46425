"""Job model: spec validation, JSON round trip, content-key discipline."""

from dataclasses import replace

import pytest

from repro.faults import FaultSpec
from repro.serve import JobRecord, JobSpec, JobState, ServiceOverload, job_key
from repro.sim.spec import get_scenario_spec


class TestJobSpecValidation:
    def test_experiment_jobs_need_an_id(self):
        with pytest.raises(ValueError, match="experiment"):
            JobSpec(kind="experiment")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(kind="mystery")

    def test_unknown_priority_rejected(self):
        with pytest.raises(ValueError, match="priority"):
            JobSpec(kind="ensemble", priority="urgent")

    def test_bad_scalars_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            JobSpec(kind="ensemble", seeds=0)
        with pytest.raises(ValueError, match="workers"):
            JobSpec(kind="ensemble", workers=0)
        with pytest.raises(ValueError, match="duration_s"):
            JobSpec(kind="ensemble", duration_s=0.0)

    def test_faults_must_be_specs(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            JobSpec(kind="ensemble", faults=("probe_loss:0.1",))


class TestRoundTrip:
    def test_minimal_round_trip(self):
        spec = JobSpec(kind="ensemble", seeds=3)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_full_round_trip(self):
        spec = JobSpec(
            kind="experiment",
            experiment="network_scale",
            scenario=get_scenario_spec("network-smoke"),
            seeds=2,
            workers=4,
            faults=(FaultSpec(kind="probe_loss", rate=0.1),),
            priority="interactive",
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown job spec keys"):
            JobSpec.from_dict({"kind": "ensemble", "seedz": 3})

    def test_retry_budget_is_not_a_job_field(self):
        assert "ensemble_retries" not in JobSpec(kind="ensemble").to_dict()
        with pytest.raises(ValueError, match="ensemble_retries"):
            JobSpec.from_dict({"kind": "ensemble", "ensemble_retries": 2})


class TestJobKey:
    def test_key_is_stable(self):
        spec = JobSpec(kind="ensemble", seeds=3)
        assert job_key(spec) == job_key(JobSpec.from_dict(spec.to_dict()))

    def test_content_fields_change_the_key(self):
        base = JobSpec(kind="ensemble", seeds=3)
        assert job_key(base) != job_key(replace(base, seeds=4))
        assert job_key(base) != job_key(replace(base, duration_s=0.05))
        assert job_key(base) != job_key(
            replace(base, faults=(FaultSpec(kind="probe_loss", rate=0.1),))
        )

    def test_serving_metadata_does_not_change_the_key(self):
        # The executor's output is backend-independent, and priority is
        # a serving concern: none of them may split the coalescing key.
        base = JobSpec(kind="ensemble", seeds=3)
        assert job_key(base) == job_key(replace(base, workers=8))
        assert job_key(base) == job_key(replace(base, priority="bulk"))

    def test_scenario_changes_the_key(self):
        base = JobSpec(
            kind="experiment",
            experiment="network_scale",
            scenario=get_scenario_spec("network-smoke"),
        )
        other = replace(base, scenario=get_scenario_spec("dual-cell"))
        assert job_key(base) != job_key(other)


class TestJobRecord:
    def test_lifecycle_history(self):
        record = JobRecord(job_id="job-1", key="k", spec=JobSpec(kind="ensemble"))
        record.transition(JobState.RUNNING, 1.0)
        record.transition(JobState.PENDING, 2.0)  # an older journal's retry
        record.transition(JobState.RUNNING, 3.0)
        record.transition(JobState.SUCCEEDED, 4.0)
        assert record.terminal
        assert record.finished_at_s == 4.0
        assert [state for state, _t in record.history] == [
            "running", "pending", "running", "succeeded",
        ]

    def test_terminal_states_are_final(self):
        record = JobRecord(job_id="job-1", key="k", spec=JobSpec(kind="ensemble"))
        record.transition(JobState.SHED, 1.0)
        with pytest.raises(ValueError, match="terminal"):
            record.transition(JobState.RUNNING, 2.0)

    def test_status_payload_is_json_safe(self):
        import json

        record = JobRecord(job_id="job-1", key="k", spec=JobSpec(kind="ensemble"))
        record.transition(JobState.SUCCEEDED, 1.0)
        record.result = {"runs": 2}
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["state"] == "succeeded"
        assert payload["result"] == {"runs": 2}


class TestServiceOverload:
    def test_structured_payload(self):
        overload = ServiceOverload(
            reason="queue full", queue_depth=64, queue_limit=64,
            retry_after_s=2.0,
        )
        payload = overload.to_dict()
        assert payload["error"] == "overload"
        assert payload["queue_depth"] == 64
        assert payload["retry_after_s"] == 2.0
