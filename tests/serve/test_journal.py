"""Journal: durable append, crash-tolerant replay, resume semantics."""

import json

import pytest

from repro.serve import JobJournal, JobSpec, JobState, job_key, replay_journal


def _submit(journal, job_id, t=0.0, **spec_kwargs):
    spec = JobSpec(kind="ensemble", **spec_kwargs)
    journal.append(
        "submit", id=job_id, key=job_key(spec), t=t, job=spec.to_dict()
    )
    return spec


class TestAppend:
    def test_one_json_line_per_op(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path) as journal:
            _submit(journal, "job-1")
            journal.append("start", id="job-1", attempt=1, t=1.0)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["op"] == "submit"
        assert json.loads(lines[1]) == {
            "attempt": 1, "id": "job-1", "op": "start", "t": 1.0,
        }

    def test_unknown_op_rejected(self, tmp_path):
        journal = JobJournal(str(tmp_path / "jobs.jsonl"))
        with pytest.raises(ValueError, match="unknown journal op"):
            journal.append("explode", id="job-1")

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "jobs.jsonl"
        with JobJournal(str(path)) as journal:
            _submit(journal, "job-1")
        assert path.exists()


class TestReplay:
    def test_missing_file_is_empty(self, tmp_path):
        records, resumable = replay_journal(str(tmp_path / "absent.jsonl"))
        assert records == {}
        assert resumable == []

    def test_full_lifecycle_replay(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            spec = _submit(journal, "job-1", t=0.5, seeds=3)
            journal.append("coalesce", id="job-1", t=0.6)
            journal.append("start", id="job-1", attempt=1, t=1.0)
            journal.append(
                "retry", id="job-1", attempt=1, delay_s=0.1,
                error="boom", t=2.0,
            )
            journal.append("start", id="job-1", attempt=2, t=3.0)
            journal.append(
                "done", id="job-1", state="succeeded",
                result={"runs": 3}, t=4.0,
            )
        records, resumable = replay_journal(path)
        assert resumable == []
        record = records["job-1"]
        assert record.state == JobState.SUCCEEDED
        assert record.spec == spec
        assert record.submissions == 2
        assert record.attempts == 2
        assert record.submitted_at_s == 0.5
        assert record.finished_at_s == 4.0
        assert record.result == {"runs": 3}

    def test_pending_and_running_jobs_resume_in_order(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            _submit(journal, "job-1", t=0.0, seeds=2)
            _submit(journal, "job-2", t=1.0, seeds=3)
            _submit(journal, "job-3", t=2.0, seeds=4)
            # job-2 was mid-run at the crash; job-1 finished; job-3 queued.
            journal.append("start", id="job-2", attempt=1, t=3.0)
            journal.append("start", id="job-1", attempt=1, t=3.0)
            journal.append("done", id="job-1", state="succeeded", t=4.0)
        records, resumable = replay_journal(path)
        assert resumable == ["job-2", "job-3"]
        # The interrupted run resumes as pending, not stuck running.
        assert records["job-2"].state == JobState.PENDING
        assert records["job-3"].state == JobState.PENDING

    def test_shed_is_terminal(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            _submit(journal, "job-1")
            journal.append("shed", id="job-1", reason="queue full", t=1.0)
        records, resumable = replay_journal(path)
        assert resumable == []
        assert records["job-1"].state == JobState.SHED
        assert records["job-1"].error == "queue full"

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            _submit(journal, "job-1")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"op": "done", "id": "job-1", "sta')  # kill -9 here
        records, resumable = replay_journal(path)
        assert resumable == ["job-1"]
        assert records["job-1"].state == JobState.PENDING

    def test_corrupt_interior_line_is_loud(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            _submit(journal, "job-1")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("not json\n")
            stream.write('{"op": "start", "id": "job-1", "attempt": 1, "t": 1.0}\n')
        with pytest.raises(ValueError, match="corrupt journal line"):
            replay_journal(path)

    def test_op_for_unknown_job_is_loud(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            journal.append("start", id="ghost", attempt=1, t=1.0)
        with pytest.raises(ValueError, match="unknown job"):
            replay_journal(path)


#: A submit op and its start as journals wrote them while a job spec
#: could name a compute backend (``repro submit --backend numpy``).
BACKEND_ERA_JOURNAL = (
    '{"id": "job-1", "job": {"backend": "numpy", "duration_s": 0.01, '
    '"ensemble_retries": 2, "kind": "ensemble", "priority": "batch", '
    '"seeds": 1, "workers": 1}, "key": "3e727cdde5efbbce", "op": "submit", '
    '"t": 0.0}\n'
    '{"attempt": 1, "id": "job-1", "op": "start", "t": 1.0}\n'
)


class TestBackendEraJournals:
    def test_backend_key_is_dropped_on_replay(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(BACKEND_ERA_JOURNAL, encoding="utf-8")
        records, resumable = replay_journal(str(path))
        spec = JobSpec(kind="ensemble", seeds=1, duration_s=0.01)
        assert resumable == ["job-1"]
        assert records["job-1"].key == "3e727cdde5efbbce" == job_key(spec)
        assert records["job-1"].spec == spec
        assert records["job-1"].state == JobState.PENDING

    def test_new_submissions_naming_a_backend_are_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec keys"):
            JobSpec.from_dict({"kind": "ensemble", "backend": "numpy"})
