"""Journal: durable append, crash-tolerant replay, resume semantics."""

import json

import pytest

from repro.serve import (
    JobJournal,
    JobSpec,
    JobState,
    JournalFailure,
    job_key,
    replay_journal,
)


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
        # "retry" is replayed from older journals but no longer written.
        for op in ("explode", "retry"):
            with pytest.raises(ValueError, match="unknown journal op"):
                journal.append(op, id="job-1")

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "jobs.jsonl"
        with JobJournal(str(path)) as journal:
            _submit(journal, "job-1")
        assert path.exists()

    def test_no_append_after_a_failed_one(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        journal = JobJournal(str(blocker / "jobs.jsonl"))
        with pytest.raises(JournalFailure, match="cannot append"):
            _submit(journal, "job-1")
        # Even once the path could be written, the journal takes no op
        # after the lost one, so what it holds stays replayable.
        blocker.unlink()
        with pytest.raises(JournalFailure, match="after a failed one"):
            journal.append("start", id="job-1", attempt=1, t=1.0)
        assert not (blocker / "jobs.jsonl").exists()


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
            # A retry op as older servers wrote it (append no longer
            # accepts one): the job was re-queued, then ran again.
            with open(path, "a", encoding="utf-8") as stream:
                stream.write(
                    '{"attempt": 1, "delay_s": 0.1, "error": "boom", '
                    '"id": "job-1", "op": "retry", "t": 2.0}\n'
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

    def test_next_append_cuts_an_unterminated_final_line(self, tmp_path):
        # Even a complete op without its newline was never acknowledged
        # (the append had not returned), so replay and the next append
        # agree on dropping it.
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            _submit(journal, "job-1")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"id": "job-1", "op": "shed", "reason": "x", "t": 1.0}')
        assert replay_journal(path)[1] == ["job-1"]
        with JobJournal(path, sync=False) as journal:
            journal.append("start", id="job-1", attempt=1, t=2.0)
        text = (tmp_path / "jobs.jsonl").read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        assert [json.loads(line)["op"] for line in lines] == ["submit", "start"]
        assert all(line.endswith("\n") for line in lines)

    def test_corrupt_interior_line_is_loud(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            _submit(journal, "job-1")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("not json\n")
            stream.write('{"op": "start", "id": "job-1", "attempt": 1, "t": 1.0}\n')
        with pytest.raises(ValueError, match="corrupt journal line"):
            replay_journal(path)

    def test_corrupt_terminated_final_line_is_loud(self, tmp_path):
        # A crash mid-append leaves a line without its newline; a
        # complete but garbled line is corruption, wherever it sits.
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            _submit(journal, "job-1")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("not json\n")
        with pytest.raises(ValueError, match="corrupt journal line"):
            replay_journal(path)

    def test_op_for_unknown_job_is_loud(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobJournal(path, sync=False) as journal:
            journal.append("start", id="ghost", attempt=1, t=1.0)
        with pytest.raises(ValueError, match="unknown job"):
            replay_journal(path)

    def test_unknown_experiment_id_still_replays(self, tmp_path):
        # The server rejects unknown ids at submission, but a journal
        # written before that check may hold one: it must still replay
        # (and fail on execution) rather than block the restart.
        path = str(tmp_path / "jobs.jsonl")
        spec = JobSpec(kind="experiment", experiment="fig99")
        with JobJournal(path, sync=False) as journal:
            journal.append(
                "submit", id="job-1", key=job_key(spec), t=0.0,
                job=spec.to_dict(),
            )
        records, resumable = replay_journal(path)
        assert resumable == ["job-1"]
        assert records["job-1"].spec == spec


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


#: A journal as servers wrote it while they retried failed jobs: the
#: submission names a ``deadline_s`` serving budget, and the last op
#: re-queued the job for a second attempt after a host error.
RETRY_ERA_JOURNAL = (
    '{"id": "job-000001", "job": {"deadline_s": 30.0, "duration_s": 0.01, '
    '"ensemble_retries": 2, "kind": "ensemble", "priority": "batch", '
    '"seeds": 1, "workers": 1}, "key": "3e727cdde5efbbce", "op": "submit", '
    '"t": 0.0}\n'
    '{"attempt": 1, "id": "job-000001", "op": "start", "t": 0.1}\n'
    '{"attempt": 1, "delay_s": 0.05279489752263346, "error": "OSError: '
    '[Errno 5] Input/output error", "id": "job-000001", "op": "retry", '
    '"t": 0.2}\n'
)


class TestRetryEraJournals:
    def test_deadline_key_dropped_and_retry_op_resumes(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(RETRY_ERA_JOURNAL, encoding="utf-8")
        records, resumable = replay_journal(str(path))
        spec = JobSpec(kind="ensemble", seeds=1, duration_s=0.01)
        assert resumable == ["job-000001"]
        record = records["job-000001"]
        assert record.key == "3e727cdde5efbbce" == job_key(spec)
        assert record.spec == spec
        assert record.state == JobState.PENDING
        assert record.attempts == 1
        assert record.error == "OSError: [Errno 5] Input/output error"

    def test_new_submissions_naming_a_deadline_are_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec keys"):
            JobSpec.from_dict({"kind": "ensemble", "deadline_s": 2.0})
