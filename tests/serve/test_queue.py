"""Admission queue: priority order, soft shedding, eviction, overload."""

import pytest

from repro.serve import AdmissionQueue, JobRecord, JobSpec, ServiceOverload


def _record(job_id, priority="batch"):
    spec = JobSpec(kind="ensemble", priority=priority)
    return JobRecord(job_id=job_id, key=job_id, spec=spec)


class TestOrdering:
    def test_priority_then_fifo(self):
        queue = AdmissionQueue(maxsize=8)
        queue.offer(_record("bulk-1", "bulk"))
        queue.offer(_record("batch-1", "batch"))
        queue.offer(_record("int-1", "interactive"))
        queue.offer(_record("batch-2", "batch"))
        popped = [queue.pop().job_id for _ in range(4)]
        assert popped == ["int-1", "batch-1", "batch-2", "bulk-1"]
        assert queue.pop() is None

    def test_len_and_iter_track_live_entries(self):
        queue = AdmissionQueue(maxsize=4)
        queue.offer(_record("a"))
        queue.offer(_record("b"))
        assert len(queue) == 2
        assert [record.job_id for record in queue] == ["a", "b"]
        queue.pop()
        assert len(queue) == 1


class TestSoftShedding:
    def test_low_priority_shed_above_threshold(self):
        queue = AdmissionQueue(maxsize=4, shed_threshold=0.5)
        queue.offer(_record("a"))
        queue.offer(_record("b"))
        # 50% occupancy: batch arrivals now shed, interactive admitted.
        with pytest.raises(ServiceOverload, match="occupancy"):
            queue.offer(_record("c", "batch"))
        queue.offer(_record("vip", "interactive"))
        assert len(queue) == 3

    def test_overload_payload_is_structured(self):
        queue = AdmissionQueue(maxsize=4, shed_threshold=0.25)
        queue.offer(_record("a"))
        with pytest.raises(ServiceOverload) as excinfo:
            queue.offer(_record("b", "bulk"))
        payload = excinfo.value.to_dict()
        assert payload["error"] == "overload"
        assert payload["queue_depth"] == 1
        assert payload["queue_limit"] == 4
        assert payload["retry_after_s"] > 0


class TestEviction:
    def test_urgent_arrival_evicts_newest_worst(self):
        queue = AdmissionQueue(maxsize=2, shed_threshold=1.0)
        queue.offer(_record("bulk-old", "bulk"))
        queue.offer(_record("bulk-new", "bulk"))
        evicted = queue.offer(_record("vip", "interactive"))
        assert evicted.job_id == "bulk-new"
        assert len(queue) == 2
        assert [record.job_id for record in queue] == ["vip", "bulk-old"]

    def test_full_queue_of_equals_rejects_arrival(self):
        queue = AdmissionQueue(maxsize=2, shed_threshold=1.0)
        queue.offer(_record("a"))
        queue.offer(_record("b"))
        with pytest.raises(ServiceOverload, match="queue full"):
            queue.offer(_record("c"))  # same class: nobody to evict

    def test_evicted_record_never_pops(self):
        queue = AdmissionQueue(maxsize=1, shed_threshold=1.0)
        queue.offer(_record("bulk-1", "bulk"))
        queue.offer(_record("vip", "interactive"))
        assert queue.pop().job_id == "vip"
        assert queue.pop() is None


class TestRequeue:
    def test_requeue_bypasses_admission(self):
        queue = AdmissionQueue(maxsize=2, shed_threshold=0.5)
        queue.offer(_record("a"))
        replayed = _record("replayed-1", "bulk")
        # A fresh bulk offer would shed at 50% occupancy; a replayed job
        # must not.
        queue.requeue(replayed)
        assert len(queue) == 2


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            AdmissionQueue(maxsize=0)
        with pytest.raises(ValueError, match="shed_threshold"):
            AdmissionQueue(shed_threshold=0.0)
