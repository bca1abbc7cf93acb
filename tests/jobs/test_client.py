"""Producer-side tests of :class:`repro.jobs.JobQueue`: the status reads
and the result wait a client of the queue file (the service) uses."""

from __future__ import annotations

import threading
import time

import pytest

from repro.jobs import JobError, JobQueue, JobWorker


@pytest.fixture
def queue(tmp_path):
    q = JobQueue(tmp_path / "jobs.sqlite", lease_seconds=5.0)
    yield q
    q.close()


class TestStatusAndResult:
    def test_status_of_unknown_job_is_none(self, queue):
        assert queue.get("nope", include_result=False) is None

    def test_result_only_for_done_jobs(self, queue):
        record, _ = queue.enqueue("sleep", {"seconds": 0})
        assert queue.get(record.job_id).result is None  # still queued
        claimed = queue.claim("w1")
        queue.complete(claimed.job_id, "w1", {"slept": 0})
        assert queue.get(record.job_id).result == {"slept": 0}
        assert queue.get(record.job_id, include_result=False).state == "done"


class TestWait:
    def test_wait_returns_result_when_worker_finishes(self, queue):
        record, _ = queue.enqueue("sleep", {"seconds": 0.05})
        worker = JobWorker(queue, worker_id="w1", max_jobs=1, poll_seconds=0.01)
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            result = queue.wait(record.job_id, timeout=10.0)
        finally:
            thread.join()
        assert result == {"slept": 0.05}

    def test_wait_unknown_job_raises_immediately(self, queue):
        started = time.monotonic()
        with pytest.raises(JobError, match="unknown job"):
            queue.wait("nope", timeout=5.0)
        assert time.monotonic() - started < 1.0

    def test_wait_raises_for_a_failed_job(self, queue):
        record, _ = queue.enqueue("sleep", {"seconds": 0})
        claimed = queue.claim("w1")
        queue.fail(claimed.job_id, "w1", "handler exploded", retryable=False)
        with pytest.raises(JobError, match="ended failed: handler exploded"):
            queue.wait(record.job_id, timeout=5.0)

    def test_wait_times_out_without_touching_the_job(self, queue):
        record, _ = queue.enqueue("sleep", {"seconds": 60})
        with pytest.raises(JobError, match="not finished after"):
            queue.wait(record.job_id, timeout=0.1)
        # Only the caller gave up; the job itself is still runnable.
        assert queue.get(record.job_id).state == "queued"
