"""Producer-side tests of :class:`repro.jobs.JobQueue`: the status and
result reads a client of the queue file (the service) uses."""

from __future__ import annotations

import pytest

from repro.jobs import JobQueue


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

