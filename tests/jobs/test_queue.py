"""Unit tests for the durable job queue (``repro.jobs.queue``)."""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

import repro.jobs.queue as queue_module
from repro.exceptions import ConfigurationError, DataFormatError
from repro.jobs import JobError, JobQueue, spec_key_of
from repro.jobs.queue import BACKOFF_CAP_SECONDS, BACKOFF_SECONDS


@pytest.fixture
def queue(tmp_path):
    q = JobQueue(
        tmp_path / "jobs.sqlite",
        lease_seconds=10.0,
        max_attempts=3,
    )
    yield q
    q.close()


class TestValidation:
    @pytest.mark.parametrize(
        "options",
        [
            {"lease_seconds": 0},
            {"lease_seconds": -1},
            {"lease_seconds": float("nan")},
            {"lease_seconds": float("inf")},
            {"lease_seconds": 1e12},
            {"max_attempts": 0},
        ],
    )
    def test_bad_options(self, tmp_path, options):
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path / "q.sqlite", **options)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "q.sqlite"
        JobQueue(path).close()
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")
        conn.close()
        with pytest.raises(JobError):
            JobQueue(path)

    def test_closed_queue_rejects_operations(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        q.close()
        with pytest.raises(JobError):
            q.enqueue("sleep", {})


class TestEnqueue:
    def test_spec_hash_is_canonical(self):
        a = spec_key_of("analyze", {"x": 1, "y": 2})
        b = spec_key_of("analyze", {"y": 2, "x": 1})
        assert a == b
        assert a != spec_key_of("analyze", {"x": 1, "y": 3})
        assert a != spec_key_of("other", {"x": 1, "y": 2})

    def test_enqueue_is_idempotent(self, queue):
        first, created = queue.enqueue("sleep", {"seconds": 1})
        conn = queue._connection()
        changes, statements = conn.total_changes, []
        conn.set_trace_callback(statements.append)
        again, created_again = queue.enqueue("sleep", {"seconds": 1})
        conn.set_trace_callback(None)
        assert created and not created_again
        assert first.job_id == again.job_id
        # A duplicate is a read-only probe: no write lock, no write.
        assert conn.total_changes == changes
        assert [s.split()[0] for s in statements] == ["SELECT"]
        assert queue.counts_by_state()["queued"] == 1
        assert "jobs.deduplicated" not in queue.counters()

    def test_done_job_not_reenqueued(self, queue):
        record, _ = queue.enqueue("sleep", {"seconds": 1})
        claimed = queue.claim("w1")
        queue.complete(claimed.job_id, "w1", {"ok": True})
        again, created = queue.enqueue("sleep", {"seconds": 1})
        assert not created and again.state == "done"

    def test_failed_job_is_resurrected(self, queue):
        record, _ = queue.enqueue("sleep", {"seconds": 1})
        claimed = queue.claim("w1")
        queue.fail(claimed.job_id, "w1", "boom", retryable=False)
        assert queue.get(record.job_id).state == "failed"
        again, created = queue.enqueue("sleep", {"seconds": 1})
        assert created
        assert again.state == "queued"
        assert again.attempts == 0
        assert again.error is None

    def test_explicit_spec_key_wins(self, queue):
        first, _ = queue.enqueue("sleep", {"seconds": 1}, spec_key="custom")
        assert first.job_id == "custom"
        again, created = queue.enqueue("sleep", {"seconds": 2}, spec_key="custom")
        assert not created

    def test_trace_id_persisted(self, queue):
        record, _ = queue.enqueue("sleep", {}, trace_id="t" * 32)
        assert queue.get(record.job_id).trace_id == "t" * 32


class TestClaim:
    def test_claim_carries_payload(self, queue):
        queue.enqueue("sleep", {"seconds": 3})
        record = queue.claim("w1")
        assert record.payload == {"seconds": 3}
        assert record.state == "leased"
        assert record.leased_by == "w1"
        assert record.attempts == 1
        assert record.lease_expires_at is not None

    def test_empty_queue_claims_none(self, queue):
        assert queue.claim("w1") is None

    def test_oldest_job_first(self, queue):
        a, _ = queue.enqueue("sleep", {"n": 1})
        b, _ = queue.enqueue("sleep", {"n": 2})
        assert queue.claim("w1").job_id == a.job_id
        assert queue.claim("w1").job_id == b.job_id

    def test_two_claimers_never_share_a_job(self, queue):
        for n in range(8):
            queue.enqueue("sleep", {"n": n})
        claimed: list[str] = []
        lock = threading.Lock()

        def worker(worker_id: str) -> None:
            while True:
                record = queue.claim(worker_id)
                if record is None:
                    return
                with lock:
                    claimed.append(record.job_id)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claimed) == 8
        assert len(set(claimed)) == 8  # atomic claim: no double-lease

    def test_backoff_gate_respected(self, queue):
        record, _ = queue.enqueue("sleep", {})
        claimed = queue.claim("w1", now=100.0)
        reaped_at = claimed.lease_expires_at + 0.1
        queue.reap_expired(now=reaped_at)
        requeued = queue.get(record.job_id)
        assert requeued.state == "queued"
        # attempts=1 -> one BACKOFF_SECONDS after the reap time
        assert requeued.not_before == reaped_at + BACKOFF_SECONDS
        assert queue.claim("w2", now=requeued.not_before - 0.01) is None
        assert queue.claim("w2", now=requeued.not_before) is not None

    def test_expired_job_never_claimed(self, queue):
        queue.enqueue("sleep", {}, expires_at=50.0)
        assert queue.claim("w1", now=60.0) is None

    def test_queue_wait_recorded_once(self, queue):
        record, _ = queue.enqueue("sleep", {})
        claimed = queue.claim("w1")
        assert claimed.queue_wait_seconds is not None
        summaries = queue.histogram_summaries()
        assert summaries["jobs.queue_wait_seconds"]["count"] == 1


class TestLeaseGuards:
    def test_heartbeat_extends_only_for_holder(self, queue):
        queue.enqueue("sleep", {})
        record = queue.claim("w1")
        before = record.lease_expires_at
        assert queue.heartbeat(record.job_id, "w1")
        assert queue.get(record.job_id).lease_expires_at >= before
        assert not queue.heartbeat(record.job_id, "intruder")

    def test_complete_guarded_by_lease(self, queue):
        queue.enqueue("sleep", {})
        record = queue.claim("w1")
        assert not queue.complete(record.job_id, "w2", {"stolen": True})
        assert queue.complete(record.job_id, "w1", {"ok": True})
        # Double-complete by the same holder is also rejected.
        assert not queue.complete(record.job_id, "w1", {"again": True})
        assert queue.get(record.job_id).result == {"ok": True}
        assert queue.counters()["jobs.stale_completions"] == 2

    def test_retryable_failure_requeues_with_backoff(self, queue):
        record, _ = queue.enqueue("sleep", {})
        claimed = queue.claim("w1", now=100.0)
        assert queue.fail(
            claimed.job_id, "w1", "flaky", retryable=True, now=101.0
        )
        after = queue.get(record.job_id)
        assert after.state == "queued"
        assert after.error == "flaky"
        assert after.not_before == 101.0 + BACKOFF_SECONDS

    def test_retryable_failure_deadletters_on_last_attempt(self, tmp_path):
        queue = JobQueue(tmp_path / "once.sqlite", max_attempts=1)
        record, _ = queue.enqueue("sleep", {})
        claimed = queue.claim("w1")
        queue.fail(claimed.job_id, "w1", "flaky", retryable=True)
        assert queue.get(record.job_id).state == "failed"
        queue.close()

    def test_release_refunds_the_attempt(self, queue):
        record, _ = queue.enqueue("sleep", {})
        claimed = queue.claim("w1")
        assert queue.release(claimed.job_id, "w1")
        after = queue.get(record.job_id)
        assert after.state == "queued"
        assert after.attempts == 0
        reclaimed = queue.claim("w2")
        assert reclaimed.attempts == 1


class TestReap:
    def test_expired_lease_requeued_exactly_once(self, queue):
        record, _ = queue.enqueue("sleep", {})
        claimed = queue.claim("w1", now=100.0)
        dead_at = claimed.lease_expires_at + 1
        first = queue.reap_expired(now=dead_at)
        second = queue.reap_expired(now=dead_at)
        assert first["requeued"] == [record.job_id]
        assert second == {"requeued": [], "dead_lettered": [], "expired": []}
        assert queue.counters()["jobs.lease_expired"] == 1

    def test_dead_letter_after_max_attempts(self, tmp_path):
        queue = JobQueue(tmp_path / "twice.sqlite", max_attempts=2)
        record, _ = queue.enqueue("sleep", {})
        now = 100.0
        for _ in range(2):
            claimed = queue.claim("w1", now=now)
            assert claimed is not None
            queue.reap_expired(now=claimed.lease_expires_at + 1)
            # Jump past the retry backoff so the next claim is eligible.
            now = claimed.lease_expires_at + BACKOFF_CAP_SECONDS + 1
        final = queue.get(record.job_id)
        assert final.state == "lost"
        assert "lease expired" in final.error
        assert queue.counters()["jobs.dead_lettered"] == 1
        # Terminal: not claimable anymore.
        assert queue.claim("w1", now=now + 100) is None
        queue.close()

    def test_backoff_doubles_up_to_the_cap(self, tmp_path):
        queue = JobQueue(tmp_path / "many.sqlite", max_attempts=9)
        record, _ = queue.enqueue("sleep", {})
        now = 100.0
        delays = []
        for _ in range(8):
            claimed = queue.claim("w1", now=now)
            reaped_at = claimed.lease_expires_at + 1
            assert queue.reap_expired(now=reaped_at)["requeued"]
            now = queue.get(record.job_id).not_before
            delays.append(now - reaped_at)
        assert delays == [
            min(BACKOFF_CAP_SECONDS, BACKOFF_SECONDS * 2 ** attempt)
            for attempt in range(8)
        ]
        assert delays[-1] == BACKOFF_CAP_SECONDS
        queue.close()

    def test_live_lease_untouched(self, queue):
        queue.enqueue("sleep", {})
        claimed = queue.claim("w1", now=100.0)
        result = queue.reap_expired(now=claimed.lease_expires_at - 1)
        assert result["requeued"] == []
        assert queue.get(claimed.job_id).state == "leased"

    def test_queued_past_deadline_failed(self, queue):
        record, _ = queue.enqueue("sleep", {}, expires_at=50.0)
        result = queue.reap_expired(now=60.0)
        assert result["expired"] == [record.job_id]
        after = queue.get(record.job_id)
        assert after.state == "failed"
        assert "expired" in after.error


class TestDurability:
    def test_state_survives_reopen(self, tmp_path):
        path = tmp_path / "q.sqlite"
        q = JobQueue(path)
        record, _ = q.enqueue("sleep", {"seconds": 1}, trace_id="abc")
        q.claim("w1")
        q.close()
        reopened = JobQueue(path)
        survived = reopened.get(record.job_id)
        assert survived.state == "leased"
        assert survived.trace_id == "abc"
        assert reopened.counters()["jobs.claimed"] == 1
        reopened.close()

    def test_stats_shape(self, queue):
        queue.enqueue("sleep", {})
        queue.claim("w1")
        stats = queue.stats()
        assert set(stats) == {
            "path", "states", "counters", "histograms",
            "lease_seconds", "max_attempts",
        }
        assert stats["states"]["leased"] == 1
        assert stats["counters"]["jobs.claimed"] == 1
        payload = json.dumps(stats)  # must be JSON-serialisable
        assert "jobs.queue_wait_seconds" in payload

    def test_version_1_file_is_upgraded_in_place(self, tmp_path):
        path = tmp_path / "q.sqlite"
        JobQueue(path).close()
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE state_blobs")
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        q = JobQueue(path)
        assert q.put_state_blob("a", b"x")
        q.close()
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 2
        conn.close()


class TestResults:
    def test_result_text_is_the_stored_encoding(self, queue):
        queue.enqueue("sleep", {})
        claimed = queue.claim("w1")
        assert queue.complete(claimed.job_id, "w1", {"b": 1, "a": [1.5]})
        record = queue.get(claimed.job_id)
        assert record.result_text == '{"a": [1.5], "b": 1}'
        assert record.result == {"a": [1.5], "b": 1}
        assert queue.get(claimed.job_id, include_result=False).result is None

    def test_pre_encoded_result_is_stored_as_it_is(self, queue):
        queue.enqueue("sleep", {})
        claimed = queue.claim("w1")
        assert queue.complete(claimed.job_id, "w1", '{"ok": true}')
        assert queue.get(claimed.job_id).result_text == '{"ok": true}'


class TestNoEncodeUnderTheWriteLock:
    """Documents are encoded before a transition's transaction opens."""

    @pytest.fixture
    def encodes(self, queue, monkeypatch):
        """Every ``json.dumps`` call: (its object, in a transaction?)."""
        seen = []
        real = json.dumps

        def dumps(obj, *args, **kwargs):
            seen.append((obj, queue._connection().in_transaction))
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(queue_module.json, "dumps", dumps)
        return seen

    def test_complete_encodes_the_result_first(self, queue, encodes):
        queue.enqueue("sleep", {})
        claimed = queue.claim("w1")
        result = {"report": {"findings": list(range(100))}}
        encodes.clear()
        assert queue.complete(claimed.job_id, "w1", result)
        assert [inside for obj, inside in encodes if obj is result] == [False]
        # The probe sees transactions: the run-time histogram is folded
        # in inside complete()'s.
        assert any(inside for _obj, inside in encodes)
        assert queue.get(claimed.job_id).result == result

    def test_plain_enqueue_encodes_the_payload_first(self, queue, encodes):
        payload = {"seconds": 1, "blob": "x" * 1000}
        _record, created = queue.enqueue("sleep", payload)
        assert created
        assert [inside for obj, inside in encodes if obj is payload] == [False]


class TestStateBlobs:
    def test_put_stores_once_per_address(self, queue):
        assert not queue.has_state_blob("a")
        assert queue.put_state_blob("a", b"one")
        assert not queue.put_state_blob("a", b"two")
        assert queue.has_state_blob("a")
        assert queue.state_blob("a") == b"one"

    def test_missing_blob(self, queue):
        with pytest.raises(JobError, match="no state blob"):
            queue.state_blob("nope")

    def test_altered_bytes_fail_the_check_and_drop_the_blob(self, queue):
        queue.put_state_blob("a", b"original")
        conn = sqlite3.connect(queue.path)
        conn.execute(
            "UPDATE state_blobs SET data = ? WHERE address = 'a'",
            (b"0riginal",),
        )
        conn.commit()
        conn.close()
        with pytest.raises(DataFormatError, match="sha256"):
            queue.state_blob("a")
        assert not queue.has_state_blob("a")
        # The next enqueue of that state can store it afresh.
        assert queue.put_state_blob("a", b"original")
        assert queue.state_blob("a") == b"original"

