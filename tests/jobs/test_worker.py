"""Worker-loop tests: handlers, retries, engine caching, trace stitching."""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.core.engine import AnalysisConfig, analyze
from repro.core.report import Report
from repro.core.state import RbacState
from repro.exceptions import ConfigurationError
from repro.io.statecodec import encode_state
from repro.jobs import JobQueue, JobWorker
from repro.obs.sinks import InMemorySink


def sample_state() -> RbacState:
    return RbacState.build(
        users=[f"u{i}" for i in range(6)],
        roles=[f"r{i}" for i in range(5)],
        permissions=[f"p{i}" for i in range(6)],
        user_assignments=[
            ("r0", "u0"), ("r0", "u1"), ("r1", "u0"), ("r1", "u1"),
            ("r2", "u2"), ("r3", "u3"),
        ],
        permission_assignments=[
            ("r0", "p0"), ("r0", "p1"), ("r1", "p0"), ("r1", "p1"),
            ("r2", "p2"), ("r3", "p3"),
        ],
    )


def analyze_payload(
    queue: JobQueue, state: RbacState, config: AnalysisConfig
) -> dict:
    """An ``analyze`` payload naming ``state``'s blob, stored first."""
    queue.put_state_blob(state.fingerprint(), encode_state(state))
    return {
        "state_ref": state.fingerprint(),
        "config": config.to_dict(),
        "fingerprint": state.fingerprint(),
        "mutation_seq": 0,
    }


def normalized(report_dict: dict) -> str:
    """The repo's report-parity normalisation: run-specific keys out."""
    payload = dict(report_dict)
    for key in ("timings_seconds", "total_seconds", "metrics"):
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def queue(tmp_path):
    q = JobQueue(tmp_path / "jobs.sqlite", lease_seconds=5.0)
    yield q
    q.close()


class TestValidation:
    @pytest.mark.parametrize(
        "options",
        [
            {"poll_seconds": 0},
            {"poll_seconds": -1},
            {"poll_seconds": float("nan")},
            {"poll_seconds": float("inf")},
            {"poll_seconds": 1e12},
            {"max_jobs": 0},
        ],
    )
    def test_bad_options(self, queue, options):
        with pytest.raises(ConfigurationError):
            JobWorker(queue, **options)


class TestAnalyzeHandler:
    def test_report_matches_inline_execution(self, queue):
        state = sample_state()
        config = AnalysisConfig()
        inline = analyze(state, config)
        queue.enqueue("analyze", analyze_payload(queue, state, config))
        worker = JobWorker(queue, worker_id="w1")
        record = queue.claim("w1")
        assert worker.run_one(record)
        result = queue.get(record.job_id).result
        assert normalized(result["report"]) == normalized(inline.to_dict())
        # Reconstruction round-trips to the same bytes too.
        rebuilt = Report.from_payload(result["report"], state)
        assert normalized(rebuilt.to_dict()) == normalized(inline.to_dict())
        assert rebuilt.counts() == inline.counts()

    def test_engine_cached_per_config(self, queue):
        state = sample_state()
        config = AnalysisConfig()
        worker = JobWorker(queue, worker_id="w1")
        for seq in range(2):
            payload = analyze_payload(queue, state, config)
            payload["mutation_seq"] = seq  # different job, same config
            queue.enqueue("analyze", payload)
        assert worker.run_one(queue.claim("w1"))
        assert worker.run_one(queue.claim("w1"))
        assert len(worker._engines) == 1
        other = AnalysisConfig(similarity_threshold=2)
        queue.enqueue("analyze", analyze_payload(queue, state, other))
        assert worker.run_one(queue.claim("w1"))
        assert len(worker._engines) == 2

    def test_result_carries_job_identity(self, queue):
        state = sample_state()
        payload = analyze_payload(queue, state, AnalysisConfig())
        queue.enqueue("analyze", payload)
        worker = JobWorker(queue, worker_id="w1")
        record = queue.claim("w1")
        worker.run_one(record)
        result = queue.get(record.job_id).result
        assert result["fingerprint"] == payload["fingerprint"]
        assert result["mutation_seq"] == 0


class TestFailureModes:
    def test_unknown_kind_fails_without_retry(self, queue):
        record, _ = queue.enqueue("no_such_kind", {})
        worker = JobWorker(queue, worker_id="w1")
        assert not worker.run_one(queue.claim("w1"))
        after = queue.get(record.job_id)
        assert after.state == "failed"
        assert "no handler" in after.error

    def test_domain_error_fails_without_retry(self, queue):
        # A malformed state document raises a ReproError subclass —
        # deterministic, so retrying would only burn attempts.
        record, _ = queue.enqueue(
            "analyze", {"state": {"format": "wrong"}, "config": None}
        )
        worker = JobWorker(queue, worker_id="w1")
        assert not worker.run_one(queue.claim("w1"))
        assert queue.get(record.job_id).state == "failed"

    def test_inline_state_document_fails_naming_the_field(self, queue):
        # A job written before state blobs: never retried.
        record, _ = queue.enqueue(
            "analyze",
            {"state": {"format": "repro-rbac", "version": 1}, "config": None},
        )
        worker = JobWorker(queue, worker_id="w1")
        assert not worker.run_one(queue.claim("w1"))
        after = queue.get(record.job_id)
        assert after.state == "failed"
        assert after.attempts == 1
        assert '"state"' in after.error and '"state_ref"' in after.error

    def test_missing_blob_fails_without_retry(self, queue):
        payload = analyze_payload(queue, sample_state(), AnalysisConfig())
        payload["state_ref"] = "0" * 64
        record, _ = queue.enqueue("analyze", payload)
        worker = JobWorker(queue, worker_id="w1")
        assert not worker.run_one(queue.claim("w1"))
        after = queue.get(record.job_id)
        assert after.state == "failed"
        assert "no state blob" in after.error

    def test_altered_blob_fails_without_retry(self, queue):
        state = sample_state()
        record, _ = queue.enqueue(
            "analyze", analyze_payload(queue, state, AnalysisConfig())
        )
        conn = sqlite3.connect(queue.path)
        (data,) = conn.execute(
            "SELECT data FROM state_blobs WHERE address = ?",
            (state.fingerprint(),),
        ).fetchone()
        altered = data[:-1] + bytes([data[-1] ^ 1])
        conn.execute(
            "UPDATE state_blobs SET data = ? WHERE address = ?",
            (altered, state.fingerprint()),
        )
        conn.commit()
        conn.close()
        worker = JobWorker(queue, worker_id="w1")
        assert not worker.run_one(queue.claim("w1"))
        after = queue.get(record.job_id)
        assert after.state == "failed"  # dead-lettered, not requeued
        assert after.attempts == 1
        assert "sha256" in after.error

    def test_unexpected_error_requeues(self, queue):
        record, _ = queue.enqueue("boom", {})

        def explode(worker, job):
            raise RuntimeError("transient")

        worker = JobWorker(queue, worker_id="w1", handlers={"boom": explode})
        assert not worker.run_one(queue.claim("w1"))
        after = queue.get(record.job_id)
        assert after.state == "queued"  # retryable: requeued with backoff
        assert "transient" in after.error
        assert worker.jobs_failed == 1

    def test_loop_counts_and_idle_exit(self, queue):
        for n in range(3):
            queue.enqueue("sleep", {"seconds": 0, "n": n})
        worker = JobWorker(
            queue, worker_id="w1", poll_seconds=0.01, idle_exit_seconds=0.05
        )
        stats = worker.run()
        assert stats == {"done": 3, "failed": 0}
        assert queue.counts_by_state()["done"] == 3

    def test_stop_event_releases_claim(self, queue):
        record, _ = queue.enqueue("sleep", {"seconds": 30})
        stop = threading.Event()
        worker = JobWorker(queue, worker_id="w1", stop_event=stop)
        claimed = queue.claim("w1")
        stop.set()
        # The loop's post-claim stop check releases rather than runs.
        assert queue.release(claimed.job_id, "w1")
        after = queue.get(record.job_id)
        assert after.state == "queued"
        assert after.attempts == 0


class TestTraceStitching:
    def test_worker_trace_carries_enqueuers_trace_id(self, queue):
        state = sample_state()
        trace_id = "f" * 32
        queue.enqueue(
            "analyze",
            analyze_payload(queue, state, AnalysisConfig()),
            trace_id=trace_id,
        )
        sink = InMemorySink()
        worker = JobWorker(queue, worker_id="w1", sinks=[sink])
        assert worker.run_one(queue.claim("w1"))
        assert sink.traces, "worker should emit a jobs.run trace"
        root = sink.traces[-1]
        assert root.trace_id == trace_id
        assert root.name == "jobs.run"
        assert root.attributes["attempt"] == 1
        assert root.attributes["worker"] == "w1"

    def test_decode_and_encode_spans_carry_their_bytes(self, queue):
        state = sample_state()
        queue.enqueue("analyze", analyze_payload(queue, state, AnalysisConfig()))
        sink = InMemorySink()
        worker = JobWorker(queue, worker_id="w1", sinks=[sink])
        record = queue.claim("w1")
        assert worker.run_one(record)
        (root,) = sink.traces
        spans = {span.name: span for span in root.children}
        assert set(spans) == {"jobs.decode_state", "jobs.encode_result"}
        assert spans["jobs.decode_state"].attributes["bytes"] == len(
            queue.state_blob(state.fingerprint())
        )
        assert spans["jobs.encode_result"].attributes["bytes"] == len(
            queue.get(record.job_id).result_text
        )

    def test_generated_trace_id_when_enqueued_without_one(self, queue):
        queue.enqueue("sleep", {"seconds": 0})
        sink = InMemorySink()
        worker = JobWorker(queue, worker_id="w1", sinks=[sink])
        assert worker.run_one(queue.claim("w1"))
        assert sink.traces[-1].trace_id  # fresh id, still correlated
