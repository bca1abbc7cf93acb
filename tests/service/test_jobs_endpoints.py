"""Queue execution mode: job-plane endpoints and scheduler integration.

These tests drive ``AnalysisService.handle`` directly (no sockets) with
``execution="queue"``; workers are attached in-process via ``run_worker``
threads against the same queue file, exactly how ``repro work`` attaches
processes in production.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.core import AnalysisConfig, analyze
from repro.core.state import RbacState
from repro.exceptions import ConfigurationError
from repro.jobs import JobQueue, JobWorker, run_worker
from repro.obs import InMemorySink
from repro.service import AnalysisService, ServiceConfig, ServiceServer


def sample_state() -> RbacState:
    return RbacState.build(
        users=[f"u{i}" for i in range(5)],
        roles=[f"r{i}" for i in range(4)],
        permissions=[f"p{i}" for i in range(5)],
        user_assignments=[
            ("r0", "u0"), ("r0", "u1"), ("r1", "u0"), ("r1", "u1"),
            ("r2", "u2"),
        ],
        permission_assignments=[
            ("r0", "p0"), ("r0", "p1"), ("r1", "p0"), ("r1", "p1"),
            ("r2", "p2"),
        ],
    )


def normalized(report_dict: dict) -> str:
    payload = dict(report_dict)
    for key in ("timings_seconds", "total_seconds", "metrics"):
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def queue_service(tmp_path):
    service = AnalysisService(
        sample_state(),
        ServiceConfig(
            warm_start=False,
            refresh_mutations=None,
            execution="queue",
            jobs_path=tmp_path / "jobs.sqlite",
        ),
    )
    yield service
    service.close()


def drain_one_job(service: AnalysisService, timeout: float = 60.0) -> None:
    """Run one worker until it completes a single job (as a thread)."""
    done = threading.Event()

    def target() -> None:
        run_worker(
            str(service.jobs.path),
            worker_id="test-worker",
            max_jobs=1,
            poll_seconds=0.01,
            idle_exit_seconds=timeout,
        )
        done.set()

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=timeout)
    assert done.is_set(), "worker did not finish a job in time"


class TestConfigValidation:
    def test_unknown_execution_rejected(self):
        with pytest.raises(ConfigurationError, match="execution"):
            ServiceConfig(execution="sidecar")

    def test_queue_mode_requires_jobs_path(self):
        with pytest.raises(ConfigurationError, match="jobs_path"):
            ServiceConfig(execution="queue")

    @pytest.mark.parametrize(
        "options",
        [
            {"job_lease_seconds": 0},
            {"job_max_attempts": 0},
            {"job_lease_seconds": -1},
            {"job_max_attempts": -1},
            {"jobs_path": ""},
        ],
    )
    def test_job_knobs_validated(self, tmp_path, options):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**{
                "execution": "queue",
                "jobs_path": tmp_path / "q.sqlite",
                **options,
            })


class TestInlineModeGuards:
    def test_job_endpoints_require_queue_mode(self):
        service = AnalysisService(
            sample_state(),
            ServiceConfig(warm_start=False, refresh_mutations=None),
        )
        for route in ("/v1/jobs", "/v1/jobs/abc"):
            status, payload, _ = service.handle("GET", route)
            assert status == 400
            assert 'execution "queue"' in payload["error"]
        assert service.jobs is None
        service.close()


class TestQueuedAnalyze:
    def test_analyze_returns_202_and_poll_resolves_to_report(
        self, queue_service
    ):
        status, payload, _ = queue_service.handle("POST", "/v1/analyze")
        assert status == 202
        assert payload["state"] == "queued"
        assert payload["created"] is True
        job_id = payload["job_id"]
        assert payload["poll"] == f"/v1/jobs/{job_id}"

        status, pending, _ = queue_service.handle("GET", payload["poll"])
        pending = json.loads(pending)
        assert status == 200
        assert pending["state"] == "queued"
        assert "result" not in pending

        drain_one_job(queue_service)

        status, finished, _ = queue_service.handle("GET", payload["poll"])
        finished = json.loads(finished)
        assert status == 200
        assert finished["state"] == "done"
        assert finished["attempts"] == 1
        # The queued report is byte-identical to inline execution.
        inline = analyze(sample_state(), AnalysisConfig())
        assert normalized(finished["result"]["report"]) == normalized(
            inline.to_dict()
        )

    def test_repeat_analyze_deduplicates_to_the_same_job(self, queue_service):
        _, first, _ = queue_service.handle("POST", "/v1/analyze")
        status, second, _ = queue_service.handle("POST", "/v1/analyze")
        assert status == 202
        assert second["job_id"] == first["job_id"]
        assert second["created"] is False
        assert queue_service.jobs.stats()["states"]["queued"] == 1
        _, metricz, _ = queue_service.handle("GET", "/metricz")
        assert metricz["counters"]["service.analyze_dedup"] == 1

    def test_different_config_is_a_different_job(self, queue_service):
        _, first, _ = queue_service.handle("POST", "/v1/analyze")
        body = json.dumps({"similarity_threshold": 2}).encode()
        _, second, _ = queue_service.handle("POST", "/v1/analyze", body)
        assert second["job_id"] != first["job_id"]
        assert second["created"] is True

    def test_trace_header_rides_into_the_job_record(self, queue_service):
        trace_id = "a" * 32
        _, payload, _ = queue_service.handle(
            "POST", "/v1/analyze", trace_id_header=trace_id
        )
        record = queue_service.jobs.get(payload["job_id"])
        assert record.trace_id == trace_id

    def test_deadline_becomes_queue_visible_expiry(self, queue_service):
        _, payload, _ = queue_service.handle(
            "POST", "/v1/analyze", deadline_header="5"
        )
        record = queue_service.jobs.get(payload["job_id"])
        assert record.expires_at is not None
        assert record.expires_at <= time.time() + 5.5


    @pytest.mark.parametrize("header", ["nan", "inf", "1e400", "1e12"])
    def test_non_finite_deadline_enqueues_nothing(self, queue_service, header):
        # sqlite stores a nan expiry as NULL: the job would never expire.
        status, payload, _ = queue_service.handle(
            "POST", "/v1/analyze", deadline_header=header
        )
        assert status == 400, payload
        assert "X-Deadline" in payload["error"]
        states = queue_service.jobs.counts_by_state()
        assert sum(states.values()) == 0


class TestStateBlobs:
    def test_payload_names_the_blob_and_carries_no_state(self, queue_service):
        _, submitted, _ = queue_service.handle("POST", "/v1/analyze")
        queue = queue_service.jobs
        record = queue.get(submitted["job_id"], include_payload=True)
        assert "state" not in record.payload
        assert record.payload["state_ref"] == submitted["fingerprint"]
        assert queue.has_state_blob(submitted["fingerprint"])
        row = queue._connection().execute(
            "SELECT length(payload) FROM task_runs WHERE job_id = ?",
            (record.job_id,),
        ).fetchone()
        assert row[0] < 4096

    def test_snapshot_span_carries_the_blob_size(self, tmp_path):
        sink = InMemorySink()
        service = AnalysisService(
            sample_state(),
            ServiceConfig(
                warm_start=False,
                refresh_mutations=None,
                execution="queue",
                jobs_path=tmp_path / "jobs.sqlite",
            ),
            sinks=[sink],
        )
        try:
            _, submitted, _ = service.handle("POST", "/v1/analyze")
            blob = service.jobs.state_blob(submitted["fingerprint"])
        finally:
            service.close()
        snapshots = [
            span for root in sink.traces for _path, _depth, span in root.walk()
            if span.name == "service.snapshot"
        ]
        assert [span.attributes["bytes"] for span in snapshots] == [len(blob)]


class TestVerbatimResult:
    def test_body_is_canonical_json_and_report_matches_inline(
        self, queue_service
    ):
        _, submitted, _ = queue_service.handle("POST", "/v1/analyze")
        poll = submitted["poll"]
        status, pending, _ = queue_service.handle("GET", poll)
        assert status == 200
        assert pending == (
            json.dumps(json.loads(pending), sort_keys=True) + "\n"
        ).encode("utf-8")
        drain_one_job(queue_service)
        status, body, _ = queue_service.handle("GET", poll)
        assert status == 200
        job = json.loads(body)
        assert job["state"] == "done"
        assert body == (json.dumps(job, sort_keys=True) + "\n").encode("utf-8")
        inline = analyze(sample_state(), AnalysisConfig())
        assert normalized(job["result"]["report"]) == normalized(
            inline.to_dict()
        )

    def test_http_sends_the_body_unchanged(self, queue_service):
        _, submitted, _ = queue_service.handle("POST", "/v1/analyze")
        drain_one_job(queue_service)
        _, expected, _ = queue_service.handle("GET", submitted["poll"])
        server = ServiceServer(queue_service, port=0)
        server.start()
        try:
            with urllib.request.urlopen(
                f"{server.url}{submitted['poll']}", timeout=10
            ) as response:
                content_type = response.headers["Content-Type"]
                body = response.read()
        finally:
            server.stop()
        assert content_type == "application/json"
        assert body == expected


ONE_MUTATION = json.dumps({"mutations": [
    {"op": "assign_user", "role": "r3", "user": "u4"},
]}).encode()


class TestRefreshInQueueMode:
    """The scheduler's refresh analyses in the service process in queue
    mode too: it enqueues nothing and needs no worker."""

    def refreshed(self, config: ServiceConfig) -> tuple[dict, dict, dict]:
        """The latest payload after the warm start, one mutation and one
        refresh, with the service and job counters."""
        service = AnalysisService(sample_state(), config)
        try:
            service.start()  # the warm start publishes seq 1
            assert service.handle("POST", "/v1/mutations", ONE_MUTATION)[0] == 200
            service.scheduler.run_once()
            status, latest, _ = service.handle("GET", "/v1/reports/latest")
            assert status == 200
            assert latest["seq"] == 2
            counters = service.handle("GET", "/metricz")[1]["counters"]
            jobs = service.jobs.stats()["counters"] if service.jobs else {}
            return latest, counters, jobs
        finally:
            service.close()

    def test_publishes_what_inline_mode_does(self, tmp_path):
        inline, _, _ = self.refreshed(ServiceConfig(refresh_mutations=None))
        path = tmp_path / "jobs.sqlite"
        # Even with a worker attached, the refresh does not enqueue.
        worker_queue = JobQueue(path)
        stop = threading.Event()
        worker = JobWorker(
            worker_queue, worker_id="w", poll_seconds=0.01, stop_event=stop
        )
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            queued, counters, jobs = self.refreshed(
                ServiceConfig(
                    refresh_mutations=None, execution="queue", jobs_path=path
                )
            )
        finally:
            stop.set()
            thread.join(timeout=30)
            worker_queue.close()
        assert not thread.is_alive()
        assert queued["diff"] is not None
        assert queued["diff"] == inline["diff"]
        assert queued["counts"] == inline["counts"]
        assert queued["fingerprint"] == inline["fingerprint"]
        assert jobs.get("jobs.enqueued", 0) == 0
        # Warm start and refresh: two cache misses, two analyses.
        assert counters["service.analyze_miss"] == 2
        assert counters["service.analyses"] == 2


class TestDrainWithoutWorkers:
    def test_close_during_a_refresh_is_prompt(self, tmp_path):
        before = set(threading.enumerate())
        service = AnalysisService(
            sample_state(),
            ServiceConfig(
                refresh_mutations=1,
                execution="queue",
                jobs_path=tmp_path / "jobs.sqlite",
            ),
        )
        service.start()
        (scheduler_thread,) = [
            thread for thread in threading.enumerate()
            if thread not in before and thread.name == "repro-service-scheduler"
        ]
        assert service.handle("POST", "/v1/mutations", ONE_MUTATION)[0] == 200
        # The mutation triggered a refresh: wait until it has begun.
        deadline = time.monotonic() + 10
        while service.scheduler.stats()["pending_mutations"]:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        started = time.monotonic()
        service.close()
        assert time.monotonic() - started < 5.0
        assert not scheduler_thread.is_alive()


class TestJobEndpoints:
    def test_jobs_overview_reports_queue_stats(self, queue_service):
        queue_service.handle("POST", "/v1/analyze")
        status, payload, _ = queue_service.handle("GET", "/v1/jobs")
        assert status == 200
        assert payload["states"]["queued"] == 1
        assert payload["counters"]["jobs.enqueued"] == 1

    def test_unknown_job_404(self, queue_service):
        status, payload, _ = queue_service.handle("GET", "/v1/jobs/nope")
        assert status == 404
        assert "no such job" in payload["error"]

    def test_metricz_exposes_job_plane(self, queue_service):
        queue_service.handle("POST", "/v1/analyze")
        status, payload, _ = queue_service.handle("GET", "/metricz")
        assert status == 200
        assert payload["jobs"]["states"]["queued"] == 1
        status, text, _ = queue_service.handle(
            "GET", "/metricz?format=prometheus"
        )
        assert status == 200
        assert "repro_jobs_enqueued_total 1" in text
        assert "repro_jobs_state_queued 1" in text


class TestWarmRestartRecovery:
    def test_start_reaps_leases_of_a_dead_daemon(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        seed = JobQueue(path, lease_seconds=15.0)
        record, _ = seed.enqueue("sleep", {"seconds": 60})
        # A claim from the "previous life" whose lease is already over.
        seed.claim("dead-daemon:1", now=time.time() - 3600)
        seed.close()

        service = AnalysisService(
            sample_state(),
            ServiceConfig(
                warm_start=False,
                refresh_mutations=None,
                execution="queue",
                jobs_path=path,
            ),
        )
        try:
            service.start()
            revived = service.jobs.get(record.job_id)
            assert revived.state == "queued"
            assert service.jobs.counters()["jobs.lease_expired"] == 1
        finally:
            service.close()
