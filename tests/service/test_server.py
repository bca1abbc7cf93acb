"""AnalysisService + ServiceServer tests.

Most tests drive ``AnalysisService.handle`` directly (no sockets), which
is the transport-independent seam; one class exercises the real HTTP
binding end-to-end over a loopback socket.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import AnalysisConfig, analyze
from repro.core.state import RbacState
from repro.exceptions import ConfigurationError
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


def make_service(**overrides) -> AnalysisService:
    options = dict(warm_start=False, refresh_mutations=None)
    options.update(overrides)
    return AnalysisService(sample_state(), ServiceConfig(**options))


def post_mutations(service: AnalysisService, mutations) -> tuple:
    body = json.dumps({"mutations": mutations}).encode()
    return service.handle("POST", "/v1/mutations", body)


def wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        threading.Event().wait(0.01)
    return False


class TestServiceConfig:
    @pytest.mark.parametrize(
        "options",
        [
            {"queue_limit": 0},
            {"deadline_seconds": 0},
            {"retry_after_seconds": -1},
            {"deadline_seconds": float("inf")},
            {"deadline_seconds": float("nan")},
            {"deadline_seconds": 1e12},
            {"job_lease_seconds": float("nan")},
            {"job_lease_seconds": float("inf")},
            {"job_lease_seconds": 1e12},
            {"job_backoff_seconds": float("nan")},
            {"job_backoff_seconds": float("inf")},
        ],
    )
    def test_validation(self, options):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**options)


class TestRouting:
    def test_unknown_route_404(self):
        status, payload, _ = make_service().handle("GET", "/nope")
        assert status == 404
        assert "no such endpoint" in payload["error"]

    def test_unknown_v1_route_404(self):
        status, payload, _ = make_service().handle("GET", "/v1/nope")
        assert status == 404

    def test_method_not_allowed_sets_allow_header(self):
        service = make_service()
        status, _, headers = service.handle("POST", "/v1/counts")
        assert status == 405
        assert headers["Allow"] == "GET"
        status, _, headers = service.handle("GET", "/v1/analyze")
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_query_strings_are_ignored_for_routing(self):
        status, _, _ = make_service().handle("GET", "/v1/counts?verbose=1")
        assert status == 200

    def test_bad_json_body_400(self):
        status, payload, _ = make_service().handle(
            "POST", "/v1/mutations", b"{broken"
        )
        assert status == 400
        assert "invalid JSON" in payload["error"]

    def test_bad_deadline_header_400(self):
        status, payload, _ = make_service().handle(
            "GET", "/v1/counts", deadline_header="soon"
        )
        assert status == 400
        assert "X-Deadline" in payload["error"]

    def test_internal_errors_become_500(self, monkeypatch):
        service = make_service()
        monkeypatch.setattr(
            service._auditor,
            "counts",
            lambda: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        status, payload, _ = service.handle("GET", "/v1/counts")
        assert status == 500
        assert "RuntimeError" in payload["error"]


class TestMutationsAndCounts:
    def test_counts_match_batch_analysis_after_a_mutation_stream(self):
        service = make_service()
        batches = [
            [
                {"op": "add_user", "id": "new-user"},
                {"op": "assign_user", "role": "r3", "user": "new-user"},
            ],
            [
                {"op": "add_role", "id": "r-clone"},
                {"op": "assign_user", "role": "r-clone", "user": "u0"},
                {"op": "assign_user", "role": "r-clone", "user": "u1"},
                {"op": "assign_permission", "role": "r-clone", "permission": "p0"},
            ],
            [
                {"op": "remove_role", "id": "r2"},
                {"op": "revoke_user", "role": "r0", "user": "u1"},
            ],
            [
                {"op": "add_role", "id": "r2"},
                {"op": "assign_permission", "role": "r2", "permission": "p4"},
            ],
        ]
        applied_total = 0
        for batch in batches:
            status, payload, _ = post_mutations(service, batch)
            assert status == 200
            assert payload["applied"] == len(batch)
            applied_total += len(batch)
            status, counts_payload, _ = service.handle("GET", "/v1/counts")
            assert status == 200
            expected = analyze(
                service.state, service.config.analysis
            ).counts()
            assert counts_payload["counts"] == expected
        assert service.mutation_seq == applied_total

    def test_rejected_batch_is_atomic(self):
        service = make_service()
        before = service.state.fingerprint()
        seq_before = service.mutation_seq
        status, payload, _ = post_mutations(
            service,
            [
                {"op": "add_user", "id": "will-not-survive"},
                {"op": "assign_user", "role": "ghost-role", "user": "u0"},
            ],
        )
        assert status == 400
        assert "ghost-role" in payload["error"]
        assert service.state.fingerprint() == before
        assert service.mutation_seq == seq_before

    def test_mutation_changes_the_fingerprint_and_cache_key(self):
        service = make_service()
        status, first, _ = service.handle("POST", "/v1/analyze")
        assert status == 200 and first["cache"] == "miss"
        post_mutations(service, [{"op": "add_user", "id": "x"}])
        status, second, _ = service.handle("POST", "/v1/analyze")
        assert status == 200 and second["cache"] == "miss"
        assert first["fingerprint"] != second["fingerprint"]


class TestAnalyzeCaching:
    def test_repeat_analyze_hits_the_cache(self):
        service = make_service()
        status, first, _ = service.handle("POST", "/v1/analyze")
        assert status == 200
        assert first["cache"] == "miss"
        status, second, _ = service.handle("POST", "/v1/analyze")
        assert status == 200
        assert second["cache"] == "hit"
        assert second["report"] == first["report"]
        _, metrics, _ = service.handle("GET", "/metricz")
        assert metrics["counters"]["service.analyze_hit"] > 0
        assert metrics["cache"]["hits"] > 0

    def test_execution_knob_overrides_share_a_cache_entry(self):
        service = make_service()
        service.handle("POST", "/v1/analyze")
        status, payload, _ = service.handle(
            "POST", "/v1/analyze", json.dumps({"n_workers": 2}).encode()
        )
        assert status == 200
        assert payload["cache"] == "hit"

    def test_result_affecting_overrides_do_not(self):
        service = make_service()
        service.handle("POST", "/v1/analyze")
        status, payload, _ = service.handle(
            "POST",
            "/v1/analyze",
            json.dumps({"similarity_threshold": 2}).encode(),
        )
        assert status == 200
        assert payload["cache"] == "miss"

    def test_unknown_override_400(self):
        status, payload, _ = make_service().handle(
            "POST", "/v1/analyze", json.dumps({"typo": 1}).encode()
        )
        assert status == 400
        assert "unknown analyze option" in payload["error"]

    def test_warm_start_primes_cache_and_scheduler(self):
        service = make_service(warm_start=True)
        service.start()
        status, payload, _ = service.handle("POST", "/v1/analyze")
        assert status == 200
        assert payload["cache"] == "hit"
        status, latest, _ = service.handle("GET", "/v1/reports/latest")
        assert status == 200
        assert latest["seq"] == 1
        assert latest["diff"] is None
        service.close()

    def test_latest_report_404_before_any_publication(self):
        status, _, _ = make_service().handle("GET", "/v1/reports/latest")
        assert status == 404


class TestDeadlines:
    def test_slow_analysis_times_out_cleanly(self, monkeypatch):
        service = make_service()
        release = threading.Event()
        real_analyze = analyze

        def gated_analyze(state, config=None, recorder=None):
            assert release.wait(5)
            return real_analyze(state, config, recorder)

        monkeypatch.setattr("repro.service.server.analyze", gated_analyze)
        status, payload, _ = service.handle(
            "POST", "/v1/analyze", deadline_header="0.05"
        )
        assert status == 504
        assert "deadline" in payload["error"]
        # The abandoned computation still lands in the cache...
        release.set()
        assert wait_for(lambda: service.cache.stats()["entries"] == 1)
        # ...and serves the retry (gate still patched: a hit needs no compute).
        status, payload, _ = service.handle("POST", "/v1/analyze")
        assert status == 200
        assert payload["cache"] == "hit"
        _, metrics, _ = service.handle("GET", "/metricz")
        assert metrics["counters"]["service.http_504"] == 1
        assert metrics["cache"]["deadline_abandons"] == 1


    @pytest.mark.parametrize("header", ["nan", "inf", "-inf", "1e400", "1e12"])
    @pytest.mark.parametrize(
        "method, route", [("GET", "/v1/counts"), ("POST", "/v1/analyze")]
    )
    def test_non_finite_deadline_is_400(self, header, method, route):
        # inf and 1e12 used to overflow the wait on the analysis (500)
        # and nan to time it out at once (504).
        service = make_service()
        status, payload, _ = service.handle(
            method, route, deadline_header=header
        )
        assert status == 400, payload
        assert "X-Deadline" in payload["error"]
        assert service.cache.stats()["entries"] == 0


class TestBackpressure:
    def test_saturated_queue_rejects_without_corrupting_in_flight(
        self, monkeypatch
    ):
        service = make_service(queue_limit=1)
        release = threading.Event()
        real_analyze = analyze

        def gated_analyze(state, config=None, recorder=None):
            assert release.wait(5)
            return real_analyze(state, config, recorder)

        monkeypatch.setattr("repro.service.server.analyze", gated_analyze)
        in_flight_result = []

        def occupant():
            in_flight_result.append(service.handle("POST", "/v1/analyze"))

        thread = threading.Thread(target=occupant)
        thread.start()
        try:
            # /metricz bypasses the queue, so it can watch saturation.
            assert wait_for(
                lambda: service.handle("GET", "/metricz")[1]["queue"][
                    "in_flight"
                ]
                == 1
            )
            status, payload, headers = service.handle("GET", "/v1/counts")
            assert status == 429
            assert "queue is full" in payload["error"]
            assert headers["Retry-After"] == str(
                service.config.retry_after_seconds
            )
        finally:
            release.set()
            thread.join(timeout=5)
        # The rejected request did not corrupt the in-flight one.
        status, payload, _ = in_flight_result[0]
        assert status == 200
        assert payload["cache"] == "miss"
        assert payload["report"]["counts"] == analyze(
            service.state, service.config.analysis
        ).counts()
        _, metrics, _ = service.handle("GET", "/metricz")
        assert metrics["counters"]["service.http_429"] == 1
        assert metrics["queue"]["rejected"] == 1
        assert metrics["queue"]["in_flight"] == 0

    def test_healthz_and_metricz_bypass_the_queue(self):
        service = make_service(queue_limit=1)
        assert service._queue.acquire(blocking=False)
        try:
            assert service.handle("GET", "/healthz")[0] == 200
            assert service.handle("GET", "/metricz")[0] == 200
            assert service.handle("GET", "/v1/counts")[0] == 429
        finally:
            service._queue.release()
        assert service.handle("GET", "/v1/counts")[0] == 200


class TestDrainAndSnapshot:
    def test_draining_rejects_new_work(self):
        service = make_service()
        service.begin_drain()
        status, payload, headers = service.handle("GET", "/v1/counts")
        assert status == 503
        assert headers["Connection"] == "close"
        status, payload, headers = service.handle("GET", "/healthz")
        assert status == 503
        assert payload["status"] == "draining"

    def test_drain_snapshot_enables_warm_restart(self, tmp_path):
        snapshot = tmp_path / "snap.json"
        service = make_service(snapshot_path=snapshot)
        post_mutations(
            service,
            [
                {"op": "add_user", "id": "persisted"},
                {"op": "assign_user", "role": "r0", "user": "persisted"},
            ],
        )
        fingerprint = service.state.fingerprint()
        seq = service.mutation_seq
        service.begin_drain()
        service.close(drain_reason="test-drain")
        assert snapshot.is_file()

        restarted = AnalysisService(
            config=ServiceConfig(
                warm_start=False,
                refresh_mutations=None,
                snapshot_path=snapshot,
            )
        )
        assert restarted.restored_from_snapshot
        assert restarted.mutation_seq == seq
        assert restarted.state.fingerprint() == fingerprint
        status, payload, _ = restarted.handle("GET", "/healthz")
        assert status == 200
        assert payload["restored_from_snapshot"] is True
        assert payload["mutation_seq"] == seq
        status, counts_payload, _ = restarted.handle("GET", "/v1/counts")
        assert counts_payload["counts"] == analyze(
            restarted.state, restarted.config.analysis
        ).counts()

    def test_close_without_snapshot_path_is_fine(self):
        service = make_service()
        service.close()


class TestScanThreads:
    """The service's analyses scan on threads inside its own process."""

    def test_analyze_fans_the_scan_out(self, spy_threads, monkeypatch):
        import repro.core.grouping.cooccurrence as scan_module

        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 2)
        service = make_service(
            analysis=AnalysisConfig(n_workers=2, block_rows=2)
        )
        service.start()
        try:
            status, payload, _ = service.handle("POST", "/v1/analyze", b"{}")
            assert status == 200
            assert payload["report"]["metrics"]["workers"]["mode"] == (
                "parallel"
            )
            assert spy_threads and set(spy_threads) == {2}
            assert payload["report"]["counts"] == analyze(
                service.state, service.config.analysis
            ).counts()
            # A block_rows override is an execution knob: same cache entry.
            status, payload, _ = service.handle(
                "POST", "/v1/analyze", json.dumps({"block_rows": 3}).encode()
            )
            assert status == 200
            assert payload["cache"] == "hit"
        finally:
            service.close()

    def test_kernel_override_is_rejected(self):
        service = make_service()
        service.start()
        try:
            status, payload, _ = service.handle(
                "POST", "/v1/analyze", json.dumps({"kernel": "bits"}).encode()
            )
        finally:
            service.close()
        assert status == 400
        assert "unknown analyze option" in payload["error"]

    def test_oversized_n_workers_request_capped(self, spy_threads, monkeypatch):
        # A request's n_workers starts no more threads than the process
        # may use CPUs, and no child process.
        import repro.core.grouping.cooccurrence as scan_module

        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 3)
        service = make_service()
        service.start()
        try:
            status, payload, _ = service.handle(
                "POST",
                "/v1/analyze",
                json.dumps({"n_workers": 10_000, "block_rows": 1}).encode(),
            )
        finally:
            service.close()
        assert status == 200
        assert payload["cache"] == "miss"
        assert spy_threads and set(spy_threads) == {3}


class TestHTTPBinding:
    """One real loopback round trip through ThreadingHTTPServer."""

    def request(self, url, method="GET", body=None, headers=None):
        request = urllib.request.Request(
            url, data=body, method=method, headers=headers or {}
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read()), dict(
                    response.headers
                )
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    def test_end_to_end_over_loopback(self, tmp_path):
        snapshot = tmp_path / "snap.json"
        service = make_service(snapshot_path=snapshot, warm_start=True)
        server = ServiceServer(service, port=0)
        server.start()
        try:
            base = server.url
            status, payload, _ = self.request(f"{base}/healthz")
            assert status == 200 and payload["status"] == "ok"

            body = json.dumps(
                {
                    "mutations": [
                        {"op": "add_user", "id": "via-http"},
                        {"op": "assign_user", "role": "r1", "user": "via-http"},
                    ]
                }
            ).encode()
            status, payload, _ = self.request(
                f"{base}/v1/mutations", method="POST", body=body
            )
            assert status == 200 and payload["applied"] == 2

            status, counts_payload, _ = self.request(f"{base}/v1/counts")
            assert status == 200
            assert counts_payload["counts"] == analyze(
                service.state, service.config.analysis
            ).counts()

            status, analyze_payload, _ = self.request(
                f"{base}/v1/analyze", method="POST", body=b""
            )
            assert status == 200
            status, again, _ = self.request(
                f"{base}/v1/analyze", method="POST", body=b""
            )
            assert status == 200 and again["cache"] == "hit"

            status, payload, headers = self.request(f"{base}/v1/nothing")
            assert status == 404
        finally:
            server.stop(reason="test-shutdown")
        assert snapshot.is_file()
        meta = json.loads(snapshot.read_text())["meta"]
        assert meta["extra"]["reason"] == "test-shutdown"
        assert meta["mutation_seq"] == service.mutation_seq
