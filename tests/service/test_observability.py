"""Service telemetry-plane tests: trace correlation, /metricz v2,
Prometheus exposition, /tracez, and SLO-driven health degradation.

Drives ``AnalysisService.handle`` directly (the transport-independent
seam), same as tests/service/test_server.py.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.core.matrices import AssignmentMatrix
from repro.core.state import RbacState
from repro.exceptions import ConfigurationError
from repro.service import AnalysisService, ServiceConfig, SloTracker


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


class TestTraceCorrelation:
    def test_client_trace_id_is_echoed(self):
        service = make_service()
        _, _, headers = service.handle(
            "GET", "/healthz", trace_id_header="client-trace-7"
        )
        assert headers["X-Trace-Id"] == "client-trace-7"

    def test_trace_id_generated_when_absent(self):
        service = make_service()
        _, _, first = service.handle("GET", "/healthz")
        _, _, second = service.handle("GET", "/healthz")
        assert first["X-Trace-Id"] and second["X-Trace-Id"]
        assert first["X-Trace-Id"] != second["X-Trace-Id"]

    def test_blank_header_treated_as_absent(self):
        _, _, headers = make_service().handle(
            "GET", "/healthz", trace_id_header="   "
        )
        assert headers["X-Trace-Id"].strip()

    def test_trace_id_lands_in_tracez(self):
        service = make_service()
        service.handle("GET", "/v1/counts", trace_id_header="find-me")
        _, tracez, _ = service.handle("GET", "/tracez")
        assert "find-me" in [t["trace_id"] for t in tracez["traces"]]


class TestMetricz:
    def test_schema_v2_shape(self):
        service = make_service()
        service.handle("POST", "/v1/analyze", b"{}")
        status, payload, _ = service.handle("GET", "/metricz")
        assert status == 200
        assert payload["schema"] == 2
        endpoint = payload["endpoints"]["POST /v1/analyze"]
        assert endpoint["count"] == 1
        assert endpoint["p50_seconds"] is not None
        assert endpoint["p50_seconds"] <= endpoint["p99_seconds"]
        # Engine histograms accumulate into the service registry.
        assert payload["histograms"]["detector.seconds"]["count"] > 0
        assert "slo" not in payload  # tracking is opt-in

    def test_analysis_gc_pauses_accumulate(self, monkeypatch):
        real = AssignmentMatrix.ruam

        def collecting(state):
            gc.collect(2)  # a full collection inside the matrix build
            return real(state)

        monkeypatch.setattr(AssignmentMatrix, "ruam", collecting)
        service = make_service()
        service.handle("POST", "/v1/analyze", b"{}")
        _, payload, _ = service.handle("GET", "/metricz")
        collections = payload["counters"]["gc.collections"]
        assert collections >= 1
        assert payload["histograms"]["gc.pause_s"]["count"] == collections

    def test_endpoint_aggregates_are_the_histogram_and_error_counter(self):
        service = make_service()
        service.handle("GET", "/v1/counts")
        service.handle("GET", "/v1/counts", deadline_header="soon")  # 400
        service.handle("GET", "/v1/nope")  # 404
        _, payload, _ = service.handle("GET", "/metricz")
        series = {
            entry["labels"]["endpoint"]: entry
            for entry in payload["histograms"]["service.request_seconds"]
        }
        assert set(payload["endpoints"]) == set(series) == {
            "GET /v1/counts", "GET /v1/nope",
        }
        for name, stats in payload["endpoints"].items():
            histogram = series[name]
            assert stats == {
                "count": histogram["count"],
                "errors": stats["errors"],
                "total_seconds": histogram["sum"],
                "max_seconds": histogram["max"],
                "p50_seconds": histogram["p50"],
                "p90_seconds": histogram["p90"],
                "p99_seconds": histogram["p99"],
            }
            assert isinstance(stats["count"], int)
            assert isinstance(stats["total_seconds"], float)
            assert isinstance(stats["max_seconds"], float)
        assert payload["endpoints"]["GET /v1/counts"]["count"] == 2
        assert payload["endpoints"]["GET /v1/counts"]["errors"] == 1
        assert payload["endpoints"]["GET /v1/nope"]["errors"] == 1
        # The error counter is per endpoint, not a service counter.
        assert "service.request_errors" not in payload["counters"]
        assert payload["counters"]["service.requests"] == 3
        assert payload["counters"]["service.http_400"] == 1
        assert payload["queue"] == {"limit": 8, "in_flight": 0, "rejected": 0}

    def test_queue_gauges_are_exposed_before_any_request(self):
        _, text, _ = make_service().handle(
            "GET", "/metricz?format=prometheus"
        )
        for gauge in ("repro_service_in_flight", "repro_service_rejected"):
            assert f"# TYPE {gauge} gauge\n{gauge} 0\n" in text

    def test_prometheus_exposition(self):
        service = make_service()
        service.handle("POST", "/v1/analyze", b"{}")
        service.handle("GET", "/healthz")
        status, text, _ = service.handle(
            "GET", "/metricz?format=prometheus"
        )
        assert status == 200
        assert isinstance(text, str)
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert 'endpoint="GET /healthz"' in text
        assert 'le="+Inf"' in text
        assert "repro_service_requests_total" in text
        assert "repro_service_uptime_seconds" in text

    def test_unknown_format_is_400(self):
        status, payload, _ = make_service().handle(
            "GET", "/metricz?format=xml"
        )
        assert status == 400
        assert "unknown format" in payload["error"]

    def test_concurrent_requests_lose_no_observations(self):
        """N threads: every request lands in the endpoint aggregates and
        the latency histograms, and the percentile invariants hold."""
        service = make_service()
        threads, per_thread = 8, 25

        def hammer():
            for _ in range(per_thread):
                status, _, _ = service.handle("GET", "/v1/counts")
                assert status == 200

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        status, payload, _ = service.handle("GET", "/metricz")
        assert status == 200
        total = threads * per_thread
        endpoint = payload["endpoints"]["GET /v1/counts"]
        assert endpoint["count"] == total
        assert endpoint["errors"] == 0
        series = payload["histograms"]["service.request_seconds"]
        counts_hist = next(
            entry
            for entry in series
            if entry["labels"] == {"endpoint": "GET /v1/counts"}
        )
        assert counts_hist["count"] == total  # no lost updates
        assert sum(n for _, n in counts_hist["buckets"]) == total
        assert (
            counts_hist["min"]
            <= counts_hist["p50"]
            <= counts_hist["p90"]
            <= counts_hist["p99"]
            <= counts_hist["max"]
        )
        assert counts_hist["sum"] == pytest.approx(
            endpoint["total_seconds"], rel=1e-6
        )
        assert payload["counters"]["service.requests"] >= total


class TestTracez:
    def test_slowest_traces_shape(self):
        service = make_service()
        for _ in range(5):
            service.handle("GET", "/v1/counts")
        status, payload, _ = service.handle("GET", "/tracez?k=3")
        assert status == 200
        assert payload["seen"] >= 5
        assert len(payload["traces"]) == 3
        durations = [t["duration_s"] for t in payload["traces"]]
        assert durations == sorted(durations, reverse=True)
        top = payload["traces"][0]
        assert top["endpoint"].startswith("GET ")
        assert top["spans"] >= 1
        assert top["tree"][0]["path"] == "service.request"
        assert top["tree"][0]["depth"] == 0

    def test_ring_is_bounded(self):
        service = make_service(tracez_capacity=2)
        for _ in range(6):
            service.handle("GET", "/healthz")
        _, payload, _ = service.handle("GET", "/tracez?k=10")
        # The /tracez request itself is recorded after responding.
        assert payload["retained"] <= 2
        assert payload["seen"] >= 6

    def test_bad_k_is_400(self):
        service = make_service()
        assert service.handle("GET", "/tracez?k=zero")[0] == 400
        assert service.handle("GET", "/tracez?k=0")[0] == 400


class TestHTTPTelemetry:
    """Real loopback round trips for the transport-layer pieces: header
    pass-through/echo and the Prometheus text Content-Type branch."""

    def test_trace_header_and_prometheus_over_loopback(self):
        import urllib.request

        from repro.service import ServiceServer

        service = make_service()
        server = ServiceServer(service, port=0)
        server.start()
        try:
            base = server.url
            request = urllib.request.Request(
                f"{base}/healthz", headers={"X-Trace-Id": "http-trace-1"}
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
                assert response.headers["X-Trace-Id"] == "http-trace-1"

            with urllib.request.urlopen(
                f"{base}/metricz?format=prometheus", timeout=10
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == (
                    "text/plain; version=0.0.4; charset=utf-8"
                )
                text = response.read().decode("utf-8")
            assert "# TYPE repro_service_request_seconds histogram" in text
            assert "repro_service_requests_total" in text

            with urllib.request.urlopen(
                f"{base}/tracez?k=1", timeout=10
            ) as response:
                assert response.status == 200
                import json

                tracez = json.loads(response.read())
            assert tracez["traces"][0]["trace_id"]
        finally:
            server.stop(reason="test-shutdown")


class TestSlo:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(slo_target_seconds=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(tracez_capacity=0)

    def test_tracker_degrades_and_recovers(self):
        tracker = SloTracker(
            target_seconds=0.1, window=10, budget_fraction=0.2, min_samples=5
        )
        for _ in range(5):
            tracker.observe("GET /x", 0.5)  # 100% breach
        assert tracker.degraded_endpoints() == ["GET /x"]
        for _ in range(10):
            tracker.observe("GET /x", 0.01)  # window rolls clean
        assert tracker.degraded_endpoints() == []

    def test_verdict_needs_min_samples(self):
        tracker = SloTracker(target_seconds=0.1, min_samples=10)
        for _ in range(9):
            tracker.observe("GET /x", 9.9)
        assert tracker.degraded_endpoints() == []

    def test_healthz_degrades_on_breach(self):
        service = make_service(slo_target_seconds=1e-12)  # all breach
        for _ in range(10):  # the tracker's verdict needs 10 samples
            service.handle("GET", "/v1/counts")
        status, payload, _ = service.handle("GET", "/healthz")
        assert status == 503
        assert payload["status"] == "degraded"
        assert "GET /v1/counts" in payload["slo_breached_endpoints"]

    def test_healthz_ok_under_generous_target(self):
        service = make_service(slo_target_seconds=60.0)
        for _ in range(10):
            service.handle("GET", "/v1/counts")
        status, payload, _ = service.handle("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        slo = service.handle("GET", "/metricz")[1]["slo"]
        # A verdict was reached: the window holds enough samples.
        assert slo["endpoints"]["GET /v1/counts"]["samples"] >= (
            slo["min_samples"]
        )

    def test_metricz_exposes_window_state(self):
        service = make_service(slo_target_seconds=60.0)
        service.handle("GET", "/v1/counts")
        _, payload, _ = service.handle("GET", "/metricz")
        slo = payload["slo"]
        assert slo["target_seconds"] == 60.0
        endpoint = slo["endpoints"]["GET /v1/counts"]
        assert endpoint["samples"] == 1
        assert endpoint["breaches"] == 0
        assert endpoint["degraded"] is False
