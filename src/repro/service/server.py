"""The analysis daemon: HTTP/JSON serving over a live RBAC state.

:class:`AnalysisService` is the application object — it owns the live
:class:`~repro.core.incremental.IncrementalAuditor` (so ``GET
/v1/counts`` is served from maintained indexes, never a re-analysis),
the fingerprint-keyed :class:`~repro.service.cache.ReportCache`, the
background :class:`~repro.service.scheduler.RefreshScheduler`, and the
service metrics.  Its :meth:`~AnalysisService.handle` method maps one
``(method, path, body)`` triple to ``(status, payload, headers)`` with
no socket involved, which is what the unit tests drive.

:class:`ServiceServer` binds a service to a stdlib
``ThreadingHTTPServer`` (zero third-party dependencies).  Production
behaviours live at this seam:

* **Backpressure** — at most ``queue_limit`` ``/v1/*`` requests are in
  flight; the next one is rejected immediately with ``429`` and a
  ``Retry-After`` header instead of queueing unboundedly.
* **Deadlines** — every request carries a deadline (``X-Deadline``
  header, seconds; default ``deadline_seconds``).  An analysis that
  cannot finish in time returns ``504`` while the shared computation
  completes into the cache (see :mod:`repro.service.cache`).
* **Graceful drain** — on SIGTERM the server stops accepting work
  (``503`` + ``Connection: close``), lets in-flight requests finish,
  flushes the state to the snapshot store, and exits; a warm restart
  reloads the snapshot with the mutation sequence intact.

Endpoints::

    POST /v1/mutations       apply a batched mutation delta (atomic)
    GET  /v1/counts          live inefficiency counts (incremental)
    POST /v1/analyze         full report (cached + coalesced); with
                             ``execution="queue"``: 202 + job id
    GET  /v1/reports/latest  scheduler's latest report + diff
    GET  /v1/jobs            job-plane stats (queue mode)
    GET  /v1/jobs/{id}       job status + result once done (queue mode)
    GET  /healthz            liveness (503 while draining or SLO-degraded)
    GET  /metricz            counters, latency histograms, cache/queue/SLO
                             stats (?format=prometheus for text exposition)
    GET  /tracez             slowest recent request traces (?k=N)

Every request is correlated end to end: the ``X-Trace-Id`` request
header (generated when absent) becomes the trace ID of the request's
``service.request`` trace and is echoed back as a response header, so a
client can join its own logs to the service's exported traces.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable
from urllib.parse import parse_qsl, urlsplit

from repro.core.engine import AnalysisConfig, analyze
from repro.core.incremental import IncrementalAuditor
from repro.core.report import Report
from repro.core.state import RbacState
from repro.exceptions import ConfigurationError, ReproError
from repro.jobs import JobClient, JobQueue, JobRecord
from repro.obs import (
    GC_COLLECTIONS,
    GC_PAUSE,
    MetricRegistry,
    Recorder,
    current_recorder,
    new_trace_id,
    use_recorder,
)
from repro.service.cache import ReportCache
from repro.service.slo import SloTracker
from repro.service.tracez import SlowTraceRing
from repro.service.protocol import (
    DeadlineExceeded,
    ProtocolError,
    ServiceDraining,
    ServiceSaturated,
    apply_batch,
    build_analysis_config,
    config_key,
    parse_mutation_batch,
    validate_batch,
)
from repro.service.scheduler import RefreshScheduler
from repro.service.store import SnapshotMeta, SnapshotStore

__all__ = ["ServiceConfig", "AnalysisService", "ServiceServer"]


class _StateMoved(Exception):
    """A mutation changed the live state after its fingerprint was read."""


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`AnalysisService`.

    Parameters
    ----------
    queue_limit:
        Maximum concurrently-processed ``/v1/*`` requests; the next
        request is rejected with 429 (backpressure, not buffering).
    deadline_seconds:
        Default per-request deadline; clients override per request with
        the ``X-Deadline`` header.
    cache_capacity:
        Reports kept in the LRU report cache.
    refresh_mutations / refresh_seconds:
        Background full-analysis triggers (``None`` disables a trigger;
        both ``None`` disables the scheduler).
    snapshot_path:
        Where graceful drain persists the state; an existing snapshot
        here is loaded on construction (warm restart) in preference to
        the ``state`` argument.
    warm_start:
        Run one full analysis at startup — warms the matrices, the
        per-axis workspace artifacts, and the report cache, and gives
        the scheduler its diff baseline.
    retry_after_seconds:
        Value of the ``Retry-After`` header on 429 responses.
    slo_target_seconds:
        Per-request latency target for rolling-window SLO tracking.
        ``None`` (the default) disables tracking entirely — ``/healthz``
        then reports only liveness/drain state.  When set, an endpoint
        whose recent-request window breaches the error budget degrades
        ``/healthz`` to 503 ``{"status": "degraded"}``.
    slo_window / slo_budget_fraction / slo_min_samples:
        SLO window parameters (see :class:`repro.service.slo.SloTracker`).
    tracez_capacity:
        How many recent request traces ``GET /tracez`` retains.
    execution:
        ``"inline"`` (default) computes analyses on request threads;
        ``"queue"`` enqueues them onto the durable job plane instead —
        ``POST /v1/analyze`` returns ``202`` + a job id, workers
        attached via ``repro work`` execute, and ``GET /v1/jobs/{id}``
        serves status/result.  Requires ``jobs_path``.
    jobs_path:
        The shared sqlite queue file (see :mod:`repro.jobs`).  The file
        survives restarts: stale leases from a dead daemon or worker are
        reaped on warm start.
    job_lease_seconds / job_max_attempts / job_backoff_seconds:
        Lease duration, retry budget, and backoff base for enqueued
        jobs (see :class:`repro.jobs.JobQueue`).
    job_reap_seconds:
        Interval of the service's background reaper sweep (defaults to
        half the lease).
    job_refresh_timeout_seconds:
        How long the background refresh scheduler waits for a queued
        analysis before giving up the cycle.
    analysis:
        Default :class:`AnalysisConfig` for ``POST /v1/analyze`` and the
        scheduler; its ``similarity_threshold`` also parameterises the
        incremental auditor, keeping ``/v1/counts`` and ``/v1/analyze``
        in exact agreement.
    """

    queue_limit: int = 8
    deadline_seconds: float = 30.0
    cache_capacity: int = 32
    refresh_mutations: int | None = 256
    refresh_seconds: float | None = None
    snapshot_path: str | Path | None = None
    warm_start: bool = True
    retry_after_seconds: int = 1
    slo_target_seconds: float | None = None
    slo_window: int = 100
    slo_budget_fraction: float = 0.1
    slo_min_samples: int = 10
    tracez_capacity: int = 64
    execution: str = "inline"
    jobs_path: str | Path | None = None
    job_lease_seconds: float = 15.0
    job_max_attempts: int = 3
    job_backoff_seconds: float = 0.5
    job_reap_seconds: float | None = None
    job_refresh_timeout_seconds: float = 300.0
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1 (got {self.queue_limit})"
            )
        # Chained so that nan fails too; the upper end is the longest
        # wait a thread can make (inf would overflow it).
        if not 0 < self.deadline_seconds <= threading.TIMEOUT_MAX:
            raise ConfigurationError(
                f"deadline_seconds must be in (0, {threading.TIMEOUT_MAX:g}] "
                f"(got {self.deadline_seconds})"
            )
        if self.retry_after_seconds < 0:
            raise ConfigurationError(
                "retry_after_seconds must be >= 0 "
                f"(got {self.retry_after_seconds})"
            )
        if self.slo_target_seconds is not None and self.slo_target_seconds <= 0:
            raise ConfigurationError(
                "slo_target_seconds must be > 0 when set "
                f"(got {self.slo_target_seconds})"
            )
        if self.tracez_capacity < 1:
            raise ConfigurationError(
                f"tracez_capacity must be >= 1 (got {self.tracez_capacity})"
            )
        if self.execution not in ("inline", "queue"):
            raise ConfigurationError(
                f'execution must be "inline" or "queue" '
                f"(got {self.execution!r})"
            )
        if self.execution == "queue" and not self.jobs_path:
            raise ConfigurationError(
                'execution "queue" requires jobs_path (the shared queue '
                "database file)"
            )
        if not 0 < self.job_lease_seconds <= threading.TIMEOUT_MAX:
            raise ConfigurationError(
                "job_lease_seconds must be in "
                f"(0, {threading.TIMEOUT_MAX:g}] (got {self.job_lease_seconds})"
            )
        if self.job_max_attempts < 1:
            raise ConfigurationError(
                f"job_max_attempts must be >= 1 (got {self.job_max_attempts})"
            )
        if not 0 <= self.job_backoff_seconds <= threading.TIMEOUT_MAX:
            raise ConfigurationError(
                "job_backoff_seconds must be in "
                f"[0, {threading.TIMEOUT_MAX:g}] (got {self.job_backoff_seconds})"
            )
        if self.job_reap_seconds is not None and self.job_reap_seconds <= 0:
            raise ConfigurationError(
                "job_reap_seconds must be > 0 when set "
                f"(got {self.job_reap_seconds})"
            )
        if self.job_refresh_timeout_seconds <= 0:
            raise ConfigurationError(
                "job_refresh_timeout_seconds must be > 0 "
                f"(got {self.job_refresh_timeout_seconds})"
            )


class AnalysisService:
    """The transport-independent application behind the HTTP server."""

    def __init__(
        self,
        state: RbacState | None = None,
        config: ServiceConfig | None = None,
        sinks: Any = (),
    ) -> None:
        self.config = config or ServiceConfig()
        self._sinks = list(sinks)
        self._store = (
            SnapshotStore(self.config.snapshot_path)
            if self.config.snapshot_path
            else None
        )
        self.restored_from_snapshot = False
        meta: SnapshotMeta | None = None
        if self._store is not None and self._store.exists():
            state, meta = self._store.load()
            self.restored_from_snapshot = True
        self._auditor = IncrementalAuditor(
            state,
            similarity_threshold=self.config.analysis.similarity_threshold,
        )
        self._state_lock = threading.RLock()
        self._mutation_seq = meta.mutation_seq if meta is not None else 0
        self._cache = ReportCache(self.config.cache_capacity)
        self._queue = threading.Semaphore(self.config.queue_limit)
        self._draining = threading.Event()
        #: Serialises trace emission to the sinks shared by handler threads.
        self._obs_lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        #: Process-wide metric registry, the one store of every service
        #: aggregate: the service and engine counters, per-endpoint
        #: request-latency histograms and error counters (labelled
        #: ``{"endpoint": ...}``), the engine histograms merged in from
        #: every analysis this service runs, and the queue gauges.  It
        #: is internally locked, so request threads record into it
        #: without a lock of their own.
        self._registry = MetricRegistry()
        # Created up front so /metricz reports them before any request.
        self._in_flight = self._registry.gauge("service.in_flight")
        self._rejected = self._registry.gauge("service.rejected")
        self._slo = (
            SloTracker(
                self.config.slo_target_seconds,
                window=self.config.slo_window,
                budget_fraction=self.config.slo_budget_fraction,
                min_samples=self.config.slo_min_samples,
            )
            if self.config.slo_target_seconds is not None
            else None
        )
        self._tracez = SlowTraceRing(self.config.tracez_capacity)
        #: The durable job plane (queue mode only).  The service is a
        #: *producer* plus reaper: execution happens in worker processes
        #: attached separately via ``repro work``; the sqlite file is
        #: the only shared artifact, so it survives daemon restarts.
        self._jobs: JobClient | None = None
        self._job_reaper: threading.Thread | None = None
        self._job_reaper_stop = threading.Event()
        if self.config.execution == "queue":
            queue = JobQueue(
                self.config.jobs_path,
                lease_seconds=self.config.job_lease_seconds,
                max_attempts=self.config.job_max_attempts,
                backoff_seconds=self.config.job_backoff_seconds,
            )
            self._jobs = JobClient(queue)
        self._scheduler = RefreshScheduler(
            self._refresh_runner,
            refresh_mutations=self.config.refresh_mutations,
            refresh_seconds=self.config.refresh_seconds,
        )
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Warm-start (optional) and launch the refresh scheduler."""
        if self._started:
            return
        self._started = True
        if self._jobs is not None:
            # Warm-restart recovery: leases held by a previous (dead)
            # daemon or its workers are reaped before anything else runs,
            # then a background sweep keeps recovering while we serve.
            self._jobs.queue.reap_expired()
            interval = (
                self.config.job_reap_seconds
                if self.config.job_reap_seconds is not None
                else self.config.job_lease_seconds / 2
            )
            self._job_reaper = threading.Thread(
                target=self._reap_loop,
                args=(interval,),
                name="repro-service-job-reaper",
                daemon=True,
            )
            self._job_reaper.start()
        if self.config.warm_start:
            # Warm start computes inline even in queue mode: at startup
            # no worker may be attached yet, and the warm analysis exists
            # to heat this process's matrices and cache.
            report, fingerprint, seq = self._refresh_runner(inline=True)
            self._scheduler.prime(report, fingerprint, seq)
        self._scheduler.start()

    def _reap_loop(self, interval: float) -> None:
        while not self._job_reaper_stop.wait(interval):
            self._jobs.queue.reap_expired()

    @property
    def is_draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop accepting ``/v1/*`` work; in-flight requests finish."""
        self._draining.set()

    def close(self, drain_reason: str = "shutdown") -> None:
        """Stop the scheduler and flush the state to the snapshot store.

        Call after the HTTP layer has fully drained (no request can be
        mutating the state anymore).
        """
        self._scheduler.stop()
        if self._job_reaper is not None:
            self._job_reaper_stop.set()
            self._job_reaper.join(timeout=10)
            self._job_reaper = None
        if self._jobs is not None:
            # Close connections only — the queue *file* outlives the
            # daemon (that is the durability contract); workers hold
            # their own connections and keep running.
            self._jobs.queue.close()
        if self._store is not None:
            with self._state_lock:
                state = self._auditor.state.copy()
                seq = self._mutation_seq
            self._store.save(
                state,
                SnapshotMeta(
                    mutation_seq=seq,
                    fingerprint=state.fingerprint(),
                    saved_at=time.time(),
                    extra={"reason": drain_reason},
                ),
            )
            self._registry.inc("service.snapshots_written")

    @property
    def scheduler(self) -> RefreshScheduler:
        return self._scheduler

    @property
    def cache(self) -> ReportCache:
        return self._cache

    @property
    def jobs(self) -> JobClient | None:
        """The job client (``None`` unless ``execution="queue"``)."""
        return self._jobs

    @property
    def mutation_seq(self) -> int:
        with self._state_lock:
            return self._mutation_seq

    @property
    def state(self) -> RbacState:
        """The live state.  Read-only by convention: mutate it only
        through ``POST /v1/mutations`` (or the auditor), never directly
        — direct mutation desynchronises counts, cache, and snapshot."""
        return self._auditor.state

    # ------------------------------------------------------------------
    # Request handling (transport-independent)
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        deadline_header: str | None = None,
        trace_id_header: str | None = None,
    ) -> tuple[int, dict[str, Any] | str | bytes, dict[str, str]]:
        """Serve one request; returns ``(status, payload, headers)``.

        Every request is traced under a ``service.request`` span (shipped
        to the service's sinks, retained for ``GET /tracez``) and
        aggregated into the per-endpoint latency histograms that ``GET
        /metricz`` reports.  The request's trace ID — the ``X-Trace-Id``
        header when the client sent one, freshly generated otherwise —
        is stamped on the trace and echoed in the response headers.

        ``payload`` is normally a JSON-able dict; ``GET
        /metricz?format=prometheus`` returns a plain-text str instead
        (the HTTP layer switches Content-Type accordingly), and ``GET
        /v1/jobs/{id}`` returns its JSON body already encoded, as bytes.
        """
        started = time.monotonic()
        parts = urlsplit(path)
        route, query = parts.path, parts.query
        # Job-status routes embed the job id; collapse it so the
        # per-endpoint histogram/SLO label space stays bounded.
        if route.startswith("/v1/jobs/"):
            endpoint = f"{method} /v1/jobs/{{id}}"
        else:
            endpoint = f"{method} {route}"
        trace_id = (trace_id_header or "").strip() or new_trace_id()
        recorder = Recorder(trace_id=trace_id)
        headers: dict[str, str] = {}
        payload: dict[str, Any] | str | bytes
        try:
            with use_recorder(recorder):
                with recorder.span(
                    "service.request", method=method, route=route
                ) as span:
                    try:
                        deadline_at = started + self._deadline_seconds(
                            deadline_header
                        )
                        status, payload, headers = self._route(
                            method, route, query, body, deadline_at
                        )
                    except ProtocolError as error:
                        status, payload = 400, {"error": str(error)}
                    except ServiceSaturated as error:
                        status, payload = 429, {"error": str(error)}
                        headers["Retry-After"] = str(
                            self.config.retry_after_seconds
                        )
                    except ServiceDraining as error:
                        status, payload = 503, {"error": str(error)}
                        headers["Connection"] = "close"
                    except DeadlineExceeded as error:
                        status, payload = 504, {"error": str(error)}
                    except ReproError as error:
                        status, payload = 400, {"error": str(error)}
                    span.annotate(status=status)
        except Exception as error:  # never let the transport see a traceback
            status, payload = 500, {
                "error": f"internal error: {type(error).__name__}: {error}"
            }
            headers = {}
        headers["X-Trace-Id"] = trace_id
        self._observe(
            endpoint, status, time.monotonic() - started, recorder
        )
        return status, payload, headers

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self, method: str, route: str, query: str, body: bytes,
        deadline_at: float,
    ) -> tuple[int, dict[str, Any] | str | bytes, dict[str, str]]:
        if route == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._handle_healthz()
        if route == "/metricz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._handle_metricz(query)
        if route == "/tracez":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._handle_tracez(query)
        if route.startswith("/v1/"):
            return self._route_v1(method, route, body, deadline_at)
        return 404, {"error": f"no such endpoint: {route}"}, {}

    def _route_v1(
        self, method: str, route: str, body: bytes, deadline_at: float
    ) -> tuple[int, dict[str, Any] | bytes, dict[str, str]]:
        if self._draining.is_set():
            raise ServiceDraining("service is draining; retry elsewhere")
        if not self._queue.acquire(blocking=False):
            self._rejected.add(1)
            raise ServiceSaturated(
                f"request queue is full ({self.config.queue_limit} in "
                "flight); retry later"
            )
        self._in_flight.add(1)
        try:
            if route == "/v1/mutations":
                if method != "POST":
                    return self._method_not_allowed("POST")
                return self._handle_mutations(body, deadline_at)
            if route == "/v1/counts":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._handle_counts()
            if route == "/v1/analyze":
                if method != "POST":
                    return self._method_not_allowed("POST")
                return self._handle_analyze(body, deadline_at)
            if route == "/v1/reports/latest":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._handle_latest_report()
            if route == "/v1/jobs":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._handle_jobs_overview()
            if route.startswith("/v1/jobs/"):
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._handle_job_status(route[len("/v1/jobs/"):])
            return 404, {"error": f"no such endpoint: {route}"}, {}
        finally:
            self._in_flight.add(-1)
            self._queue.release()

    @staticmethod
    def _method_not_allowed(
        allowed: str,
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        return (
            405,
            {"error": f"method not allowed (use {allowed})"},
            {"Allow": allowed},
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _handle_healthz(self) -> tuple[int, dict[str, Any], dict[str, str]]:
        if self._draining.is_set():
            return 503, {"status": "draining"}, {"Connection": "close"}
        if self._slo is not None:
            degraded = self._slo.degraded_endpoints()
            if degraded:
                return (
                    503,
                    {
                        "status": "degraded",
                        "slo_breached_endpoints": degraded,
                        "slo_target_seconds": self._slo.target_seconds,
                    },
                    {},
                )
        with self._state_lock:
            state = self._auditor.state
            dataset = {
                "users": state.n_users,
                "roles": state.n_roles,
                "permissions": state.n_permissions,
            }
            seq = self._mutation_seq
        return (
            200,
            {
                "status": "ok",
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "mutation_seq": seq,
                "dataset": dataset,
                "restored_from_snapshot": self.restored_from_snapshot,
            },
            {},
        )

    def _handle_metricz(
        self, query: str = ""
    ) -> tuple[int, dict[str, Any] | str, dict[str, str]]:
        params = dict(parse_qsl(query))
        exposition = params.get("format", "json")
        if exposition not in ("json", "prometheus"):
            return (
                400,
                {"error": f"unknown format {exposition!r} "
                          "(use json or prometheus)"},
                {},
            )
        uptime = time.monotonic() - self._started_monotonic
        job_stats = (
            self._jobs.queue.stats() if self._jobs is not None else None
        )
        if exposition == "prometheus":
            extra_counters: dict[str, int | float] = {}
            extra_gauges = {"service.uptime_seconds": uptime}
            if job_stats is not None:
                # jobs.claimed / jobs.lease_expired / ... counters plus
                # one gauge per queue state, all from the durable tables
                # (exact across every process sharing the queue file).
                extra_counters = job_stats["counters"]
                for state_name, count in job_stats["states"].items():
                    extra_gauges[f"jobs.state_{state_name}"] = count
            text = self._registry.prometheus_text(
                extra_counters=extra_counters,
                extra_gauges=extra_gauges,
            )
            return 200, text, {}
        snapshot = self._registry.snapshot()
        counters = snapshot["counters"]
        errors = {
            entry["labels"]["endpoint"]: entry["value"]
            for entry in counters.pop("service.request_errors", [])
        }
        # Each endpoint's count, total and max are the exact count, sum
        # and max of its request_seconds histogram.
        endpoints = {
            entry["labels"]["endpoint"]: {
                "count": entry["count"],
                "errors": errors.get(entry["labels"]["endpoint"], 0),
                "total_seconds": entry["sum"],
                "max_seconds": entry["max"],
                "p50_seconds": entry["p50"],
                "p90_seconds": entry["p90"],
                "p99_seconds": entry["p99"],
            }
            for entry in snapshot["histograms"].get(
                "service.request_seconds", []
            )
        }
        payload: dict[str, Any] = {
            "schema": 2,
            "uptime_seconds": uptime,
            "counters": counters,
            "endpoints": endpoints,
            "histograms": snapshot["histograms"],
            "cache": self._cache.stats(),
            "queue": {
                "limit": self.config.queue_limit,
                "in_flight": self._in_flight.value,
                "rejected": self._rejected.value,
            },
            "scheduler": self._scheduler.stats(),
        }
        if job_stats is not None:
            payload["jobs"] = job_stats
        if self._slo is not None:
            payload["slo"] = self._slo.status()
        return 200, payload, {}

    def _handle_tracez(
        self, query: str = ""
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        params = dict(parse_qsl(query))
        try:
            k = int(params.get("k", "10"))
        except ValueError:
            return 400, {"error": f"k must be an integer (got {params['k']!r})"}, {}
        if k < 1:
            return 400, {"error": f"k must be >= 1 (got {k})"}, {}
        return 200, self._tracez.slowest(k), {}

    def _handle_mutations(
        self, body: bytes, deadline_at: float
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        mutations = parse_mutation_batch(self._parse_json(body))
        if time.monotonic() >= deadline_at:
            raise DeadlineExceeded("deadline elapsed before the batch ran")
        with self._state_lock:
            # Validation against the live state makes application atomic:
            # a batch that fails any check mutates nothing.
            validate_batch(self._auditor.state, mutations)
            applied = apply_batch(self._auditor, mutations)
            self._mutation_seq += applied
            seq = self._mutation_seq
        self._scheduler.notify_mutations(applied)
        self._registry.inc("service.mutations_applied", applied)
        return 200, {"applied": applied, "mutation_seq": seq}, {}

    def _handle_counts(self) -> tuple[int, dict[str, Any], dict[str, str]]:
        with self._state_lock:
            counts = self._auditor.counts()
            seq = self._mutation_seq
        return 200, {"counts": counts, "mutation_seq": seq}, {}

    def _handle_analyze(
        self, body: bytes, deadline_at: float
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        overrides = self._parse_json(body) if body.strip() else None
        effective = build_analysis_config(self.config.analysis, overrides)
        if self._jobs is not None:
            return self._enqueue_analyze(effective, deadline_at)
        # The cached dict (not the Report) is the response body.
        (_report, payload), source, fingerprint, seq = self._cached_analysis(
            effective,
            lambda snapshot, _fingerprint, _seq: self._compute(
                snapshot, effective
            ),
            deadline_at,
        )
        return (
            200,
            {
                "cache": source,
                "fingerprint": fingerprint,
                "mutation_seq": seq,
                "report": payload,
            },
            {},
        )

    def _handle_latest_report(
        self,
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        latest = self._scheduler.latest()
        if latest is None:
            return 404, {"error": "no report published yet"}, {}
        return 200, latest, {}

    # ------------------------------------------------------------------
    # Job-plane endpoints (queue execution mode)
    # ------------------------------------------------------------------
    def _enqueue_analyze(
        self, effective: AnalysisConfig, deadline_at: float
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Queue-mode ``POST /v1/analyze``: enqueue and answer 202.

        The job's identity is ``(state fingerprint, config key)`` — the
        same identity the report cache uses, so two requests for the
        same analysis share one queue row (idempotent enqueue) exactly
        as they would share one cache entry inline.  A duplicate costs
        an O(1) fingerprint read and one blob probe: the state is copied
        and encoded only when the queue holds no blob of that content
        yet.  If a mutation lands between the fingerprint read and that
        copy, the request reads the new fingerprint and tries again
        until its deadline.

        The request's remaining deadline becomes the job's queue-visible
        ``expires_at`` (wall clock — comparable across worker
        processes), so workers skip, and the reaper fails, jobs nobody
        is waiting for anymore.  The request's trace ID rides along in
        the record: the executing worker stamps it on its ``jobs.run``
        trace, stitching the worker-side fragment into this request's
        trace tree.
        """
        while True:
            with self._state_lock:
                fingerprint = self._auditor.state.fingerprint()
                seq = self._mutation_seq
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceeded(
                    "deadline elapsed before analysis began"
                )
            try:
                record, created = self._submit_analyze(
                    effective,
                    fingerprint,
                    seq,
                    lambda: self._snapshot_if_unchanged(fingerprint),
                    expires_at=time.time() + remaining,
                    trace_id=current_recorder().trace_id,
                )
            except _StateMoved:
                self._registry.inc("service.snapshot_retries")
                continue
            break
        self._registry.inc(
            "service.analyze_enqueued" if created else "service.analyze_dedup"
        )
        return (
            202,
            {
                "job_id": record.job_id,
                "state": record.state,
                "created": created,
                "fingerprint": fingerprint,
                "mutation_seq": seq,
                "poll": f"/v1/jobs/{record.job_id}",
            },
            {},
        )

    def _require_jobs(self) -> JobClient:
        if self._jobs is None:
            raise ProtocolError(
                'job endpoints require execution "queue" '
                "(start the service with --execution queue)"
            )
        return self._jobs

    def _handle_jobs_overview(
        self,
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        return 200, self._require_jobs().queue.stats(), {}

    def _handle_job_status(
        self, job_id: str
    ) -> tuple[int, dict[str, Any] | bytes, dict[str, str]]:
        """``GET /v1/jobs/{id}``: live status, plus the result once done.

        A ``done`` job's payload embeds the worker's full result (the
        serialised report + the fingerprint/mutation_seq it analysed),
        so one poll both observes completion and fetches the report.
        The body is what ``json.dumps(payload, sort_keys=True)`` writes,
        but the stored result text goes in as it is: the queue stored it
        with ``sort_keys=True``, so parsing and encoding it again would
        only reproduce the same bytes.
        """
        client = self._require_jobs()
        record = client.queue.get(job_id, include_result=True)
        if record is None:
            return 404, {"error": f"no such job: {job_id}"}, {}
        members = {
            key: json.dumps(value, sort_keys=True)
            for key, value in record.public_dict().items()
        }
        if record.state == "done" and record.result_text is not None:
            members["result"] = record.result_text
        body = ", ".join(
            f"{json.dumps(key)}: {members[key]}" for key in sorted(members)
        )
        return 200, f"{{{body}}}\n".encode("utf-8"), {}

    # ------------------------------------------------------------------
    # Analysis plumbing
    # ------------------------------------------------------------------
    def _cached_analysis(
        self,
        config: AnalysisConfig,
        compute: Callable[
            [RbacState, str, int], tuple[Report, dict[str, Any]]
        ],
        deadline_at: float | None = None,
    ) -> tuple[tuple[Report, dict[str, Any]], str, str, int]:
        """The cached analysis of the live state under ``config``.

        Returns ``(value, source, fingerprint, mutation_seq)`` with
        ``source`` one of ``hit``/``miss``/``coalesced``.  The
        fingerprint read and the cache probe share one hold of the state
        lock: the read is O(1) and a hit copies nothing.  On a miss the
        state is copied inside that same hold, so the cache key is
        guaranteed to describe exactly the copied content — mutations
        arriving after the lock is released cannot desynchronise the
        key from the analysed snapshot.  ``compute(snapshot,
        fingerprint, seq)`` then runs on a cache compute thread.
        """
        with self._state_lock:
            fingerprint = self._auditor.state.fingerprint()
            seq = self._mutation_seq
            key = (fingerprint, config_key(config))
            value = self._cache.get(key)
            if value is None:
                with current_recorder().span("service.snapshot"):
                    snapshot = self._copy_state()
        timeout = None
        if deadline_at is not None:
            timeout = deadline_at - time.monotonic()
            if timeout <= 0:
                raise DeadlineExceeded(
                    "deadline elapsed before analysis began"
                )
        if value is not None:
            source = "hit"
        else:
            value, source = self._cache.get_or_compute(
                key, lambda: compute(snapshot, fingerprint, seq), timeout
            )
        self._registry.inc(f"service.analyze_{source}")
        return value, source, fingerprint, seq

    def _copy_state(self) -> RbacState:
        """Copy the live state for one analysis (caller holds the lock)."""
        self._registry.inc("service.state_copies")
        return self._auditor.state.copy()

    def _snapshot_if_unchanged(self, fingerprint: str) -> RbacState:
        """A copy of the live state, if its content is still ``fingerprint``.

        Raises :class:`_StateMoved` when a mutation landed since the
        caller read the fingerprint: the copy would not match the job's
        spec key.
        """
        with self._state_lock:
            if self._auditor.state.fingerprint() != fingerprint:
                raise _StateMoved(fingerprint)
            return self._copy_state()

    def _submit_analyze(
        self,
        config: AnalysisConfig,
        fingerprint: str,
        seq: int,
        snapshot: Callable[[], RbacState],
        *,
        expires_at: float,
        trace_id: str | None = None,
    ) -> tuple[JobRecord, bool]:
        """Enqueue the analysis job of ``(fingerprint, config)``.

        The one place the job spec is built: the spec key hashes the
        cache key, and the payload is a reference to the state blob at
        ``fingerprint`` plus the config.  The blob is written first, in
        its own short transaction, so no row ever names a missing blob —
        unless one is already stored at that address (a duplicate, or
        the same content under another config): then ``snapshot()`` is
        not called and nothing is encoded.
        """
        from repro.io.statecodec import encode_state

        queue = self._jobs.queue
        if not queue.has_state_blob(fingerprint):
            with current_recorder().span("service.snapshot") as span:
                data = encode_state(snapshot())
                span.annotate(bytes=len(data))
            queue.put_state_blob(fingerprint, data)
        spec_key = hashlib.sha256(
            f"{fingerprint}|{config_key(config)}".encode("utf-8")
        ).hexdigest()
        return self._jobs.enqueue(
            "analyze",
            {
                "state_ref": fingerprint,
                "config": config.to_dict(),
                "fingerprint": fingerprint,
                "mutation_seq": seq,
            },
            spec_key=spec_key,
            trace_id=trace_id,
            expires_at=expires_at,
        )

    def _compute(
        self, snapshot: RbacState, config: AnalysisConfig
    ) -> tuple[Report, dict[str, Any]]:
        """One full analysis; runs on a cache compute thread."""
        report = analyze(snapshot, config)
        self._merge_report_metrics(report)
        self._registry.inc("service.analyses")
        return report, report.to_dict()

    def _refresh_runner(self, inline: bool = False) -> tuple[Report, str, int]:
        """Scheduler hook: analyse the current state with the defaults.

        In queue mode the refresh is *enqueued* like any client analysis
        and awaited — the scheduler thread tolerates the latency, the
        work lands on the worker fleet, and the result still flows
        through the report cache under the same key a ``/v1/analyze``
        for the same content would use.  ``inline=True`` (warm start)
        forces in-process computation.
        """
        config = self.config.analysis
        if self._jobs is not None and not inline:
            def compute(
                snapshot: RbacState, fingerprint: str, seq: int
            ) -> tuple[Report, dict[str, Any]]:
                return self._compute_queued(snapshot, config, fingerprint, seq)
        else:
            def compute(
                snapshot: RbacState, fingerprint: str, seq: int
            ) -> tuple[Report, dict[str, Any]]:
                return self._compute(snapshot, config)
        (report, _payload), _source, fingerprint, seq = self._cached_analysis(
            config, compute
        )
        return report, fingerprint, seq

    def _compute_queued(
        self,
        snapshot: RbacState,
        config: AnalysisConfig,
        fingerprint: str,
        seq: int,
    ) -> tuple[Report, dict[str, Any]]:
        """Run one analysis through the worker fleet and reconstruct it.

        The worker ships ``report.to_dict()`` back through the queue;
        :meth:`Report.from_payload` reattaches this process's snapshot so
        downstream consumers (the scheduler's diff, renderers) get a live
        report indistinguishable from an inline one.
        """
        record, _created = self._submit_analyze(
            config,
            fingerprint,
            seq,
            lambda: snapshot,
            expires_at=time.time() + self.config.job_refresh_timeout_seconds,
        )
        result = self._jobs.wait(
            record.job_id, timeout=self.config.job_refresh_timeout_seconds
        )
        payload = result["report"]
        report = Report.from_payload(payload, snapshot)
        self._merge_report_metrics(report)
        self._registry.inc("service.analyses_queued")
        return report, payload

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_json(body: bytes) -> Any:
        if not body.strip():
            raise ProtocolError("expected a JSON request body")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"invalid JSON body: {error}") from error

    def _deadline_seconds(self, header: str | None) -> float:
        if header is None:
            return self.config.deadline_seconds
        try:
            deadline = float(header)
        except ValueError:
            raise ProtocolError(
                f"X-Deadline must be a number of seconds (got {header!r})"
            ) from None
        # As for ServiceConfig.deadline_seconds: a longer wait overflows
        # (500), and nan would time out at once inline and never expire
        # as a queued job.
        if not 0 < deadline <= threading.TIMEOUT_MAX:
            raise ProtocolError(
                "X-Deadline must be a number of seconds in "
                f"(0, {threading.TIMEOUT_MAX:g}] (got {header!r})"
            )
        return deadline

    def _merge_report_metrics(self, report: Report) -> None:
        """Fold one analysis's ``Report.metrics`` into ``/metricz``.

        Engine counters and histograms (per-block kernel timings,
        detector durations) accumulate across every analysis this
        process serves, and so do the analyses' full garbage
        collections: ``gc.collections`` and the ``gc.pause_s`` histogram.
        """
        counters = dict(report.metrics.get("counters", {}))
        histograms = dict(report.metrics.get("histograms", {}))
        gc_metrics = report.metrics.get("gc") or {}
        if gc_metrics.get("collections"):
            counters[GC_COLLECTIONS] = gc_metrics["collections"]
            histograms[GC_PAUSE] = gc_metrics["pause_s"]
        for name, value in counters.items():
            self._registry.inc(name, value)
        self._registry.merge_histogram_dicts(histograms)

    def _observe(
        self, endpoint: str, status: int, seconds: float, recorder: Recorder
    ) -> None:
        """Fold one request into the service metrics and emit its trace."""
        # The registry and SLO tracker have their own locks; only sink
        # emission needs _obs_lock.
        labels = {"endpoint": endpoint}
        self._registry.observe("service.request_seconds", seconds, labels)
        self._registry.inc(
            "service.request_errors", int(status >= 400), labels
        )
        self._registry.inc("service.requests")
        self._registry.inc(f"service.http_{status}")
        if self._slo is not None:
            self._slo.observe(endpoint, seconds)
        for root in recorder.traces:
            self._tracez.record(root, endpoint, status)
        with self._obs_lock:
            for root in recorder.traces:
                for sink in self._sinks:
                    sink.emit(root)


class _ServiceHTTPHandler(BaseHTTPRequestHandler):
    """Thin translation layer: HTTP <-> ``AnalysisService.handle``."""

    service: AnalysisService  # bound by ServiceServer via subclassing
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    #: Socket timeout so an idle keep-alive connection cannot stall a
    #: graceful drain indefinitely.
    timeout = 30

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # Request accounting lives in /metricz and the trace sinks; the
        # default stderr line would violate the clean-logging contract.
        pass

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length > 0 else b""
        status, payload, headers = self.service.handle(
            method,
            self.path,
            body,
            deadline_header=self.headers.get("X-Deadline"),
            trace_id_header=self.headers.get("X-Trace-Id"),
        )
        if isinstance(payload, bytes):
            data = payload  # already-encoded JSON (GET /v1/jobs/{id})
            content_type = "application/json"
        elif isinstance(payload, str):
            # Prometheus text exposition (and any future text payloads).
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
            content_type = "application/json"
        if self.service.is_draining:
            headers.setdefault("Connection", "close")
            self.close_connection = True
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True


class ServiceServer:
    """Binds an :class:`AnalysisService` to a ``ThreadingHTTPServer``.

    Two serving modes share one drain path:

    * ``serve_forever()`` — blocking, for the CLI; ``request_shutdown()``
      (typically from a signal handler) makes it return, after which the
      caller runs ``drain()``.
    * ``start()`` / ``stop()`` — background thread, for tests and
      in-process embedding (see ``examples/continuous_service.py``).
    """

    def __init__(
        self,
        service: AnalysisService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        handler = type(
            "BoundServiceHandler", (_ServiceHTTPHandler,), {"service": service}
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        # Graceful drain depends on server_close() joining the in-flight
        # handler threads (ThreadingHTTPServer defaults to daemonic
        # threads, which would be abandoned instead).
        self._httpd.daemon_threads = False
        self._thread: threading.Thread | None = None
        self._shutdown_requested = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Start the service and serve until ``request_shutdown()``."""
        self.service.start()
        self._httpd.serve_forever()

    def start(self) -> None:
        """Serve on a background thread (returns once listening)."""
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe to call from a signal handler.

        The accept loop is stopped from a helper thread because
        ``shutdown()`` blocks until the loop exits — calling it inline
        from a signal handler that interrupted ``serve_forever`` would
        deadlock.
        """
        if self._shutdown_requested:
            return
        self._shutdown_requested = True
        self.service.begin_drain()
        threading.Thread(
            target=self._httpd.shutdown,
            name="repro-service-shutdown",
            daemon=True,
        ).start()

    def drain(self, reason: str = "shutdown") -> None:
        """Finish in-flight requests, close sockets, snapshot the state."""
        if self._thread is not None:
            self._thread.join(timeout=60)
            self._thread = None
        self._httpd.server_close()
        self.service.close(drain_reason=reason)

    def stop(self, reason: str = "shutdown") -> None:
        """Convenience: ``request_shutdown()`` + ``drain()``."""
        self.request_shutdown()
        self.drain(reason=reason)
