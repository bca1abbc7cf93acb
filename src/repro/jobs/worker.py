"""Job workers: lease, heartbeat, execute, complete.

A :class:`JobWorker` is the consumer side of the job plane.  It polls
the shared :class:`~repro.jobs.queue.JobQueue` for runnable work, holds
each claim alive with a background heartbeat thread, executes the job's
``kind`` through a handler table, and reports the outcome through the
lease-guarded :meth:`~repro.jobs.queue.JobQueue.complete` /
:meth:`~repro.jobs.queue.JobQueue.fail` transitions.

Crash-safety is entirely the queue's job: a worker that dies mid-lease
simply stops heartbeating, the lease expires, and the reaper requeues
the work.  The worker's own obligations are narrower:

* **Heartbeat or abandon** — the heartbeat thread renews the lease at
  roughly a third of the lease interval.  If a renewal is *rejected*
  (the lease was reaped and the job handed elsewhere), the worker
  finishes the computation but its ``complete()`` is refused by the
  lease guard, so the retried attempt's result wins — never two.
* **Graceful stop** — when the stop event fires between claim and
  execution, the claim is released back to the queue with its attempt
  refunded; when it fires mid-execution, the job is finished first.
  Either way the worker exits with nothing leased (the CLI wires
  SIGTERM/SIGINT to the stop event).
* **Build once** — analysis engines are cached per config key, so a
  worker grinding through many jobs of the same shape pays detector
  construction once ("each worker builds its engine once").

The ``analyze`` handler reproduces the service's in-process execution
exactly: the engine runs with no installed recorder (a private,
sink-less one, same as the service's cache thread), so a queued report
serialises byte-identically to an inline one.  The worker's *own*
recorder wraps the run in a ``jobs.run`` span stamped with the job's
``trace_id`` — worker-side trace fragments therefore stitch into the
enqueuing request's trace tree in any shared trace store.  Its
``jobs.decode_state`` and ``jobs.encode_result`` children time the
state blob's load and decode and the result's encoding, each with the
``bytes`` it moved.  A report in a result is written by
:meth:`~repro.core.report.Report.encode`, the writer that serves
inline reports too, so queued and inline report bytes come from one
code path.
"""

from __future__ import annotations

import json
import socket
import os
import threading
import time
from typing import Any, Callable, Mapping

from repro.exceptions import ConfigurationError, DataFormatError, ReproError
from repro.jobs.queue import JobQueue, JobRecord
from repro.obs import NULL_RECORDER, NullRecorder, Recorder
from repro.util.jsontext import verbatim_json

__all__ = ["JobWorker", "default_worker_id", "run_worker"]

#: How often (as a fraction of the lease interval) the heartbeat thread
#: renews a held lease.  A third gives two retries' worth of slack
#: before an honest worker can lose its lease to scheduling jitter.
HEARTBEAT_FRACTION = 1 / 3


def default_worker_id() -> str:
    """``host:pid``, one id per worker process.

    The pid is recoverable by splitting on ``:`` — the crash-recovery
    smoke test parses it out of ``leased_by`` to SIGKILL the holder.
    """
    return f"{socket.gethostname()}:{os.getpid()}"


class _HeartbeatThread(threading.Thread):
    """Renews one job's lease until stopped or the lease is lost."""

    def __init__(
        self, queue: JobQueue, job_id: str, worker_id: str, interval: float
    ) -> None:
        super().__init__(name=f"repro-job-heartbeat-{job_id[:8]}", daemon=True)
        self._queue = queue
        self._job_id = job_id
        self._worker_id = worker_id
        self._interval = interval
        self._done = threading.Event()
        #: Set when a renewal was rejected: the lease is no longer ours.
        self.lost = threading.Event()

    def stop(self) -> None:
        self._done.set()
        self.join(timeout=max(self._interval * 4, 1.0))

    def run(self) -> None:
        while not self._done.wait(self._interval):
            if not self._queue.heartbeat(self._job_id, self._worker_id):
                self.lost.set()
                return


class JobWorker:
    """One worker loop attached to a shared queue file.

    Workers double as reapers: every half lease the poll loop sweeps
    expired leases and deadlines, so a fleet of workers recovers
    crashed peers without a dedicated process.

    Parameters
    ----------
    queue:
        The shared :class:`JobQueue`.
    worker_id:
        Stable identity recorded in ``leased_by`` (defaults to
        ``host:pid``).
    handlers:
        ``kind -> callable(worker, record) -> result dict``, whose
        members are JSON values or reports (each stored as its
        ``to_dict()``).  Defaults to
        :data:`DEFAULT_HANDLERS` (``analyze`` and ``sleep``).
    poll_seconds:
        Idle sleep between empty claim attempts.
    max_jobs:
        Stop after completing this many jobs (``None`` = run forever).
    idle_exit_seconds:
        Stop after this long without claiming anything (``None`` = never).
    stop_event:
        External shutdown signal; the CLI wires SIGTERM/SIGINT to it.
    sinks:
        Trace sinks for the worker's recorder (``jobs.run`` spans).
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        worker_id: str | None = None,
        handlers: Mapping[str, Callable[..., dict[str, Any]]] | None = None,
        poll_seconds: float = 0.2,
        max_jobs: int | None = None,
        idle_exit_seconds: float | None = None,
        stop_event: threading.Event | None = None,
        sinks: Any = (),
    ) -> None:
        # Chained so that nan (a busy-spinning claim loop) fails too; inf
        # would overflow the idle wait.
        if not 0 < poll_seconds <= threading.TIMEOUT_MAX:
            raise ConfigurationError(
                f"poll_seconds must be in (0, {threading.TIMEOUT_MAX:g}] "
                f"(got {poll_seconds})"
            )
        if max_jobs is not None and max_jobs < 1:
            raise ConfigurationError(
                f"max_jobs must be >= 1 or None (got {max_jobs})"
            )
        self.queue = queue
        self.worker_id = worker_id or default_worker_id()
        self.handlers = dict(handlers if handlers is not None else DEFAULT_HANDLERS)
        self.poll_seconds = float(poll_seconds)
        self.max_jobs = max_jobs
        self.idle_exit_seconds = idle_exit_seconds
        self.stop_event = stop_event or threading.Event()
        self._sinks = sinks
        self._heartbeat_interval = max(
            queue.lease_seconds * HEARTBEAT_FRACTION, 0.05
        )
        self._last_reap = 0.0
        #: Per-config-key engine cache: build once, reuse per job shape.
        self._engines: dict[str, Any] = {}
        #: The recorder of the job being run (its ``jobs.run`` span is
        #: open): handlers open child spans on it.
        self.recorder: Recorder | NullRecorder = NULL_RECORDER
        self.jobs_done = 0
        self.jobs_failed = 0

    # ------------------------------------------------------------------
    # Loop
    # ------------------------------------------------------------------
    def run(self) -> dict[str, int]:
        """Claim-execute until stopped; returns ``{done, failed}``."""
        idle_since = time.monotonic()
        while not self.stop_event.is_set():
            self._maybe_reap()
            record = self.queue.claim(self.worker_id)
            if record is None:
                if (
                    self.idle_exit_seconds is not None
                    and time.monotonic() - idle_since >= self.idle_exit_seconds
                ):
                    break
                self.stop_event.wait(self.poll_seconds)
                continue
            idle_since = time.monotonic()
            if self.stop_event.is_set():
                # Claimed but asked to stop before starting: hand the job
                # back untouched (attempt refunded, no backoff).
                self.queue.release(record.job_id, self.worker_id)
                break
            self.run_one(record)
            if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                break
        return {"done": self.jobs_done, "failed": self.jobs_failed}

    def _maybe_reap(self) -> None:
        now = time.monotonic()
        if now - self._last_reap >= self.queue.lease_seconds / 2:
            self._last_reap = now
            self.queue.reap_expired()

    # ------------------------------------------------------------------
    # One job
    # ------------------------------------------------------------------
    def run_one(self, record: JobRecord) -> bool:
        """Execute one claimed job; returns True when completed ``done``.

        The heartbeat thread keeps the lease alive for the duration; the
        job's ``trace_id`` (stamped at enqueue time from the request's
        ``X-Trace-Id``) is pinned on the worker's recorder so the
        ``jobs.run`` trace emitted to the sinks correlates with the
        enqueuing request.  The result is encoded inside that span, so
        :meth:`JobQueue.complete` stores the text as it is.
        """
        heartbeat = _HeartbeatThread(
            self.queue, record.job_id, self.worker_id, self._heartbeat_interval
        )
        heartbeat.start()
        recorder = self.recorder = Recorder(
            sinks=self._sinks, trace_id=record.trace_id
        )
        try:
            with recorder.span(
                "jobs.run",
                job_id=record.job_id,
                kind=record.kind,
                attempt=record.attempts,
                worker=self.worker_id,
            ) as span:
                handler = self.handlers.get(record.kind)
                if handler is None:
                    raise ConfigurationError(
                        f"no handler for job kind {record.kind!r} "
                        f"(have {sorted(self.handlers)})"
                    )
                result = handler(self, record)
                with recorder.span("jobs.encode_result") as encoding:
                    result = _encode_result(result)
                    encoding.annotate(bytes=len(result))
                span.annotate(outcome="done")
        except ReproError as error:
            # Deterministic domain error: retrying cannot help.
            heartbeat.stop()
            self.jobs_failed += 1
            self.queue.fail(
                record.job_id, self.worker_id, str(error), retryable=False
            )
            return False
        except Exception as error:  # noqa: BLE001 - worker must survive
            heartbeat.stop()
            self.jobs_failed += 1
            self.queue.fail(
                record.job_id,
                self.worker_id,
                f"{type(error).__name__}: {error}",
                retryable=True,
            )
            return False
        finally:
            self.recorder = NULL_RECORDER
        heartbeat.stop()
        if heartbeat.lost.is_set():
            # The lease was reaped mid-run; complete() below would be
            # rejected anyway, but skipping it makes the outcome explicit.
            return False
        completed = self.queue.complete(record.job_id, self.worker_id, result)
        if completed:
            self.jobs_done += 1
        return completed

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _engine_for(self, config_payload: dict[str, Any] | None):
        """The cached engine for a config payload (built on first use)."""
        from repro.core.engine import AnalysisConfig, AnalysisEngine

        key = json.dumps(config_payload, sort_keys=True)
        engine = self._engines.get(key)
        if engine is None:
            config = (
                AnalysisConfig.from_dict(config_payload)
                if config_payload is not None
                else AnalysisConfig()
            )
            engine = AnalysisEngine(config)
            self._engines[key] = engine
        return engine

    def handle_analyze(self, record: JobRecord) -> dict[str, Any]:
        """Run one analysis job: the payload names the state blob
        (``state_ref``) and carries the effective config; the result
        holds the report, stored as its ``to_dict()``.

        The blob is checked against its SHA-256 and decoded under a
        ``jobs.decode_state`` span; a missing, altered or malformed blob
        fails the job without a retry.  The engine runs with *no
        installed recorder* — it creates its private sink-less one,
        exactly like the service's in-process cache thread — so
        ``Report.metrics`` (and therefore the full serialised report)
        matches inline execution byte for byte.
        """
        from repro.io.statecodec import decode_state

        payload = record.payload or {}
        if "state" in payload:
            raise DataFormatError(
                'analyze job carries an inline "state" document, which '
                'this version does not read (it reads "state_ref"); '
                "submit the analysis again"
            )
        address = payload.get("state_ref")
        if not isinstance(address, str):
            raise DataFormatError('analyze job has no "state_ref"')
        with self.recorder.span("jobs.decode_state") as span:
            data = self.queue.state_blob(address)
            span.annotate(bytes=len(data))
            state = decode_state(data)
        engine = self._engine_for(payload.get("config"))
        report = engine.analyze(state)
        return {
            "report": report,
            "fingerprint": payload.get("fingerprint"),
            "mutation_seq": payload.get("mutation_seq"),
        }

    def handle_sleep(self, record: JobRecord) -> dict[str, Any]:
        """Sleep for ``payload["seconds"]`` — the deterministic test job
        (crash-recovery suites SIGKILL a worker while it sleeps)."""
        payload = record.payload or {}
        seconds = float(payload.get("seconds", 0.0))
        deadline = time.monotonic() + seconds
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(remaining, 0.05))
        return {"slept": seconds}


def _encode_result(result: Mapping[str, Any]) -> str:
    """A job result's stored text: ``json.dumps(result, sort_keys=True)``,
    where a :class:`~repro.core.report.Report` member stands for its
    ``to_dict()`` and goes in as :meth:`Report.encode` writes it."""
    from repro.core.report import Report

    encoded = {
        key: value.encode()
        for key, value in result.items()
        if isinstance(value, Report)
    }
    plain = {key: value for key, value in result.items() if key not in encoded}
    return verbatim_json(plain, encoded).decode("utf-8")


#: Default ``kind -> handler`` table (handlers are unbound: they receive
#: the worker instance first, so custom tables can reuse its caches).
DEFAULT_HANDLERS: dict[str, Callable[..., dict[str, Any]]] = {
    "analyze": JobWorker.handle_analyze,
    "sleep": JobWorker.handle_sleep,
}


def run_worker(
    queue_path: str,
    *,
    worker_id: str | None = None,
    lease_seconds: float = 15.0,
    max_attempts: int = 3,
    poll_seconds: float = 0.2,
    max_jobs: int | None = None,
    idle_exit_seconds: float | None = None,
    stop_event: threading.Event | None = None,
    sinks: Any = (),
) -> dict[str, int]:
    """Open the queue at ``queue_path`` and run one worker loop to
    completion — the target the ``repro work`` CLI runs per process."""
    queue = JobQueue(
        queue_path, lease_seconds=lease_seconds, max_attempts=max_attempts
    )
    try:
        worker = JobWorker(
            queue,
            worker_id=worker_id,
            poll_seconds=poll_seconds,
            max_jobs=max_jobs,
            idle_exit_seconds=idle_exit_seconds,
            stop_event=stop_event,
            sinks=sinks,
        )
        return worker.run()
    finally:
        queue.close()
