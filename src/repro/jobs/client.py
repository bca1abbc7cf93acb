"""Producer-side convenience API over the job queue.

:class:`JobClient` is what the service (and tests, and scripts) use to
submit work and wait for it: a thin layer over
:class:`~repro.jobs.queue.JobQueue` that owns no execution — workers
attach separately via ``repro work``.  Waiting polls the queue file;
there is no push channel, by design, because the queue's one shared
artifact is the sqlite file and anything that can read it can wait on
it (including a process that was restarted in between).
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.exceptions import ReproError
from repro.jobs.queue import JobQueue, JobRecord

__all__ = ["JobClient", "JobFailed", "JobWaitTimeout"]


class JobFailed(ReproError):
    """The awaited job reached a terminal non-``done`` state.

    Carries the terminal :class:`JobRecord` so callers can distinguish
    ``failed`` (handler error / deadline expiry) from ``lost``
    (dead-lettered after repeated lease expiries) and surface the
    recorded error message.
    """

    def __init__(self, record: JobRecord) -> None:
        self.record = record
        super().__init__(
            f"job {record.job_id} ended {record.state}: "
            f"{record.error or 'no error recorded'}"
        )


class JobWaitTimeout(ReproError):
    """The job did not reach a terminal state within the wait timeout.

    The job itself is unaffected — it stays queued/leased and can still
    complete; only this caller gave up."""


class JobClient:
    """Submit jobs and await their results over a shared queue file."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        poll_seconds: float = 0.05,
        time_source: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.queue = queue
        self.poll_seconds = float(poll_seconds)
        self._time = time_source
        self._sleep = sleep

    def enqueue(
        self,
        kind: str,
        payload: dict[str, Any],
        *,
        spec_key: str | None = None,
        trace_id: str | None = None,
        expires_at: float | None = None,
        max_attempts: int | None = None,
    ) -> tuple[JobRecord, bool]:
        """Submit (idempotently); see :meth:`JobQueue.enqueue`."""
        return self.queue.enqueue(
            kind,
            payload,
            spec_key=spec_key,
            trace_id=trace_id,
            expires_at=expires_at,
            max_attempts=max_attempts,
        )

    def status(self, job_id: str) -> JobRecord | None:
        """Current record for ``job_id`` (``None`` when unknown)."""
        return self.queue.get(job_id, include_result=False)

    def result(self, job_id: str) -> dict[str, Any] | None:
        """The stored result of a ``done`` job (``None`` otherwise)."""
        record = self.queue.get(job_id, include_result=True)
        if record is None or record.state != "done":
            return None
        return record.result

    def wait(
        self, job_id: str, timeout: float | None = None
    ) -> dict[str, Any]:
        """Block until ``job_id`` is terminal; return its result.

        Raises :class:`JobFailed` when the job ends ``failed``/``lost``,
        :class:`JobWaitTimeout` when ``timeout`` elapses first, and
        :class:`JobFailed`-wrapped ``KeyError`` semantics are avoided —
        an unknown id raises :class:`ReproError` immediately rather than
        polling forever.
        """
        deadline = None if timeout is None else self._time() + timeout
        while True:
            record = self.queue.get(job_id, include_result=True)
            if record is None:
                raise ReproError(f"unknown job: {job_id!r}")
            if record.state == "done":
                return record.result or {}
            if record.terminal:
                raise JobFailed(record)
            if deadline is not None and self._time() >= deadline:
                raise JobWaitTimeout(
                    f"job {job_id} not finished after {timeout:.1f}s "
                    f"(state: {record.state})"
                )
            self._sleep(self.poll_seconds)
