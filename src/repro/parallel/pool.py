"""The one worker pool: a reusable process pool for the blocked scan.

The blocked co-occurrence scan is the only parallel step of an analysis
(detectors always run in-process).  :class:`WorkerPool` keeps one
``ProcessPoolExecutor`` alive across ``map`` calls, so the spawn cost
(fork + interpreter warm-up) is paid once, not per scan:

* the engine installs one pool per ``analyze()`` (reused across axes);
* :class:`repro.service.AnalysisService` can hold one warm across
  requests, closing it — and any shared-memory segments it still owns —
  during SIGTERM drain;
* the blocked scan discovers the ambient pool via :func:`current_pool`
  and publishes its arrays through shared memory.

Because the pool outlives any single call, tasks must be self-contained
(no ``initializer``): the scan ships a tiny shared-memory manifest per
task and workers rebuild views on attach.

The pool never starts more processes than the host has cores, whatever
``n_workers`` asks for: the count arrives from outside (a CLI flag, a
service request field), and a fork per requested worker would let one
request exhaust the host's process table.  One pool may be shared by
concurrent analyses (the service's warm pool); creating and discarding
its executor happens under a lock, and one map's fallback never cancels
another map's tasks.

Determinism contract: given pure task functions, ``map`` returns exactly
what the serial loop ``[fn(item) for item in items]`` returns, in the
same order, for every worker count — including when the pool cannot be
used and the map degrades to that serial loop.

The contextvar is pid-guarded: under ``fork`` a worker inherits the
parent's context, and a pool handle pointing at the parent's executor
must never be visible inside a child process.
"""

from __future__ import annotations

import contextvars
import logging
import os
import pickle
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.exceptions import ConfigurationError
from repro.obs import current_recorder
from repro.parallel.shm import SegmentHandle

logger = logging.getLogger(__name__)

_FALLBACK_ERRORS = (
    BrokenProcessPool,
    pickle.PicklingError,
    AttributeError,  # unpicklable closures/lambdas raise this
    OSError,  # no fork / no semaphores in restricted sandboxes
    PermissionError,
)


def validate_workers(n_workers: int | None) -> int | None:
    """Validate a worker-count option without resolving ``None``.

    The single source of truth for worker-count validation — both
    :class:`~repro.core.engine.AnalysisConfig` and
    :func:`resolve_workers` route through it, so the error message is
    identical everywhere.  Returns the normalised value (``None`` or an
    ``int >= 1``).
    """
    if n_workers is None:
        return None
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ConfigurationError(
            f"n_workers must be >= 1 or None, got {n_workers}"
        )
    return n_workers


def resolve_workers(n_workers: int | None) -> int:
    """Normalise a worker-count option.

    ``None`` means "use every core" (``os.cpu_count()``); any explicit
    value must be >= 1.
    """
    n_workers = validate_workers(n_workers)
    if n_workers is None:
        return max(1, os.cpu_count() or 1)
    return n_workers


class WorkerPool:
    """A lazily-spawned, reusable process pool plus segment registry.

    The executor is created on the first :meth:`map` and reused by every
    later call until :meth:`close`.  Shared-memory segments registered
    via :meth:`adopt_segment` are closed (and therefore unlinked) with
    the pool, which is the service-drain cleanup guarantee: whatever the
    pool still owns when SIGTERM lands is released before exit.
    """

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = resolve_workers(n_workers)
        #: Processes the executor actually starts: ``n_workers`` capped at
        #: the core count (more processes than cores never pays off).
        self.processes = min(self.n_workers, os.cpu_count() or 1)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._segments: list[SegmentHandle] = []
        self._closed = False
        # Safety net: unlink any still-registered segments even if the
        # owner forgets to close (e.g. a test bails early).
        self._finalizer = weakref.finalize(
            self, _close_resources, self._segments
        )

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def warm(self) -> bool:
        """Whether a live executor already exists (reuse is free)."""
        return self._executor is not None

    def adopt_segment(self, handle: SegmentHandle) -> SegmentHandle:
        """Tie a published segment's lifetime to the pool (drain safety).

        The scan still closes its segment eagerly when it finishes; this
        registry only guarantees unlink if it never gets the chance
        (service shutdown mid-analysis).
        """
        self._segments.append(handle)
        return handle

    def release_segment(self, handle: SegmentHandle) -> None:
        """Close a segment and drop it from the registry (idempotent)."""
        handle.close()
        with self._lock:
            if handle in self._segments:
                self._segments.remove(handle)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Order-preserving map over the (reused) pool.

        Serial in-process for one worker or at most one task; serial
        fallback (with a WARNING and a ``parallel.fallbacks`` counter)
        when the pool cannot be used (sandboxes without ``fork`` or
        semaphores, unpicklable tasks).  Execution facts (worker count,
        item count, mode) are span *attributes*, never counters, so
        counter totals describe the work, not how it ran.
        Reuse of an already-warm executor is counted as
        ``parallel.pool_reuses`` so the saved spawns are observable.
        The span's duration feeds the ``parallel.map_seconds`` histogram.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        tasks: Sequence[Any] = list(items)
        recorder = current_recorder()
        try:
            with recorder.span("parallel.map") as span:
                return self._map(fn, tasks, span)
        finally:
            recorder.observe("parallel.map_seconds", span.duration)

    def _map(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any], span: Any
    ) -> list[Any]:
        span.annotate(n_workers=self.n_workers, n_items=len(tasks))
        if self.n_workers <= 1 or len(tasks) <= 1:
            span.annotate(mode="serial")
            return [fn(task) for task in tasks]
        executor = None
        try:
            with self._lock:
                reused = self._executor is not None
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.processes
                    )
                executor = self._executor
                # Executor.map submits every task before it returns, so a
                # concurrent discard never shuts this executor down
                # between two of this map's submissions.
                pending = executor.map(fn, tasks)
            results = list(pending)
        except _FALLBACK_ERRORS as error:
            reason = f"{type(error).__name__}: {error}"
            logger.warning(
                "worker pool unavailable (%s); running %d task(s) "
                "serially in-process", reason, len(tasks),
            )
            span.annotate(mode="serial-fallback", fallback=reason)
            span.add("parallel.fallbacks", 1)
            self._discard_executor(executor)
            return [fn(task) for task in tasks]
        span.annotate(mode="pool", pool="warm" if reused else "cold")
        if reused:
            span.add("parallel.pool_reuses", 1)
        return results

    def _discard_executor(self, executor: ProcessPoolExecutor | None) -> None:
        """Drop the executor a failed map ran on, if it is still current.

        Other maps' queued tasks are not cancelled: a healthy executor
        finishes them before it exits, and a broken one fails them, which
        sends those maps to their own serial fallback.
        """
        with self._lock:
            if executor is None or self._executor is not executor:
                return
            self._executor = None
        try:
            executor.shutdown(wait=False)
        except Exception:  # pragma: no cover - broken pool teardown
            pass

    def close(self) -> None:
        """Shut the executor down and unlink any registered segments."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        _close_resources(self._segments)
        self._finalizer.detach()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("warm" if self.warm else "cold")
        return (
            f"WorkerPool(n_workers={self.n_workers}, "
            f"processes={self.processes}, {state})"
        )


def _close_resources(segments: list[SegmentHandle]) -> None:
    while segments:
        segments.pop().close()


_current_pool: contextvars.ContextVar[WorkerPool | None] = contextvars.ContextVar(
    "repro_worker_pool", default=None
)


def current_pool() -> WorkerPool | None:
    """The ambient :class:`WorkerPool`, if one is installed and usable.

    Returns ``None`` inside forked worker processes even though the
    contextvar was inherited (the parent's executor is not usable from a
    child), and ``None`` for pools that have been closed.
    """
    pool = _current_pool.get()
    if pool is None or pool.closed or pool._pid != os.getpid():
        return None
    return pool


@contextmanager
def use_pool(pool: WorkerPool) -> Iterator[WorkerPool]:
    """Install ``pool`` as the ambient pool for the ``with`` body.

    Does not close the pool on exit — lifetime belongs to the owner
    (engine per-analyze, or the service across requests).
    """
    token = _current_pool.set(pool)
    try:
        yield pool
    finally:
        _current_pool.reset(token)
