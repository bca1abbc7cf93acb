"""Recorders: the write API of the observability layer.

Two implementations share one interface:

* :class:`Recorder` — collects a span tree in memory and hands every
  completed *trace* (top-level span) to its sinks.  Span bookkeeping is
  a few dict/list operations per span, cheap enough to leave on for
  every engine run (it is what populates ``Report.timings`` and
  ``Report.metrics``).
* :class:`NullRecorder` — the module default.  Every operation is a
  no-op on shared singletons: no allocation, no timing calls.  Library
  code instrumented with ``current_recorder()`` therefore costs nothing
  unless a caller has installed a real recorder.

The *current* recorder is tracked with a :class:`contextvars.ContextVar`
so deep call stacks (the co-occurrence kernel, the DBSCAN expansion
loop) need no recorder parameter threading::

    recorder = Recorder(sinks=[JsonlTraceSink("trace.jsonl")])
    with use_recorder(recorder):
        report = engine.analyze(state)

Scan threads do not inherit the context variable; instead each block
of the co-occurrence scan records into a fresh local :class:`Recorder`,
which the parent grafts into its own tree in deterministic (block)
order — see ``repro.core.grouping.cooccurrence``.
"""

from __future__ import annotations

import gc
import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from repro.obs.metrics import MetricRegistry
from repro.obs.spans import Span, counter_totals, span_count

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "use_recorder",
    "new_trace_id",
    "ARTIFACT_HITS",
    "ARTIFACT_MISSES",
    "ARTIFACT_BYTES",
    "COOCCURRENCE_PASSES",
    "GC_COLLECTIONS",
    "GC_PAUSE",
]

def new_trace_id() -> str:
    """A fresh 32-hex-character trace correlation ID."""
    return uuid.uuid4().hex

#: Counter names for the shared analysis workspace (see
#: :mod:`repro.core.workspace`).  An *artifact* is one memoised derived
#: structure (nonempty submatrix, co-occurrence pairs, MinHash
#: signatures, ...); every access records exactly one hit or miss, and
#: misses additionally record the bytes materialised, so
#: ``Report.metrics["counters"]`` exposes the cache behaviour of a run.
ARTIFACT_HITS = "workspace.artifact_hits"
ARTIFACT_MISSES = "workspace.artifact_misses"
ARTIFACT_BYTES = "workspace.artifact_bytes"
#: Incremented once per blocked co-occurrence pass — the acceptance
#: criterion "the co-occurrence product is computed exactly once per
#: axis per analyze()" is asserted against this counter's total.
COOCCURRENCE_PASSES = "workspace.cooccurrence_passes"
#: Registry metrics of the garbage collector: full (generation-2)
#: collections charged to a recorder (see _on_gc), and the pause each
#: one cost.  They depend on the heap, not on the work, so they
#: stay out of the deterministic span counters.
GC_COLLECTIONS = "gc.collections"
GC_PAUSE = "gc.pause_s"

# One gc.callbacks hook serves every recorder; it is installed while any
# recorder has a span open.  A collection runs on the thread whose
# allocation tripped it, so the hook charges it to the innermost
# recorder with a span open on that thread and to no other: analyses
# overlapping on other threads never see it, and a sum over their
# reports counts it once.
_gc_lock = threading.Lock()
#: thread ident -> recorders with a span open on it, innermost last.
_gc_owners: dict[int, list["Recorder"]] = {}
#: Start of the running full collection (``None`` between them).
_gc_started: float | None = None


def _on_gc(phase: str, info: dict[str, Any]) -> None:
    # Runs inside the collection: it takes no lock (the thread may hold
    # one) and only appends, for the recorder's next span close to fold.
    global _gc_started
    if info["generation"] != 2:
        return
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    started, _gc_started = _gc_started, None
    owners = _gc_owners.get(threading.get_ident())
    if owners and started is not None:
        owners[-1]._gc_pauses.append(time.perf_counter() - started)


def _gc_attach(recorder: "Recorder") -> int:
    """Charge this thread's collections to ``recorder``; returns the
    thread's ident for :func:`_gc_detach`."""
    thread = threading.get_ident()
    with _gc_lock:
        if not _gc_owners:
            gc.callbacks.append(_on_gc)
        _gc_owners.setdefault(thread, []).append(recorder)
    return thread


def _gc_detach(recorder: "Recorder", thread: int) -> None:
    with _gc_lock:
        owners = _gc_owners[thread]
        owners.remove(recorder)
        if not owners:
            del _gc_owners[thread]
            if not _gc_owners:
                gc.callbacks.remove(_on_gc)


class _NullSpan(Span):
    """Shared, inert span handed out by the null recorder.

    Mutations are discarded so a single instance can be reused by every
    call site; it also acts as its own (re-entrant) context manager.
    """

    def __init__(self) -> None:
        super().__init__(name="null")

    def add(self, counter: str, value: int | float = 1) -> None:
        pass

    def annotate(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


class NullRecorder:
    """No-op recorder: the zero-overhead default (see module docstring)."""

    enabled: bool = False
    measure_memory: bool = False
    #: Mirrors :attr:`Recorder.trace_id` so callers can read it blindly.
    trace_id: str | None = None

    def __init__(self) -> None:
        self._null_span = _NullSpan()
        self.traces: list[Span] = []

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return self._null_span

    def add(self, counter: str, value: int | float = 1) -> None:
        pass

    def observe(self, name: str, value: int | float) -> None:
        pass

    def graft(self, local: "Recorder", fragment: int | None = None) -> None:
        pass

    def counter_totals(self) -> dict[str, int | float]:
        return {}

    def span_count(self) -> int:
        return 0


#: Process-wide shared no-op recorder.
NULL_RECORDER = NullRecorder()

_CURRENT: ContextVar["Recorder | NullRecorder"] = ContextVar(
    "repro_obs_recorder", default=NULL_RECORDER
)


def current_recorder() -> "Recorder | NullRecorder":
    """The recorder installed for the current context (null by default)."""
    return _CURRENT.get()


@contextmanager
def use_recorder(recorder: "Recorder | NullRecorder") -> Iterator["Recorder | NullRecorder"]:
    """Install ``recorder`` as the current recorder for the ``with`` body."""
    token = _CURRENT.set(recorder)
    try:
        yield recorder
    finally:
        _CURRENT.reset(token)


class _SpanContext:
    """Context manager opening/closing one span on a recorder's stack."""

    __slots__ = ("_recorder", "_span", "_t0")

    def __init__(self, recorder: "Recorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._t0 = self._recorder._open(self._span)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._recorder._close(self._span, self._t0)
        return False


class Recorder:
    """Collects span trees and forwards completed traces to sinks.

    Parameters
    ----------
    sinks:
        Objects with an ``emit(root_span)`` method (see
        :mod:`repro.obs.sinks`).  Each is called once per completed
        trace, i.e. whenever a top-level span closes.  With no sinks the
        recorder still collects the tree in memory (``traces``) — that
        is how the engine derives ``Report.timings`` / ``Report.metrics``.
    measure_memory:
        Opt into ``tracemalloc``-based per-block peak-memory counters in
        the co-occurrence kernel.  Off by default: ``tracemalloc``
        tracing slows allocation-heavy code and resets the interpreter's
        global peak marker, which would corrupt concurrent external
        measurements (e.g. the memory-ablation benchmarks).
    registry:
        The :class:`~repro.obs.metrics.MetricRegistry` receiving
        histogram observations (:meth:`observe`).  A private registry is
        created when omitted; pass a shared one to aggregate several
        recorders (the service does this per process, not per request).
    trace_id:
        Fixed correlation ID stamped on every trace this recorder
        completes (the service passes the request's ``X-Trace-Id``).
        When ``None`` each completed trace gets a fresh generated ID.
    """

    enabled: bool = True

    def __init__(
        self,
        sinks: Any = (),
        measure_memory: bool = False,
        registry: MetricRegistry | None = None,
        trace_id: str | None = None,
    ) -> None:
        self._sinks = list(sinks)
        self.measure_memory = bool(measure_memory)
        self.registry = registry if registry is not None else MetricRegistry()
        self._trace_id = trace_id
        self._stack: list[Span] = []
        self._origin = 0.0
        #: Completed top-level spans, oldest first.
        self.traces: list[Span] = []
        # Full-collection pauses charged to this recorder by _on_gc
        # while a span is open (on the thread in _gc_thread); span
        # closes fold them into the registry.
        self._gc_thread = 0
        self._gc_pauses: list[float] = []

    @property
    def trace_id(self) -> str | None:
        """The fixed correlation ID stamped on completed traces.

        ``None`` when the recorder generates a fresh ID per trace.  The
        service reads this to propagate a request's ``X-Trace-Id`` into
        enqueued job records, so worker-side traces stitch into the
        request's tree.
        """
        return self._trace_id

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a span as a context manager; yields the live :class:`Span`."""
        return _SpanContext(self, Span(name=name, attributes=attributes))

    def add(self, counter: str, value: int | float = 1) -> None:
        """Increment a counter on the innermost *open* span.

        Lets instrumented code that does not own a span handle (the
        workspace's artifact accessors, called from arbitrary depths)
        attribute counters to whatever region is currently recording.
        Outside any open span the increment is dropped — there is no
        trace to attach it to.
        """
        if self._stack:
            self._stack[-1].add(counter, value)

    def observe(self, name: str, value: int | float) -> None:
        """Record one observation into the registry histogram ``name``.

        Histograms complement span counters with *distributions*: the
        per-block kernel timings, request latencies.  Block-local
        recorders' histograms merge deterministically in :meth:`graft`.
        """
        self.registry.observe(name, value)

    def _fold_gc(self) -> None:
        if not self._gc_pauses:
            return
        pauses, self._gc_pauses = self._gc_pauses, []
        self.registry.inc(GC_COLLECTIONS, len(pauses))
        for pause in pauses:
            self.registry.observe(GC_PAUSE, pause)

    def _open(self, span: Span) -> float:
        now = time.perf_counter()
        if not self._stack:
            self._origin = now
            self._gc_thread = _gc_attach(self)
        span.start = now - self._origin
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        return now

    def _close(self, span: Span, t0: float) -> None:
        span.duration = time.perf_counter() - t0
        popped = self._stack.pop()
        assert popped is span, "span close out of order"
        if self._stack:
            self._fold_gc()
            return
        _gc_detach(self, self._gc_thread)
        self._fold_gc()
        self._finish_trace(span)

    def _finish_trace(self, root: Span) -> None:
        if root.trace_id is None:
            root.trace_id = self._trace_id or new_trace_id()
        self.traces.append(root)
        for sink in self._sinks:
            sink.emit(root)

    def graft(self, local: "Recorder", fragment: int | None = None) -> None:
        """Attach a block-local recorder's traces under the current span.

        Scan blocks record into their own recorder; grafting them in
        block order keeps the merged tree deterministic.  Each completed
        root span is attached as it is, with ``fragment`` (the block
        index) stamped on its attributes so stitched trees record where
        each piece came from, and without a trace ID of its own: it
        joins this recorder's trace.  The local registry's counters and
        histograms are merged into this recorder's registry.  Outside
        any open span a root becomes a trace of its own.
        """
        self.registry.merge(local.registry)
        for root in local.traces:
            root.trace_id = None
            if fragment is not None:
                root.attributes.setdefault("fragment", fragment)
            if self._stack:
                self._stack[-1].children.append(root)
            else:
                self._finish_trace(root)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def counter_totals(self) -> dict[str, int | float]:
        """Summed counters over every completed trace (sorted keys)."""
        totals: dict[str, int | float] = {}
        for root in self.traces:
            for key, value in counter_totals(root).items():
                totals[key] = totals.get(key, 0) + value
        return dict(sorted(totals.items()))

    def span_count(self) -> int:
        """Total spans over every completed trace."""
        return sum(span_count(root) for root in self.traces)
