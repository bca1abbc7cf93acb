"""Observability: spans, counters, and pluggable trace/metrics sinks.

The paper's claim is *scalability*, so the reproduction's performance
must be explainable: which stage took the time, over how much data, and
how the work was partitioned.  This package provides the (stdlib-only)
instrumentation layer used across the detection pipeline:

* :class:`Span` — a named, timed tree node carrying attributes and
  additive counters (:mod:`repro.obs.spans`);
* :class:`Recorder` / :data:`NULL_RECORDER` — the write API, installed
  per-context with :func:`use_recorder` and read with
  :func:`current_recorder`; the null recorder makes instrumented
  library code free when nobody is observing
  (:mod:`repro.obs.recorder`);
* :class:`MetricRegistry` / :class:`Histogram` / :class:`Counter` /
  :class:`Gauge` — typed aggregate metrics with deterministic,
  mergeable log-bucketed histograms (:mod:`repro.obs.metrics`);
* :class:`InMemorySink`, :class:`LoggingSink`, :class:`JsonlTraceSink`
  — where completed traces go (:mod:`repro.obs.sinks`);
* :func:`validate_trace_file` — schema validation (v1 and v2) for
  emitted JSONL traces (:mod:`repro.obs.tracefile`), run in CI;
* :func:`load_trace_file` / :func:`summarize_traces` /
  :func:`collapsed_stacks` / :func:`diff_traces` — offline trace
  analysis behind the ``repro trace`` CLI
  (:mod:`repro.obs.traceanalysis`).

See ``docs/OBSERVABILITY.md`` for the span hierarchy, the JSONL event
schema, and overhead notes.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    bucket_bound,
)
from repro.obs.recorder import (
    ARTIFACT_BYTES,
    ARTIFACT_HITS,
    ARTIFACT_MISSES,
    COOCCURRENCE_PASSES,
    GC_COLLECTIONS,
    GC_PAUSE,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    current_recorder,
    new_trace_id,
    use_recorder,
)
from repro.obs.sinks import (
    TRACE_SCHEMA_VERSION,
    InMemorySink,
    JsonlTraceSink,
    LoggingSink,
    Sink,
)
from repro.obs.spans import Span, counter_totals, span_count, tree_signature
from repro.obs.traceanalysis import (
    LoadedTrace,
    TraceAnalysisError,
    collapsed_stacks,
    diff_traces,
    load_trace_file,
    summarize_traces,
)
from repro.obs.tracefile import (
    TraceSchemaError,
    validate_trace_file,
    validate_trace_lines,
)

__all__ = [
    "Span",
    "counter_totals",
    "span_count",
    "tree_signature",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "bucket_bound",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "new_trace_id",
    "use_recorder",
    "ARTIFACT_HITS",
    "ARTIFACT_MISSES",
    "ARTIFACT_BYTES",
    "COOCCURRENCE_PASSES",
    "GC_COLLECTIONS",
    "GC_PAUSE",
    "Sink",
    "InMemorySink",
    "LoggingSink",
    "JsonlTraceSink",
    "TRACE_SCHEMA_VERSION",
    "TraceSchemaError",
    "validate_trace_file",
    "validate_trace_lines",
    "LoadedTrace",
    "TraceAnalysisError",
    "load_trace_file",
    "summarize_traces",
    "collapsed_stacks",
    "diff_traces",
]
