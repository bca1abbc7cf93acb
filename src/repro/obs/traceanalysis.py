"""Offline analysis of JSONL trace files (the ``repro trace`` CLI core).

Loads files written by :class:`repro.obs.JsonlTraceSink` (schema 2,
spans linked by ``span_id``/``parent_id``) back into
:class:`~repro.obs.spans.Span` trees and derives:

* :func:`summarize_traces` — per-trace span counts, critical path
  (greedy descent into the child that *ends* last), per-span-name
  aggregates, and the top-N slowest spans;
* :func:`collapsed_stacks` — ``name;child;leaf <self_usec>`` lines in
  the collapsed-stack format consumed by flamegraph.pl and speedscope;
* :func:`diff_traces` — per-span-name (count, total, self) deltas
  between two files, for before/after comparisons.

Self-time is a span's duration minus the sum of its children's
durations, clamped at zero: scan blocks grafted from their threads'
recorders keep a block-local timebase, so children recorded
concurrently can sum to more than the parent's wall-clock duration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.exceptions import ReproError
from repro.obs.spans import Span, span_count

__all__ = [
    "TraceAnalysisError",
    "LoadedTrace",
    "load_trace_file",
    "summarize_traces",
    "collapsed_stacks",
    "diff_traces",
    "format_summary",
    "format_diff",
]


class TraceAnalysisError(ReproError):
    """A trace file cannot be loaded for analysis."""


@dataclass
class LoadedTrace:
    """One reconstructed trace: the span tree plus file-level identity."""

    index: int
    trace_id: str
    root: Span
    #: Span lines whose ``parent_id`` did not resolve.
    #: Non-empty means the file is corrupt or truncated; the loader
    #: keeps going so the rest of the trace is still inspectable.
    orphans: list[int] = field(default_factory=list)

    @property
    def spans(self) -> int:
        return span_count(self.root)

    @property
    def duration(self) -> float:
        return self.root.duration


def _span_from_event(event: dict[str, Any]) -> Span:
    return Span(
        name=event.get("name", "?"),
        start=float(event.get("start_s", 0.0)),
        duration=float(event.get("duration_s", 0.0)),
        attributes=dict(event.get("attributes", {})),
        counters=dict(event.get("counters", {})),
    )


def load_trace_file(path: str | Path) -> list[LoadedTrace]:
    """Reconstruct every trace in a JSONL file into span trees.

    Spans are linked by ``parent_id``; a non-root span without integer
    ``span_id``/``parent_id`` is an error.  Unresolvable parents are
    collected per trace in :attr:`LoadedTrace.orphans` (the offending
    ``span_id``), and such spans are attached to the root so they stay
    visible.
    """
    traces: list[LoadedTrace] = []
    current: LoadedTrace | None = None
    by_id: dict[int, Span] = {}
    source = Path(path)
    try:
        lines: Iterable[str] = source.read_text(encoding="utf-8").splitlines()
    except OSError as error:
        raise TraceAnalysisError(f"cannot read {source}: {error}") from error

    for line_no, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except json.JSONDecodeError as error:
            raise TraceAnalysisError(
                f"{source}: line {line_no}: not valid JSON ({error.msg})"
            ) from error
        if not isinstance(event, dict):
            raise TraceAnalysisError(
                f"{source}: line {line_no}: event is not a JSON object"
            )
        kind = event.get("event")
        if kind == "trace_start":
            index = int(event.get("trace", len(traces)))
            current = LoadedTrace(
                index=index,
                trace_id=str(event.get("trace_id") or f"trace-{index}"),
                root=Span(name=str(event.get("name", "?"))),
            )
            by_id = {}
        elif kind == "span":
            if current is None:
                raise TraceAnalysisError(
                    f"{source}: line {line_no}: span outside any trace"
                )
            span = _span_from_event(event)
            span_id = event.get("span_id")
            parent_id = event.get("parent_id")
            if int(event.get("depth", 0)) == 0:
                # The root span line *is* the trace root: replace the
                # placeholder created at trace_start.
                span.trace_id = current.trace_id
                current.root = span
            elif isinstance(span_id, int) and isinstance(parent_id, int):
                parent = by_id.get(parent_id)
                if parent is None:
                    current.orphans.append(span_id)
                    current.root.children.append(span)
                else:
                    parent.children.append(span)
            else:
                raise TraceAnalysisError(
                    f"{source}: line {line_no}: non-root span without "
                    "integer span_id/parent_id"
                )
            if isinstance(span_id, int):
                by_id[span_id] = span
        elif kind == "trace_end":
            if current is None:
                raise TraceAnalysisError(
                    f"{source}: line {line_no}: trace_end without trace_start"
                )
            traces.append(current)
            current = None
        elif kind is None:
            raise TraceAnalysisError(
                f"{source}: line {line_no}: missing 'event' field"
            )
        # Unknown event kinds are skipped: analysis tolerates forward-
        # compatible additions that validation would flag.

    if current is not None:
        traces.append(current)
    if not traces:
        raise TraceAnalysisError(f"{source}: file contains no traces")
    return traces


# ----------------------------------------------------------------------
# Derived views
# ----------------------------------------------------------------------
def _self_time(span: Span) -> float:
    return max(0.0, span.duration - sum(c.duration for c in span.children))


def _critical_path(root: Span) -> list[dict[str, Any]]:
    """Greedy walk from the root into the child that ends last."""
    path: list[dict[str, Any]] = []
    span = root
    while True:
        path.append(
            {
                "name": span.name,
                "duration_s": span.duration,
                "self_s": _self_time(span),
            }
        )
        if not span.children:
            return path
        span = max(span.children, key=lambda c: (c.start + c.duration, c.start))


def summarize_traces(
    traces: list[LoadedTrace], top: int = 10
) -> dict[str, Any]:
    """Aggregate view of a trace file (see module docstring)."""
    by_name: dict[str, dict[str, Any]] = {}
    slowest: list[dict[str, Any]] = []
    trace_rows: list[dict[str, Any]] = []
    orphan_total = 0
    for trace in traces:
        orphan_total += len(trace.orphans)
        trace_rows.append(
            {
                "trace_id": trace.trace_id,
                "name": trace.root.name,
                "spans": trace.spans,
                "duration_s": trace.duration,
                "orphans": len(trace.orphans),
                "critical_path": _critical_path(trace.root),
            }
        )
        for path, _depth, span in trace.root.walk():
            stats = by_name.setdefault(
                span.name,
                {"name": span.name, "count": 0, "total_s": 0.0, "self_s": 0.0,
                 "max_s": 0.0},
            )
            stats["count"] += 1
            stats["total_s"] += span.duration
            stats["self_s"] += _self_time(span)
            stats["max_s"] = max(stats["max_s"], span.duration)
            slowest.append(
                {
                    "trace_id": trace.trace_id,
                    "path": path,
                    "duration_s": span.duration,
                    "self_s": _self_time(span),
                }
            )
    slowest.sort(key=lambda row: row["duration_s"], reverse=True)
    names = sorted(
        by_name.values(), key=lambda row: row["total_s"], reverse=True
    )
    return {
        "traces": len(traces),
        "spans": sum(t.spans for t in traces),
        "orphan_spans": orphan_total,
        "total_duration_s": sum(t.duration for t in traces),
        "per_trace": trace_rows,
        "by_name": names,
        "slowest": slowest[:top],
    }


def collapsed_stacks(traces: list[LoadedTrace]) -> list[str]:
    """Collapsed-stack lines: ``root;child;leaf <self_time_usec>``.

    The weight is *self* time in integer microseconds, so the flame
    graph's total width equals (approximately) the traces' wall clock
    and every frame's width is the time spent in exactly that frame.
    Zero-weight frames are kept when they have no children (so leaves
    faster than 1µs still appear) and dropped otherwise.
    """
    stacks: dict[str, int] = {}
    for trace in traces:
        for path, _depth, span in trace.root.walk():
            weight = int(round(_self_time(span) * 1e6))
            if weight == 0 and span.children:
                continue
            stack = path.replace("/", ";")
            stacks[stack] = stacks.get(stack, 0) + weight
    return [f"{stack} {weight}" for stack, weight in sorted(stacks.items())]


def diff_traces(
    before: list[LoadedTrace], after: list[LoadedTrace]
) -> list[dict[str, Any]]:
    """Per-span-name deltas between two trace files.

    Rows are sorted by ``|total_delta_s|`` descending so regressions
    surface first; names present on only one side show zeros for the
    other.
    """

    def fold(traces: list[LoadedTrace]) -> dict[str, dict[str, float]]:
        acc: dict[str, dict[str, float]] = {}
        for trace in traces:
            for _path, _depth, span in trace.root.walk():
                row = acc.setdefault(
                    span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
                )
                row["count"] += 1
                row["total_s"] += span.duration
                row["self_s"] += _self_time(span)
        return acc

    a, b = fold(before), fold(after)
    rows = []
    for name in sorted(set(a) | set(b)):
        left = a.get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        right = b.get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        rows.append(
            {
                "name": name,
                "count_before": int(left["count"]),
                "count_after": int(right["count"]),
                "count_delta": int(right["count"] - left["count"]),
                "total_before_s": left["total_s"],
                "total_after_s": right["total_s"],
                "total_delta_s": right["total_s"] - left["total_s"],
                "self_delta_s": right["self_s"] - left["self_s"],
            }
        )
    rows.sort(key=lambda row: abs(row["total_delta_s"]), reverse=True)
    return rows


# ----------------------------------------------------------------------
# Text rendering (used by the CLI)
# ----------------------------------------------------------------------
def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.3f}ms"


def format_summary(summary: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize_traces` output."""
    lines = [
        f"traces: {summary['traces']}  spans: {summary['spans']}  "
        f"orphans: {summary['orphan_spans']}  "
        f"total: {_fmt_s(summary['total_duration_s'])}",
        "",
    ]
    for row in summary["per_trace"]:
        lines.append(
            f"trace {row['trace_id']}  {row['name']}  "
            f"spans={row['spans']}  {_fmt_s(row['duration_s'])}"
            + (f"  ORPHANS={row['orphans']}" if row["orphans"] else "")
        )
        crumbs = " > ".join(
            f"{step['name']} {_fmt_s(step['duration_s'])}"
            for step in row["critical_path"]
        )
        lines.append(f"  critical path: {crumbs}")
    lines.append("")
    lines.append(
        f"{'span name':<40} {'count':>7} {'total':>12} {'self':>12} {'max':>12}"
    )
    for row in summary["by_name"]:
        lines.append(
            f"{row['name']:<40} {row['count']:>7} "
            f"{_fmt_s(row['total_s']):>12} {_fmt_s(row['self_s']):>12} "
            f"{_fmt_s(row['max_s']):>12}"
        )
    lines.append("")
    lines.append("slowest spans:")
    for row in summary["slowest"]:
        lines.append(
            f"  {_fmt_s(row['duration_s']):>12}  {row['path']}  "
            f"[{row['trace_id']}]"
        )
    return "\n".join(lines)


def format_diff(rows: list[dict[str, Any]]) -> str:
    """Human-readable rendering of :func:`diff_traces` output."""
    lines = [
        f"{'span name':<40} {'count':>11} {'total before':>13} "
        f"{'total after':>13} {'delta':>12}"
    ]
    for row in rows:
        counts = f"{row['count_before']}→{row['count_after']}"
        delta = row["total_delta_s"]
        sign = "+" if delta >= 0 else "-"
        lines.append(
            f"{row['name']:<40} {counts:>11} "
            f"{_fmt_s(row['total_before_s']):>13} "
            f"{_fmt_s(row['total_after_s']):>13} "
            f"{sign}{_fmt_s(abs(delta)):>11}"
        )
    return "\n".join(lines)
