"""Validation of JSONL trace files against the documented schema.

The JSONL layout written by :class:`repro.obs.JsonlTraceSink` is a
stable interface (docs/OBSERVABILITY.md); CI runs this validator against
a real ``repro analyze --trace-out`` run so schema drift fails loudly.

Only schema 2 is accepted (the ``trace_start`` line's ``schema``
field): ``path``/``depth`` pre-order spans with correlation IDs —
``trace_id`` on every event, and ``span_id`` / ``parent_id`` on span
lines.  Beyond the layout, the IDs are checked for integrity: span IDs
are the unique pre-order positions, every ``parent_id`` resolves to an
earlier span of the same trace at the parent depth, the root (and only
the root) has a null parent, and ``trace_id`` is consistent across the
trace — i.e. no dangling spans.

The checks are structural *and* semantic: event ordering per trace,
required fields and types per event kind, pre-order consistency of
``path``/``depth``, and that each ``trace_end``'s ``counter_totals`` and
``spans`` equal what its ``span`` lines actually add up to.  Every
failure carries the offending line number.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.exceptions import ReproError

__all__ = ["TraceSchemaError", "validate_trace_lines", "validate_trace_file"]

_NUMBER = (int, float)
_SCHEMA = 2


class TraceSchemaError(ReproError):
    """A trace file does not conform to the documented JSONL schema."""


def _fail(line_no: int, message: str) -> None:
    raise TraceSchemaError(f"line {line_no}: {message}")


def _require(event: dict[str, Any], line_no: int, field: str, kinds: Any) -> Any:
    if field not in event:
        _fail(line_no, f"missing field {field!r}")
    value = event[field]
    if not isinstance(value, kinds) or isinstance(value, bool):
        _fail(line_no, f"field {field!r} has wrong type {type(value).__name__}")
    return value


def _check_counters(mapping: Any, line_no: int, field: str) -> dict[str, Any]:
    if not isinstance(mapping, dict):
        _fail(line_no, f"{field} must be an object")
    for key, value in mapping.items():
        if not isinstance(key, str):
            _fail(line_no, f"{field} key {key!r} is not a string")
        if not isinstance(value, _NUMBER) or isinstance(value, bool):
            _fail(line_no, f"{field}[{key!r}] is not a number")
    return mapping


class _TraceState:
    """Per-trace accumulator reset on every ``trace_start``."""

    __slots__ = (
        "index", "trace_id", "totals", "span_lines", "last_depth",
        "seen_span", "span_depths",
    )

    def __init__(self, index: int, trace_id: str) -> None:
        self.index = index
        self.trace_id = trace_id
        self.totals: dict[str, float] = {}
        self.span_lines = 0
        self.last_depth = -1
        self.seen_span = False
        #: ``span_id -> depth`` for every span seen so far; parent
        #: links must resolve into this map.
        self.span_depths: dict[int, int] = {}


def validate_trace_lines(lines: Iterable[str]) -> dict[str, int]:
    """Validate an iterable of JSONL lines; return summary statistics.

    Returns ``{"traces": T, "spans": S}`` on success and raises
    :class:`TraceSchemaError` (with a line number and a specific
    message) on the first violation.
    """
    state: _TraceState | None = None
    traces = 0
    total_spans = 0

    for line_no, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except json.JSONDecodeError as error:
            _fail(line_no, f"not valid JSON ({error.msg})")
        if not isinstance(event, dict):
            _fail(line_no, "event is not a JSON object")
        kind = _require(event, line_no, "event", str)

        if kind == "trace_start":
            if state is not None:
                _fail(line_no, "trace_start while a trace is open")
            schema = _require(event, line_no, "schema", int)
            if schema != _SCHEMA:
                _fail(line_no, f"unsupported schema version {schema}")
            index = _require(event, line_no, "trace", int)
            _require(event, line_no, "name", str)
            trace_id = _require(event, line_no, "trace_id", str)
            if not trace_id:
                _fail(line_no, "trace_id must be a non-empty string")
            state = _TraceState(index, trace_id)
        elif kind == "span":
            if state is None:
                _fail(line_no, "span outside any trace")
            if _require(event, line_no, "trace", int) != state.index:
                _fail(line_no, "span trace id does not match open trace")
            name = _require(event, line_no, "name", str)
            path = _require(event, line_no, "path", str)
            depth = _require(event, line_no, "depth", int)
            if depth < 0:
                _fail(line_no, "depth must be >= 0")
            if not state.seen_span and depth != 0:
                _fail(line_no, "first span of a trace must have depth 0")
            if state.seen_span and depth > state.last_depth + 1:
                _fail(line_no, "pre-order depth may increase by at most 1")
            segments = path.split("/")
            if len(segments) != depth + 1 or segments[-1] != name:
                _fail(line_no, "path does not match name/depth")
            for field in ("start_s", "duration_s"):
                value = _require(event, line_no, field, _NUMBER)
                if value < 0:
                    _fail(line_no, f"{field} must be >= 0")
            if not isinstance(event.get("attributes"), dict):
                _fail(line_no, "attributes must be an object")
            for key, value in _check_counters(
                event.get("counters"), line_no, "counters"
            ).items():
                state.totals[key] = state.totals.get(key, 0) + value
            _check_span_ids(event, line_no, state, depth)
            state.seen_span = True
            state.last_depth = depth
            state.span_lines += 1
        elif kind == "trace_end":
            if state is None:
                _fail(line_no, "trace_end without trace_start")
            if _require(event, line_no, "trace", int) != state.index:
                _fail(line_no, "trace_end trace id does not match open trace")
            trace_id = _require(event, line_no, "trace_id", str)
            if trace_id != state.trace_id:
                _fail(
                    line_no,
                    f"trace_end trace_id {trace_id!r} does not match "
                    f"trace_start trace_id {state.trace_id!r}",
                )
            spans = _require(event, line_no, "spans", int)
            if spans != state.span_lines:
                _fail(
                    line_no,
                    f"trace_end reports {spans} spans but {state.span_lines} "
                    "span lines were seen",
                )
            declared = _check_counters(
                event.get("counter_totals"), line_no, "counter_totals"
            )
            if dict(declared) != dict(state.totals):
                _fail(line_no, "counter_totals do not match summed span counters")
            traces += 1
            total_spans += state.span_lines
            state = None
        else:
            _fail(line_no, f"unknown event kind {kind!r}")

    if state is not None:
        raise TraceSchemaError("file ended with an unterminated trace")
    if traces == 0:
        raise TraceSchemaError("file contains no traces")
    return {"traces": traces, "spans": total_spans}


def _check_span_ids(
    event: dict[str, Any], line_no: int, state: _TraceState, depth: int
) -> None:
    """ID integrity for one span line."""
    trace_id = _require(event, line_no, "trace_id", str)
    if trace_id != state.trace_id:
        _fail(
            line_no,
            f"span trace_id {trace_id!r} does not match trace_start "
            f"trace_id {state.trace_id!r}",
        )
    span_id = _require(event, line_no, "span_id", int)
    if span_id != state.span_lines:
        _fail(
            line_no,
            f"span_id {span_id} is not the pre-order position "
            f"{state.span_lines}",
        )
    if "parent_id" not in event:
        _fail(line_no, "missing field 'parent_id'")
    parent_id = event["parent_id"]
    if depth == 0:
        if parent_id is not None:
            _fail(line_no, "root span must have parent_id null")
    else:
        if not isinstance(parent_id, int) or isinstance(parent_id, bool):
            _fail(line_no, "parent_id must be an integer for non-root spans")
        parent_depth = state.span_depths.get(parent_id)
        if parent_depth is None:
            _fail(
                line_no,
                f"dangling span: parent_id {parent_id} does not resolve "
                "to an earlier span of this trace",
            )
        if parent_depth != depth - 1:
            _fail(
                line_no,
                f"parent_id {parent_id} has depth {parent_depth}, "
                f"expected {depth - 1}",
            )
    state.span_depths[span_id] = depth


def validate_trace_file(path: str | Path) -> dict[str, int]:
    """Validate one JSONL trace file (see :func:`validate_trace_lines`)."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return validate_trace_lines(handle)
