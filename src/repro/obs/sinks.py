"""Trace sinks: where completed traces go.

A sink is any object with ``emit(root_span)``; a recorder calls it once
per completed trace (top-level span).  Three stdlib-only implementations
are provided:

* :class:`InMemorySink` — keeps the span trees; for tests and embedding.
* :class:`LoggingSink` — one ``logging`` record per span on the
  ``repro.obs`` logger (handlers/levels are the caller's business; the
  library never calls ``logging.basicConfig``).
* :class:`JsonlTraceSink` — streams trace events as JSON Lines with the
  stable schema documented in ``docs/OBSERVABILITY.md`` (one
  ``trace_start`` line, one ``span`` line per span in deterministic
  pre-order, one ``trace_end`` line with counter totals).
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import IO, Any, Protocol

from repro.obs.spans import Span, counter_totals, span_count

__all__ = [
    "Sink",
    "InMemorySink",
    "LoggingSink",
    "JsonlTraceSink",
    "TRACE_SCHEMA_VERSION",
]

#: Version stamped on every ``trace_start`` event; bump on breaking
#: changes to the JSONL layout.
#:
#: Version 2 adds end-to-end correlation: ``trace_id`` on every event,
#: plus ``span_id`` / ``parent_id`` on span lines so a flat file
#: reconstructs into the exact span tree (including scan blocks grafted
#: from their threads' recorders) without relying on line order.
TRACE_SCHEMA_VERSION = 2


class Sink(Protocol):
    """Anything that can receive a completed trace."""

    def emit(self, root: Span) -> None: ...


class InMemorySink:
    """Collects completed traces in a list (primarily for tests)."""

    def __init__(self) -> None:
        self.traces: list[Span] = []

    def emit(self, root: Span) -> None:
        self.traces.append(root)


class LoggingSink:
    """Logs one record per span via the stdlib ``logging`` module.

    Parameters
    ----------
    logger:
        Target logger (default: ``logging.getLogger("repro.obs")``).
    level:
        Level for every span record (default ``logging.INFO``).
    """

    def __init__(
        self, logger: logging.Logger | None = None, level: int = logging.INFO
    ) -> None:
        self._logger = logger if logger is not None else logging.getLogger("repro.obs")
        self._level = level

    def emit(self, root: Span) -> None:
        for path, depth, span in root.walk():
            self._logger.log(
                self._level,
                "span %s duration=%.6fs%s%s",
                path,
                span.duration,
                f" attrs={span.attributes}" if span.attributes else "",
                f" counters={span.counters}" if span.counters else "",
            )


class JsonlTraceSink:
    """Writes trace events as JSON Lines (schema in docs/OBSERVABILITY.md).

    Parameters
    ----------
    target:
        Output file path (opened lazily, truncating) or an open
        text-mode file-like object (not closed by :meth:`close`).
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            self._file: IO[str] | None = None
        else:
            self._path = None
            self._file = target
        self._trace_index = 0

    def _out(self) -> IO[str]:
        if self._file is None:
            assert self._path is not None
            self._file = self._path.open("w", encoding="utf-8")
        return self._file

    def _write(self, event: dict[str, Any]) -> None:
        self._out().write(json.dumps(event, sort_keys=True) + "\n")

    def emit(self, root: Span) -> None:
        index = self._trace_index
        self._trace_index += 1
        # Deterministic span IDs: the pre-order position within the
        # trace.  Scan blocks are grafted into the tree before a trace
        # completes, so numbering the merged tree here gives every span
        # — local or block-recorded — a resolvable parent link.
        trace_id = root.trace_id or f"trace-{index}"
        self._write(
            {
                "event": "trace_start",
                "schema": TRACE_SCHEMA_VERSION,
                "trace": index,
                "trace_id": trace_id,
                "name": root.name,
            }
        )
        parent_of_depth: list[int] = []
        for span_id, (path, depth, span) in enumerate(root.walk()):
            parent_id = parent_of_depth[depth - 1] if depth > 0 else None
            del parent_of_depth[depth:]
            parent_of_depth.append(span_id)
            self._write(
                {
                    "event": "span",
                    "trace": index,
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "path": path,
                    "name": span.name,
                    "depth": depth,
                    "start_s": span.start,
                    "duration_s": span.duration,
                    "attributes": span.attributes,
                    "counters": span.counters,
                }
            )
        self._write(
            {
                "event": "trace_end",
                "trace": index,
                "trace_id": trace_id,
                "spans": span_count(root),
                "counter_totals": counter_totals(root),
            }
        )
        self._out().flush()

    def close(self) -> None:
        """Close the underlying file if this sink opened it."""
        if self._path is not None and self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
