"""Spans: the unit of structured observability.

A :class:`Span` is one named, timed region of work — building the
assignment matrices, running one detector, multiplying one co-occurrence
block.  Spans nest, forming a tree per *trace* (one trace per top-level
region, e.g. one ``engine.analyze`` call), and carry two kinds of
payload:

* **attributes** — small, write-once facts about the region (axis name,
  block bounds, worker counts);
* **counters** — additive numeric measurements (nnz, candidate pairs,
  neighbour queries).  Counters aggregate by summation over a subtree,
  which is what makes serial and parallel runs comparable: the same
  work yields the same counter totals no matter how it was partitioned.

Spans are plain mutable objects while recording and serialise to plain
dicts (``to_dict``) for the sinks.  A threaded scan block records into
its own recorder; the parent grafts the block's root span object into
its tree in block order (see :meth:`repro.obs.Recorder.graft`).

Timebase: ``start`` is measured in seconds relative to the root span of
the trace the span belongs to (``time.perf_counter`` differences).
Grafted block spans keep their *block-local* timebase — their durations
are meaningful, their starts are only comparable within the same
fragment.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["Span", "counter_totals", "span_count", "tree_signature"]


class Span:
    """One named, timed region of work in a trace tree.

    Instances are created by a recorder (see
    :mod:`repro.obs.recorder`); user code receives them from
    ``recorder.span(...)`` context managers and mutates them through
    :meth:`add` and :meth:`annotate`.
    """

    __slots__ = (
        "name", "start", "duration", "attributes", "counters", "children",
        "trace_id",
    )

    def __init__(
        self,
        name: str,
        start: float = 0.0,
        duration: float = 0.0,
        attributes: dict[str, Any] | None = None,
        counters: dict[str, int | float] | None = None,
        children: list["Span"] | None = None,
        trace_id: str | None = None,
    ) -> None:
        self.name = name
        self.start = start
        self.duration = duration
        self.attributes: dict[str, Any] = attributes if attributes is not None else {}
        self.counters: dict[str, int | float] = (
            counters if counters is not None else {}
        )
        self.children: list[Span] = children if children is not None else []
        #: Correlation ID of the trace this span roots (set by the
        #: recorder on every completed top-level span; ``None`` on
        #: non-root spans — children inherit it implicitly via the tree).
        self.trace_id = trace_id

    # ------------------------------------------------------------------
    # Mutation (while recording)
    # ------------------------------------------------------------------
    def add(self, counter: str, value: int | float = 1) -> None:
        """Increment an additive counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes (small write-once facts) to this span."""
        self.attributes.update(attributes)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def walk(self, path: str = "", depth: int = 0) -> Iterator[tuple[str, int, "Span"]]:
        """Yield ``(path, depth, span)`` in deterministic pre-order.

        ``path`` is the ``/``-joined span names from the root down to
        (and including) this span.
        """
        here = f"{path}/{self.name}" if path else self.name
        yield here, depth, self
        for child in self.children:
            yield from child.walk(here, depth + 1)

    # ------------------------------------------------------------------
    # Serialisation (sinks)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON-able; see docs/OBSERVABILITY.md)."""
        payload = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


def counter_totals(root: Span) -> dict[str, int | float]:
    """Sum every counter over the whole subtree rooted at ``root``.

    Totals are returned with sorted keys so repeated runs produce
    identical serialisations.
    """
    totals: dict[str, int | float] = {}
    for _, _, span in root.walk():
        for key, value in span.counters.items():
            totals[key] = totals.get(key, 0) + value
    return dict(sorted(totals.items()))


def span_count(root: Span) -> int:
    """Number of spans in the subtree rooted at ``root``."""
    return sum(1 for _ in root.walk())


def tree_signature(root: Span) -> list[tuple[str, int, dict[str, int | float]]]:
    """The duration-free shape of a trace: ``(path, depth, counters)``.

    Two runs of the same work must produce equal signatures — this is
    the determinism contract the observability tests pin (span tree and
    counter totals are reproducible; wall-clock durations are not).
    """
    return [
        (path, depth, dict(sorted(span.counters.items())))
        for path, depth, span in root.walk()
    ]
