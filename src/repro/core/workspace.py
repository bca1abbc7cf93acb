"""Shared per-axis analysis workspace: derive each artifact once.

The paper's custom algorithm owes its speed to one observation: a single
co-occurrence product ``C = M·Mᵀ`` answers both the duplicate (type-4)
and similar (type-5) questions via
``hamming(i, j) = |Rⁱ| + |Rʲ| − 2·C[i, j]``, and the shadowed-role
subset criterion ``C[r, s] = |r|`` falls out of the *same* stored
entries.  Detectors that each recompute the product — or re-slice, re-
pack, or re-hash the same rows — throw that property away.

This module is the memoisation layer that preserves it:

* :class:`AxisWorkspace` — one per axis (RUAM for users, RPAM for
  permissions).  Every derived structure is an *artifact*, built lazily
  on first access and reused afterwards: the nonempty submatrix and its
  original-index map, row norms, the dense view, CSR row-content keys
  and the duplicate buckets/representatives derived from them, MinHash
  signatures, and — central to everything — the result of one blocked
  co-occurrence scan.
* The scan is *requested*, not computed, by consumers
  (:meth:`AxisWorkspace.request_scan`): each consumer registers the
  threshold ``k`` and/or subset-pair collection it will need, and the
  single :func:`~repro.core.grouping.cooccurrence.blocked_scan` pass is
  executed at ``k = max(requests)`` with the union of collections —
  then filtered down per consumer (:meth:`AxisWorkspace.matched_pairs`
  keeps the stored Hamming distances exactly for this purpose).  The
  engine aggregates requests from every enabled detector before
  flushing, so the product is computed **once per axis per analyze()**.
* :class:`CollapsedWorkspace` — the similar detector's
  duplicates-collapsed view.  Its candidate pairs are *derived* from
  the parent scan by remapping row indices onto content-class
  representatives (identical rows have identical distances to
  everything), so collapsing costs no additional product pass.
* :class:`AnalysisWorkspace` — the per-context bundle, hung off
  :class:`~repro.core.detectors.base.AnalysisContext`, so every
  detector of one analysis reads the artifacts the engine warmed.

Every artifact access records a ``workspace.artifact_hits`` /
``workspace.artifact_misses`` counter (misses also record
``workspace.artifact_bytes`` materialised), and each executed scan
records ``workspace.cooccurrence_passes`` — surfaced in
``Report.metrics["counters"]`` so cache behaviour is observable; see
``docs/ARCHITECTURE.md`` for the artifact lifecycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from repro.bitmatrix import csr_row_keys, row_content_classes
from repro.core.grouping.cooccurrence import ScanResult, blocked_scan
from repro.obs import (
    ARTIFACT_BYTES,
    ARTIFACT_HITS,
    ARTIFACT_MISSES,
    COOCCURRENCE_PASSES,
    current_recorder,
)
from repro.util import groups_of_labels

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detectors.base import AnalysisContext
    from repro.core.matrices import AssignmentMatrix

__all__ = ["AnalysisWorkspace", "AxisWorkspace", "CollapsedWorkspace"]


def _payload_bytes(value: Any) -> int:
    """Best-effort size of a materialised artifact, for the bytes counter.

    Artifact lists are homogeneous and never walked item by item: a list
    of content keys (``bytes``) is sized in one pass, and any other list
    (of Python ints, say) counts 0.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if sp.issparse(value):
        csr = value
        return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
    if isinstance(value, ScanResult):
        return value.nbytes()
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, tuple):
        return sum(_payload_bytes(item) for item in value)
    if isinstance(value, list) and value and isinstance(
        value[0], (bytes, bytearray)
    ):
        return sum(map(len, value))
    return 0


class _ArtifactCache:
    """Hit/miss-counted memo shared by the workspace views."""

    def __init__(self) -> None:
        self._artifacts: dict[str, Any] = {}

    def _artifact(self, name: str, build: Callable[[], Any]) -> Any:
        """Return the memoised artifact, building (and counting) on miss."""
        try:
            value = self._artifacts[name]
        except KeyError:
            recorder = current_recorder()
            recorder.add(ARTIFACT_MISSES)
            value = build()
            self._artifacts[name] = value
            recorder.add(ARTIFACT_BYTES, _payload_bytes(value))
            return value
        current_recorder().add(ARTIFACT_HITS)
        return value


class AxisWorkspace(_ArtifactCache):
    """Memoised derived artifacts for one analysis axis.

    Wraps one :class:`~repro.core.matrices.AssignmentMatrix` and exposes
    everything the detectors and group finders derive from it.  Row
    indices in every artifact refer to the *nonempty submatrix* (rows
    with at least one edge on the axis) unless stated otherwise;
    :attr:`original` maps them back to full-matrix rows.

    ``block_rows`` and ``n_workers`` fix the shape of the blocked
    co-occurrence scan at construction; requests carry only
    what a consumer needs from it (``k``, ``subsets``).
    """

    def __init__(
        self,
        matrix: "AssignmentMatrix",
        block_rows: int | None = None,
        n_workers: int | None = 1,
    ) -> None:
        super().__init__()
        self.matrix = matrix
        self.block_rows = block_rows
        self.n_workers = n_workers
        self._scan: ScanResult | None = None
        self._scan_subsets = False
        self._want_k: int | None = None
        self._want_subsets = False
        self._collapsed: "CollapsedWorkspace | None" = None

    # ------------------------------------------------------------------
    # Row-subset artifacts
    # ------------------------------------------------------------------
    @property
    def original(self) -> npt.NDArray[np.int64]:
        """Full-matrix row index per submatrix row."""
        return self._artifact(
            "original",
            lambda: np.flatnonzero(self.matrix.row_sums > 0),
        )

    @property
    def n_rows(self) -> int:
        return len(self.original)

    @property
    def submatrix(self) -> sp.csr_matrix:
        """CSR restriction of the matrix to its nonempty rows."""
        return self._artifact(
            "submatrix", lambda: self.matrix.csr[self.original]
        )

    #: Alias used by group finders (uniform across workspace views).
    @property
    def csr(self) -> sp.csr_matrix:
        return self.submatrix

    @property
    def norms(self) -> npt.NDArray[np.int64]:
        """Row popcounts ``|Rⁱ|`` of the submatrix."""
        return self._artifact(
            "norms", lambda: self.matrix.row_sums[self.original]
        )

    @property
    def dense(self) -> npt.NDArray[np.bool_]:
        """Dense boolean view of the submatrix (DBSCAN / HNSW input)."""
        return self._artifact(
            "dense",
            lambda: np.asarray(self.submatrix.todense()).astype(bool),
        )

    # ------------------------------------------------------------------
    # Row-content artifacts
    # ------------------------------------------------------------------
    @property
    def row_keys(self) -> list[bytes]:
        """Stable content key per submatrix row (equal iff equal sets)."""
        return self._artifact(
            "row_keys", lambda: csr_row_keys(self.submatrix)
        )

    def _row_classes(self) -> tuple[Any, ...]:
        return self._artifact(
            "row_classes", lambda: row_content_classes(self.row_keys)
        )

    @property
    def representatives(self) -> npt.NDArray[np.intp]:
        """First submatrix row of each distinct content (first-seen order)."""
        return self._row_classes()[0]

    @property
    def class_sizes(self) -> npt.NDArray[np.int64]:
        """Rows sharing the content of each representative."""
        return self._row_classes()[1]

    @property
    def class_index(self) -> npt.NDArray[np.intp]:
        """Content-class slot per submatrix row."""
        return self._row_classes()[2]

    @property
    def duplicate_groups(self) -> list[list[int]]:
        """Groups (size >= 2) of identical submatrix rows.

        Same ordering contract as
        :func:`repro.bitmatrix.equal_row_groups_sparse`.
        """
        return groups_of_labels(self.class_index)

    # ------------------------------------------------------------------
    # MinHash signatures
    # ------------------------------------------------------------------
    def signatures(
        self, n_hashes: int = 64, seed: int = 0
    ) -> npt.NDArray[np.uint64]:
        """Memoised per-row MinHash signatures of the submatrix."""
        from repro.lsh.minhash import minhash_signatures

        return self._artifact(
            f"signatures[{n_hashes},{seed}]",
            lambda: minhash_signatures(
                self.submatrix, n_hashes=n_hashes, seed=seed
            ),
        )

    # ------------------------------------------------------------------
    # The blocked co-occurrence scan
    # ------------------------------------------------------------------
    def request_scan(self, k: int | None = None, subsets: bool = False) -> None:
        """Register what an upcoming consumer needs from the scan.

        Requests accumulate; the pass itself runs on the next
        :meth:`scan` (typically the engine's warm flush) at the maximum
        requested ``k`` with the union of requested collections.
        """
        if k is not None:
            self._want_k = k if self._want_k is None else max(self._want_k, k)
        if subsets:
            self._want_subsets = True

    @property
    def scan_pending(self) -> bool:
        """Whether outstanding requests require (re)running the scan."""
        return not self._scan_ready()

    def _scan_ready(self) -> bool:
        scan = self._scan
        if scan is None:
            return self._want_k is None and not self._want_subsets
        if self._want_subsets and not self._scan_subsets:
            return False
        if self._want_k is not None and (
            scan.k is None or scan.k < self._want_k
        ):
            return False
        return True

    def scan(self) -> ScanResult:
        """The memoised blocked co-occurrence pass (run on demand).

        A rebuild (a request arriving *after* a narrower pass already
        ran — the engine's warm aggregation exists to avoid this) keeps
        the union of old and new capabilities and records a second
        ``workspace.cooccurrence_passes``.
        """
        recorder = current_recorder()
        if self._scan is not None and self._scan_ready():
            recorder.add(ARTIFACT_HITS)
            return self._scan
        recorder.add(ARTIFACT_MISSES)
        k = self._want_k
        if self._scan is not None and self._scan.k is not None:
            k = self._scan.k if k is None else max(k, self._scan.k)
        subsets = self._want_subsets or self._scan_subsets
        result = blocked_scan(
            self.submatrix,
            self.norms,
            k=k,
            collect_subsets=subsets,
            block_rows=self.block_rows,
            n_workers=self.n_workers,
        )
        recorder.add("cooccurrence.blocks", result.n_blocks)
        recorder.add(COOCCURRENCE_PASSES, 1)
        recorder.add(ARTIFACT_BYTES, result.nbytes())
        self._scan = result
        self._scan_subsets = subsets
        return result

    def matched_pairs(
        self, k: int
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """Unordered submatrix-row pairs at Hamming distance ``<= k``.

        Served from the shared scan, filtered down by the stored
        distances when the scan ran at a larger ``k``.
        """
        self.request_scan(k=k)
        return self.scan().pairs_at(k)

    @property
    def subset_pairs(
        self,
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """Directed subset pairs in **full-matrix** row indices.

        ``(r, s)`` with row ``r``'s set a strict-or-equal subset of row
        ``s``'s (``r != s``), sorted lexicographically by ``(r, s)`` —
        the deterministic candidate order the shadowed detector scans.
        Empty rows never have stored co-occurrence entries, so
        restricting the pass to the nonempty submatrix loses nothing.
        """
        return self._artifact("subset_pairs", self._build_subset_pairs)

    def _build_subset_pairs(
        self,
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        self.request_scan(subsets=True)
        scan = self.scan()
        rows = np.take(self.original, scan.sub_rows)
        cols = np.take(self.original, scan.sub_cols)
        order = np.lexsort((cols, rows))
        return rows[order], cols[order]

    # ------------------------------------------------------------------
    # Collapsed view
    # ------------------------------------------------------------------
    def collapsed(self) -> "CollapsedWorkspace":
        """The duplicates-collapsed view (one row per distinct content)."""
        if self._collapsed is None:
            self._collapsed = CollapsedWorkspace(self)
        return self._collapsed

    def __repr__(self) -> str:
        return (
            f"AxisWorkspace(artifacts={sorted(self._artifacts)}, "
            f"scan={'built' if self._scan is not None else 'none'})"
        )


class CollapsedWorkspace(_ArtifactCache):
    """Duplicates-collapsed view over a parent :class:`AxisWorkspace`.

    Rows are the parent's content-class representatives (first-seen
    order).  Because identical rows are at identical distances from
    everything, the collapsed candidate pairs are *derived* from the
    parent's scan by index remapping — no second co-occurrence pass.
    Row-sliced artifacts (dense, signatures) likewise derive from the
    parent's rather than recomputing from scratch.
    """

    def __init__(self, parent: AxisWorkspace) -> None:
        super().__init__()
        self.parent = parent

    @property
    def n_rows(self) -> int:
        return len(self.parent.representatives)

    @property
    def original(self) -> npt.NDArray[np.int64]:
        """Full-matrix row index per collapsed row."""
        return self._artifact(
            "original",
            lambda: self.parent.original[self.parent.representatives],
        )

    @property
    def csr(self) -> sp.csr_matrix:
        return self._artifact(
            "csr",
            lambda: self.parent.submatrix[self.parent.representatives],
        )

    @property
    def norms(self) -> npt.NDArray[np.int64]:
        return self._artifact(
            "norms", lambda: self.parent.norms[self.parent.representatives]
        )

    @property
    def dense(self) -> npt.NDArray[np.bool_]:
        return self._artifact(
            "dense", lambda: self.parent.dense[self.parent.representatives]
        )

    @property
    def class_sizes(self) -> npt.NDArray[np.int64]:
        """Parent rows represented by each collapsed row."""
        return self.parent.class_sizes

    @property
    def duplicate_groups(self) -> list[list[int]]:
        """Always empty: collapsed rows are distinct by construction."""
        return []

    def signatures(
        self, n_hashes: int = 64, seed: int = 0
    ) -> npt.NDArray[np.uint64]:
        """Row slice of the parent's signatures (MinHash is per-row)."""
        return self._artifact(
            f"signatures[{n_hashes},{seed}]",
            lambda: self.parent.signatures(n_hashes, seed)[
                self.parent.representatives
            ],
        )

    def request_scan(self, k: int | None = None, subsets: bool = False) -> None:
        """Forward to the parent: collapsed pairs derive from its scan."""
        self.parent.request_scan(k=k, subsets=subsets)

    def matched_pairs(
        self, k: int
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """Collapsed-row pairs at distance ``<= k``, derived by remap.

        Every stored parent pair ``(i, j)`` maps to the representative
        pair ``(class(i), class(j))`` at the same distance (identical
        content ⇒ identical distances); same-class pairs vanish.  Pairs
        of zero-overlap rows are absent here exactly as they are absent
        from the parent scan — the co-occurrence finder covers them with
        its separate anchor pass.  The output may repeat a representative
        pair (once per contributing parent pair); connected components
        are insensitive to both repetition and order.
        """
        return self._artifact(
            f"collapsed_pairs[{k}]",
            lambda: self._build_matched_pairs(k),
        )

    def _build_matched_pairs(
        self, k: int
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        rows, cols = self.parent.matched_pairs(k)
        class_index = self.parent.class_index
        a = class_index[rows].astype(np.int64)
        b = class_index[cols].astype(np.int64)
        keep = a != b
        return a[keep], b[keep]

    def __repr__(self) -> str:
        return f"CollapsedWorkspace(parent={self.parent!r})"


class AnalysisWorkspace:
    """Per-context bundle of :class:`AxisWorkspace` instances.

    Hung off :class:`~repro.core.detectors.base.AnalysisContext` as a
    cached property: every detector reads whatever the engine's warm
    phase materialised, and every axis scans with the context's shape.
    """

    #: Axis name -> context matrix attribute.
    _AXES = {"users": "ruam", "permissions": "rpam"}

    def __init__(self, context: "AnalysisContext") -> None:
        self._context = context
        self._axes: dict[str, AxisWorkspace] = {}

    def axis(self, axis: Any) -> AxisWorkspace:
        """The workspace for ``axis`` (an :class:`Axis` or its value)."""
        name = getattr(axis, "value", axis)
        try:
            return self._axes[name]
        except KeyError:
            pass
        context = self._context
        workspace = AxisWorkspace(
            getattr(context, self._AXES[name]),
            block_rows=context.block_rows,
            n_workers=context.n_workers,
        )
        self._axes[name] = workspace
        return workspace

    @property
    def scan_pending(self) -> bool:
        return any(ws.scan_pending for ws in self._axes.values())

    def flush(self) -> None:
        """Run every pending blocked scan, one ``axis:*`` span each.

        Called by the engine after all detectors registered their scan
        requests — the aggregation point that makes "one co-occurrence
        pass per axis per analyze()" hold.
        """
        recorder = current_recorder()
        for name, workspace in self._axes.items():
            if not workspace.scan_pending:
                continue
            with recorder.span(f"axis:{name}", stage="workspace_warm"):
                workspace.scan()

    def __repr__(self) -> str:
        return f"AnalysisWorkspace(axes={sorted(self._axes)})"
