"""The paper's custom co-occurrence algorithm (§III-C, "Our Algorithm").

Let ``M`` be RUAM (or RPAM) and ``C = M @ M.T`` the role co-occurrence
matrix, so ``C[i, j] = g(R^i, R^j)`` counts users shared by roles ``i``
and ``j`` and ``C[i, i] = |R^i|``.  Then:

* **Exact duplicates** — the paper's indicator function:
  ``I[i, j] = 1  iff  |R^i| = C[i, j] = |R^j|`` (two sets of equal size
  sharing that many elements are equal).
* **Similar roles** — from the inclusion-exclusion identity
  ``hamming(i, j) = |R^i| + |R^j| - 2 * C[i, j]``, roles are similar when
  that value is ``<= k``.

Both checks touch only the *stored* entries of the sparse product, which
is what makes the algorithm fast: for realistic RBAC data, most role pairs
share no users at all and never appear in ``C``.  Pairs with no overlap
are only relevant when ``|R^i| + |R^j| <= k`` (tiny roles), handled by a
separate linear pass.  The result is exact and fully deterministic.

Blocked kernel
--------------
``C`` is never materialised whole.  The product is computed one row
block at a time — ``C[start:stop] = M[start:stop] @ Mᵀ`` (a CSR @ CSR
matmul) — and each block is immediately reduced to its *matching pairs*
``(i, j)`` before the next block is formed, so peak memory is bounded by
the densest single block (``O(block_rows · r)`` stored entries worst
case) instead of ``nnz(C)``.

Threaded blocks
---------------
Blocks are independent, and scipy's CSR matmul releases the GIL, so
``n_workers > 1`` runs them on a per-scan thread pool of
``min(n_workers, usable cores, blocks)`` threads, all reading the same
in-process arrays.  Each block records into its own
:class:`~repro.obs.Recorder`, and the parent grafts those recorders'
spans and metrics in block order; results are concatenated in block
order too, so pairs, counters and histograms are identical for every
``block_rows`` and worker count.  While the recorder measures memory
the blocks run one at a time: ``tracemalloc``'s peak is process-wide.
"""

from __future__ import annotations

import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from repro.core.grouping.base import GroupFinder, register_group_finder
from repro.exceptions import ConfigurationError
from repro.obs import Recorder, current_recorder, use_recorder
from repro.util import groups_of_pairs

_EMPTY = np.empty(0, dtype=np.int64)


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


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has
    one, so a CPU-restricted container is not over-counted)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(n_workers: int | None) -> int:
    """Normalise a worker-count option.

    ``None`` means "use every usable CPU" (:func:`usable_cpus`); any
    explicit value must be >= 1.
    """
    n_workers = validate_workers(n_workers)
    if n_workers is None:
        return usable_cpus()
    return n_workers


def scan_block_sparse(
    csr: sp.csr_matrix, csr_t: sp.csr_matrix, start: int, stop: int
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Stored entries of ``C[start:stop] = M[start:stop] @ Mᵀ``.

    Returns ``(rows, cols, shared)`` with ``rows`` in global coordinates.
    """
    product = (csr[start:stop] @ csr_t).tocoo()
    rows = product.row.astype(np.int64) + start
    cols = product.col.astype(np.int64)
    return rows, cols, product.data.astype(np.int64)


def reduce_block(
    rows: npt.NDArray[np.int64],
    cols: npt.NDArray[np.int64],
    shared: npt.NDArray[np.int64],
    norms: npt.NDArray[np.int64],
    k: int | None,
    collect_subsets: bool,
) -> tuple[npt.NDArray[np.int64], ...]:
    """Reduce one block's co-occurrence entries to matched/subset pairs.

    Returns ``(matched_rows, matched_cols, hamming, sub_rows, sub_cols,
    n_candidates)``.
    """
    sub_rows, sub_cols = _EMPTY, _EMPTY
    if collect_subsets:
        # g^{ij} = |R^i|  iff  R^i ⊆ R^j (diagonal excluded).
        subset = (shared == norms[rows]) & (rows != cols)
        sub_rows, sub_cols = rows[subset], cols[subset]

    matched_rows, matched_cols, hamming = _EMPTY, _EMPTY, _EMPTY
    n_candidates = 0
    if k is not None:
        # Only consider each unordered pair once.
        upper = rows < cols
        rows, cols, shared = rows[upper], cols[upper], shared[upper]
        n_candidates = int(len(rows))

        # hamming(i, j) = |R^i| + |R^j| - 2 g^{ij}; for k = 0 the
        # "<= 0" test is the paper's indicator function I[i, j]
        # (distance zero iff equal sets of equal size).
        distance = norms[rows] + norms[cols] - 2 * shared
        mask = distance <= k
        matched_rows, matched_cols = rows[mask], cols[mask]
        hamming = distance[mask]
    return matched_rows, matched_cols, hamming, sub_rows, sub_cols, n_candidates


def _scan_block(
    csr: sp.csr_matrix,
    csr_t: sp.csr_matrix,
    norms: npt.NDArray[np.int64],
    k: int | None,
    collect_subsets: bool,
    start: int,
    stop: int,
    threads: int = 1,
) -> tuple[npt.NDArray[np.int64], ...]:
    """One row block of the co-occurrence scan.

    Produces the block's co-occurrence entries (:func:`scan_block_sparse`)
    and reduces them (:func:`reduce_block`) to

    * the *matching* pairs ``(i, j)``, ``i < j``, at Hamming distance
      ``<= k`` — together with their distances so callers can filter the
      same pass down to any smaller threshold (``k is None`` skips this
      collection entirely);
    * when ``collect_subsets`` — the *directed* pairs ``(i, j)``,
      ``i != j``, whose row ``i`` set is a subset of row ``j``'s
      (``g^{ij} = |R^i|``; the shadowed-role criterion).

    Returns ``(rows, cols, hamming, sub_rows, sub_cols)``; only the
    (small) matched arrays survive the block, which is what bounds peak
    memory at the densest single block.

    Each block is wrapped in a ``cooccurrence.block`` span carrying the
    per-stage counters that make the kernel's cost explainable: entries
    of the block product, candidate pairs examined, and pairs matched;
    its ``threads`` attribute records how many threads the scan ran
    its blocks on.  When the current recorder opted into
    ``measure_memory`` the block's peak allocation is measured via
    ``tracemalloc`` (expensive, and it resets the interpreter's global
    peak marker — hence opt-in; see :class:`repro.obs.Recorder`).
    """
    recorder = current_recorder()
    with recorder.span(
        "cooccurrence.block", start=start, stop=stop, threads=threads
    ) as span:
        measure = recorder.measure_memory
        if measure:
            started_tracing = not tracemalloc.is_tracing()
            if started_tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
        try:
            rows, cols, shared = scan_block_sparse(csr, csr_t, start, stop)
            span.add("cooccurrence.product_nnz", int(len(rows)))

            (
                matched_rows, matched_cols, hamming,
                sub_rows, sub_cols, n_candidates,
            ) = reduce_block(rows, cols, shared, norms, k, collect_subsets)
            if collect_subsets:
                span.add("cooccurrence.subset_pairs", int(len(sub_rows)))
            if k is not None:
                span.add("cooccurrence.candidate_pairs", n_candidates)
                span.add("cooccurrence.matched_pairs", int(len(matched_rows)))
        finally:
            if measure:
                span.add(
                    "cooccurrence.block_peak_bytes",
                    int(tracemalloc.get_traced_memory()[1]),
                )
                if started_tracing:
                    tracemalloc.stop()
    # Observed outside the ``with`` so the span's duration is final.
    recorder.observe("cooccurrence.block_seconds", span.duration)
    return matched_rows, matched_cols, hamming, sub_rows, sub_cols


def blocked_scan(
    csr: sp.csr_matrix,
    norms: npt.NDArray[np.int64],
    k: int | None = None,
    collect_subsets: bool = False,
    block_rows: int | None = None,
    n_workers: int | None = 1,
) -> "ScanResult":
    """One blocked pass over ``C = M·Mᵀ``, reduced to reusable pairs.

    The single entry point behind both the type-4/5 grouping criteria
    and the shadowed-role subset criterion: everything every detector
    needs from the co-occurrence product is collected in *one* pass, so
    the product is never recomputed per consumer (the workspace layer
    memoises the result; see :mod:`repro.core.workspace`).

    Per block the product is immediately reduced (matched pairs with
    their Hamming distances, plus directed subset pairs when requested)
    before the next block is formed, so peak memory stays bounded by the
    densest single block for every combination of collections.  Blocks
    run on ``min(n_workers, usable_cpus(), blocks)`` threads — one at a
    time while the recorder measures memory — and results plus the
    blocks' grafted spans are concatenated in block order, so the
    outcome is identical for every ``block_rows`` and worker count.

    Emits one ``cooccurrence.block`` span per block (under whatever span
    is currently open) and returns the number of blocks on the result;
    callers are expected to record it as the ``cooccurrence.blocks``
    counter on their own span.
    """
    n_rows = csr.shape[0]
    if n_rows == 0:
        return ScanResult(k, _EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY, 0)
    effective_block = block_rows or n_rows
    bounds = [
        (start, min(start + effective_block, n_rows))
        for start in range(0, n_rows, effective_block)
    ]
    recorder = current_recorder()
    measure = recorder.measure_memory
    # tracemalloc's peak is process-wide: measured blocks must not overlap.
    threads = 1 if measure else min(
        resolve_workers(n_workers), usable_cpus(), len(bounds)
    )
    # M and Mᵀ are both kept in CSR so every block product is a
    # CSR @ CSR multiply (scipy would otherwise re-convert the lazy
    # transpose view once per block).
    csr_t = csr.T.tocsr()

    def record_block(block: tuple[int, int]):
        # Threads do not inherit the current recorder: each block
        # records into its own, which the caller grafts.
        local = Recorder(measure_memory=measure)
        with use_recorder(local):
            pairs = _scan_block(
                csr, csr_t, norms, k, collect_subsets, *block, threads=threads
            )
        return pairs, local

    if threads > 1:
        with ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-scan"
        ) as executor:
            outcomes = list(executor.map(record_block, bounds))
    else:
        outcomes = [record_block(block) for block in bounds]
    pieces = []
    for index, (pairs, local) in enumerate(outcomes):
        recorder.graft(local, fragment=index)
        pieces.append(pairs)
    merged = [np.concatenate(column) for column in zip(*pieces)]
    return ScanResult(k, *merged, n_blocks=len(bounds))


class ScanResult:
    """The reusable output of one :func:`blocked_scan` pass.

    ``rows``/``cols``/``hamming`` hold the unordered matched pairs
    (``rows < cols``) at distance ``<= k``; ``sub_rows``/``sub_cols``
    the directed subset pairs (empty unless collected).  Because the
    distances are kept, :meth:`pairs_at` filters the same pass down to
    any threshold ``<= k`` without touching the product again.
    """

    __slots__ = (
        "k", "rows", "cols", "hamming", "sub_rows", "sub_cols", "n_blocks"
    )

    def __init__(self, k, rows, cols, hamming, sub_rows, sub_cols, n_blocks):
        self.k = k
        self.rows = rows
        self.cols = cols
        self.hamming = hamming
        self.sub_rows = sub_rows
        self.sub_cols = sub_cols
        self.n_blocks = n_blocks

    def pairs_at(
        self, k: int
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """Matched pairs at distance ``<= k`` (requires ``k <= self.k``)."""
        if self.k is None or k > self.k:
            raise ValueError(
                f"scan collected pairs at k={self.k}, cannot filter to k={k}"
            )
        if k == self.k:
            return self.rows, self.cols
        keep = self.hamming <= k
        return self.rows[keep], self.cols[keep]

    def nbytes(self) -> int:
        arrays = (
            self.rows, self.cols, self.hamming, self.sub_rows, self.sub_cols
        )
        return int(sum(a.nbytes for a in arrays))


def zero_overlap_pairs(
    norms: npt.ArrayLike, k: int
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Anchor pairs for the matches a co-occurrence scan cannot see.

    Two non-overlapping roles share no stored co-occurrence entry, yet
    they are within distance ``k`` iff ``|R^i| + |R^j| <= k`` (for
    ``k = 0``: both empty).  Every such pair involves only roles with
    ``|R| <= k``; and if a pair qualifies, both members also qualify
    against the smallest-norm role, so pairing everything qualifying
    with that anchor yields exactly the right connected components
    without enumerating all pairs.
    """
    norms = np.asarray(norms)
    small = np.flatnonzero(norms <= k)
    if len(small) < 2:
        return _EMPTY, _EMPTY
    anchor = small[np.argmin(norms[small])]
    partners = small[(small != anchor) & (norms[small] + norms[anchor] <= k)]
    return (
        np.full(len(partners), anchor, dtype=np.int64),
        partners.astype(np.int64),
    )


@register_group_finder("cooccurrence")
class CooccurrenceGroupFinder(GroupFinder):
    """Exact, deterministic group finder via co-occurrence counts.

    Parameters
    ----------
    block_rows:
        Rows of ``M`` per product block.  ``None`` (the default) computes
        the whole product in a single block — the original monolithic
        behaviour; any value >= 1 bounds peak memory at the cost of one
        product per block.  Output is identical for every value.
    n_workers:
        Threads for the blocked product (``None`` = every usable CPU).
        With one worker, or a single block, everything runs on the
        calling thread.  Output is identical for every worker count.

    These two shape only a standalone :meth:`find_groups` call; over a
    workspace view (:meth:`find_groups_in`) the view's scan shape is
    used.
    """

    def __init__(
        self,
        block_rows: int | None = None,
        n_workers: int | None = 1,
    ) -> None:
        if block_rows is not None and block_rows < 1:
            raise ConfigurationError(
                f"block_rows must be >= 1, got {block_rows}"
            )
        self._block_rows = block_rows
        self._n_workers = resolve_workers(n_workers)

    def find_groups(
        self, matrix: Any, max_differences: int = 0
    ) -> list[list[int]]:
        k = self._check_threshold(max_differences)
        csr = self._csr_of(matrix)
        n_rows = csr.shape[0]
        if n_rows == 0:
            return []

        recorder = current_recorder()
        with recorder.span("finder:cooccurrence", k=k) as span:
            span.add("cooccurrence.rows", int(n_rows))
            span.add("cooccurrence.input_nnz", int(csr.nnz))

            norms = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
            scan = blocked_scan(
                csr,
                norms,
                k=k,
                block_rows=self._block_rows,
                n_workers=self._n_workers,
            )
            span.add("cooccurrence.blocks", scan.n_blocks)
            groups = self._groups(n_rows, scan.rows, scan.cols, norms, k)
            span.add("cooccurrence.groups", len(groups))
        return groups

    def find_groups_in(
        self, view: Any, max_differences: int = 0
    ) -> list[list[int]]:
        """Group rows of a workspace view using its shared scan.

        Identical output to :meth:`find_groups` on the view's matrix,
        but candidate pairs come from the memoised
        :meth:`~repro.core.workspace.AxisWorkspace.matched_pairs`
        artifact (one blocked pass per axis, shared with every other
        consumer) instead of a private product.  The view owns the
        scan's shape; on a cold workspace the pass runs here, under
        this finder's span.
        """
        k = self._check_threshold(max_differences)
        n_rows = view.n_rows
        if n_rows == 0:
            return []
        recorder = current_recorder()
        with recorder.span("finder:cooccurrence", k=k) as span:
            span.add("cooccurrence.rows", int(n_rows))
            # 0/1 entries: the stored-entry count is the norm total.
            span.add("cooccurrence.input_nnz", int(view.norms.sum()))
            rows, cols = view.matched_pairs(k)
            groups = self._groups(n_rows, rows, cols, view.norms, k)
            span.add("cooccurrence.groups", len(groups))
        return groups

    def warm(self, view: Any, max_differences: int = 0) -> None:
        """Register this finder's scan need on the view (no pass yet)."""
        if max_differences < 0 or view.n_rows == 0:
            return
        view.request_scan(k=int(max_differences))

    @staticmethod
    def _groups(
        n_rows: int, rows: np.ndarray, cols: np.ndarray,
        norms: np.ndarray, k: int,
    ) -> list[list[int]]:
        """Groups (size >= 2) joined by the matched pairs and by the
        zero-overlap anchor pairs (:func:`zero_overlap_pairs`)."""
        anchor_rows, anchor_cols = zero_overlap_pairs(norms, k)
        return groups_of_pairs(
            n_rows,
            np.concatenate((rows, anchor_rows)),
            np.concatenate((cols, anchor_cols)),
        )
