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
block at a time — ``C[start:stop] = M[start:stop] @ Mᵀ`` — and each
block is immediately reduced to its *matching pairs* ``(i, j)`` before
the next block is formed, so peak memory is bounded by the densest
single block (``O(block_rows · r)`` stored entries worst case) instead
of ``nnz(C)``.  Blocks are independent, which is what lets
``n_workers > 1`` fan them out across a process pool; the union-find
reduction is order-insensitive, so the groups are identical for every
``block_rows`` and worker count.

Kernel dispatch
---------------
*How* a block's co-occurrence counts are produced is a per-block choice
(:mod:`repro.core.grouping.kernels`): the CSR matmul kernel for sparse
blocks, a bit-packed AND + popcount kernel for dense ones, with ``auto``
picking per block from a cost model.  Both kernels emit the same entry
set, so downstream results are kernel-independent.

Worker data plane
-----------------
When blocks fan out across processes the input arrays travel through
``multiprocessing.shared_memory`` (:mod:`repro.parallel.shm`): published
once per scan, attached read-only by workers, unlinked when the scan
finishes.  Per-task payloads carry only a manifest and block bounds.
If the ambient :class:`~repro.parallel.WorkerPool` is warm (engine- or
service-owned), worker processes are reused across scans.  This is the
one data plane: without shared memory, or without a usable pool, the
scan runs its serial block loop — results are identical on every path.
"""

from __future__ import annotations

import logging
import tracemalloc
from collections import OrderedDict
from typing import Any, Callable

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from repro.bitmatrix.packed import pack_csr_rows
from repro.core.grouping.base import GroupFinder, register_group_finder
from repro.core.grouping.kernels import (
    plan_kernels,
    reduce_block,
    scan_block_bits,
    scan_block_sparse,
    validate_kernel,
)
from repro.exceptions import ConfigurationError
from repro.obs import Recorder, current_recorder, use_recorder
from repro.parallel import (
    SharedMemoryUnavailable,
    WorkerPool,
    current_pool,
    publish,
    resolve_workers,
)
from repro.util import DisjointSet

logger = logging.getLogger(__name__)

_EMPTY = np.empty(0, dtype=np.int64)


def _scan_block(
    csr: sp.csr_matrix,
    csr_t: sp.csr_matrix,
    norms: npt.NDArray[np.int64],
    k: int | None,
    collect_subsets: bool,
    start: int,
    stop: int,
    kernel: str = "sparse",
    words: npt.NDArray[np.uint64] | None = None,
) -> tuple[npt.NDArray[np.int64], ...]:
    """One row block of the co-occurrence scan.

    Produces the block's co-occurrence entries with the named concrete
    kernel (``sparse`` or ``bits`` — dispatch happened upstream in
    :func:`~repro.core.grouping.kernels.plan_kernels`) and reduces them
    to

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
    of the block product, candidate pairs examined, and pairs matched.
    Both kernels produce the same entry set, so every one of these
    counters is kernel-independent — only the span's ``kernel``
    attribute records the choice.  When the current recorder opted into
    ``measure_memory`` the block's peak allocation is measured via
    ``tracemalloc`` (expensive, and it resets the interpreter's global
    peak marker — hence opt-in; see :class:`repro.obs.Recorder`).
    """
    recorder = current_recorder()
    with recorder.span("cooccurrence.block", start=start, stop=stop) as span:
        span.annotate(kernel=kernel)
        measure = recorder.measure_memory
        if measure:
            started_tracing = not tracemalloc.is_tracing()
            if started_tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
        try:
            if kernel == "bits":
                if words is None:
                    raise ValueError("bits kernel requires packed words")
                rows, cols, shared = scan_block_bits(words, start, stop)
            else:
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
    # Observed outside the ``with`` so the span's duration is final;
    # worker-local observations merge back via the trace fragment.
    recorder.observe("cooccurrence.block_seconds", span.duration)
    return matched_rows, matched_cols, hamming, sub_rows, sub_cols


class _ScanSpec:
    """Per-scan constants shipped with every shared-memory task.

    A few hundred bytes: the segment manifest plus scalar scan
    parameters.  The matrix arrays themselves never appear in task
    tuples — that is the zero-copy contract the shm tests pin.
    """

    __slots__ = (
        "manifest", "shape", "shape_t", "k", "collect_subsets",
        "measure_memory", "has_words",
    )

    def __init__(
        self, manifest, shape, shape_t, k, collect_subsets,
        measure_memory, has_words,
    ):
        self.manifest = manifest
        self.shape = shape
        self.shape_t = shape_t
        self.k = k
        self.collect_subsets = collect_subsets
        self.measure_memory = measure_memory
        self.has_words = has_words

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


#: Worker-side cache of attached segments and the arrays rebuilt over
#: them, keyed by segment name.  Bounded: a warm pool outlives many
#: scans, and each evicted entry's mapping must be closed so the kernel
#: can free the (already unlinked) segment's pages.
_ATTACH_CACHE: OrderedDict[str, tuple[Any, dict[str, Any]]] = OrderedDict()
_ATTACH_CACHE_SIZE = 4


def _attached_arrays(spec: _ScanSpec) -> dict[str, Any]:
    """Rebuild (or fetch cached) views over the task's shared segment."""
    from repro.parallel import attach  # local import keeps fork cheap

    cached = _ATTACH_CACHE.get(spec.manifest.name)
    if cached is not None:
        _ATTACH_CACHE.move_to_end(spec.manifest.name)
        return cached[1]
    segment = attach(spec.manifest)
    views = segment.views
    csr = sp.csr_matrix(
        (views["m_data"], views["m_indices"], views["m_indptr"]),
        shape=spec.shape, copy=False,
    )
    csr_t = sp.csr_matrix(
        (views["t_data"], views["t_indices"], views["t_indptr"]),
        shape=spec.shape_t, copy=False,
    )
    # The parent sorted indices before publishing; recording that here
    # stops scipy from attempting an in-place sort on read-only buffers.
    csr.has_sorted_indices = True
    csr_t.has_sorted_indices = True
    arrays = {
        "csr": csr,
        "csr_t": csr_t,
        "norms": views["norms"],
        "words": views["words"] if spec.has_words else None,
    }
    _ATTACH_CACHE[spec.manifest.name] = (segment, arrays)
    while len(_ATTACH_CACHE) > _ATTACH_CACHE_SIZE:
        _, (old_segment, _) = _ATTACH_CACHE.popitem(last=False)
        old_segment.close()
    return arrays


def _scan_shm_task(task: tuple[_ScanSpec, int, int, str]) -> tuple[
    tuple[npt.NDArray[np.int64], ...], dict[str, Any]
]:
    """Pool task for the shared-memory data plane.

    Self-contained (no pool initializer), so one warm pool can serve
    scans with different parameters back to back.
    """
    spec, start, stop, kernel = task
    arrays = _attached_arrays(spec)
    local = Recorder(measure_memory=spec.measure_memory)
    with use_recorder(local):
        result = _scan_block(
            arrays["csr"],
            arrays["csr_t"],
            arrays["norms"],
            spec.k,
            spec.collect_subsets,
            start,
            stop,
            kernel=kernel,
            words=arrays["words"],
        )
    return result, local.export_fragment()


def _resolve_words(
    words: npt.NDArray[np.uint64] | Callable[[], npt.NDArray[np.uint64]] | None,
    csr: sp.csr_matrix,
) -> npt.NDArray[np.uint64]:
    """Materialise packed words for the bits kernel.

    Accepts an array, a zero-argument callable (the workspace passes its
    memoised ``bits`` artifact lazily so sparse-only plans never pack),
    or ``None`` (pack from the CSR block by block, never densifying the
    whole matrix).
    """
    if words is None:
        return pack_csr_rows(csr)
    if callable(words):
        return words()
    return words


def blocked_scan(
    csr: sp.csr_matrix,
    norms: npt.NDArray[np.int64],
    k: int | None = None,
    collect_subsets: bool = False,
    block_rows: int | None = None,
    n_workers: int | None = 1,
    kernel: str = "auto",
    words: npt.NDArray[np.uint64] | Callable[[], npt.NDArray[np.uint64]] | None = None,
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
    densest single block for every combination of collections.  Each
    block runs the kernel :func:`~repro.core.grouping.kernels.plan_kernels`
    chose for it; the per-kernel block counts are recorded as
    ``cooccurrence.kernel_blocks.<name>`` counters.  Blocks fan out over
    the ambient :class:`~repro.parallel.WorkerPool` through shared memory
    when ``n_workers > 1`` (the serial loop runs when shared memory is
    unavailable), and results plus grafted trace fragments are
    concatenated in block order, so the outcome is identical for every
    ``block_rows`` / worker count / kernel.

    Emits one ``cooccurrence.block`` span per block (under whatever span
    is currently open) and returns the number of blocks on the result;
    callers are expected to record it as the ``cooccurrence.blocks``
    counter on their own span.
    """
    validate_kernel(kernel)
    n_rows = csr.shape[0]
    if n_rows == 0:
        return ScanResult(k, _EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY, 0)
    effective_block = block_rows or n_rows
    bounds = [
        (start, min(start + effective_block, n_rows))
        for start in range(0, n_rows, effective_block)
    ]
    # M and Mᵀ are both kept in CSR so every block product is a
    # CSR @ CSR multiply (scipy would otherwise re-convert the lazy
    # transpose view once per block).
    csr_t = csr.T.tocsr()
    recorder = current_recorder()

    plan = plan_kernels(csr, csr_t, bounds, kernel)
    for name in ("sparse", "bits"):
        count = plan.count(name)
        if count:
            recorder.add(f"cooccurrence.kernel_blocks.{name}", count)
    packed = _resolve_words(words, csr) if "bits" in plan else None

    workers = resolve_workers(n_workers)
    pieces = None
    if workers > 1 and len(bounds) > 1:
        pieces = _scan_parallel(
            csr, csr_t, norms, k, collect_subsets, bounds, plan, packed,
            workers, recorder,
        )
    if pieces is None:
        pieces = [
            _scan_block(
                csr, csr_t, norms, k, collect_subsets, start, stop,
                kernel=block_kernel, words=packed,
            )
            for (start, stop), block_kernel in zip(bounds, plan)
        ]
    merged = [np.concatenate(column) for column in zip(*pieces)]
    return ScanResult(k, *merged, n_blocks=len(bounds))


def _scan_parallel(
    csr, csr_t, norms, k, collect_subsets, bounds, plan, packed,
    workers, recorder,
) -> list[tuple[npt.NDArray[np.int64], ...]] | None:
    """Fan blocks over workers through the shared-memory data plane.

    Publishes the scan's arrays into one shared-memory segment and maps
    manifest-only tasks over the ambient pool (creating an ephemeral one
    when none is installed).  Returns ``None`` when shared memory is
    unavailable — counted as ``shm.unavailable`` and logged — so the
    caller runs the serial block loop instead.
    """
    try:
        handle = _publish_scan(csr, csr_t, norms, packed)
    except SharedMemoryUnavailable as error:
        recorder.add("shm.unavailable", 1)
        logger.warning(
            "shared memory unavailable (%s); scanning %d block(s) "
            "serially in-process", error, len(bounds),
        )
        return None

    recorder.add("shm.segments_published", 1)
    recorder.add("shm.bytes_published", handle.nbytes)
    recorder.observe("shm.publish_bytes", handle.nbytes)
    pool = current_pool()
    ephemeral = pool is None
    if ephemeral:
        pool = WorkerPool(workers)
    else:
        pool.adopt_segment(handle)
    spec = _ScanSpec(
        manifest=handle.manifest,
        shape=csr.shape,
        shape_t=csr_t.shape,
        k=k,
        collect_subsets=collect_subsets,
        measure_memory=recorder.measure_memory,
        has_words=packed is not None,
    )
    tasks = [
        (spec, start, stop, kern)
        for (start, stop), kern in zip(bounds, plan)
    ]
    try:
        pieces = []
        for index, (arrays, payload) in enumerate(
            pool.map(_scan_shm_task, tasks)
        ):
            recorder.graft(payload, fragment=index)
            pieces.append(arrays)
        return pieces
    finally:
        # Unlink eagerly: on Linux existing worker mappings survive the
        # unlink, and the attach caches are bounded, so pages are freed
        # as soon as the last mapping closes.
        if ephemeral:
            handle.close()
            pool.close()
        else:
            pool.release_segment(handle)


def _publish_scan(csr, csr_t, norms, packed):
    """Publish one scan's arrays into a single shared-memory segment."""
    # Sort parent-side once so workers can mark the rebuilt matrices
    # sorted instead of scipy re-sorting read-only buffers in place.
    csr.sort_indices()
    csr_t.sort_indices()
    arrays = {
        "m_data": csr.data,
        "m_indices": csr.indices,
        "m_indptr": csr.indptr,
        "t_data": csr_t.data,
        "t_indices": csr_t.indices,
        "t_indptr": csr_t.indptr,
        "norms": norms,
    }
    if packed is not None:
        arrays["words"] = packed
    return publish(arrays)


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
        Worker processes for the blocked product (``None`` = all cores).
        With one worker, or a single block, everything runs in-process.
        Output is identical for every worker count.
    kernel:
        Per-block kernel choice: ``sparse`` (CSR matmul), ``bits``
        (packed AND + popcount), or ``auto`` (cost-model dispatch, the
        default).  Output is identical for every kernel.

    These three shape only a standalone :meth:`find_groups` call; over a
    workspace view (:meth:`find_groups_in`) the view's scan shape is
    used.
    """

    def __init__(
        self,
        block_rows: int | None = None,
        n_workers: int | None = 1,
        kernel: str = "auto",
    ) -> None:
        if block_rows is not None and block_rows < 1:
            raise ConfigurationError(
                f"block_rows must be >= 1, got {block_rows}"
            )
        self._block_rows = block_rows
        self._n_workers = resolve_workers(n_workers)
        self._kernel = validate_kernel(kernel)

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
                kernel=self._kernel,
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

    @classmethod
    def _groups(
        cls, n_rows: int, rows: np.ndarray, cols: np.ndarray,
        norms: np.ndarray, k: int,
    ) -> list[list[int]]:
        """Groups (size >= 2) joined by the matched pairs and by the
        zero-overlap anchor pass (:meth:`_union_non_overlapping`)."""
        components = DisjointSet(n_rows)
        for i, j in zip(rows.tolist(), cols.tolist()):
            components.union(i, j)
        cls._union_non_overlapping(components, norms, k)
        return components.groups(min_size=2)

    @staticmethod
    def _union_non_overlapping(
        components: DisjointSet, norms: np.ndarray, k: int
    ) -> None:
        """Handle pairs absent from the co-occurrence entries (zero overlap).

        Two non-overlapping roles are within distance ``k`` iff
        ``|R^i| + |R^j| <= k`` (for ``k = 0``: both empty).  Every such
        pair involves only roles with ``|R| <= k``; and if a pair
        qualifies, both members also qualify against the smallest-norm
        role, so chaining everything through that anchor yields exactly
        the right connected components without enumerating all pairs.
        """
        small = np.flatnonzero(norms <= k)
        if len(small) < 2:
            return
        anchor = int(small[np.argmin(norms[small])])
        anchor_norm = int(norms[anchor])
        for index in small.tolist():
            if index == anchor:
                continue
            if anchor_norm + int(norms[index]) <= k:
                components.union(anchor, index)
