"""A8 — ablation: blocked co-occurrence kernel + parallel execution.

Not a paper experiment.  Quantifies the two scalability levers this
repository adds on top of the paper's custom algorithm:

* **Blocking** — the monolithic product materialises every stored entry
  of ``C = M @ Mᵀ`` at once; the row-blocked kernel computes
  ``M[block] @ Mᵀ`` one block at a time and keeps only the matched
  pairs, bounding peak memory by the densest single block.  Measured
  with ``tracemalloc`` (numpy/scipy allocations are traced).
* **Parallelism** — blocks fan out over a process pool (the engine's
  only parallel step; detectors run in-process).  Wall-clock speedup
  requires real cores; the serial-vs-parallel comparisons therefore
  skip on single-core machines and assert a speedup wherever
  ``os.cpu_count() >= 2``.

Both levers are pure optimisations: every configuration must produce
identical groups/reports, which each test re-asserts.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from benchmarks.conftest import scaled
from repro.core.engine import AnalysisConfig, AnalysisEngine
from repro.core.grouping import make_group_finder
from repro.core.state import RbacState
from repro.datagen import MatrixSpec, generate_matrix

#: Dense-overlap workload: enough shared columns that the full product
#: carries millions of stored entries — the blocking worst/best case.
MEMORY_SPEC = MatrixSpec(
    n_roles=scaled(6000), n_cols=scaled(2000), row_density=0.15, seed=0
)

#: Larger workload for the serial-vs-parallel wall-clock comparison
#: (sized to dominate process-pool startup on a multi-core runner).
SPEEDUP_SPEC = MatrixSpec(
    n_roles=5000, n_cols=500, row_density=0.12, seed=1
)

MULTI_CORE = (os.cpu_count() or 1) >= 2


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _wall_clock(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Blocked vs monolithic: peak memory
# ----------------------------------------------------------------------
def test_blocked_kernel_bounds_peak_memory():
    generated = generate_matrix(MEMORY_SPEC)
    monolithic = make_group_finder("cooccurrence")
    blocked = make_group_finder("cooccurrence", block_rows=32)

    groups_monolithic = monolithic.find_groups(generated.matrix, 1)
    groups_blocked = blocked.find_groups(generated.matrix, 1)
    assert groups_blocked == groups_monolithic  # identical output first

    peak_monolithic = _peak_bytes(
        lambda: monolithic.find_groups(generated.matrix, 1)
    )
    peak_blocked = _peak_bytes(
        lambda: blocked.find_groups(generated.matrix, 1)
    )
    # The whole-product allocation dominates the monolithic peak; a
    # 32-row block should cut it by far more than this 40% bar.
    assert peak_blocked < 0.6 * peak_monolithic, (
        f"blocked peak {peak_blocked} not below 60% of "
        f"monolithic peak {peak_monolithic}"
    )


def _shadowed_state() -> RbacState:
    """Dense user overlap (the big product) + a small permission pool,
    so the shadowed detector's subset scan has real work on both axes."""
    ruam = generate_matrix(MEMORY_SPEC).matrix
    n_roles, n_users = ruam.shape
    n_permissions = 50
    return RbacState.build(
        users=[f"u{j}" for j in range(n_users)],
        roles=[f"r{i}" for i in range(n_roles)],
        permissions=[f"p{j}" for j in range(n_permissions)],
        user_assignments=[
            (f"r{i}", f"u{j}") for i, j in zip(*ruam.nonzero())
        ],
        permission_assignments=[
            (f"r{i}", f"p{i % n_permissions}") for i in range(n_roles)
        ],
    )


def test_workspace_blocked_scan_bounds_shadowed_peak_memory():
    """Shadowed detection inherits the blocking memory bound.

    The detector reads subset pairs from the workspace's blocked scan
    instead of materialising the full ``M @ Mᵀ`` product, so setting
    ``block_rows`` bounds its peak by the densest single block — same
    reports, fraction of the memory.
    """
    from repro.core.taxonomy import InefficiencyType

    state = _shadowed_state()
    shadowed_only = (InefficiencyType.SHADOWED_ROLE,)
    monolithic = AnalysisEngine(
        AnalysisConfig(enabled_types=shadowed_only)
    )
    blocked = AnalysisEngine(
        AnalysisConfig(enabled_types=shadowed_only, block_rows=32)
    )

    report_monolithic = monolithic.analyze(state)
    report_blocked = blocked.analyze(state)
    assert report_blocked.counts() == report_monolithic.counts()
    assert [f.entity_ids for f in report_blocked.findings] == [
        f.entity_ids for f in report_monolithic.findings
    ]

    peak_monolithic = _peak_bytes(lambda: monolithic.analyze(state))
    peak_blocked = _peak_bytes(lambda: blocked.analyze(state))
    assert peak_blocked < 0.6 * peak_monolithic, (
        f"blocked shadowed peak {peak_blocked} not below 60% of "
        f"monolithic peak {peak_monolithic}"
    )


@pytest.mark.benchmark(group="ablation-block-rows")
@pytest.mark.parametrize("block_rows", [None, 512, 64, 8])
def test_block_rows_wall_clock(benchmark, block_rows):
    """Throughput cost of blocking (None = monolithic baseline)."""
    generated = generate_matrix(MEMORY_SPEC)
    finder = make_group_finder("cooccurrence", block_rows=block_rows)
    groups = benchmark.pedantic(
        finder.find_groups, args=(generated.matrix, 1), rounds=3, iterations=1
    )
    assert groups == make_group_finder("cooccurrence").find_groups(
        generated.matrix, 1
    )
    benchmark.extra_info["block_rows"] = block_rows or "monolithic"


# ----------------------------------------------------------------------
# Serial vs parallel: wall clock
# ----------------------------------------------------------------------
@pytest.mark.skipif(not MULTI_CORE, reason="needs >= 2 cores for speedup")
def test_parallel_blocks_beat_serial_on_multicore():
    generated = generate_matrix(SPEEDUP_SPEC)
    serial = make_group_finder("cooccurrence", block_rows=256)
    parallel = make_group_finder(
        "cooccurrence", block_rows=256, n_workers=None
    )

    assert parallel.find_groups(generated.matrix, 1) == serial.find_groups(
        generated.matrix, 1
    )
    serial_seconds = min(
        _wall_clock(lambda: serial.find_groups(generated.matrix, 1))
        for _ in range(2)
    )
    parallel_seconds = min(
        _wall_clock(lambda: parallel.find_groups(generated.matrix, 1))
        for _ in range(2)
    )
    assert parallel_seconds < serial_seconds, (
        f"parallel {parallel_seconds:.3f}s not faster than "
        f"serial {serial_seconds:.3f}s on {os.cpu_count()} cores"
    )


def _dual_axis_state() -> RbacState:
    """A state whose RUAM *and* RPAM both carry heavy similarity work,
    so both axes' scans have comparable weight."""
    ruam = generate_matrix(
        MatrixSpec(n_roles=2500, n_cols=400, row_density=0.12, seed=2)
    ).matrix
    rpam = generate_matrix(
        MatrixSpec(n_roles=2500, n_cols=400, row_density=0.12, seed=3)
    ).matrix
    n_roles, n_users = ruam.shape
    n_permissions = rpam.shape[1]
    return RbacState.build(
        users=[f"u{j}" for j in range(n_users)],
        roles=[f"r{i}" for i in range(n_roles)],
        permissions=[f"p{j}" for j in range(n_permissions)],
        user_assignments=[
            (f"r{i}", f"u{j}")
            for i, j in zip(*ruam.nonzero())
        ],
        permission_assignments=[
            (f"r{i}", f"p{j}")
            for i, j in zip(*rpam.nonzero())
        ],
    )


def test_parallel_engine_reproduces_serial_report_everywhere():
    """Runs on every machine (single-core included): the parallel engine
    must reproduce the serial report bit for bit.  ``block_rows`` splits
    each axis into several blocks, so the scan really fans out."""
    state = _dual_axis_state()
    serial = AnalysisEngine(AnalysisConfig(block_rows=256)).analyze(state)
    parallel = AnalysisEngine(
        AnalysisConfig(n_workers=2, block_rows=256)
    ).analyze(state)
    assert parallel.counts() == serial.counts()
    assert [f.entity_ids for f in parallel.findings] == [
        f.entity_ids for f in serial.findings
    ]


# ----------------------------------------------------------------------
# Shared-memory vs pickled-initargs data plane: setup cost
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not MULTI_CORE, reason="data-plane setup cost needs a real fan-out"
)
def test_shm_data_plane_setup_beats_pickling():
    """Shipping the scan arrays through one shared-memory segment must
    beat re-pickling them into every worker.

    Isolates the setup stage the two planes differ on — array transfer —
    from the (identical) block compute: the pickled plane serialises and
    deserialises the full array tuple once per worker, the shm plane
    pays one copy into the segment plus per-worker attach (no copy).
    """
    import pickle

    import numpy as np
    import scipy.sparse as sp

    from repro.parallel import attach, publish

    # Sized so array volume (tens of MB), not per-segment syscall
    # overhead, dominates the comparison — the regime the shm plane is
    # built for.
    rng = np.random.default_rng(9)
    csr = sp.csr_matrix(
        (rng.random((3000, 4000)) < 0.15).astype(np.int64)
    )
    csr_t = csr.T.tocsr()
    norms = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
    workers = max(2, os.cpu_count() or 2)
    initargs = (csr, csr_t, norms, 1, False, False, None)
    arrays = {
        "m_data": csr.data, "m_indices": csr.indices,
        "m_indptr": csr.indptr, "t_data": csr_t.data,
        "t_indices": csr_t.indices, "t_indptr": csr_t.indptr,
        "norms": norms,
    }

    def pickled_setup():
        for _ in range(workers):
            pickle.loads(pickle.dumps(initargs))

    def shm_setup():
        with publish(arrays) as handle:
            for _ in range(workers):
                attach(pickle.loads(pickle.dumps(handle.manifest))).close()

    pickled_seconds = min(_wall_clock(pickled_setup) for _ in range(3))
    shm_seconds = min(_wall_clock(shm_setup) for _ in range(3))
    assert shm_seconds < pickled_seconds, (
        f"shm setup {shm_seconds:.4f}s not below pickled setup "
        f"{pickled_seconds:.4f}s for {workers} workers"
    )


@pytest.mark.skipif(not MULTI_CORE, reason="needs >= 2 cores for speedup")
def test_warm_pool_scan_beats_cold_pools():
    """Reusing one WorkerPool across scans must beat a spawn per scan."""
    import numpy as np

    from repro.core.grouping.cooccurrence import blocked_scan
    from repro.parallel import WorkerPool, use_pool

    generated = generate_matrix(SPEEDUP_SPEC)
    csr = generated.matrix.tocsr()
    norms = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
    scans_per_round = 3

    def cold_pools():
        for _ in range(scans_per_round):
            blocked_scan(
                csr, norms, k=1, block_rows=256, n_workers=2,
                kernel="sparse",
            )

    def warm_pool():
        with WorkerPool(2) as pool, use_pool(pool):
            for _ in range(scans_per_round):
                blocked_scan(
                    csr, norms, k=1, block_rows=256, n_workers=2,
                    kernel="sparse",
                )

    cold_seconds = min(_wall_clock(cold_pools) for _ in range(2))
    warm_seconds = min(_wall_clock(warm_pool) for _ in range(2))
    assert warm_seconds < cold_seconds, (
        f"warm pool {warm_seconds:.3f}s not below cold pools "
        f"{cold_seconds:.3f}s"
    )
