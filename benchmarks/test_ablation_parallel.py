"""A8 — ablation: blocked co-occurrence kernel + parallel execution.

Not a paper experiment.  Quantifies the two scalability levers this
repository adds on top of the paper's custom algorithm:

* **Blocking** — the monolithic product materialises every stored entry
  of ``C = M @ Mᵀ`` at once; the row-blocked kernel computes
  ``M[block] @ Mᵀ`` one block at a time and keeps only the matched
  pairs, bounding peak memory by the densest single block.  Measured
  with ``tracemalloc`` (numpy/scipy allocations are traced).
* **Parallelism** — blocks fan out over threads in the calling process
  (the engine's only parallel step; scipy's CSR matmul releases the
  GIL).  Wall-clock speedup requires real cores; the serial-vs-parallel
  comparison therefore skips on single-core machines and asserts a
  speedup wherever the process may use ``>= 2`` CPUs.

Both levers are pure optimisations: every configuration must produce
identical groups/reports, which each test re-asserts.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from benchmarks.conftest import scaled
from repro.core.engine import AnalysisConfig, AnalysisEngine
from repro.core.grouping import make_group_finder
from repro.core.grouping.cooccurrence import usable_cpus
from repro.core.state import RbacState
from repro.datagen import MatrixSpec, generate_matrix

#: Dense-overlap workload: enough shared columns that the full product
#: carries millions of stored entries — the blocking worst/best case.
MEMORY_SPEC = MatrixSpec(
    n_roles=scaled(6000), n_cols=scaled(2000), row_density=0.15, seed=0
)

#: Larger workload for the serial-vs-parallel wall-clock comparison
#: (sized to dominate thread-pool startup on a multi-core runner).
SPEEDUP_SPEC = MatrixSpec(
    n_roles=5000, n_cols=500, row_density=0.12, seed=1
)

MULTI_CORE = usable_cpus() >= 2


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
        f"serial {serial_seconds:.3f}s on {usable_cpus()} CPUs"
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
    each axis into several blocks, so wherever the process may use two
    CPUs the scan really runs them on two threads."""
    state = _dual_axis_state()
    serial = AnalysisEngine(AnalysisConfig(block_rows=256)).analyze(state)
    parallel = AnalysisEngine(
        AnalysisConfig(n_workers=2, block_rows=256)
    ).analyze(state)
    assert parallel.counts() == serial.counts()
    assert [f.entity_ids for f in parallel.findings] == [
        f.entity_ids for f in serial.findings
    ]
