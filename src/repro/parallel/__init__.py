"""Parallel execution substrate of the blocked co-occurrence scan.

One reusable process pool (:mod:`repro.parallel.pool`) and one data
plane (:mod:`repro.parallel.shm`): the scan publishes its arrays into a
shared-memory segment once and maps manifest-only tasks over the pool.
See :mod:`repro.parallel.pool` for the determinism contract.
"""

from repro.parallel.pool import (
    WorkerPool,
    current_pool,
    resolve_workers,
    use_pool,
    validate_workers,
)
from repro.parallel.shm import (
    AttachedSegment,
    SegmentHandle,
    SegmentManifest,
    SharedMemoryUnavailable,
    attach,
    publish,
)

__all__ = [
    "AttachedSegment",
    "SegmentHandle",
    "SegmentManifest",
    "SharedMemoryUnavailable",
    "WorkerPool",
    "attach",
    "current_pool",
    "publish",
    "resolve_workers",
    "use_pool",
    "validate_workers",
]
