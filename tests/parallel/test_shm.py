"""Tests for the shared-memory data plane and the reusable worker pool.

Covers the zero-copy contract end to end: publish/attach round-trips,
read-only views, unlink-on-close with no ``/dev/shm`` leak, graceful
degradation (:class:`SharedMemoryUnavailable` → serial block loop),
:class:`WorkerPool` reuse/fallback/segment-registry semantics, the
pid-guarded ambient pool, and the acceptance criterion that per-task
scan payloads no longer carry the matrix arrays.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.parallel import (
    SegmentHandle,
    SharedMemoryUnavailable,
    WorkerPool,
    attach,
    current_pool,
    publish,
    use_pool,
)
from repro.parallel import shm as shm_module


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    time.sleep(0.1)
    return x * x


def _fail_in_worker(parent_pid: int) -> int:
    """Raise in a worker process after a while; succeed in-process."""
    if os.getpid() != parent_pid:
        time.sleep(0.3)
        raise OSError("worker-side failure")
    return parent_pid


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        probe = shm_module._attach_untracked(name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


class TestPublishAttach:
    def test_round_trip_multiple_dtypes(self):
        rng = np.random.default_rng(0)
        arrays = {
            "floats": rng.random((7, 5)),
            "ints": rng.integers(0, 100, size=40, dtype=np.int64),
            "words": rng.integers(0, 2**63, size=(3, 4), dtype=np.uint64),
            "empty": np.empty(0, dtype=np.int32),
        }
        with publish(arrays) as handle:
            attached = attach(handle.manifest)
            try:
                for key, original in arrays.items():
                    view = attached.views[key]
                    assert view.dtype == original.dtype
                    assert view.shape == original.shape
                    assert np.array_equal(view, original)
            finally:
                attached.close()

    def test_views_are_read_only(self):
        with publish({"a": np.arange(4)}) as handle:
            attached = attach(handle.manifest)
            with pytest.raises(ValueError):
                attached.views["a"][0] = 9
            attached.close()

    def test_manifest_is_tiny_and_picklable(self):
        big = np.zeros(1_000_000, dtype=np.int64)
        with publish({"big": big}) as handle:
            payload = pickle.dumps(handle.manifest)
            assert len(payload) < 1024
            restored = pickle.loads(payload)
            assert restored.arrays["big"].shape == (1_000_000,)

    def test_close_unlinks_segment(self):
        handle = publish({"a": np.arange(8)})
        name = handle.name
        assert _segment_exists(name)
        handle.close()
        assert not _segment_exists(name)
        handle.close()  # idempotent

    def test_alignment(self):
        # An odd-sized array must not misalign its successor.
        arrays = {
            "odd": np.zeros(3, dtype=np.uint8),
            "wide": np.arange(5, dtype=np.float64),
        }
        with publish(arrays) as handle:
            assert handle.manifest.arrays["wide"].offset % 8 == 0
            attached = attach(handle.manifest)
            assert np.array_equal(attached.views["wide"], arrays["wide"])
            attached.close()

    def test_publish_failure_raises_shared_memory_unavailable(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no /dev/shm here")

        monkeypatch.setattr(
            shm_module.shared_memory, "SharedMemory", refuse
        )
        with pytest.raises(SharedMemoryUnavailable):
            publish({"a": np.arange(3)})

    def test_attach_survives_unlink(self):
        # Linux semantics the eager-unlink strategy relies on: a mapping
        # created before the unlink keeps working afterwards.
        handle = publish({"a": np.arange(6)})
        attached = attach(handle.manifest)
        handle.close()
        assert np.array_equal(attached.views["a"], np.arange(6))
        attached.close()


class TestWorkerPool:
    def test_serial_for_single_worker(self):
        with WorkerPool(1) as pool:
            assert pool.map(abs, [-1, -2]) == [1, 2]
            assert not pool.warm

    def test_serial_for_single_task(self):
        with WorkerPool(4) as pool:
            assert pool.map(abs, [-3]) == [3]
            assert not pool.warm

    def test_map_after_close_raises(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(abs, [-1, -2])

    def test_fallback_warns_and_counts(self, caplog):
        from repro.obs import Recorder, use_recorder

        recorder = Recorder()
        with WorkerPool(2) as pool, use_recorder(recorder):
            with caplog.at_level(logging.WARNING, logger="repro.parallel.pool"):
                # A lambda cannot be pickled into worker processes.
                results = pool.map(lambda x: x * 2, [1, 2, 3])
        assert results == [2, 4, 6]
        assert any(
            "running 3 task(s) serially" in record.message
            for record in caplog.records
        )
        assert recorder.counter_totals().get("parallel.fallbacks") == 1

    def test_processes_capped_at_core_count(
        self, monkeypatch, spy_executors
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        built = spy_executors()
        with WorkerPool(10_000) as pool:
            assert pool.n_workers == 10_000
            assert pool.processes == 2
            assert pool.map(_square, range(5)) == [0, 1, 4, 9, 16]
        assert built == [2]

    def test_adopt_and_release_segment(self):
        pool = WorkerPool(2)
        handle = pool.adopt_segment(publish({"a": np.arange(4)}))
        name = handle.name
        assert _segment_exists(name)
        pool.release_segment(handle)
        assert not _segment_exists(name)
        pool.release_segment(handle)  # idempotent
        pool.close()

    def test_close_unlinks_adopted_segments(self):
        # The service-drain guarantee: whatever the pool still owns when
        # it closes is unlinked with it.
        pool = WorkerPool(2)
        handle = pool.adopt_segment(publish({"a": np.arange(4)}))
        pool.close()
        assert not _segment_exists(handle.name)


class TestConcurrentMaps:
    """One warm pool shared by concurrent analyses (the service case)."""

    def test_concurrent_maps_build_one_executor(self, spy_executors):
        # A slow constructor widens the window in which two unguarded
        # threads would each build (and one orphan) an executor.
        built = spy_executors(delay=0.1)
        barrier = threading.Barrier(4)
        results: dict[int, list[int]] = {}

        def run(index: int) -> None:
            barrier.wait()
            results[index] = pool.map(_square, range(index, index + 6))

        with WorkerPool(2) as pool:
            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(built) == 1
        assert results == {
            i: [x * x for x in range(i, i + 6)] for i in range(4)
        }

    def test_fallback_does_not_cancel_another_map(self):
        # Thread A's tasks occupy both workers and then fail, so A falls
        # back and discards the executor while B's tasks are still
        # queued on it.  B must still get its results, not a
        # CancelledError.
        parent = os.getpid()
        with WorkerPool(2) as pool:
            failed: list[list[int]] = []
            first = threading.Thread(
                target=lambda: failed.append(
                    pool.map(_fail_in_worker, [parent, parent])
                )
            )
            first.start()
            time.sleep(0.1)
            assert pool.map(_slow_square, range(8)) == [
                x * x for x in range(8)
            ]
            first.join()
        assert failed == [[parent, parent]]


class TestAmbientPool:
    def test_default_is_none(self):
        assert current_pool() is None

    def test_use_pool_installs_and_restores(self):
        pool = WorkerPool(2)
        with use_pool(pool):
            assert current_pool() is pool
        assert current_pool() is None
        pool.close()

    def test_closed_pool_is_invisible(self):
        pool = WorkerPool(2)
        with use_pool(pool):
            pool.close()
            assert current_pool() is None

    def test_nested_pools(self):
        outer, inner = WorkerPool(2), WorkerPool(2)
        with use_pool(outer):
            with use_pool(inner):
                assert current_pool() is inner
            assert current_pool() is outer
        outer.close()
        inner.close()

    def test_foreign_pid_pool_is_invisible(self):
        pool = WorkerPool(2)
        pool._pid = pool._pid + 1  # simulate a forked child's view
        with use_pool(pool):
            assert current_pool() is None
        pool._pid -= 1
        pool.close()


class TestZeroCopyContract:
    def test_scan_task_payload_excludes_matrices(self):
        """Per-task pickles carry a manifest, never the matrix arrays."""
        from repro.core.grouping.cooccurrence import _ScanSpec

        rng = np.random.default_rng(1)
        csr = sp.csr_matrix((rng.random((500, 400)) < 0.3).astype(np.int64))
        csr_t = csr.T.tocsr()
        norms = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
        with publish(
            {
                "m_data": csr.data, "m_indices": csr.indices,
                "m_indptr": csr.indptr, "t_data": csr_t.data,
                "t_indices": csr_t.indices, "t_indptr": csr_t.indptr,
                "norms": norms,
            }
        ) as handle:
            spec = _ScanSpec(
                manifest=handle.manifest, shape=csr.shape,
                shape_t=csr_t.shape, k=1, collect_subsets=True,
                measure_memory=False, has_words=False,
            )
            task = (spec, 0, 100, "sparse")
            payload = pickle.dumps(task)
        # ~60k stored entries => hundreds of KB pickled the old way; the
        # manifest-only task stays well under a single KB.
        assert len(payload) < 1024

    def test_parallel_scan_leaves_no_segment_behind(self):
        import os

        from repro.core.grouping.cooccurrence import blocked_scan

        def shm_names():
            try:
                return set(os.listdir("/dev/shm"))
            except FileNotFoundError:  # pragma: no cover - non-Linux
                return set()

        rng = np.random.default_rng(2)
        csr = sp.csr_matrix((rng.random((40, 30)) < 0.3).astype(np.int64))
        norms = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
        before = shm_names()
        scan = blocked_scan(
            csr, norms, k=1, block_rows=7, n_workers=2, kernel="sparse"
        )
        assert scan.n_blocks == 6
        assert shm_names() <= before

    def test_warm_pool_scan_releases_segment(self):
        from repro.core.grouping.cooccurrence import blocked_scan

        rng = np.random.default_rng(3)
        csr = sp.csr_matrix((rng.random((40, 30)) < 0.3).astype(np.int64))
        norms = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
        pool = WorkerPool(2)
        with use_pool(pool):
            serial = blocked_scan(csr, norms, k=1, block_rows=7, kernel="sparse")
            warm = blocked_scan(
                csr, norms, k=1, block_rows=7, n_workers=2, kernel="sparse"
            )
        # Eager release: nothing left in the registry for close() to do.
        assert pool._segments == []
        pool.close()
        assert sorted(zip(warm.rows.tolist(), warm.cols.tolist())) == sorted(
            zip(serial.rows.tolist(), serial.cols.tolist())
        )


class TestSharedMemoryUnavailable:
    """Without shared memory the scan runs its serial block loop.

    There is no second data plane: no process pool is constructed, the
    result equals the serial scan exactly, and the degradation is
    counted (``shm.unavailable``) and logged.
    """

    def test_scan_falls_back_to_serial_loop(
        self, monkeypatch, caplog, spy_executors
    ):
        from repro.core.grouping import cooccurrence
        from repro.obs import Recorder, use_recorder

        def refuse(arrays):
            raise SharedMemoryUnavailable("no /dev/shm here")

        pools_built = spy_executors()
        monkeypatch.setattr(cooccurrence, "publish", refuse)

        rng = np.random.default_rng(4)
        csr = sp.csr_matrix((rng.random((40, 30)) < 0.3).astype(np.int64))
        norms = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
        serial = cooccurrence.blocked_scan(
            csr, norms, k=1, collect_subsets=True, block_rows=7,
            kernel="sparse",
        )
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("scan"):
            with caplog.at_level(
                logging.WARNING, logger="repro.core.grouping.cooccurrence"
            ):
                degraded = cooccurrence.blocked_scan(
                    csr, norms, k=1, collect_subsets=True, block_rows=7,
                    n_workers=2, kernel="sparse",
                )

        assert pools_built == []
        assert degraded.k == serial.k
        assert degraded.n_blocks == serial.n_blocks == 6
        for name in ("rows", "cols", "hamming", "sub_rows", "sub_cols"):
            assert np.array_equal(
                getattr(degraded, name), getattr(serial, name)
            ), name
        totals = recorder.counter_totals()
        assert totals["shm.unavailable"] == 1
        assert "shm.segments_published" not in totals
        assert any(
            "shared memory unavailable" in record.message
            for record in caplog.records
        )
