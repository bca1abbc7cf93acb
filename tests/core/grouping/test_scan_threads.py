"""Worker-count handling and the threaded block fan-out of the scan.

:func:`~repro.core.grouping.cooccurrence.blocked_scan` runs its row
blocks on ``min(n_workers, usable CPUs, blocks)`` threads of a pool it
creates for that scan, and on the calling thread when that is one.
Either way the blocks' pairs are concatenated, and their trace
fragments grafted, in block order, so the result is exactly the serial
loop's.  ``n_workers`` is validated and resolved in one place, shared
with :class:`~repro.core.engine.AnalysisConfig`.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.grouping.cooccurrence as scan_module
from repro.core.grouping.cooccurrence import (
    blocked_scan,
    resolve_workers,
    usable_cpus,
    validate_workers,
)
from repro.exceptions import ConfigurationError
from repro.obs import Recorder, use_recorder


def _random_csr(seed: int = 0, shape=(40, 50), density=0.3):
    rng = np.random.default_rng(seed)
    return sp.csr_matrix((rng.random(shape) < density).astype(np.int64))


def _scan(csr, **kwargs):
    norms = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
    return blocked_scan(csr, norms, k=2, collect_subsets=True, **kwargs)


def _arrays(scan):
    return [
        getattr(scan, column).tolist()
        for column in ("rows", "cols", "hamming", "sub_rows", "sub_cols")
    ]


@pytest.fixture
def block_threads(monkeypatch):
    """Names of the threads each block ran on, in the order they ran."""
    real_scan = scan_module.scan_block_sparse
    seen: list[str] = []

    def recording_scan(*args):
        seen.append(threading.current_thread().name)
        return real_scan(*args)

    monkeypatch.setattr(scan_module, "scan_block_sparse", recording_scan)
    return seen


class TestResolveWorkers:
    def test_default_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3

    def test_none_means_all_cores(self, monkeypatch):
        assert resolve_workers(None) == usable_cpus()
        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 5)
        assert resolve_workers(None) == 5

    def test_zero_and_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)


class TestUsableCpus:
    def test_follows_the_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        assert usable_cpus() == len(os.sched_getaffinity(0))

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6


class TestValidateWorkers:
    def test_none_passes_through(self):
        assert validate_workers(None) is None

    def test_valid_counts_normalised_to_int(self):
        assert validate_workers(1) == 1
        assert validate_workers(8) == 8

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ConfigurationError, match="n_workers must be >= 1"):
            validate_workers(bad)

    def test_message_identical_to_engine_config(self):
        """AnalysisConfig and the scan share one validation helper,
        so a bad worker count reads the same wherever it is caught."""
        from repro.core.engine import AnalysisConfig

        with pytest.raises(ConfigurationError) as from_helper:
            validate_workers(0)
        with pytest.raises(ConfigurationError) as from_config:
            AnalysisConfig(n_workers=0)
        assert str(from_helper.value) == str(from_config.value)

    def test_resolve_workers_routes_through_validation(self):
        with pytest.raises(ConfigurationError, match="n_workers must be >= 1"):
            resolve_workers(-2)


class TestCallingThread:
    """One thread's worth of work never builds a pool."""

    def test_single_worker_scans_in_block_order(
        self, spy_threads, block_threads
    ):
        scan = _scan(_random_csr(), block_rows=7, n_workers=1)
        assert scan.n_blocks == 6
        assert spy_threads == []
        assert block_threads == [threading.current_thread().name] * 6

    def test_single_block_stays_on_calling_thread(
        self, spy_threads, block_threads
    ):
        _scan(_random_csr(), n_workers=8)
        assert spy_threads == []
        assert block_threads == [threading.current_thread().name]

    def test_empty_matrix_builds_no_pool(self, spy_threads):
        scan = _scan(sp.csr_matrix((0, 5), dtype=np.int64), n_workers=4)
        assert scan.n_blocks == 0
        assert spy_threads == []


class TestThreadedPath:
    def test_blocks_run_on_scan_threads(
        self, spy_threads, block_threads, monkeypatch
    ):
        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 2)
        _scan(_random_csr(), block_rows=7, n_workers=2)
        assert spy_threads == [2]
        assert len(block_threads) == 6
        assert all(name.startswith("repro-scan") for name in block_threads)

    def test_matches_serial_exactly(self, monkeypatch):
        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 3)
        csr = _random_csr(seed=3, shape=(90, 60), density=0.2)
        serial = _scan(csr, block_rows=8, n_workers=1)
        threaded = _scan(csr, block_rows=8, n_workers=3)
        assert _arrays(threaded) == _arrays(serial)
        assert threaded.n_blocks == serial.n_blocks == 12

    def test_fragments_grafted_in_block_order(self, monkeypatch):
        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 2)
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("scan"):
            _scan(_random_csr(), block_rows=7, n_workers=2)
        blocks = recorder.traces[0].children
        assert [b.attributes["fragment"] for b in blocks] == list(range(6))
        assert [b.attributes["start"] for b in blocks] == [
            0, 7, 14, 21, 28, 35
        ]
        assert {b.attributes["threads"] for b in blocks} == {2}
        histogram = recorder.registry.histogram_summaries()
        assert histogram["cooccurrence.block_seconds"]["count"] == 6

    def test_threads_capped_at_usable_cpus(self, spy_threads, monkeypatch):
        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 3)
        _scan(_random_csr(), block_rows=7, n_workers=10_000)
        _scan(_random_csr(), block_rows=20, n_workers=10_000)
        # Capped by usable CPUs, then by the block count (two blocks).
        assert spy_threads == [3, 2]
