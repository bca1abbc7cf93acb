"""Kernel parity: the blocked sparse scan equals a dense reference.

The scan's kernel (:func:`repro.core.grouping.cooccurrence.scan_block_sparse`
plus :func:`~repro.core.grouping.cooccurrence.reduce_block`) must emit
exactly the pairs a dense ``M @ Mᵀ`` reference finds: matched pairs
with their Hamming distances and directed subset pairs, over stored
(overlapping) entries only.  These tests pin that on random matrices
across the density spectrum, on the edge cases (empty rows, ``k=0``,
subset-only scans, empty matrices), serially and on two threads, and
check that configs written while a ``kernel`` option existed still load.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.engine import AnalysisConfig
from repro.core.grouping.cooccurrence import blocked_scan
from repro.exceptions import ConfigurationError

DENSITIES = [0.02, 0.15, 0.5, 0.9]


def _random_csr(seed: int, shape=(60, 90), density=0.3, empty_rows=()):
    rng = np.random.default_rng(seed)
    dense = rng.random(shape) < density
    for row in empty_rows:
        dense[row, :] = False
    return sp.csr_matrix(dense.astype(np.int64))


def _norms(csr):
    return np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)


def _pairs(scan):
    """Order-insensitive canonical form of a scan's outputs."""
    matched = sorted(
        zip(scan.rows.tolist(), scan.cols.tolist(), scan.hamming.tolist())
    )
    subsets = sorted(zip(scan.sub_rows.tolist(), scan.sub_cols.tolist()))
    return matched, subsets


def _reference(csr, k, collect_subsets=True):
    """The same outputs from a dense ``M @ Mᵀ`` (overlapping pairs only)."""
    dense = csr.toarray()
    shared = dense @ dense.T
    norms = dense.sum(axis=1)
    n = len(dense)
    matched = []
    if k is not None:
        matched = sorted(
            (i, j, int(norms[i] + norms[j] - 2 * shared[i, j]))
            for i in range(n)
            for j in range(i + 1, n)
            if shared[i, j] > 0
            and norms[i] + norms[j] - 2 * shared[i, j] <= k
        )
    subsets = []
    if collect_subsets:
        subsets = sorted(
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and shared[i, j] > 0 and shared[i, j] == norms[i]
        )
    return matched, subsets


class TestScanParity:
    @pytest.mark.parametrize("density", DENSITIES)
    @pytest.mark.parametrize("k", [0, 2])
    def test_kernels_agree_across_densities(self, density, k):
        csr = _random_csr(seed=int(density * 100) + k, density=density)
        scan = blocked_scan(
            csr, _norms(csr), k=k, collect_subsets=True, block_rows=17
        )
        assert _pairs(scan) == _reference(csr, k)

    def test_empty_rows(self):
        csr = _random_csr(seed=7, density=0.4, empty_rows=(0, 13, 59))
        scan = blocked_scan(
            csr, _norms(csr), k=1, collect_subsets=True, block_rows=8
        )
        assert _pairs(scan) == _reference(csr, 1)

    def test_subset_only_scan(self):
        # k=None: no matched-pair collection, only the directed subset
        # pairs of the shadowed-role criterion.
        csr = _random_csr(seed=8, density=0.6)
        scan = blocked_scan(csr, _norms(csr), k=None, collect_subsets=True)
        assert len(scan.rows) == 0
        assert _pairs(scan) == _reference(csr, None)

    def test_parallel_matches_serial(self):
        csr = _random_csr(seed=9, density=0.5)
        norms = _norms(csr)
        serial = blocked_scan(
            csr, norms, k=2, collect_subsets=True, block_rows=11,
            n_workers=1,
        )
        parallel = blocked_scan(
            csr, norms, k=2, collect_subsets=True, block_rows=11,
            n_workers=2,
        )
        # Concatenated in block order: identical arrays, not just sets.
        for column in ("rows", "cols", "hamming", "sub_rows", "sub_cols"):
            assert getattr(parallel, column).tolist() == getattr(
                serial, column
            ).tolist()
        assert _pairs(serial) == _reference(csr, 2)

    def test_empty_matrix(self):
        csr = sp.csr_matrix((0, 10), dtype=np.int64)
        scan = blocked_scan(csr, np.empty(0, np.int64), k=0)
        assert len(scan.rows) == 0


class TestReportParity:
    """Configs written while the scan had a ``kernel`` option."""

    def test_config_kernel_round_trips(self):
        config = AnalysisConfig(n_workers=2, block_rows=5)
        assert "kernel" not in config.to_dict()
        for kernel in ("auto", "sparse"):
            legacy = {**config.to_dict(), "kernel": kernel}
            assert AnalysisConfig.from_dict(legacy) == config

    def test_config_rejects_unknown_kernel(self):
        for kernel in ("bits", "nope", None):
            payload = {**AnalysisConfig().to_dict(), "kernel": kernel}
            with pytest.raises(ConfigurationError, match="kernel"):
                AnalysisConfig.from_dict(payload)
        payload = {
            **AnalysisConfig().to_dict(),
            "finder_options": {"kernel": "sparse"},
        }
        with pytest.raises(ConfigurationError, match="kernel"):
            AnalysisConfig.from_dict(payload)
