"""Kernel parity: sparse, bits and auto must be indistinguishable.

The dispatch contract of :mod:`repro.core.grouping.kernels`: both
concrete kernels emit the same co-occurrence entry set, so matched
pairs, subset pairs, groups, analysis reports — everything downstream —
are identical whichever kernel (or per-block mix) ran.  These tests pin
that property on random matrices across the density spectrum, on the
edge cases (empty rows, ``k=0``, subset-only scans), in serial and
parallel, and assert the ``auto`` cost model actually picks the bits
kernel on dense data via the per-kernel block counters.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.engine import AnalysisConfig, analyze
from repro.core.grouping import make_group_finder
from repro.core.grouping.cooccurrence import blocked_scan
from repro.core.grouping.kernels import plan_kernels, sparse_row_flops
from repro.datagen import DepartmentProfile, generate_departmental_org
from repro.exceptions import ConfigurationError
from repro.obs import Recorder, use_recorder

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


class TestScanParity:
    @pytest.mark.parametrize("density", DENSITIES)
    @pytest.mark.parametrize("k", [0, 2])
    def test_kernels_agree_across_densities(self, density, k):
        csr = _random_csr(seed=int(density * 100) + k, density=density)
        norms = _norms(csr)
        scans = {
            kernel: blocked_scan(
                csr, norms, k=k, collect_subsets=True,
                block_rows=17, kernel=kernel,
            )
            for kernel in ("sparse", "bits", "auto")
        }
        reference = _pairs(scans["sparse"])
        assert _pairs(scans["bits"]) == reference
        assert _pairs(scans["auto"]) == reference

    def test_empty_rows(self):
        csr = _random_csr(seed=7, density=0.4, empty_rows=(0, 13, 59))
        norms = _norms(csr)
        sparse = blocked_scan(
            csr, norms, k=1, collect_subsets=True, block_rows=8,
            kernel="sparse",
        )
        bits = blocked_scan(
            csr, norms, k=1, collect_subsets=True, block_rows=8,
            kernel="bits",
        )
        assert _pairs(bits) == _pairs(sparse)

    def test_subset_only_scan(self):
        # k=None: no matched-pair collection, only the directed subset
        # pairs of the shadowed-role criterion.
        csr = _random_csr(seed=8, density=0.6)
        norms = _norms(csr)
        sparse = blocked_scan(
            csr, norms, k=None, collect_subsets=True, kernel="sparse"
        )
        bits = blocked_scan(
            csr, norms, k=None, collect_subsets=True, kernel="bits"
        )
        assert len(sparse.rows) == len(bits.rows) == 0
        assert _pairs(bits) == _pairs(sparse)

    def test_parallel_matches_serial_per_kernel(self):
        csr = _random_csr(seed=9, density=0.5)
        norms = _norms(csr)
        for kernel in ("sparse", "bits", "auto"):
            serial = blocked_scan(
                csr, norms, k=2, collect_subsets=True, block_rows=11,
                n_workers=1, kernel=kernel,
            )
            parallel = blocked_scan(
                csr, norms, k=2, collect_subsets=True, block_rows=11,
                n_workers=2, kernel=kernel,
            )
            assert _pairs(parallel) == _pairs(serial), kernel

    def test_empty_matrix(self):
        csr = sp.csr_matrix((0, 10), dtype=np.int64)
        scan = blocked_scan(csr, np.empty(0, np.int64), k=0, kernel="bits")
        assert len(scan.rows) == 0

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            blocked_scan(
                _random_csr(seed=1), np.zeros(60, np.int64), kernel="simd"
            )


class TestCostModel:
    def test_sparse_row_flops_counts_multiply_adds(self):
        csr = _random_csr(seed=20, shape=(10, 16), density=0.4)
        csr_t = csr.T.tocsr()
        dense = csr.toarray()
        col_nnz = (dense != 0).sum(axis=0)
        expected = [
            int(col_nnz[np.flatnonzero(dense[i])].sum())
            for i in range(dense.shape[0])
        ]
        assert sparse_row_flops(csr, csr_t).tolist() == expected

    def test_sparse_row_flops_empty_rows(self):
        csr = _random_csr(seed=21, shape=(8, 12), density=0.5, empty_rows=(3,))
        flops = sparse_row_flops(csr, csr.T.tocsr())
        assert flops[3] == 0

    def test_explicit_kernels_constant_plan(self):
        csr = _random_csr(seed=22)
        bounds = [(0, 30), (30, 60)]
        assert plan_kernels(csr, csr.T.tocsr(), bounds, "sparse") == [
            "sparse", "sparse",
        ]
        assert plan_kernels(csr, csr.T.tocsr(), bounds, "bits") == [
            "bits", "bits",
        ]

    def test_auto_prefers_sparse_when_nearly_empty(self):
        csr = _random_csr(seed=23, density=0.01)
        bounds = [(0, 60)]
        assert plan_kernels(csr, csr.T.tocsr(), bounds, "auto") == ["sparse"]

    def test_auto_picks_bits_on_dense_matrix(self):
        # Acceptance criterion: on a >= 50%-density matrix the cost model
        # must route every block to the bits kernel, observable through
        # the per-kernel block counters.
        csr = _random_csr(seed=24, density=0.5)
        norms = _norms(csr)
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("scan"):
            blocked_scan(csr, norms, k=1, block_rows=10, kernel="auto")
        totals = recorder.counter_totals()
        assert totals.get("cooccurrence.kernel_blocks.bits", 0) == 6
        assert "cooccurrence.kernel_blocks.sparse" not in totals

    def test_kernel_block_counters_cover_plan(self):
        csr = _random_csr(seed=25, density=0.1)
        norms = _norms(csr)
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("scan"):
            blocked_scan(csr, norms, k=1, block_rows=13, kernel="sparse")
        totals = recorder.counter_totals()
        assert totals.get("cooccurrence.kernel_blocks.sparse", 0) == 5


class TestFinderParity:
    @pytest.mark.parametrize("density", [0.1, 0.5])
    def test_groups_identical_across_kernels(self, density):
        csr = _random_csr(seed=30, density=density)
        groups = [
            make_group_finder(
                "cooccurrence", block_rows=9, kernel=kernel
            ).find_groups(csr, 1)
            for kernel in ("sparse", "bits", "auto")
        ]
        assert groups[1] == groups[0]
        assert groups[2] == groups[0]

    def test_finder_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            make_group_finder("cooccurrence", kernel="gpu")


def _normalized_report(report):
    """Report serialisation minus execution-only fields.

    ``config.kernel`` selects *how* the analysis ran, never its result;
    timings and metrics are run-specific by nature.  Everything else —
    findings, counts, config — must be byte-identical across kernels.
    """
    payload = report.to_dict()
    payload["config"].pop("kernel", None)
    payload.pop("timings_seconds", None)
    payload.pop("total_seconds", None)
    payload.pop("metrics", None)
    return payload


class TestReportParity:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_reports_identical_across_kernels(self, n_workers):
        state = generate_departmental_org(DepartmentProfile(seed=3))
        reports = [
            analyze(
                state,
                AnalysisConfig(
                    kernel=kernel, block_rows=5, n_workers=n_workers
                ),
            )
            for kernel in ("sparse", "bits", "auto")
        ]
        reference = _normalized_report(reports[0])
        assert _normalized_report(reports[1]) == reference
        assert _normalized_report(reports[2]) == reference

    def test_config_kernel_round_trips(self):
        config = AnalysisConfig(kernel="bits")
        assert config.to_dict()["kernel"] == "bits"

    def test_config_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(kernel="nope")
