"""Unit tests for the shared per-axis analysis workspace.

Covers the artifact cache (hit/miss/bytes counters), the scan request
aggregation (one blocked co-occurrence pass serves every consumer), the
collapsed view's derived pairs, and the pickle round-trip that keeps
warm artifacts hot.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bitmatrix import equal_row_groups_sparse
from repro.core.detectors.base import AnalysisContext
from repro.core.grouping.cooccurrence import blocked_scan
from repro.core.taxonomy import Axis
from repro.core.workspace import AnalysisWorkspace, AxisWorkspace
from repro.obs import Recorder, use_recorder


@pytest.fixture
def users_workspace(paper_example) -> AxisWorkspace:
    context = AnalysisContext(paper_example)
    return context.workspace.axis(Axis.USERS)


def _pairs_as_set(rows, cols):
    return {tuple(sorted(p)) for p in zip(rows.tolist(), cols.tolist())}


class TestArtifactCache:
    def test_artifacts_are_memoised(self, users_workspace):
        assert users_workspace.dense is users_workspace.dense
        assert users_workspace.norms is users_workspace.norms
        assert users_workspace.row_keys is users_workspace.row_keys

    def test_hit_miss_counters(self, users_workspace):
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("test"):
            users_workspace.dense  # miss: original, submatrix, dense
            users_workspace.dense  # hit
            users_workspace.dense  # hit
        totals = recorder.counter_totals()
        assert totals["workspace.artifact_misses"] == 3
        assert totals["workspace.artifact_hits"] == 2
        assert totals["workspace.artifact_bytes"] > 0

    def test_submatrix_drops_empty_rows(self, users_workspace):
        # R03 has no users in the paper example.
        assert users_workspace.n_rows == 4
        assert users_workspace.original.tolist() == [0, 1, 3, 4]
        assert users_workspace.norms.tolist() == [1, 2, 2, 1]

    def test_dense_matches_submatrix(self, users_workspace):
        dense = users_workspace.dense
        expected = np.asarray(users_workspace.submatrix.todense()).astype(
            bool
        )
        assert np.array_equal(dense, expected)

    def test_duplicate_groups_match_reference_kernel(self, users_workspace):
        expected = equal_row_groups_sparse(users_workspace.submatrix)
        assert users_workspace.duplicate_groups == expected

    def test_duplicate_groups_returns_fresh_lists(self, users_workspace):
        first = users_workspace.duplicate_groups
        first[0].append(999)
        assert 999 not in users_workspace.duplicate_groups[0]

    def test_row_classes_first_seen_order(self, users_workspace):
        # Submatrix rows: R01, R02, R04, R05 — R02/R04 share users.
        assert users_workspace.representatives.tolist() == [0, 1, 3]
        assert users_workspace.class_sizes.tolist() == [1, 2, 1]
        assert users_workspace.class_index.tolist() == [0, 1, 1, 2]

    def test_signatures_memoised_per_key(self, users_workspace):
        a = users_workspace.signatures(8, seed=0)
        assert users_workspace.signatures(8, seed=0) is a
        assert users_workspace.signatures(8, seed=1) is not a
        assert users_workspace.signatures(16, seed=0).shape == (4, 16)


class TestArtifactBytes:
    """``workspace.artifact_bytes`` values, pinned, and its cost.

    The counter sizes array payloads and lists of content keys; lists of
    Python ints count 0 and are never walked element by element.
    """

    def _artifact_bytes(self, state) -> int:
        from repro.core.engine import analyze

        return analyze(state).metrics["counters"]["workspace.artifact_bytes"]

    def test_paper_example_value(self, paper_example):
        assert self._artifact_bytes(paper_example) == 752

    def test_small_org_value(self):
        from repro.datagen import OrgProfile, generate_org

        org = generate_org(OrgProfile.small(divisor=100))
        assert self._artifact_bytes(org.state) == 129348

    def test_key_lists_sized_int_lists_not_walked(self):
        from repro.core.workspace import _payload_bytes

        class Unwalkable(list):
            def __iter__(self):
                raise AssertionError("walked element by element")

        assert _payload_bytes([b"ab", b"cde"]) == 5
        assert _payload_bytes(Unwalkable([[0, 1], [2]])) == 0
        assert _payload_bytes(Unwalkable([3, 4, 5])) == 0
        row_classes = (np.zeros(2, dtype=np.int64), Unwalkable([[0, 1]]))
        assert _payload_bytes(row_classes) == 16


class TestScanAggregation:
    def test_requests_accumulate_to_one_pass(self, users_workspace):
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("test"):
            users_workspace.request_scan(k=0)
            users_workspace.request_scan(k=2, subsets=True)
            users_workspace.request_scan(k=1)
            scan = users_workspace.scan()
        assert scan.k == 2
        assert scan.sub_rows is not None
        totals = recorder.counter_totals()
        assert totals["workspace.cooccurrence_passes"] == 1

    def test_pairs_filter_down_from_wider_scan(self, users_workspace):
        users_workspace.request_scan(k=2)
        wide = _pairs_as_set(*users_workspace.matched_pairs(0))
        fresh = blocked_scan(
            users_workspace.submatrix, users_workspace.norms, k=0
        )
        assert wide == _pairs_as_set(*fresh.pairs_at(0))

    def test_late_wider_request_reruns_and_keeps_union(self, users_workspace):
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("test"):
            users_workspace.request_scan(k=0, subsets=True)
            users_workspace.scan()
            assert not users_workspace.scan_pending
            users_workspace.request_scan(k=2)
            assert users_workspace.scan_pending
            rerun = users_workspace.scan()
        # The rebuild keeps subset collection from the first pass.
        assert rerun.k == 2
        assert rerun.sub_rows is not None
        totals = recorder.counter_totals()
        assert totals["workspace.cooccurrence_passes"] == 2

    def test_scan_hit_after_flush(self, users_workspace):
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("test"):
            users_workspace.request_scan(k=1)
            users_workspace.scan()
            users_workspace.scan()
            users_workspace.matched_pairs(0)
        assert recorder.counter_totals()["workspace.cooccurrence_passes"] == 1

    def test_context_shape_fixes_the_scan(self, paper_example):
        context = AnalysisContext(paper_example, block_rows=2)
        workspace = context.workspace.axis("users")
        assert (workspace.block_rows, workspace.n_workers) == (2, 1)
        workspace.request_scan(k=0)
        assert workspace.scan().n_blocks == 2  # 4 rows / block_rows=2

    def test_requests_carry_no_scan_shape(self, users_workspace):
        # Consumers say what they need (k, subsets), never how to scan.
        for key in ("block_rows", "n_workers"):
            with pytest.raises(TypeError):
                users_workspace.request_scan(k=0, **{key: 1})
            with pytest.raises(TypeError):
                users_workspace.matched_pairs(0, **{key: 1})
            with pytest.raises(TypeError):
                users_workspace.collapsed().matched_pairs(0, **{key: 1})

    def test_subset_pairs_match_naive_product(self, users_workspace):
        matrix = users_workspace.matrix
        product = (matrix.csr @ matrix.csr.T).toarray()
        norms = matrix.row_sums
        expected = {
            (r, s)
            for r in range(matrix.n_rows)
            for s in range(matrix.n_rows)
            if r != s and norms[r] > 0 and product[r, s] == norms[r]
        }
        rows, cols = users_workspace.subset_pairs
        assert set(zip(rows.tolist(), cols.tolist())) == expected

    def test_subset_pairs_sorted_lexicographically(self, users_workspace):
        rows, cols = users_workspace.subset_pairs
        pairs = list(zip(rows.tolist(), cols.tolist()))
        assert pairs == sorted(pairs)


class TestCollapsedWorkspace:
    def test_view_is_memoised(self, users_workspace):
        assert users_workspace.collapsed() is users_workspace.collapsed()

    def test_rows_are_representatives(self, users_workspace):
        view = users_workspace.collapsed()
        assert view.n_rows == 3
        assert view.original.tolist() == [0, 1, 4]  # R01, R02, R05
        assert view.norms.tolist() == [1, 2, 1]
        assert np.array_equal(
            view.dense, users_workspace.dense[[0, 1, 3]]
        )
        assert view.duplicate_groups == []

    def test_derived_pairs_match_direct_scan(self, paper_example):
        view_ws = AnalysisContext(paper_example).workspace.axis("permissions")
        view = view_ws.collapsed()
        derived = _pairs_as_set(*view.matched_pairs(2))
        direct = blocked_scan(view.csr, view.norms, k=2)
        assert derived == _pairs_as_set(*direct.pairs_at(2))

    def test_derived_pairs_need_no_extra_pass(self, users_workspace):
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("test"):
            users_workspace.matched_pairs(1)
            users_workspace.collapsed().matched_pairs(1)
        assert recorder.counter_totals()["workspace.cooccurrence_passes"] == 1

    def test_signatures_are_parent_slices(self, users_workspace):
        parent = users_workspace.signatures(8, seed=3)
        view = users_workspace.collapsed()
        assert np.array_equal(view.signatures(8, seed=3), parent[[0, 1, 3]])


class TestAnalysisWorkspace:
    def test_axis_accepts_enum_and_string(self, paper_example):
        bundle = AnalysisContext(paper_example).workspace
        assert bundle.axis(Axis.USERS) is bundle.axis("users")
        assert bundle.axis(Axis.PERMISSIONS) is not bundle.axis("users")

    def test_every_axis_takes_the_context_shape(self, paper_example):
        default = AnalysisContext(paper_example).workspace.axis("users")
        assert (default.block_rows, default.n_workers) == (None, 1)
        bundle = AnalysisContext(
            paper_example, block_rows=2, n_workers=3
        ).workspace
        for axis in ("users", "permissions"):
            workspace = bundle.axis(axis)
            assert (workspace.block_rows, workspace.n_workers) == (2, 3)

    def test_flush_runs_pending_scans_under_axis_spans(self, paper_example):
        bundle = AnalysisContext(paper_example).workspace
        bundle.axis("users").request_scan(k=0)
        bundle.axis("permissions").request_scan(k=1)
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("warm") as span:
            assert bundle.scan_pending
            bundle.flush()
            assert not bundle.scan_pending
            bundle.flush()  # idempotent: nothing pending, no new spans
        assert [c.name for c in span.children] == [
            "axis:users",
            "axis:permissions",
        ]
        assert recorder.counter_totals()["workspace.cooccurrence_passes"] == 2

    def test_context_workspace_is_cached(self, paper_example):
        context = AnalysisContext(paper_example)
        assert context.workspace is context.workspace


class TestWorkspacePickling:
    # The workspace (matrix, artifact dict, scan result) must survive a
    # pickle round-trip with its artifacts hot.

    def test_warm_workspace_ships_artifacts(self, paper_example):
        from repro.core.matrices import AssignmentMatrix

        workspace = AxisWorkspace(AssignmentMatrix.ruam(paper_example))
        workspace.request_scan(k=2, subsets=True)
        warm_scan = workspace.scan()
        workspace.dense

        shipped = pickle.loads(pickle.dumps(workspace))
        recorder = Recorder()
        with use_recorder(recorder), recorder.span("test"):
            scan = shipped.scan()
            shipped.dense
        # Every access above lands on shipped artifacts: no misses,
        # no second co-occurrence pass.
        totals = recorder.counter_totals()
        assert "workspace.artifact_misses" not in totals
        assert "workspace.cooccurrence_passes" not in totals
        assert _pairs_as_set(*scan.pairs_at(2)) == _pairs_as_set(
            *warm_scan.pairs_at(2)
        )

    def test_cold_workspace_pickles_too(self, paper_example):
        from repro.core.matrices import AssignmentMatrix

        cold = AxisWorkspace(AssignmentMatrix.rpam(paper_example))
        clone = pickle.loads(pickle.dumps(cold))
        assert clone.matched_pairs(0)[0].size >= 1
