"""Unit tests for AnalysisConfig / AnalysisEngine."""

from __future__ import annotations

import math

import pytest

import repro.core.grouping.cooccurrence as scan_module
from repro.core import AnalysisConfig, AnalysisEngine, InefficiencyType, analyze
from repro.core.detectors import AnalysisContext
from repro.core.engine import ALL_TYPES
from repro.exceptions import ConfigurationError


class TestConfig:
    def test_defaults(self):
        config = AnalysisConfig()
        assert config.enabled_types == ALL_TYPES
        assert config.finder == "cooccurrence"
        assert config.similarity_threshold == 1

    def test_similarity_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(similarity_threshold=0)

    def test_bogus_types_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(enabled_types=("duplicates",))  # type: ignore[arg-type]

    def test_parallel_defaults(self):
        config = AnalysisConfig()
        assert config.n_workers == 1
        assert config.block_rows is None

    def test_invalid_n_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            AnalysisConfig(n_workers=0)

    def test_invalid_block_rows_rejected(self):
        with pytest.raises(ConfigurationError, match="block_rows"):
            AnalysisConfig(block_rows=-1)

    @pytest.mark.parametrize(
        "key, owned, other",
        [
            ("block_rows", 7, 3),
            ("n_workers", 2, 1),
        ],
    )
    def test_finder_option_must_equal_scan_field(self, key, owned, other):
        # The config owns the scan shape: a co-occurrence finder_options
        # copy may repeat it but never contradict it.
        with pytest.raises(ConfigurationError, match=key):
            AnalysisConfig(finder_options={key: other}, **{key: owned})
        config = AnalysisConfig(finder_options={key: owned}, **{key: owned})
        assert config.finder_options == {key: owned}

    def test_block_rows_ignored_for_other_finders(self):
        engine = AnalysisEngine(AnalysisConfig(finder="dbscan", block_rows=7))
        assert [d.name for d in engine.detectors]  # builds without error


class TestEngine:
    def test_all_detectors_built_by_default(self):
        engine = AnalysisEngine()
        names = [d.name for d in engine.detectors]
        assert names == [
            "standalone_nodes",
            "disconnected_roles",
            "single_assignment_roles",
            "duplicate_roles",
            "similar_roles",
        ]

    def test_type_subset_builds_fewer_detectors(self):
        engine = AnalysisEngine(
            AnalysisConfig(
                enabled_types=(InefficiencyType.DUPLICATE_ROLES,)
            )
        )
        assert [d.name for d in engine.detectors] == ["duplicate_roles"]

    def test_analyze_is_read_only(self, paper_example):
        snapshot = paper_example.copy()
        AnalysisEngine().analyze(paper_example)
        assert paper_example == snapshot

    def test_report_carries_timings(self, paper_example):
        report = AnalysisEngine().analyze(paper_example)
        assert set(report.timings) == {
            "matrix_build",
            "workspace_warm",
            "standalone_nodes",
            "disconnected_roles",
            "single_assignment_roles",
            "duplicate_roles",
            "similar_roles",
        }
        assert all(t >= 0 for t in report.timings.values())
        assert report.total_seconds >= sum(report.timings.values()) * 0.5

    def test_analyze_deterministic(self, paper_example):
        first = AnalysisEngine().analyze(paper_example)
        second = AnalysisEngine().analyze(paper_example)
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]

    def test_convenience_function_matches_engine(self, paper_example):
        assert (
            analyze(paper_example).counts()
            == AnalysisEngine().analyze(paper_example).counts()
        )

    def test_finder_options_forwarded(self, paper_example):
        config = AnalysisConfig(
            finder="hnsw", finder_options={"ef_search": 16, "m": 4}
        )
        report = analyze(paper_example, config)
        # the tiny example is easy even for a small-ef index
        assert report.counts()["roles_same_users"] == 2

    def test_similarity_threshold_flows_to_detector(self, paper_example):
        # At threshold 2, R01 {P02,P03} and R03 {P03,P04} become similar
        # on the permission axis (distance 2).
        report = analyze(paper_example, AnalysisConfig(similarity_threshold=2))
        similar = report.of_type(InefficiencyType.SIMILAR_ROLES)
        assert any(set(f.entity_ids) == {"R01", "R03"} for f in similar)

    def test_empty_state(self):
        from repro.core.state import RbacState

        report = analyze(RbacState())
        assert report.findings == []
        assert all(value == 0 for value in report.counts().values())


class TestScanFanOut:
    def test_block_rows_sets_the_scan_blocks(self, paper_example):
        # The config's block_rows reaches every axis scan: one block per
        # block_rows nonempty rows of each axis.
        report = analyze(paper_example, AnalysisConfig(block_rows=2))
        workspace = AnalysisContext(paper_example).workspace
        expected = sum(
            math.ceil(workspace.axis(axis).n_rows / 2)
            for axis in ("users", "permissions")
        )
        assert report.metrics["counters"]["cooccurrence.blocks"] == expected
        assert expected > 2  # more than one block per axis

    def test_n_workers_reaches_the_scan(
        self, small_org_state, spy_threads, monkeypatch
    ):
        # The engine-level knob runs the blocked scan's blocks on
        # threads; detection itself stays on the calling thread.
        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 2)
        assert small_org_state.n_roles > 64
        report = analyze(
            small_org_state, AnalysisConfig(n_workers=2, block_rows=64)
        )
        assert spy_threads == [2, 2]  # one pool per axis scan
        assert report.metrics["workers"]["mode"] == "parallel"
        serial = analyze(small_org_state, AnalysisConfig(block_rows=64))
        assert [f.to_dict() for f in report.findings] == [
            f.to_dict() for f in serial.findings
        ]

    def test_oversized_n_workers_capped_at_core_count(
        self, paper_example, spy_threads, monkeypatch
    ):
        # n_workers is outside input (CLI flag, service request): it must
        # never start more threads than the process may use CPUs, and
        # never a child process.
        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 3)
        report = analyze(
            paper_example, AnalysisConfig(n_workers=10_000, block_rows=1)
        )
        # Four one-row blocks per axis, three usable CPUs.
        assert spy_threads == [3, 3]
        assert report.metrics["workers"] == {
            "requested": 10_000,
            "resolved": 10_000,
            "mode": "parallel",
        }
        assert report.counts() == analyze(paper_example).counts()

    def test_mode_serial_when_nothing_fans_out(
        self, paper_example, spy_threads
    ):
        # Without block_rows every axis is one block: nothing runs on a
        # thread pool, so the report must not claim a parallel run.
        report = analyze(paper_example, AnalysisConfig(n_workers=2))
        assert report.metrics["workers"] == {
            "requested": 2,
            "resolved": 2,
            "mode": "serial",
        }
        assert spy_threads == []
