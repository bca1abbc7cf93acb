"""Integration tests: the pipeline's span trees and counters.

Covers the observability acceptance criteria: the engine's span
hierarchy, serial-vs-parallel counter parity, deterministic parallel
traces (modulo durations), and the opt-in memory counters.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

import repro.core.grouping.cooccurrence as scan_module
from repro.core.engine import AnalysisConfig, AnalysisEngine, analyze
from repro.obs import Recorder, current_recorder, tree_signature, use_recorder


def _trace(state, recorder=None, **config_kwargs):
    recorder = recorder or Recorder()
    engine = AnalysisEngine(AnalysisConfig(**config_kwargs))
    report = engine.analyze(state, recorder=recorder)
    assert len(recorder.traces) == 1
    return report, recorder.traces[0], recorder


class TestSerialSpanTree:
    def test_root_span_and_attributes(self, paper_example):
        _, root, _ = _trace(paper_example)
        assert root.name == "engine.analyze"
        assert root.attributes["finder"] == "cooccurrence"
        assert root.attributes["n_workers"] == 1
        assert root.attributes["n_roles"] == paper_example.n_roles

    def test_children_are_matrix_build_warm_then_detectors(self, paper_example):
        _, root, _ = _trace(paper_example)
        names = [c.name for c in root.children]
        assert names[0] == "engine.matrix_build"
        assert names[1] == "engine.workspace_warm"
        assert names[2:] == [
            "detector:standalone_nodes",
            "detector:disconnected_roles",
            "detector:single_assignment_roles",
            "detector:duplicate_roles",
            "detector:similar_roles",
        ]

    def test_warm_span_carries_the_blocked_scans(self, paper_example):
        _, root, _ = _trace(paper_example)
        warm = next(
            c for c in root.children if c.name == "engine.workspace_warm"
        )
        axis_names = [c.name for c in warm.children]
        assert axis_names == ["axis:users", "axis:permissions"]
        for axis_span in warm.children:
            # One shared pass per axis, one block by default.
            assert axis_span.counters["workspace.cooccurrence_passes"] == 1
            assert [c.name for c in axis_span.children] == [
                "cooccurrence.block"
            ]

    def test_matrix_counters_match_state(self, paper_example):
        _, root, _ = _trace(paper_example)
        build = root.children[0]
        assert build.counters["matrix.ruam_nnz"] == 6
        assert build.counters["matrix.rpam_nnz"] == 8

    def test_grouping_detectors_have_axis_and_finder_spans(self, paper_example):
        _, root, recorder = _trace(paper_example)
        paths = [p for p, _, _ in root.walk()]
        dup = "engine.analyze/detector:duplicate_roles"
        assert f"{dup}/axis:users" in paths
        assert f"{dup}/axis:users/finder:cooccurrence" in paths
        # The product itself runs once per axis, in the warm phase.
        warm = "engine.analyze/engine.workspace_warm"
        assert f"{warm}/axis:users/cooccurrence.block" in paths
        totals = recorder.counter_totals()
        assert totals["cooccurrence.blocks"] >= 1
        assert totals["cooccurrence.candidate_pairs"] >= 1
        assert totals["workspace.cooccurrence_passes"] == 2
        assert totals["workspace.artifact_hits"] >= 1
        assert totals["workspace.artifact_misses"] >= 1

    def test_finding_counters_match_report(self, paper_example):
        report, root, recorder = _trace(paper_example)
        assert recorder.counter_totals()["findings"] == len(report.findings)

    def test_timings_are_span_durations(self, paper_example):
        report, root, _ = _trace(paper_example)
        by_name = {c.name: c for c in root.children}
        assert report.timings["matrix_build"] == (
            by_name["engine.matrix_build"].duration
        )
        assert report.timings["duplicate_roles"] == (
            by_name["detector:duplicate_roles"].duration
        )
        assert report.total_seconds == root.duration

    def test_engine_without_recorder_still_populates_metrics(self, paper_example):
        report = analyze(paper_example)
        assert report.metrics["schema"] == 2
        assert report.metrics["spans"] > 0
        assert report.metrics["workers"]["mode"] == "serial"
        assert "findings" in report.metrics["counters"]

    def test_engine_adopts_installed_recorder(self, paper_example):
        recorder = Recorder()
        with use_recorder(recorder):
            analyze(paper_example)
        assert [t.name for t in recorder.traces] == ["engine.analyze"]


class TestDbscanInstrumentation:
    def test_fit_and_expand_counters(self, paper_example):
        _, root, recorder = _trace(paper_example, finder="dbscan")
        paths = {p for p, _, _ in root.walk()}
        assert any(p.endswith("finder:dbscan/dbscan.fit") for p in paths)
        totals = recorder.counter_totals()
        assert totals["dbscan.points"] >= 1
        assert 1 <= totals["dbscan.seed_queries"] <= totals["dbscan.points"]
        # Expansion queries live on dbscan.expand child spans, seed
        # queries on dbscan.fit — no query is counted twice.
        assert totals["dbscan.clusters"] >= 1
        assert totals["dbscan.cluster_members"] >= 2


#: The scan fans out only over more than one block: two blocks per axis
#: on the paper example.
SCAN_FAN_OUT = {"n_workers": 2, "block_rows": 2}

#: Key prefixes of the deleted process pool, shared-memory plane and
#: adaptive kernel: no trace or report may carry them.
DELETED_PREFIXES = ("shm.", "parallel.", "cooccurrence.kernel_blocks.")


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the scan run two threads whatever CPUs this host has."""
    monkeypatch.setattr(scan_module, "usable_cpus", lambda: 2)


def _histogram_counts(report) -> dict:
    return {
        name: summary["count"]
        for name, summary in report.metrics["histograms"].items()
    }


@pytest.mark.usefixtures("two_cpus")
class TestSerialParallelParity:
    def test_counter_totals_equal(self, paper_example):
        _, _, serial = _trace(paper_example, n_workers=1, block_rows=2)
        _, _, parallel = _trace(paper_example, **SCAN_FAN_OUT)
        assert parallel.counter_totals() == serial.counter_totals()

    def test_report_metrics_equal_serial(self, paper_example):
        serial, _, _ = _trace(paper_example, n_workers=1, block_rows=2)
        parallel, _, _ = _trace(paper_example, **SCAN_FAN_OUT)
        assert parallel.metrics["workers"]["mode"] == "parallel"
        assert parallel.metrics["counters"] == serial.metrics["counters"]
        assert parallel.metrics["spans"] == serial.metrics["spans"]
        assert _histogram_counts(parallel) == _histogram_counts(serial)

    def test_no_process_plane_or_kernel_keys(self, paper_example):
        report, root, recorder = _trace(paper_example, **SCAN_FAN_OUT)
        names = (
            set(recorder.counter_totals())
            | set(report.metrics["histograms"])
            | {span.name for _, _, span in root.walk()}
        )
        assert sorted(n for n in names if n.startswith(DELETED_PREFIXES)) == []

    def test_parallel_trace_is_deterministic(self, paper_example):
        _, root_a, _ = _trace(paper_example, **SCAN_FAN_OUT)
        _, root_b, _ = _trace(paper_example, **SCAN_FAN_OUT)
        assert tree_signature(root_a) == tree_signature(root_b)

    def test_parallel_tree_matches_serial_without_nested_trace_ids(
        self, paper_example
    ):
        _, serial, _ = _trace(paper_example, n_workers=1, block_rows=2)
        _, parallel, _ = _trace(paper_example, **SCAN_FAN_OUT)
        assert tree_signature(parallel) == tree_signature(serial)
        for root in (serial, parallel):
            assert root.trace_id is not None
            spans = [span for _, _, span in root.walk()][1:]
            # Grafted blocks join the analysis trace: no ID of their own.
            assert [s for s in spans if s.trace_id is not None] == []
            blocks = [s for s in spans if s.name == "cooccurrence.block"]
            assert [b.attributes["fragment"] for b in blocks] == [0, 1] * 2

    def test_parallel_grafts_block_fragments(self, paper_example):
        _, root, _ = _trace(paper_example, **SCAN_FAN_OUT)
        warm = next(
            c for c in root.children if c.name == "engine.workspace_warm"
        )
        for axis_span in warm.children:
            # Each block records on its own thread; the fragments are
            # grafted under the axis span in block order.
            blocks = axis_span.children
            assert [b.name for b in blocks] == [
                "cooccurrence.block", "cooccurrence.block"
            ]
            assert [b.attributes["fragment"] for b in blocks] == [0, 1]
            assert [b.attributes["threads"] for b in blocks] == [2, 2]
            assert [
                (b.attributes["start"], b.attributes["stop"]) for b in blocks
            ] == [(0, 2), (2, 4)]
        # Detectors always run in-process, one span each.
        assert [
            c.name for c in root.children if c.name.startswith("detector:")
        ] == [
            "detector:standalone_nodes",
            "detector:disconnected_roles",
            "detector:single_assignment_roles",
            "detector:duplicate_roles",
            "detector:similar_roles",
        ]

    def test_parallel_timings_same_keys_as_serial(self, paper_example):
        serial_report, _, _ = _trace(paper_example, n_workers=1)
        parallel_report, _, _ = _trace(paper_example, **SCAN_FAN_OUT)
        assert set(parallel_report.timings) == set(serial_report.timings)

    def test_parallel_metrics_have_worker_breakdown(self, paper_example):
        report, _, _ = _trace(paper_example, **SCAN_FAN_OUT)
        assert report.metrics["workers"] == {
            "requested": 2,
            "resolved": 2,
            "mode": "parallel",
        }

    def test_mode_parallel_only_when_blocks_ran_on_threads(
        self, paper_example, monkeypatch
    ):
        def mode(recorder=None, **config):
            report, _, _ = _trace(paper_example, recorder=recorder, **config)
            assert set(report.metrics["workers"]) == {
                "requested", "resolved", "mode"
            }
            return report.metrics["workers"]["mode"]

        assert mode(**SCAN_FAN_OUT) == "parallel"
        assert mode(n_workers=1, block_rows=2) == "serial"
        assert mode(n_workers=2) == "serial"  # one block per axis
        measured = Recorder(measure_memory=True)
        assert mode(recorder=measured, **SCAN_FAN_OUT) == "serial"
        monkeypatch.setattr(scan_module, "usable_cpus", lambda: 1)
        assert mode(**SCAN_FAN_OUT) == "serial"

    def test_gc_in_a_threaded_block_is_charged_once(
        self, paper_example, monkeypatch
    ):
        real_scan = scan_module.scan_block_sparse
        collected_on: list[str] = []
        lock = threading.Lock()

        def collecting_scan(*args):
            with lock:
                if not collected_on:
                    collected_on.append(threading.current_thread().name)
                    gc.collect(2)
            return real_scan(*args)

        monkeypatch.setattr(scan_module, "scan_block_sparse", collecting_scan)
        # Only the forced collection may run during the analysis.
        gc.disable()
        try:
            report, _, _ = _trace(paper_example, **SCAN_FAN_OUT)
        finally:
            gc.enable()
        assert collected_on[0].startswith("repro-scan")
        assert report.metrics["gc"]["collections"] == 1
        assert report.metrics["gc"]["pause_s"]["count"] == 1

    def test_worker_identity_never_on_spans(self, paper_example):
        _, root, _ = _trace(paper_example, **SCAN_FAN_OUT)
        for _, _, span in root.walk():
            assert "pid" not in span.attributes
            assert "worker" not in span.attributes


class TestMemoryCounters:
    def test_block_peak_bytes_only_when_opted_in(self, paper_example):
        _, _, plain = _trace(paper_example)
        assert "cooccurrence.block_peak_bytes" not in plain.counter_totals()

        recorder = Recorder(measure_memory=True)
        _, _, _ = _trace(paper_example, recorder=recorder)
        totals = recorder.counter_totals()
        assert totals["cooccurrence.block_peak_bytes"] > 0

    def test_measure_memory_propagates_to_workers(self, paper_example):
        recorder = Recorder(measure_memory=True)
        _trace(paper_example, recorder=recorder, **SCAN_FAN_OUT)
        assert recorder.counter_totals()["cooccurrence.block_peak_bytes"] > 0

    def test_measured_blocks_never_overlap(
        self, paper_example, two_cpus, spy_threads, monkeypatch
    ):
        # tracemalloc's peak is process-wide: with measure_memory on,
        # blocks run one at a time even when the scan may fan out.
        real_block = scan_module._scan_block
        intervals: list[tuple[float, float]] = []

        def timed_block(*args, **kwargs):
            started = time.perf_counter()
            try:
                return real_block(*args, **kwargs)
            finally:
                intervals.append((started, time.perf_counter()))

        monkeypatch.setattr(scan_module, "_scan_block", timed_block)
        recorder = Recorder(measure_memory=True)
        _, root, _ = _trace(paper_example, recorder=recorder, **SCAN_FAN_OUT)
        assert spy_threads == []
        blocks = [s for _, _, s in root.walk() if s.name == "cooccurrence.block"]
        assert len(blocks) == len(intervals) == 4
        assert {b.attributes["threads"] for b in blocks} == {1}
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert end <= start


class TestBenchharnessIntegration:
    def test_time_call_captures_engine_spans(self, paper_example):
        from repro.benchharness import time_call

        recorder = Recorder()
        stats, report = time_call(
            lambda: analyze(paper_example), repeats=2, recorder=recorder
        )
        assert stats.n == 2
        assert len(recorder.traces) == 2
        for trace in recorder.traces:
            assert trace.name == "bench.run"
            assert [c.name for c in trace.children] == ["engine.analyze"]
        assert report.metrics["counters"]["findings"] == len(report.findings)

    def test_time_call_without_recorder_unchanged(self):
        from repro.benchharness import time_call

        stats, result = time_call(lambda: 42, repeats=3)
        assert result == 42
        assert stats.n == 3


class TestEmptyState:
    def test_empty_state_trace_is_well_formed(self, empty_state):
        report, root, recorder = _trace(empty_state)
        assert root.children[0].name == "engine.matrix_build"
        assert report.timings["matrix_build"] >= 0.0
        assert recorder.counter_totals()["findings"] == 0


class TestHistogramTelemetry:
    def test_serial_report_has_histograms(self, paper_example):
        report, _, _ = _trace(paper_example)
        histograms = report.metrics["histograms"]
        # One observation per detector span in serial mode.
        assert histograms["detector.seconds"]["count"] == 5
        blocks = histograms["cooccurrence.block_seconds"]
        assert blocks["count"] >= 2  # at least one block per axis
        assert blocks["p50"] is not None
        assert blocks["min"] <= blocks["p50"] <= blocks["p99"] <= blocks["max"]

    def test_parallel_observations_merge_without_loss(self, paper_example):
        serial_report, _, _ = _trace(paper_example, n_workers=1, block_rows=2)
        parallel_report, _, _ = _trace(paper_example, **SCAN_FAN_OUT)
        serial_hist = serial_report.metrics["histograms"]
        parallel_hist = parallel_report.metrics["histograms"]
        # Every block is observed in a worker and travels back inside
        # its grafted fragment: none lost, none double-counted.
        assert (
            parallel_hist["cooccurrence.block_seconds"]["count"]
            == serial_hist["cooccurrence.block_seconds"]["count"]
            == 4
        )
        # Detectors run in-process in every mode: one observation each.
        assert parallel_hist["detector.seconds"]["count"] == 5

    def test_parallel_histogram_counts_deterministic(self, paper_example):
        first, _, _ = _trace(paper_example, **SCAN_FAN_OUT)
        second, _, _ = _trace(paper_example, **SCAN_FAN_OUT)
        counts_of = lambda report: {
            name: summary["count"]
            for name, summary in report.metrics["histograms"].items()
        }
        assert counts_of(first) == counts_of(second)


class TestTraceCorrelation:
    def test_trace_gets_an_id(self, paper_example):
        _, root, _ = _trace(paper_example)
        assert root.trace_id and len(root.trace_id) == 32

    def test_pinned_trace_id_propagates(self, paper_example):
        recorder = Recorder(trace_id="pinned-id")
        _, root, _ = _trace(paper_example, recorder=recorder)
        assert root.trace_id == "pinned-id"

    def test_parallel_trace_stitches_with_zero_orphans(
        self, paper_example, tmp_path
    ):
        import io

        from repro.obs import (
            JsonlTraceSink,
            load_trace_file,
            validate_trace_lines,
        )

        buffer = io.StringIO()
        recorder = Recorder(sinks=[JsonlTraceSink(buffer)])
        _trace(paper_example, recorder=recorder, **SCAN_FAN_OUT)
        lines = buffer.getvalue().splitlines()
        validate_trace_lines(lines)  # v2 ID integrity incl. parent links
        out = tmp_path / "trace.jsonl"
        out.write_text(buffer.getvalue())
        trace = load_trace_file(out)[0]
        assert trace.orphans == []
        # The reconstructed tree is the tree the recorder held.
        assert tree_signature(trace.root) == tree_signature(
            recorder.traces[0]
        )


class TestRecorderOverhead:
    """Pin the per-operation costs behind the <=1% end-to-end budget.

    Absolute per-op bounds are loose enough to be stable under CI noise
    where an end-to-end percentage comparison would flake.
    """

    def test_null_recorder_span_is_nearly_free(self):
        import time

        from repro.obs import NULL_RECORDER

        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            with NULL_RECORDER.span("x"):
                pass
        per_op = (time.perf_counter() - start) / n
        assert per_op < 20e-6  # a real span site costs ~ms of work

    def test_observe_is_nearly_free(self):
        import time

        recorder = Recorder()
        n = 20_000
        start = time.perf_counter()
        for i in range(n):
            recorder.observe("lat", i * 1e-6)
        per_op = (time.perf_counter() - start) / n
        assert per_op < 50e-6
        assert recorder.registry.histogram("lat").count == n
