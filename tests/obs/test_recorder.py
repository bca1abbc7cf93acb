"""Unit tests for spans and recorders."""

from __future__ import annotations

import gc
import threading

import pytest

from repro.obs import (
    GC_COLLECTIONS,
    GC_PAUSE,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    Span,
    counter_totals,
    current_recorder,
    span_count,
    tree_signature,
    use_recorder,
)
from repro.obs.recorder import _on_gc


class TestSpan:
    def test_add_accumulates(self):
        span = Span("s")
        span.add("hits")
        span.add("hits", 2)
        assert span.counters == {"hits": 3}

    def test_annotate_merges(self):
        span = Span("s", attributes={"a": 1})
        span.annotate(b=2)
        assert span.attributes == {"a": 1, "b": 2}

    def test_walk_preorder_paths(self):
        root = Span("root", children=[
            Span("a", children=[Span("leaf")]),
            Span("b"),
        ])
        assert [(p, d) for p, d, _ in root.walk()] == [
            ("root", 0),
            ("root/a", 1),
            ("root/a/leaf", 2),
            ("root/b", 1),
        ]

    def test_counter_totals_sum_subtree(self):
        root = Span("root", counters={"x": 1}, children=[
            Span("a", counters={"x": 2, "y": 5}),
            Span("b", children=[Span("c", counters={"y": 1})]),
        ])
        assert counter_totals(root) == {"x": 3, "y": 6}
        assert span_count(root) == 4

    def test_tree_signature_ignores_durations(self):
        a = Span("root", duration=1.0, children=[Span("c", duration=2.0)])
        b = Span("root", duration=9.0, children=[Span("c", duration=0.1)])
        assert tree_signature(a) == tree_signature(b)


class TestRecorder:
    def test_nested_spans_form_tree(self):
        recorder = Recorder()
        with recorder.span("outer") as outer:
            with recorder.span("inner") as inner:
                inner.add("n", 2)
        assert recorder.traces == [outer]
        assert outer.children == [inner]
        assert outer.duration >= inner.duration >= 0

    def test_start_is_root_relative(self):
        recorder = Recorder()
        with recorder.span("outer"):
            with recorder.span("inner") as inner:
                pass
        root = recorder.traces[0]
        assert root.start == 0.0
        assert inner.start >= 0.0

    def test_sibling_spans(self):
        recorder = Recorder()
        with recorder.span("root"):
            with recorder.span("a"):
                pass
            with recorder.span("b"):
                pass
        assert [c.name for c in recorder.traces[0].children] == ["a", "b"]

    def test_exception_annotates_and_propagates(self):
        recorder = Recorder()
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("nope")
        assert recorder.traces[0].attributes["error"] == "ValueError"

    def test_sinks_receive_each_completed_trace(self):
        emitted = []

        class FakeSink:
            def emit(self, root):
                emitted.append(root.name)

        recorder = Recorder(sinks=[FakeSink()])
        with recorder.span("one"):
            pass
        with recorder.span("two"):
            with recorder.span("nested"):
                pass
        assert emitted == ["one", "two"]

    def test_graft_attaches_under_current_span(self):
        recorder = Recorder()
        block = Recorder()
        with block.span("block") as span:
            span.add("w", 1)
        with recorder.span("root"):
            recorder.graft(block)
        root = recorder.traces[0]
        assert root.children == [span]  # the span object itself
        assert recorder.counter_totals() == {"w": 1}

    def test_graft_outside_span_becomes_trace(self):
        recorder = Recorder(trace_id="parent-trace")
        block = Recorder()
        with block.span("orphan"):
            pass
        recorder.graft(block)
        assert [t.name for t in recorder.traces] == ["orphan"]
        assert recorder.traces[0].trace_id == "parent-trace"

    def test_graft_stamps_fragment_drops_trace_id_and_merges_metrics(self):
        recorder = Recorder()
        recorder.observe("block_seconds", 1.0)
        block = Recorder()
        with block.span("block") as span:
            block.observe("block_seconds", 0.5)
            block.registry.inc("items", 3)
        assert span.trace_id is not None  # completed as the block's trace
        with recorder.span("root") as root:
            recorder.graft(block, fragment=4)
        assert span.attributes["fragment"] == 4
        assert span.trace_id is None
        assert root.trace_id is not None
        assert recorder.registry.histogram("block_seconds").count == 2
        assert recorder.registry.counter("items").value == 3

    def test_counter_totals_across_traces(self):
        recorder = Recorder()
        for _ in range(2):
            with recorder.span("t") as span:
                span.add("c", 2)
        assert recorder.counter_totals() == {"c": 4}
        assert recorder.span_count() == 2


class TestGcAttribution:
    def test_full_collection_inside_a_span_is_counted_and_timed(self):
        recorder = Recorder()
        with recorder.span("root"):
            with recorder.span("child"):
                gc.collect(2)
        snapshot = recorder.registry.snapshot()
        assert snapshot["counters"][GC_COLLECTIONS] == 1
        pauses = snapshot["histograms"][GC_PAUSE]
        assert pauses["count"] == 1
        assert pauses["sum"] > 0.0
        # Not a span counter: span counters stay deterministic.
        assert GC_COLLECTIONS not in recorder.counter_totals()

    def test_young_collections_and_idle_recorders_are_ignored(self):
        recorder = Recorder()
        gc.collect(2)  # no span open: the hook is not installed
        with recorder.span("root"):
            gc.collect(0)
        assert _on_gc not in gc.callbacks
        assert recorder.registry.snapshot()["counters"] == {}

    def test_overlapping_recorders_on_two_threads_count_once(self):
        opened, collected = threading.Event(), threading.Event()
        other = Recorder()

        def hold_span_open():
            with other.span("other"):
                opened.set()
                collected.wait(10)

        thread = threading.Thread(target=hold_span_open)
        thread.start()
        opened.wait(10)
        mine = Recorder()
        with mine.span("mine"):
            assert gc.callbacks.count(_on_gc) == 1  # one hook for both
            gc.collect(2)
        collected.set()
        thread.join(10)
        # The collection ran on this thread: only its recorder has it.
        assert mine.registry.snapshot()["counters"][GC_COLLECTIONS] == 1
        assert GC_COLLECTIONS not in other.registry.snapshot()["counters"]
        assert _on_gc not in gc.callbacks

    def test_nested_recorders_charge_the_innermost(self):
        outer, inner = Recorder(), Recorder()
        with outer.span("outer"):
            with inner.span("inner"):
                gc.collect(2)
            gc.collect(2)
        assert inner.registry.snapshot()["counters"][GC_COLLECTIONS] == 1
        assert outer.registry.snapshot()["counters"][GC_COLLECTIONS] == 1

    def test_report_metrics_carry_gc(self, paper_example, monkeypatch):
        from repro.core.engine import AnalysisEngine

        recorder = Recorder()
        engine = AnalysisEngine()
        detect = engine._detectors[0].detect

        def collecting(context):
            gc.collect(2)
            return detect(context)

        monkeypatch.setattr(engine._detectors[0], "detect", collecting)
        report = engine.analyze(paper_example, recorder=recorder)
        assert report.metrics["gc"]["collections"] == 1
        assert report.metrics["gc"]["pause_s"]["count"] == 1
        assert GC_PAUSE not in report.metrics["histograms"]


class TestNullRecorder:
    def test_everything_is_a_no_op(self):
        null = NullRecorder()
        with null.span("anything", attr=1) as span:
            span.add("c", 5)
            span.annotate(x=2)
        assert null.traces == []
        assert null.counter_totals() == {}
        assert null.span_count() == 0

    def test_shared_singleton_is_disabled(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.measure_memory is False


class TestCurrentRecorder:
    def test_defaults_to_null(self):
        assert current_recorder() is NULL_RECORDER

    def test_use_recorder_installs_and_restores(self):
        recorder = Recorder()
        with use_recorder(recorder):
            assert current_recorder() is recorder
            nested = Recorder()
            with use_recorder(nested):
                assert current_recorder() is nested
            assert current_recorder() is recorder
        assert current_recorder() is NULL_RECORDER

    def test_restored_after_exception(self):
        recorder = Recorder()
        with pytest.raises(RuntimeError):
            with use_recorder(recorder):
                raise RuntimeError
        assert current_recorder() is NULL_RECORDER
