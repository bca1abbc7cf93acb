"""Tests for offline trace reconstruction and the derived views."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import (
    JsonlTraceSink,
    Recorder,
    TraceAnalysisError,
    collapsed_stacks,
    diff_traces,
    load_trace_file,
    summarize_traces,
)
from repro.obs.traceanalysis import format_diff, format_summary


def _write_trace(tmp_path, actions, name="trace.jsonl"):
    out = tmp_path / name
    with JsonlTraceSink(out) as sink:
        actions(Recorder(sinks=[sink]))
    return out


def _sample(recorder: Recorder) -> None:
    with recorder.span("root"):
        with recorder.span("fast") as fast:
            fast.add("items", 2)
        with recorder.span("slow"):
            with recorder.span("leaf"):
                pass


class TestLoadTraceFile:
    def test_v2_round_trip_preserves_tree(self, tmp_path):
        path = _write_trace(tmp_path, _sample)
        traces = load_trace_file(path)
        assert len(traces) == 1
        trace = traces[0]
        assert trace.orphans == []
        assert trace.spans == 4
        assert trace.root.name == "root"
        assert [c.name for c in trace.root.children] == ["fast", "slow"]
        assert trace.root.children[1].children[0].name == "leaf"
        assert trace.trace_id == trace.root.trace_id

    def test_worker_grafted_trace_has_no_orphans(self, tmp_path):
        def actions(recorder):
            worker = Recorder()
            with worker.span("detector:x") as span:
                span.add("findings", 1)
            with recorder.span("engine"):
                recorder.graft(worker, fragment=0)

        path = _write_trace(tmp_path, actions)
        trace = load_trace_file(path)[0]
        assert trace.orphans == []
        assert [c.name for c in trace.root.children] == ["detector:x"]
        assert trace.root.children[0].attributes["fragment"] == 0

    def test_non_root_span_without_ids_rejected(self, tmp_path):
        # Schema-1 style lines (no span_id/parent_id) have no parent
        # links to follow; the loader names the first such span's line.
        lines = [
            {"event": "trace_start", "schema": 1, "trace": 0, "name": "r"},
            {"event": "span", "trace": 0, "path": "r", "name": "r",
             "depth": 0, "start_s": 0.0, "duration_s": 1.0,
             "attributes": {}, "counters": {}},
            {"event": "span", "trace": 0, "path": "r/a", "name": "a",
             "depth": 1, "start_s": 0.0, "duration_s": 0.4,
             "attributes": {}, "counters": {}},
            {"event": "trace_end", "trace": 0, "spans": 2,
             "counter_totals": {}},
        ]
        path = tmp_path / "v1.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        with pytest.raises(
            TraceAnalysisError,
            match="line 3: non-root span without integer span_id/parent_id",
        ):
            load_trace_file(path)

    def test_dangling_parent_recorded_as_orphan(self, tmp_path):
        path = _write_trace(tmp_path, _sample)
        lines = path.read_text().splitlines()
        doctored = []
        for raw in lines:
            event = json.loads(raw)
            if event.get("event") == "span" and event.get("name") == "leaf":
                event["parent_id"] = 99  # never emitted
            doctored.append(json.dumps(event))
        path.write_text("\n".join(doctored) + "\n")
        trace = load_trace_file(path)[0]
        assert trace.orphans == [3]
        # The orphan stays visible, re-attached under the root.
        assert "leaf" in [c.name for c in trace.root.children]

    def test_rejects_bad_json_and_missing_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        with pytest.raises(TraceAnalysisError, match="not valid JSON"):
            load_trace_file(bad)
        with pytest.raises(TraceAnalysisError, match="cannot read"):
            load_trace_file(tmp_path / "missing.jsonl")

    def test_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceAnalysisError, match="no traces"):
            load_trace_file(empty)


class TestSummarize:
    def test_counts_and_by_name(self, tmp_path):
        traces = load_trace_file(_write_trace(tmp_path, _sample))
        summary = summarize_traces(traces, top=3)
        assert summary["traces"] == 1
        assert summary["spans"] == 4
        assert summary["orphan_spans"] == 0
        names = {row["name"]: row for row in summary["by_name"]}
        assert set(names) == {"root", "fast", "slow", "leaf"}
        assert names["root"]["count"] == 1
        assert len(summary["slowest"]) == 3
        # Slowest is sorted descending by duration.
        durations = [row["duration_s"] for row in summary["slowest"]]
        assert durations == sorted(durations, reverse=True)

    def test_critical_path_descends_to_latest_ending_child(self, tmp_path):
        traces = load_trace_file(_write_trace(tmp_path, _sample))
        crumbs = [
            step["name"]
            for step in summary_path(summarize_traces(traces))
        ]
        # "slow" starts after "fast" and therefore ends last.
        assert crumbs == ["root", "slow", "leaf"]

    def test_format_summary_renders(self, tmp_path):
        traces = load_trace_file(_write_trace(tmp_path, _sample))
        text = format_summary(summarize_traces(traces))
        assert "traces: 1" in text
        assert "critical path:" in text
        assert "slowest spans:" in text


def summary_path(summary):
    return summary["per_trace"][0]["critical_path"]


class TestCollapsedStacks:
    def test_format_and_weights(self, tmp_path):
        traces = load_trace_file(_write_trace(tmp_path, _sample))
        lines = collapsed_stacks(traces)
        stacks = dict(
            (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
            for line in lines
        )
        assert "root;slow;leaf" in stacks
        assert all(weight >= 0 for weight in stacks.values())
        # Frame separator is ';', weight is integer microseconds.
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)


class TestDiff:
    def test_deltas_and_ordering(self, tmp_path):
        before = load_trace_file(_write_trace(tmp_path, _sample, "a.jsonl"))

        def bigger(recorder):
            _sample(recorder)
            with recorder.span("extra"):
                pass

        after = load_trace_file(_write_trace(tmp_path, bigger, "b.jsonl"))
        rows = diff_traces(before, after)
        by_name = {row["name"]: row for row in rows}
        assert by_name["extra"]["count_before"] == 0
        assert by_name["extra"]["count_delta"] == 1
        assert by_name["root"]["count_delta"] == 0  # same tree on both sides
        deltas = [abs(row["total_delta_s"]) for row in rows]
        assert deltas == sorted(deltas, reverse=True)
        assert "extra" in format_diff(rows)
