"""Tests for trace sinks and the JSONL trace schema validator."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.obs import (
    TRACE_SCHEMA_VERSION,
    InMemorySink,
    JsonlTraceSink,
    LoggingSink,
    Recorder,
    Span,
    TraceSchemaError,
    validate_trace_file,
    validate_trace_lines,
)


def _sample_trace(recorder: Recorder) -> None:
    with recorder.span("root", finder="x") as root:
        root.add("top", 1)
        with recorder.span("child") as child:
            child.add("leaf", 2)
        with recorder.span("child2"):
            pass


class TestInMemorySink:
    def test_collects_roots(self):
        sink = InMemorySink()
        recorder = Recorder(sinks=[sink])
        _sample_trace(recorder)
        assert len(sink.traces) == 1
        assert sink.traces[0].name == "root"
        assert [c.name for c in sink.traces[0].children] == ["child", "child2"]


class TestLoggingSink:
    def test_one_record_per_span(self, caplog):
        recorder = Recorder(sinks=[LoggingSink()])
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            _sample_trace(recorder)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 3
        assert "span root " in messages[0]
        assert "root/child" in messages[1]
        assert "counters={'leaf': 2}" in messages[1]

    def test_custom_logger_and_level(self, caplog):
        logger = logging.getLogger("test.obs.custom")
        recorder = Recorder(sinks=[LoggingSink(logger=logger, level=logging.DEBUG)])
        with caplog.at_level(logging.DEBUG, logger="test.obs.custom"):
            _sample_trace(recorder)
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        assert len(caplog.records) == 3


class TestJsonlTraceSink:
    def _events(self, recorder_actions) -> list[dict]:
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        recorder = Recorder(sinks=[sink])
        recorder_actions(recorder)
        return [json.loads(line) for line in buffer.getvalue().splitlines()]

    def test_event_layout(self):
        events = self._events(_sample_trace)
        assert [e["event"] for e in events] == [
            "trace_start",
            "span",
            "span",
            "span",
            "trace_end",
        ]
        start = events[0]
        assert start["schema"] == TRACE_SCHEMA_VERSION
        assert start["trace"] == 0
        assert start["name"] == "root"
        root = events[1]
        assert root["path"] == "root"
        assert root["depth"] == 0
        assert root["attributes"] == {"finder": "x"}
        child = events[2]
        assert child["path"] == "root/child"
        assert child["depth"] == 1
        assert child["counters"] == {"leaf": 2}
        end = events[-1]
        assert end["spans"] == 3
        assert end["counter_totals"] == {"leaf": 2, "top": 1}

    def test_multiple_traces_get_sequential_indices(self):
        def actions(recorder):
            _sample_trace(recorder)
            with recorder.span("second"):
                pass

        events = self._events(actions)
        assert [e["trace"] for e in events if e["event"] == "trace_start"] == [0, 1]

    def test_validator_accepts_output(self):
        buffer = io.StringIO()
        recorder = Recorder(sinks=[JsonlTraceSink(buffer)])
        _sample_trace(recorder)
        summary = validate_trace_lines(buffer.getvalue().splitlines())
        assert summary == {"traces": 1, "spans": 3}

    def test_path_target_round_trips_through_file(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with JsonlTraceSink(out) as sink:
            recorder = Recorder(sinks=[sink])
            _sample_trace(recorder)
        summary = validate_trace_file(out)
        assert summary == {"traces": 1, "spans": 3}

    def test_close_leaves_external_file_open(self):
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        recorder = Recorder(sinks=[sink])
        _sample_trace(recorder)
        sink.close()
        assert not buffer.closed


class TestTraceValidator:
    def _valid_lines(self) -> list[str]:
        buffer = io.StringIO()
        recorder = Recorder(sinks=[JsonlTraceSink(buffer)])
        _sample_trace(recorder)
        return buffer.getvalue().splitlines()

    def test_rejects_bad_json(self):
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            validate_trace_lines(["{nope"])

    def test_rejects_empty_file(self):
        with pytest.raises(TraceSchemaError, match="no traces"):
            validate_trace_lines([])

    def test_rejects_truncated_trace(self):
        lines = self._valid_lines()[:-1]  # drop trace_end
        with pytest.raises(TraceSchemaError, match="unterminated"):
            validate_trace_lines(lines)

    def test_rejects_wrong_span_count(self):
        lines = self._valid_lines()
        end = json.loads(lines[-1])
        end["spans"] = 99
        lines[-1] = json.dumps(end)
        with pytest.raises(TraceSchemaError, match="spans"):
            validate_trace_lines(lines)

    def test_rejects_mismatched_counter_totals(self):
        lines = self._valid_lines()
        end = json.loads(lines[-1])
        end["counter_totals"] = {"leaf": 1}
        lines[-1] = json.dumps(end)
        with pytest.raises(TraceSchemaError, match="counter_totals"):
            validate_trace_lines(lines)

    def test_rejects_depth_jump(self):
        lines = self._valid_lines()
        span = json.loads(lines[2])  # root/child at depth 1
        span["depth"] = 2
        span["path"] = "root/?/child"
        lines[2] = json.dumps(span)
        with pytest.raises(TraceSchemaError):
            validate_trace_lines(lines)

    def test_rejects_path_name_mismatch(self):
        lines = self._valid_lines()
        span = json.loads(lines[2])
        span["name"] = "other"
        lines[2] = json.dumps(span)
        with pytest.raises(TraceSchemaError):
            validate_trace_lines(lines)

    def _edit_span(self, lines: list[str], index: int, **changes) -> list[str]:
        span = json.loads(lines[index])
        span.update(changes)
        lines[index] = json.dumps(span)
        return lines

    def test_rejects_wrong_trace_id_on_span(self):
        lines = self._edit_span(self._valid_lines(), 2, trace_id="deadbeef")
        with pytest.raises(TraceSchemaError, match="line 3.*trace_id"):
            validate_trace_lines(lines)

    def test_rejects_out_of_order_span_id(self):
        lines = self._edit_span(self._valid_lines(), 2, span_id=7)
        with pytest.raises(TraceSchemaError, match="span_id"):
            validate_trace_lines(lines)

    def test_rejects_root_with_parent(self):
        lines = self._edit_span(self._valid_lines(), 1, parent_id=0)
        with pytest.raises(TraceSchemaError, match="parent_id"):
            validate_trace_lines(lines)

    def test_rejects_dangling_parent_link(self):
        lines = self._edit_span(self._valid_lines(), 2, parent_id=42)
        with pytest.raises(TraceSchemaError, match="dangling"):
            validate_trace_lines(lines)

    def test_rejects_parent_at_wrong_depth(self):
        # "child2" (pre-order id 2) claims "child" (id 1, depth 1) as its
        # parent while staying at depth 1 itself.
        lines = self._edit_span(self._valid_lines(), 3, parent_id=1)
        with pytest.raises(TraceSchemaError, match="depth"):
            validate_trace_lines(lines)

    def test_error_messages_carry_line_numbers(self):
        lines = self._edit_span(self._valid_lines(), 3, parent_id=42)
        with pytest.raises(TraceSchemaError, match=r"^line 4: "):
            validate_trace_lines(lines)

    def test_rejects_schema_v1_files(self):
        # Strip every v2 field back to the v1 layout: no longer read.
        lines = []
        for raw in self._valid_lines():
            event = json.loads(raw)
            event.pop("trace_id", None)
            event.pop("span_id", None)
            event.pop("parent_id", None)
            if event["event"] == "trace_start":
                event["schema"] = 1
            lines.append(json.dumps(event))
        with pytest.raises(
            TraceSchemaError, match="line 1: unsupported schema version 1"
        ):
            validate_trace_lines(lines)

    def test_rejects_unknown_schema_version(self):
        lines = self._valid_lines()
        start = json.loads(lines[0])
        start["schema"] = 99
        lines[0] = json.dumps(start)
        with pytest.raises(TraceSchemaError, match="schema"):
            validate_trace_lines(lines)
