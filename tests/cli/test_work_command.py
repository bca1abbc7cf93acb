"""Tests for the ``repro work`` subcommand (queue worker attachment)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.jobs import JobQueue

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def queue_path(tmp_path):
    path = tmp_path / "jobs.sqlite"
    queue = JobQueue(path)
    for n in range(3):
        queue.enqueue("sleep", {"seconds": 0, "n": n})
    queue.close()
    return path


class TestArguments:
    def test_workers_must_be_positive(self, queue_path, capsys):
        assert main(["work", str(queue_path), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err


class TestSingleWorker:
    def test_drains_queue_and_reports_counts(self, queue_path, capsys):
        assert (
            main(
                [
                    "work", str(queue_path),
                    "--max-jobs", "3",
                    "--poll", "0.01",
                    "--idle-exit", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"attached to {queue_path}" in out
        assert "worker done: 3 completed, 0 failed" in out
        queue = JobQueue(queue_path)
        assert queue.counts_by_state()["done"] == 3
        queue.close()

    def test_idle_exit_on_empty_queue(self, tmp_path, capsys):
        path = tmp_path / "empty.sqlite"
        JobQueue(path).close()
        assert (
            main(
                ["work", str(path), "--poll", "0.01", "--idle-exit", "0.05"]
            )
            == 0
        )
        assert "0 completed" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_idle_exit_is_one_error_line(self, tmp_path, capsys, value):
        path = tmp_path / "empty.sqlite"
        JobQueue(path).close()
        assert main(["work", str(path), "--idle-exit", value]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: idle_exit_seconds must be in")

    @pytest.mark.parametrize(
        "option", [["--idle-exit", "nan"], ["--poll", "0"], ["--lease", "nan"]]
    )
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rejected_run_leaves_nothing_behind(
        self, tmp_path, capsys, option, workers
    ):
        new_dir = tmp_path / "new"
        args = ["work", str(new_dir / "q.sqlite"), "--workers", workers]
        assert main(args + option) == 1
        out, err = capsys.readouterr()
        assert "attached" not in out
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ")
        assert not new_dir.exists()

    def test_trace_out_writes_stitchable_traces(
        self, queue_path, tmp_path, capsys
    ):
        trace_file = tmp_path / "worker.jsonl"
        queue = JobQueue(queue_path)
        queue.enqueue("sleep", {"seconds": 0, "n": 99}, trace_id="e" * 32)
        queue.close()
        assert (
            main(
                [
                    "work", str(queue_path),
                    "--max-jobs", "4",
                    "--poll", "0.01",
                    "--idle-exit", "5",
                    "--trace-out", str(trace_file),
                ]
            )
            == 0
        )
        events = [
            json.loads(line)
            for line in trace_file.read_text().splitlines()
        ]
        spans = [e for e in events if e["event"] == "span"]
        assert {s["name"] for s in spans} == {"jobs.run", "jobs.encode_result"}
        # The enqueuer's trace id survives into the worker's trace file.
        assert "e" * 32 in {e.get("trace_id") for e in events}


class TestMultiWorker:
    def test_two_processes_drain_the_queue(self, queue_path, capsys):
        queue = JobQueue(queue_path)
        for n in range(3, 8):
            queue.enqueue("sleep", {"seconds": 0, "n": n})
        queue.close()
        assert (
            main(
                [
                    "work", str(queue_path),
                    "--workers", "2",
                    "--poll", "0.01",
                    "--idle-exit", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 workers attached" in out
        assert "pids:" in out
        queue = JobQueue(queue_path)
        assert queue.counts_by_state()["done"] == 8
        queue.close()

    def test_log_level_reaches_every_worker_process(self, tmp_path):
        path = tmp_path / "one.sqlite"
        queue = JobQueue(path)
        record, _ = queue.enqueue("sleep", {"seconds": 0})
        queue.close()
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "work", str(path),
                "--workers", "2", "--poll", "0.05",
                "--log-level", "info", "--idle-exit", "1",
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "all workers exited" in done.stdout
        # The child that ran the job logged its span through the
        # stdlib logging the CLI configured in that process.
        span_lines = [
            line for line in done.stderr.splitlines()
            if "span jobs.run " in line
        ]
        assert len(span_lines) == 1, done.stderr
        assert record.job_id in span_lines[0]
