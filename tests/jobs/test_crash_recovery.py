"""Crash-recovery properties of the job plane.

The contract under test (ISSUE: job-plane crash recovery):

* a worker SIGKILLed mid-lease stops heartbeating, the reaper requeues
  the job **exactly once**, and a healthy worker's retry completes it;
* the retried attempt of an ``analyze`` job produces a byte-identical
  report (after the repo's standard run-specific-key normalisation);
* no job is ever double-completed, even when a slow first holder races
  the retry's holder, and even under many concurrent claimers with a
  reaper sweeping at the same time.

The SIGKILL test uses a real subprocess (the point is that *nothing*
runs after the kill — no atexit, no finally).  The deterministic tests
simulate the dead worker with an unheartbeated claim and explicit
``now`` values, so they need no sleeps and no real clock.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.engine import AnalysisConfig, analyze
from repro.core.state import RbacState
from repro.io.statecodec import encode_state
from repro.jobs import JobQueue, JobWorker
from repro.jobs.queue import BACKOFF_CAP_SECONDS

SRC = Path(__file__).resolve().parents[2] / "src"

#: Inline worker entrypoint for the subprocess test: short lease so the
#: reaper notices the kill quickly, tight poll so the claim is fast.
WORKER_SCRIPT = """
import sys
from repro.jobs import run_worker

run_worker(sys.argv[1], worker_id=sys.argv[2], lease_seconds=1.0,
           poll_seconds=0.05)
"""


def sample_state() -> RbacState:
    return RbacState.build(
        users=[f"u{i}" for i in range(6)],
        roles=[f"r{i}" for i in range(5)],
        permissions=[f"p{i}" for i in range(6)],
        user_assignments=[
            ("r0", "u0"), ("r0", "u1"), ("r1", "u0"), ("r1", "u1"),
            ("r2", "u2"), ("r3", "u3"),
        ],
        permission_assignments=[
            ("r0", "p0"), ("r0", "p1"), ("r1", "p0"), ("r1", "p1"),
            ("r2", "p2"), ("r3", "p3"),
        ],
    )


def normalized(report_dict: dict) -> str:
    payload = dict(report_dict)
    for key in ("timings_seconds", "total_seconds", "metrics"):
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


def wait_until(predicate, timeout: float = 20.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s")


class TestSigkillMidLease:
    def test_killed_worker_is_reaped_exactly_once_and_retried(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        queue = JobQueue(path, lease_seconds=1.0)
        record, _ = queue.enqueue("sleep", {"seconds": 120})

        process = subprocess.Popen(
            [sys.executable, "-c", WORKER_SCRIPT, str(path), "victim:worker"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            # Wait for the subprocess to take the lease, then kill it
            # mid-sleep: SIGKILL means no cleanup code runs at all.
            wait_until(
                lambda: (queue.get(record.job_id) or record).state == "leased"
            )
            assert queue.get(record.job_id).leased_by == "victim:worker"
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)

            # Sweep until the lease expires; count every requeue we see.
            requeues: list[str] = []

            def sweep():
                requeues.extend(queue.reap_expired()["requeued"])
                return requeues

            wait_until(sweep, timeout=20.0)
            # A few extra sweeps must not requeue it again.
            for _ in range(3):
                queue.reap_expired()
            assert requeues == [record.job_id]
            assert queue.counters()["jobs.lease_expired"] == 1

            requeued = wait_until(
                lambda: queue.claim("rescuer", now=time.time() + 60)
            )
            assert requeued.job_id == record.job_id
            assert requeued.attempts == 2  # the kill burned attempt 1
            assert queue.complete(record.job_id, "rescuer", {"rescued": True})
            assert queue.get(record.job_id).state == "done"
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            queue.close()


class TestRetryParity:
    def test_retry_after_crash_produces_byte_identical_report(self, tmp_path):
        state = sample_state()
        config = AnalysisConfig()
        inline = analyze(state, config)

        queue = JobQueue(tmp_path / "jobs.sqlite", lease_seconds=10.0)
        queue.put_state_blob(state.fingerprint(), encode_state(state))
        record, _ = queue.enqueue(
            "analyze",
            {
                "state_ref": state.fingerprint(),
                "config": config.to_dict(),
                "fingerprint": state.fingerprint(),
                "mutation_seq": 0,
            },
        )
        # Attempt 1 "crashes": claimed, never heartbeated, lease expires.
        t0 = time.time()
        dead = queue.claim("w-dead", now=t0)
        assert dead is not None
        swept = queue.reap_expired(now=dead.lease_expires_at + 1)
        assert swept["requeued"] == [record.job_id]

        # Attempt 2 runs for real and must reproduce the inline bytes.
        worker = JobWorker(queue, worker_id="w-live")
        retried = queue.claim(
            "w-live", now=dead.lease_expires_at + BACKOFF_CAP_SECONDS + 1
        )
        assert retried.attempts == 2
        assert worker.run_one(retried)
        result = queue.get(record.job_id).result
        assert normalized(result["report"]) == normalized(inline.to_dict())
        queue.close()


class TestNoDoubleComplete:
    def test_slow_first_holder_cannot_overwrite_the_retry(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite", lease_seconds=10.0)
        record, _ = queue.enqueue("sleep", {"seconds": 0})
        t0 = time.time()
        first = queue.claim("w-slow", now=t0)
        queue.reap_expired(now=first.lease_expires_at + 1)
        second = queue.claim(
            "w-fast", now=first.lease_expires_at + BACKOFF_CAP_SECONDS + 1
        )
        assert second is not None
        assert queue.complete(record.job_id, "w-fast", {"winner": "w-fast"})
        # The original holder wakes up late and tries to report: refused.
        assert not queue.complete(record.job_id, "w-slow", {"winner": "w-slow"})
        final = queue.get(record.job_id)
        assert final.result == {"winner": "w-fast"}
        assert queue.counters()["jobs.completed"] == 1
        assert queue.counters()["jobs.stale_completions"] == 1
        queue.close()

    def test_concurrent_claimers_with_reaper_complete_each_job_once(
        self, tmp_path
    ):
        queue = JobQueue(tmp_path / "jobs.sqlite", lease_seconds=30.0)
        n_jobs = 12
        for n in range(n_jobs):
            queue.enqueue("sleep", {"n": n})
        completions: list[str] = []
        lock = threading.Lock()
        stop = threading.Event()

        def claimer(worker_id: str) -> None:
            while not stop.is_set():
                record = queue.claim(worker_id)
                if record is None:
                    return
                if queue.complete(record.job_id, worker_id, {"by": worker_id}):
                    with lock:
                        completions.append(record.job_id)

        def reaper() -> None:
            while not stop.is_set():
                queue.reap_expired()
                time.sleep(0.005)

        threads = [
            threading.Thread(target=claimer, args=(f"w{i}",)) for i in range(4)
        ]
        reap_thread = threading.Thread(target=reaper)
        reap_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        reap_thread.join()

        assert len(completions) == n_jobs
        assert len(set(completions)) == n_jobs  # exactly once each
        assert queue.counts_by_state()["done"] == n_jobs
        assert queue.counters()["jobs.completed"] == n_jobs
        assert queue.counters().get("jobs.stale_completions", 0) == 0
        queue.close()
