"""Refresh-scheduler tests: triggers, publication, diffs."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import AnalysisConfig, analyze
from repro.core.reportdiff import ReportDiff
from repro.core.state import RbacState
from repro.exceptions import ConfigurationError
from repro.service import AnalysisService, ServiceConfig
from repro.service.scheduler import RefreshScheduler


def tiny_state(extra_role: bool = False) -> RbacState:
    roles = ["r0", "r1"] + (["r2"] if extra_role else [])
    return RbacState.build(
        users=["u0", "u1"],
        roles=roles,
        permissions=["p0"],
        user_assignments=[("r0", "u0"), ("r1", "u1")],
        permission_assignments=[("r0", "p0")],
    )


class RecordingRunner:
    """A runner that analyses a swappable state and counts invocations."""

    def __init__(self) -> None:
        self.state = tiny_state()
        self.calls = 0
        self.seq = 0
        self.fail_next = False

    def __call__(self):
        self.calls += 1
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("runner exploded")
        self.seq += 1
        report = analyze(self.state, AnalysisConfig())
        return report, self.state.fingerprint(), self.seq


class TestConfiguration:
    def test_trigger_validation(self):
        with pytest.raises(ConfigurationError):
            RefreshScheduler(lambda: None, refresh_mutations=0)
        with pytest.raises(ConfigurationError):
            RefreshScheduler(lambda: None, refresh_seconds=0)

    @pytest.mark.parametrize(
        "seconds",
        [float("nan"), float("inf"), threading.TIMEOUT_MAX * 2],
        ids=["nan", "inf", "past-timeout-max"],
    )
    def test_refresh_seconds_beyond_a_thread_wait_is_rejected(self, seconds):
        # nan made the loop spin; inf overflowed the condition wait.
        with pytest.raises(ConfigurationError, match="refresh_seconds"):
            RefreshScheduler(lambda: None, refresh_seconds=seconds)
        with pytest.raises(ConfigurationError, match="refresh_seconds"):
            AnalysisService(
                RbacState(), ServiceConfig(refresh_seconds=seconds)
            )

    def test_disabled_scheduler_never_starts(self):
        scheduler = RefreshScheduler(RecordingRunner())
        assert not scheduler.enabled
        scheduler.start()
        assert scheduler.stats()["enabled"] is False
        scheduler.stop()


class TestPublication:
    def test_run_once_publishes_without_a_diff(self):
        runner = RecordingRunner()
        scheduler = RefreshScheduler(runner, refresh_mutations=10)
        assert scheduler.latest() is None
        scheduler.run_once()
        latest = scheduler.latest()
        assert latest is not None
        assert latest["seq"] == 1
        assert latest["diff"] is None
        assert latest["fingerprint"] == runner.state.fingerprint()
        assert latest["counts"] == analyze(runner.state).counts()

    def test_second_run_publishes_a_diff(self):
        runner = RecordingRunner()
        scheduler = RefreshScheduler(runner, refresh_mutations=10)
        scheduler.run_once()
        runner.state = tiny_state(extra_role=True)
        scheduler.run_once()
        latest = scheduler.latest()
        assert latest["seq"] == 2
        assert latest["diff"] is not None

    def test_prime_installs_a_baseline(self):
        runner = RecordingRunner()
        scheduler = RefreshScheduler(runner, refresh_mutations=10)
        report, fingerprint, seq = runner()
        scheduler.prime(report, fingerprint, seq)
        latest = scheduler.latest()
        assert latest["seq"] == 1
        assert latest["diff"] is None
        # The primed report is the diff baseline of the next refresh.
        runner.state = tiny_state(extra_role=True)
        scheduler.run_once()
        assert scheduler.latest()["diff"] is not None

    def test_latest_payload_is_built_once_at_publication(self, monkeypatch):
        # latest() is read under the lock notify_mutations also takes, so
        # the diff's dicts are built when the report is published, not
        # per read.
        calls = []
        to_dict = ReportDiff.to_dict
        monkeypatch.setattr(
            ReportDiff, "to_dict", lambda diff: calls.append(1) or to_dict(diff)
        )
        runner = RecordingRunner()
        scheduler = RefreshScheduler(runner, refresh_mutations=10)
        scheduler.run_once()
        runner.state = tiny_state(extra_role=True)
        scheduler.run_once()
        published = len(calls)
        first, second = scheduler.latest(), scheduler.latest()
        assert len(calls) == published
        assert first == second
        assert first["diff"]["new"]

    def test_runner_errors_are_counted_not_fatal(self):
        runner = RecordingRunner()
        scheduler = RefreshScheduler(runner, refresh_mutations=10)
        runner.fail_next = True
        scheduler.run_once()
        assert scheduler.stats() == {
            "enabled": True,
            "runs": 0,
            "errors": 1,
            "pending_mutations": 0,
            "published_seq": 0,
        }
        scheduler.run_once()
        assert scheduler.stats()["runs"] == 1


def wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        threading.Event().wait(0.01)
    return False


class TestBackgroundTriggers:
    def test_mutation_count_trigger(self):
        runner = RecordingRunner()
        scheduler = RefreshScheduler(runner, refresh_mutations=3)
        scheduler.start()
        try:
            scheduler.notify_mutations(2)
            # Below the threshold and no timer: nothing should run.
            assert not wait_for(lambda: runner.calls > 0, timeout=0.2)
            scheduler.notify_mutations(1)
            assert wait_for(lambda: scheduler.stats()["runs"] == 1)
            assert scheduler.latest()["pending_mutations"] == 0
        finally:
            scheduler.stop()

    def test_timed_trigger_needs_pending_mutations(self):
        runner = RecordingRunner()
        scheduler = RefreshScheduler(runner, refresh_seconds=0.05)
        scheduler.start()
        try:
            # No pending mutations: the timer alone must not refresh.
            assert not wait_for(lambda: runner.calls > 0, timeout=0.25)
            scheduler.notify_mutations(1)
            assert wait_for(lambda: scheduler.stats()["runs"] == 1)
        finally:
            scheduler.stop()

    def test_stop_joins_the_thread(self):
        scheduler = RefreshScheduler(RecordingRunner(), refresh_mutations=1)
        scheduler.start()
        scheduler.stop()
        assert scheduler._thread is None
