"""No O(state) work on a cache hit or a deduplicated enqueue.

The service reads the maintained fingerprint in O(1) under its state
lock; it copies the state only on a cache miss (inline) or, in queue
mode, when the queue holds no blob of that content yet, and encodes it
only then.  These tests count the
O(state) operations with spies: ``RbacState.copy``, the full
fingerprint pass and ``encode_state``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import threading
import types
from collections import Counter

import pytest

import repro.core.state as state_module
import repro.io.statecodec as statecodec
from repro.core.state import RbacState
from repro.io.statecodec import decode_state
from repro.jobs import JobQueue, JobWorker
from repro.service import AnalysisService, ServiceConfig
from repro.service.protocol import config_key


def sample_state() -> RbacState:
    return RbacState.build(
        users=[f"u{i}" for i in range(5)],
        roles=[f"r{i}" for i in range(4)],
        permissions=[f"p{i}" for i in range(5)],
        user_assignments=[
            ("r0", "u0"), ("r0", "u1"), ("r1", "u0"), ("r1", "u1"),
            ("r2", "u2"),
        ],
        permission_assignments=[
            ("r0", "p0"), ("r0", "p1"), ("r1", "p0"), ("r1", "p1"),
            ("r2", "p2"),
        ],
    )


@pytest.fixture
def spies(monkeypatch) -> Counter:
    """Counts of every O(state) operation the service might run."""
    calls: Counter = Counter()
    real_copy = RbacState.copy
    real_pass = state_module._content_digest
    real_encode = statecodec.encode_state

    def copy(self):
        calls["copy"] += 1
        return real_copy(self)

    def full_pass(state):
        calls["full_pass"] += 1
        return real_pass(state)

    def encode(state):
        calls["encode_state"] += 1
        return real_encode(state)

    monkeypatch.setattr(RbacState, "copy", copy)
    monkeypatch.setattr(state_module, "_content_digest", full_pass)
    monkeypatch.setattr(statecodec, "encode_state", encode)
    return calls


def make_service(tmp_path=None, **overrides) -> AnalysisService:
    options = dict(warm_start=False, refresh_mutations=None)
    if tmp_path is not None:
        options.update(execution="queue", jobs_path=tmp_path / "jobs.sqlite")
    options.update(overrides)
    return AnalysisService(sample_state(), ServiceConfig(**options))


def analyze(service: AnalysisService) -> dict:
    status, payload, _ = service.handle("POST", "/v1/analyze", b"")
    assert status in (200, 202), payload
    return json.loads(payload) if status == 200 else payload


def mutate(service: AnalysisService, mutations: list[dict]) -> None:
    body = json.dumps({"mutations": mutations}).encode()
    status, payload, _ = service.handle("POST", "/v1/mutations", body)
    assert status == 200, payload


def counters(service: AnalysisService) -> dict:
    return service.handle("GET", "/metricz")[1]["counters"]


class TestInline:
    def test_hit_does_no_state_work(self, spies):
        service = make_service()
        first = analyze(service)
        assert first["cache"] == "miss"
        spies.clear()
        second = analyze(service)
        assert second["cache"] == "hit"
        assert second["fingerprint"] == first["fingerprint"]
        assert spies == Counter()

    def test_miss_copies_exactly_once(self, spies):
        service = make_service()
        analyze(service)
        mutate(service, [{"op": "assign_user", "role": "r3", "user": "u4"}])
        spies.clear()
        doc = analyze(service)
        assert doc["cache"] == "miss"
        assert spies == Counter({"copy": 1})
        assert doc["fingerprint"] == service.state.recompute_fingerprint()

    def test_state_copies_counter_tracks_misses_not_requests(self):
        service = make_service()
        for _ in range(3):
            analyze(service)
        mutate(service, [{"op": "revoke_user", "role": "r0", "user": "u0"}])
        for _ in range(2):
            analyze(service)
        metrics = counters(service)
        assert metrics["service.analyze_miss"] == 2
        assert metrics["service.analyze_hit"] == 3
        assert metrics["service.state_copies"] == 2

    def test_each_miss_reports_its_encode_time_and_bytes(self):
        service = make_service()
        sizes = []
        for step in range(2):
            doc = analyze(service)
            analyze(service)  # a hit encodes nothing
            sizes.append(len(json.dumps(doc["report"], sort_keys=True)))
            mutate(service, [{"op": "assign_user", "role": "r3",
                              "user": f"u{step}"}])
        metricz = service.handle("GET", "/metricz")[1]
        assert metricz["counters"]["service.report_bytes"] == sum(sizes)
        encode = metricz["histograms"]["service.encode_seconds"]
        assert encode["count"] == 2
        assert encode["sum"] > 0

    def test_miss_traces_a_snapshot_span_and_a_hit_does_not(self):
        service = make_service()
        analyze(service)
        analyze(service)
        traces = service.handle("GET", "/tracez?k=10")[1]["traces"]
        snapshotted = sorted(
            any("service.snapshot" in row["path"] for row in entry["tree"])
            for entry in traces
            if entry["endpoint"] == "POST /v1/analyze"
        )
        assert snapshotted == [False, True]

    def test_cache_entry_reaches_no_state(self):
        service = make_service()
        assert analyze(service)["cache"] == "miss"
        entries = list(service.cache._entries.values())
        assert len(entries) == 1
        assert reachable_states(entries) == 0


def reachable_states(roots: list) -> int:
    """The :class:`RbacState` objects reachable from ``roots`` through
    ``gc.get_referents``; classes, modules and functions are not walked
    (through their globals they reach everything)."""
    seen: set[int] = set()
    stack = list(roots)
    found = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, RbacState):
            found += 1
            continue
        stack.extend(gc.get_referents(obj))
    return found


_OPAQUE = (type, types.ModuleType, types.FunctionType, types.MethodType)


class TestQueue:
    def test_duplicate_enqueue_does_no_state_work(self, tmp_path, spies):
        service = make_service(tmp_path)
        spies.clear()  # the auditor copies the state it is given
        try:
            first = analyze(service)
            assert first["created"] is True
            assert spies["copy"] == 1
            assert spies["encode_state"] == 1
            spies.clear()
            second = analyze(service)
            assert second["created"] is False
            assert second["job_id"] == first["job_id"]
            assert spies == Counter()
            metrics = counters(service)
            assert metrics["service.analyze_dedup"] == 1
            assert metrics["service.state_copies"] == 1
        finally:
            service.close()

    def test_same_state_under_another_config_reuses_its_blob(
        self, tmp_path, spies
    ):
        service = make_service(tmp_path)
        spies.clear()
        try:
            first = analyze(service)
            assert spies["encode_state"] == 1
            assert blob_count(service) == 1
            spies.clear()
            assert analyze(service)["created"] is False  # duplicate
            other = json.dumps({"similarity_threshold": 2}).encode()
            status, second, _ = service.handle("POST", "/v1/analyze", other)
            assert status == 202 and second["created"] is True
            assert second["fingerprint"] == first["fingerprint"]
            # Neither the duplicate nor the new job copied or encoded.
            assert spies == Counter()
            assert blob_count(service) == 1
            assert_job_matches_its_key(service, first["job_id"])
        finally:
            service.close()

    def test_mutation_during_the_blob_probe_is_analysed(
        self, tmp_path, monkeypatch
    ):
        service = make_service(tmp_path)
        try:
            queue = service.jobs
            real_probe = queue.has_state_blob
            injected = []

            def probe_after_a_mutation(address):
                # The request has read the fingerprint and released the
                # state lock; land a mutation before its blob exists.
                if not injected:
                    injected.append(address)
                    mutate(service, [
                        {"op": "assign_user", "role": "r3", "user": "u3"}
                    ])
                return real_probe(address)

            monkeypatch.setattr(
                queue, "has_state_blob", probe_after_a_mutation
            )
            doc = analyze(service)
            # The job analyses the state the copy took, mutation included.
            assert doc["created"] is True
            assert doc["fingerprint"] == service.state.recompute_fingerprint()
            assert doc["fingerprint"] != injected[0]
            assert doc["mutation_seq"] == service.mutation_seq
            assert blob_count(service) == 1
            stats = service.jobs.stats()
            assert sum(stats["states"].values()) == 1
            assert_job_matches_its_key(service, doc["job_id"])
        finally:
            service.close()

    def test_blob_probe_runs_with_the_state_lock_free(
        self, tmp_path, monkeypatch
    ):
        service = make_service(tmp_path)
        try:
            queue = service.jobs
            real_probe = queue.has_state_blob
            free = []

            def probe(address):
                # The state lock is reentrant, so only another thread can
                # tell whether this one holds it.
                def try_lock():
                    if service._state_lock.acquire(blocking=False):
                        service._state_lock.release()
                        free.append(True)
                    else:
                        free.append(False)

                other = threading.Thread(target=try_lock)
                other.start()
                other.join(timeout=10)
                return real_probe(address)

            monkeypatch.setattr(queue, "has_state_blob", probe)
            assert analyze(service)["created"] is True
            assert analyze(service)["created"] is False
            assert free == [True, True]
        finally:
            service.close()

    def test_analyze_row_is_never_inserted_before_its_blob(
        self, tmp_path, monkeypatch
    ):
        # At every insert or resurrection of an analyze row, the blob it
        # names is already stored.
        blob_at_insert = []
        real_write = JobQueue._write_queued

        def write_queued(queue, conn, row, spec_hash, kind, *args):
            if kind == "analyze":
                address = json.loads(args[1])["state_ref"]
                blob_at_insert.append(queue.has_state_blob(address))
            return real_write(queue, conn, row, spec_hash, kind, *args)

        monkeypatch.setattr(JobQueue, "_write_queued", write_queued)
        service = make_service(tmp_path)
        try:
            queue = service.jobs
            first = analyze(service)  # a fresh enqueue
            other = json.dumps({"similarity_threshold": 2}).encode()
            status, second, _ = service.handle("POST", "/v1/analyze", other)
            assert status == 202 and second["created"] is True
            assert blob_at_insert == [True, True]

            # Alter the blob: the worker's check fails the job and
            # deletes the blob; the next enqueue resurrects the job.
            data = queue.state_blob(first["fingerprint"])
            queue._connection().execute(
                "UPDATE state_blobs SET data = ? WHERE address = ?",
                (data[:-1] + bytes([data[-1] ^ 1]), first["fingerprint"]),
            )
            worker = JobWorker(queue, worker_id="w")
            while (record := queue.claim("w")) is not None:
                worker.run_one(record)
            assert queue.get(first["job_id"]).state == "failed"
            assert not queue.has_state_blob(first["fingerprint"])
            again = analyze(service)
            assert again["created"] is True
            assert again["job_id"] == first["job_id"]
            assert blob_at_insert == [True, True, True]
            assert_job_matches_its_key(service, again["job_id"])
        finally:
            service.close()

    def test_concurrent_mutations_never_mismatch_a_job(self, tmp_path):
        service = make_service(tmp_path)

        def churn() -> None:
            # Every batch yields content never seen before, so a stale
            # fingerprint can never match the live state again.
            for n in range(500):
                mutate(service, [
                    {"op": "add_user", "id": f"w{n}"},
                    {"op": "assign_user", "role": "r3", "user": f"w{n}"},
                ])

        writer = threading.Thread(target=churn)
        job_ids = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            writer.start()
            while writer.is_alive():
                job_ids.add(analyze(service)["job_id"])
        finally:
            sys.setswitchinterval(interval)
            writer.join(timeout=60)
        try:
            assert not writer.is_alive()
            assert job_ids
            for job_id in job_ids:
                assert_job_matches_its_key(service, job_id)
        finally:
            service.close()


def blob_count(service: AnalysisService) -> int:
    return service.jobs._connection().execute(
        "SELECT COUNT(*) FROM state_blobs"
    ).fetchone()[0]


def assert_job_matches_its_key(service: AnalysisService, job_id: str) -> None:
    """The job's state blob has the fingerprint its spec key names."""
    record = service.jobs.get(job_id, include_payload=True)
    payload = record.payload
    state = decode_state(service.jobs.state_blob(payload["state_ref"]))
    assert state.recompute_fingerprint() == payload["fingerprint"]
    spec_key = hashlib.sha256(
        f"{payload['fingerprint']}|{config_key(service.config.analysis)}"
        .encode("utf-8")
    ).hexdigest()
    assert record.spec_hash == spec_key == job_id
