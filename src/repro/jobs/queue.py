"""Durable job queue: a sqlite-backed ``task_runs`` table with leases.

The queue is the shared medium between the enqueuing service and any
number of worker *processes* (possibly on different hosts sharing a
filesystem).  Everything rides on one sqlite file in WAL mode — no
broker, no third-party dependency — and every transition is a single
guarded transaction, so crash recovery falls out of the schema instead
of being bolted on:

* **Idempotent enqueue** — a job's identity is the SHA-256 of its
  canonical spec (``kind`` + payload, or an explicit ``spec_key``).
  Re-enqueueing the same spec returns the existing row instead of
  duplicating work; a previously ``failed``/``lost`` spec is
  resurrected into ``queued`` with a fresh attempt budget.
* **Claim-with-lease** — :meth:`JobQueue.claim` emulates Postgres
  ``SKIP LOCKED`` with a SELECT of the oldest runnable ``queued`` row
  and a guarded UPDATE that flips it to ``leased``, both inside one
  ``BEGIN IMMEDIATE`` transaction: the write lock is held across the
  two statements, so two concurrent claimers can never obtain the same
  job, on every sqlite release (``UPDATE ... RETURNING`` would need
  3.35).  A lease expires at ``lease_expires_at`` unless the worker
  heartbeats.
* **Reaping** — :meth:`JobQueue.reap_expired` requeues expired leases
  with exponential backoff (bounded by ``max_attempts``, after which
  the job is dead-lettered as ``lost``) and fails ``queued`` jobs whose
  queue-visible deadline (``expires_at``) has passed, so workers never
  burn time on requests nobody is waiting for.
* **Guarded completion** — :meth:`complete`/:meth:`fail` only apply
  while the caller still holds the lease, so a worker that lost its
  lease to the reaper cannot double-complete a job that was retried
  elsewhere.

State machine (see ``docs/ARCHITECTURE.md`` for the full diagram)::

    queued ──claim──▶ leased ──complete──▶ done
      ▲                 │ │
      │   lease expired │ └──fail──▶ failed   (also: queued deadline
      └──(reap, retry)──┘                      expiry ──▶ failed)
                        └──(reap, attempts exhausted)──▶ lost

Counters (``jobs.*``) and log-bucketed histograms (queue wait, run
time) are persisted in side tables inside the same transactions, so
``/metricz`` reports exact totals across every process that ever
touched the queue file — including workers that since died.

Bulky inputs do not ride in job rows: a ``state_blobs`` table stores
each analysed state once, as a :mod:`repro.io.statecodec` blob under its
fingerprint, and an ``analyze`` payload names it (``state_ref``).  A
blob carries the SHA-256 of its bytes, checked on every load.  Every
document a transition stores is encoded before its transaction opens,
so the write lock is never held for O(payload) work.
"""

from __future__ import annotations

import json
import hashlib
import sqlite3
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

from repro.exceptions import ConfigurationError, DataFormatError, ReproError
from repro.obs.metrics import Histogram

__all__ = [
    "BACKOFF_CAP_SECONDS",
    "BACKOFF_SECONDS",
    "JOB_STATES",
    "JobError",
    "JobRecord",
    "JobQueue",
    "spec_key_of",
]

#: Requeue delay (seconds) after a lease expiry or retryable failure:
#: ``BACKOFF_SECONDS * 2**(attempts-1)``, capped at
#: ``BACKOFF_CAP_SECONDS``.
BACKOFF_SECONDS = 0.5
BACKOFF_CAP_SECONDS = 60.0

#: Every state a ``task_runs`` row can be in.  ``queued`` and ``leased``
#: are live; ``done``, ``failed`` and ``lost`` are terminal (``lost`` =
#: dead-lettered after exhausting its lease-expiry retries).
JOB_STATES = ("queued", "leased", "done", "failed", "lost")
TERMINAL_STATES = ("done", "failed", "lost")

#: Histogram names persisted in the queue file and surfaced by
#: ``/metricz`` (see docs/OBSERVABILITY.md).
QUEUE_WAIT_HISTOGRAM = "jobs.queue_wait_seconds"
RUN_SECONDS_HISTOGRAM = "jobs.run_seconds"

#: Version 2 added ``state_blobs``; a version-1 file is upgraded in
#: place (its leftover inline-state ``analyze`` jobs fail when run).
_SCHEMA_VERSION = 2

_COLUMNS = (
    "job_id", "spec_hash", "kind", "state", "attempts", "max_attempts",
    "enqueued_at", "not_before", "expires_at", "leased_by", "leased_at",
    "lease_expires_at", "heartbeat_at", "first_claimed_at", "finished_at",
    "queue_wait_seconds", "run_seconds", "trace_id", "error",
)
_COLUMN_SQL = ", ".join(_COLUMNS)


class JobError(ReproError):
    """A job-plane operation failed (bad queue file, unknown job, ...)."""


def spec_key_of(kind: str, payload: dict[str, Any]) -> str:
    """The canonical spec hash of ``(kind, payload)``.

    SHA-256 over the sorted, separator-normalised JSON encoding — the
    same payload always hashes identically, so enqueueing is naturally
    idempotent.  Callers whose payload has a cheaper identity of its
    own (the service's analyses are identified by ``(fingerprint,
    config_key)``) pass an explicit ``spec_key`` to
    :meth:`JobQueue.enqueue` instead.
    """
    canonical = json.dumps(
        {"kind": kind, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobRecord:
    """One row of ``task_runs`` (payload parsed, result text kept, when
    selected)."""

    job_id: str
    spec_hash: str
    kind: str
    state: str
    attempts: int
    max_attempts: int
    enqueued_at: float
    not_before: float
    expires_at: float | None
    leased_by: str | None
    leased_at: float | None
    lease_expires_at: float | None
    heartbeat_at: float | None
    first_claimed_at: float | None
    finished_at: float | None
    queue_wait_seconds: float | None
    run_seconds: float | None
    trace_id: str | None
    error: str | None
    #: Parsed JSON payload — ``None`` unless selected with the payload
    #: (claims always carry it; status reads skip it to stay cheap).
    payload: dict[str, Any] | None = None
    #: The stored result, ``json.dumps(result, sort_keys=True)`` —
    #: ``None`` unless the job is ``done`` and the row was read with
    #: ``include_result=True``.
    result_text: str | None = None

    @cached_property
    def result(self) -> dict[str, Any] | None:
        """The parsed result (parsed on first access)."""
        if self.result_text is None:
            return None
        return json.loads(self.result_text)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def public_dict(self) -> dict[str, Any]:
        """The JSON shape ``GET /v1/jobs/{id}`` serves (no payload/result
        body — the report rides separately so this stays O(1))."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "terminal": self.terminal,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "enqueued_at": self.enqueued_at,
            "expires_at": self.expires_at,
            "leased_by": self.leased_by,
            "lease_expires_at": self.lease_expires_at,
            "finished_at": self.finished_at,
            "queue_wait_seconds": self.queue_wait_seconds,
            "run_seconds": self.run_seconds,
            "trace_id": self.trace_id,
            "error": self.error,
        }


class JobQueue:
    """Durable, multi-process job queue over one sqlite file.

    Thread-safe (per-thread connections) and multi-process-safe (WAL +
    immediate transactions).  All timestamps are wall-clock
    (``time.time()``) because rows are compared across processes and
    survive restarts; ``time_source`` is injectable for deterministic
    tests.

    Parameters
    ----------
    path:
        The queue database file (created, with its parent directory, on
        first use).
    lease_seconds:
        How long a claim remains valid without a heartbeat.
    max_attempts:
        Claims a job may consume before the reaper dead-letters it.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        lease_seconds: float = 15.0,
        max_attempts: int = 3,
        time_source: Callable[[], float] = time.time,
    ) -> None:
        # Chained so that nan fails too (sqlite stores a nan expiry as
        # NULL, which the reaper never matches); a heartbeat waits a
        # third of the lease, and a wait past TIMEOUT_MAX overflows.
        if not 0 < lease_seconds <= threading.TIMEOUT_MAX:
            raise ConfigurationError(
                f"lease_seconds must be in (0, {threading.TIMEOUT_MAX:g}] "
                f"(got {lease_seconds})"
            )
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1 (got {max_attempts})"
            )
        self.path = Path(path)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self._time = time_source
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._closed = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._ensure_schema()

    # ------------------------------------------------------------------
    # Connections + schema
    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        if self._closed:
            raise JobError(f"queue {self.path} is closed")
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        conn = sqlite3.connect(
            str(self.path),
            timeout=30.0,
            isolation_level=None,  # explicit transactions only
            check_same_thread=False,
        )
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        self._local.conn = conn
        with self._connections_lock:
            self._connections.append(conn)
        return conn

    def _ensure_schema(self) -> None:
        conn = self._connection()
        with self._transaction(conn):
            conn.execute(
                """
                CREATE TABLE IF NOT EXISTS task_runs (
                    id INTEGER PRIMARY KEY AUTOINCREMENT,
                    job_id TEXT NOT NULL UNIQUE,
                    spec_hash TEXT NOT NULL,
                    kind TEXT NOT NULL,
                    state TEXT NOT NULL,
                    attempts INTEGER NOT NULL DEFAULT 0,
                    max_attempts INTEGER NOT NULL,
                    payload TEXT NOT NULL,
                    result TEXT,
                    error TEXT,
                    trace_id TEXT,
                    enqueued_at REAL NOT NULL,
                    not_before REAL NOT NULL DEFAULT 0,
                    expires_at REAL,
                    leased_by TEXT,
                    leased_at REAL,
                    lease_expires_at REAL,
                    heartbeat_at REAL,
                    first_claimed_at REAL,
                    finished_at REAL,
                    queue_wait_seconds REAL,
                    run_seconds REAL
                )
                """
            )
            conn.execute(
                "CREATE INDEX IF NOT EXISTS task_runs_claim "
                "ON task_runs (state, not_before, id)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS job_counters ("
                "name TEXT PRIMARY KEY, value REAL NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS job_histograms ("
                "name TEXT PRIMARY KEY, payload TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS state_blobs ("
                "address TEXT PRIMARY KEY, sha256 TEXT NOT NULL, "
                "data BLOB NOT NULL)"
            )
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version in (0, 1):
                conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")
            elif version != _SCHEMA_VERSION:
                raise JobError(
                    f"queue {self.path} has schema version {version}; "
                    f"this build supports {_SCHEMA_VERSION}"
                )

    class _transaction:
        """``BEGIN IMMEDIATE`` context manager (commit/rollback)."""

        __slots__ = ("_conn",)

        def __init__(self, conn: sqlite3.Connection) -> None:
            self._conn = conn

        def __enter__(self) -> sqlite3.Connection:
            self._conn.execute("BEGIN IMMEDIATE")
            return self._conn

        def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
            if exc_type is None:
                self._conn.execute("COMMIT")
            else:
                self._conn.execute("ROLLBACK")
            return False

    def close(self) -> None:
        """Close every connection this queue opened (any thread)."""
        self._closed = True
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Internal accounting (call inside an open transaction)
    # ------------------------------------------------------------------
    @staticmethod
    def _bump(conn: sqlite3.Connection, name: str, value: float = 1) -> None:
        conn.execute(
            "INSERT INTO job_counters (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
            (name, value),
        )

    @staticmethod
    def _observe(conn: sqlite3.Connection, name: str, value: float) -> None:
        """Fold one observation into a persisted mergeable histogram."""
        row = conn.execute(
            "SELECT payload FROM job_histograms WHERE name = ?", (name,)
        ).fetchone()
        histogram = Histogram(name)
        if row is not None:
            histogram.merge_dict(json.loads(row["payload"]))
        histogram.record(value)
        conn.execute(
            "INSERT INTO job_histograms (name, payload) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET payload = excluded.payload",
            (name, json.dumps(histogram.to_dict())),
        )

    @staticmethod
    def _backoff(attempts: int) -> float:
        return min(
            BACKOFF_CAP_SECONDS, BACKOFF_SECONDS * 2 ** max(attempts - 1, 0)
        )

    @staticmethod
    def _record_of(row: sqlite3.Row, *, with_payload: bool = False,
                   with_result: bool = False) -> JobRecord:
        keys = row.keys()
        payload = None
        if with_payload and "payload" in keys and row["payload"] is not None:
            payload = json.loads(row["payload"])
        result_text = None
        if with_result and "result" in keys:
            result_text = row["result"]
        return JobRecord(
            payload=payload,
            result_text=result_text,
            **{column: row[column] for column in _COLUMNS},
        )

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def enqueue(
        self,
        kind: str,
        payload: dict[str, Any],
        *,
        spec_key: str | None = None,
        trace_id: str | None = None,
        expires_at: float | None = None,
    ) -> tuple[JobRecord, bool]:
        """Insert (or adopt) a job; returns ``(record, created)``.

        Idempotent on the spec hash: an existing ``queued``/``leased``/
        ``done`` row for the same spec is returned as-is (``created``
        False), found by a read-only probe that takes no write lock; a
        ``failed``/``lost`` row is resurrected into ``queued`` with a
        reset attempt budget and a fresh deadline.  ``expires_at`` is
        the queue-visible wall-clock deadline: claimers skip the job
        once it passes, and the reaper fails it.  The payload is encoded
        before the write transaction opens.  The job's attempt budget is
        the queue's ``max_attempts``.
        """
        spec_hash = spec_key or spec_key_of(kind, payload)
        conn = self._connection()
        select = f"SELECT {_COLUMN_SQL} FROM task_runs WHERE job_id = ?"
        row = conn.execute(select, (spec_hash,)).fetchone()
        if row is not None and row["state"] not in ("failed", "lost"):
            return self._record_of(row), False
        encoded = json.dumps(payload, sort_keys=True)
        with self._transaction(conn):
            # Checked again: another producer may have written the row
            # since the probe.
            row = conn.execute(select, (spec_hash,)).fetchone()
            if row is not None and row["state"] not in ("failed", "lost"):
                return self._record_of(row), False
            self._write_queued(
                conn, row, spec_hash, kind, self.max_attempts, encoded,
                trace_id, expires_at,
            )
            row = conn.execute(select, (spec_hash,)).fetchone()
        return self._record_of(row), True

    def _write_queued(
        self,
        conn: sqlite3.Connection,
        row: sqlite3.Row | None,
        spec_hash: str,
        kind: str,
        budget: int,
        encoded: str,
        trace_id: str | None,
        expires_at: float | None,
    ) -> None:
        """Insert a new row, or resurrect a terminally failed one."""
        now = self._time()
        if row is not None:
            # Terminal failure: resurrect with a clean slate.
            conn.execute(
                "UPDATE task_runs SET state='queued', attempts=0, "
                "max_attempts=?, payload=?, result=NULL, error=NULL, "
                "trace_id=?, enqueued_at=?, not_before=0, expires_at=?, "
                "leased_by=NULL, leased_at=NULL, lease_expires_at=NULL, "
                "heartbeat_at=NULL, first_claimed_at=NULL, "
                "finished_at=NULL, queue_wait_seconds=NULL, "
                "run_seconds=NULL WHERE job_id=?",
                (budget, encoded, trace_id, now, expires_at, spec_hash),
            )
            self._bump(conn, "jobs.resurrected")
        else:
            conn.execute(
                "INSERT INTO task_runs (job_id, spec_hash, kind, state, "
                "attempts, max_attempts, payload, trace_id, enqueued_at, "
                "not_before, expires_at) "
                "VALUES (?, ?, ?, 'queued', 0, ?, ?, ?, ?, 0, ?)",
                (spec_hash, spec_hash, kind, budget, encoded, trace_id,
                 now, expires_at),
            )
        self._bump(conn, "jobs.enqueued")

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    _CLAIM_SET = (
        "state='leased', leased_by=:worker, leased_at=:now, "
        "lease_expires_at=:lease, heartbeat_at=:now, "
        "attempts=attempts+1, "
        "first_claimed_at=COALESCE(first_claimed_at, :now), "
        "queue_wait_seconds=COALESCE(queue_wait_seconds, :now - enqueued_at)"
    )
    _CLAIM_PICK = (
        "SELECT id FROM task_runs WHERE state='queued' AND not_before <= :now "
        "AND (expires_at IS NULL OR expires_at > :now) ORDER BY id LIMIT 1"
    )

    def claim(self, worker_id: str, now: float | None = None) -> JobRecord | None:
        """Atomically lease the oldest runnable job (or ``None``).

        The pick skips jobs backing off (``not_before``) and jobs whose
        queue-visible deadline passed.  The claimed row carries its
        parsed payload — the worker needs nothing else to execute.
        """
        now = self._time() if now is None else now
        params = {
            "worker": worker_id,
            "now": now,
            "lease": now + self.lease_seconds,
        }
        conn = self._connection()
        with self._transaction(conn):
            picked = conn.execute(self._CLAIM_PICK, params).fetchone()
            if picked is None:
                return None
            conn.execute(
                f"UPDATE task_runs SET {self._CLAIM_SET} "
                "WHERE id = :id AND state='queued'",
                {**params, "id": picked["id"]},
            )
            row = conn.execute(
                f"SELECT {_COLUMN_SQL}, payload FROM task_runs WHERE id = ?",
                (picked["id"],),
            ).fetchone()
            record = self._record_of(row, with_payload=True)
            self._bump(conn, "jobs.claimed")
            self._bump(conn, "jobs.attempts")
            if record.attempts > 1:
                self._bump(conn, "jobs.retries")
            if record.attempts == 1:
                self._observe(
                    conn, QUEUE_WAIT_HISTOGRAM, now - record.enqueued_at
                )
        return record

    def heartbeat(
        self, job_id: str, worker_id: str, now: float | None = None
    ) -> bool:
        """Extend the lease; ``False`` means the lease is no longer ours
        (expired and reaped, or completed elsewhere) — the worker should
        treat the job as lost and discard its in-progress result."""
        now = self._time() if now is None else now
        conn = self._connection()
        with self._transaction(conn):
            cursor = conn.execute(
                "UPDATE task_runs SET heartbeat_at=?, lease_expires_at=? "
                "WHERE job_id=? AND state='leased' AND leased_by=?",
                (now, now + self.lease_seconds, job_id, worker_id),
            )
            if cursor.rowcount:
                self._bump(conn, "jobs.heartbeats")
        return bool(cursor.rowcount)

    def complete(
        self,
        job_id: str,
        worker_id: str,
        result: dict[str, Any] | str,
        now: float | None = None,
    ) -> bool:
        """Mark a leased job ``done`` (guarded by the lease holder).

        ``result`` is the result document, or its text as
        ``json.dumps(result, sort_keys=True)`` writes it (the worker
        encodes it inside its ``jobs.run`` span); either is stored as
        that text.  Returns ``False`` — and stores nothing — when the
        caller no longer holds the lease, which is exactly the
        no-double-complete guarantee: a reaped-and-retried job keeps the
        retry's result.
        """
        now = self._time() if now is None else now
        if not isinstance(result, str):
            result = json.dumps(result, sort_keys=True)
        conn = self._connection()
        with self._transaction(conn):
            cursor = conn.execute(
                "UPDATE task_runs SET state='done', result=?, error=NULL, "
                "finished_at=?, run_seconds=? - leased_at "
                "WHERE job_id=? AND state='leased' AND leased_by=?",
                (result, now, now, job_id, worker_id),
            )
            if cursor.rowcount:
                self._bump(conn, "jobs.completed")
                row = conn.execute(
                    "SELECT run_seconds FROM task_runs WHERE job_id=?",
                    (job_id,),
                ).fetchone()
                self._observe(
                    conn, RUN_SECONDS_HISTOGRAM, row["run_seconds"] or 0.0
                )
            else:
                self._bump(conn, "jobs.stale_completions")
        return bool(cursor.rowcount)

    def fail(
        self,
        job_id: str,
        worker_id: str,
        error: str,
        *,
        retryable: bool = False,
        now: float | None = None,
    ) -> bool:
        """Record a worker-reported failure (guarded by the lease holder).

        Retryable failures requeue with the same exponential backoff the
        reaper uses until the attempt budget is exhausted; deterministic
        failures (bad config, malformed payload) dead-letter immediately
        as ``failed``.
        """
        now = self._time() if now is None else now
        conn = self._connection()
        with self._transaction(conn):
            row = conn.execute(
                "SELECT attempts, max_attempts FROM task_runs "
                "WHERE job_id=? AND state='leased' AND leased_by=?",
                (job_id, worker_id),
            ).fetchone()
            if row is None:
                self._bump(conn, "jobs.stale_failures")
                return False
            if retryable and row["attempts"] < row["max_attempts"]:
                conn.execute(
                    "UPDATE task_runs SET state='queued', leased_by=NULL, "
                    "leased_at=NULL, lease_expires_at=NULL, heartbeat_at=NULL, "
                    "not_before=?, error=? WHERE job_id=?",
                    (now + self._backoff(row["attempts"]), error, job_id),
                )
                self._bump(conn, "jobs.requeued_failures")
            else:
                conn.execute(
                    "UPDATE task_runs SET state='failed', finished_at=?, "
                    "error=? WHERE job_id=?",
                    (now, error, job_id),
                )
                self._bump(conn, "jobs.failed")
        return True

    def release(
        self, job_id: str, worker_id: str, now: float | None = None
    ) -> bool:
        """Return a claimed-but-unstarted job to the queue (clean SIGTERM
        path: no backoff, and the consumed attempt is refunded)."""
        now = self._time() if now is None else now
        conn = self._connection()
        with self._transaction(conn):
            cursor = conn.execute(
                "UPDATE task_runs SET state='queued', leased_by=NULL, "
                "leased_at=NULL, lease_expires_at=NULL, heartbeat_at=NULL, "
                "attempts=attempts-1, not_before=? "
                "WHERE job_id=? AND state='leased' AND leased_by=?",
                (now, job_id, worker_id),
            )
            if cursor.rowcount:
                self._bump(conn, "jobs.released")
        return bool(cursor.rowcount)

    # ------------------------------------------------------------------
    # State blobs (content-addressed job inputs)
    # ------------------------------------------------------------------
    def has_state_blob(self, address: str) -> bool:
        """Whether a blob is stored at ``address``."""
        row = self._connection().execute(
            "SELECT 1 FROM state_blobs WHERE address = ?", (address,)
        ).fetchone()
        return row is not None

    def put_state_blob(self, address: str, data: bytes) -> bool:
        """Store ``data`` at ``address`` unless a blob is already there;
        returns whether this call wrote it.  The SHA-256 is computed
        before the (short) write transaction opens."""
        digest = hashlib.sha256(data).hexdigest()
        conn = self._connection()
        with self._transaction(conn):
            cursor = conn.execute(
                "INSERT OR IGNORE INTO state_blobs (address, sha256, data) "
                "VALUES (?, ?, ?)",
                (address, digest, data),
            )
        return bool(cursor.rowcount)

    def state_blob(self, address: str) -> bytes:
        """The blob at ``address``, checked against its SHA-256.

        Raises :class:`JobError` when there is none, and
        :class:`DataFormatError` when its bytes do not match the
        SHA-256 stored with them.  A mismatching blob is deleted, so the
        next enqueue of that state stores it afresh.
        """
        conn = self._connection()
        row = conn.execute(
            "SELECT sha256, data FROM state_blobs WHERE address = ?",
            (address,),
        ).fetchone()
        if row is None:
            raise JobError(f"no state blob at {address}")
        data = row["data"]
        if hashlib.sha256(data).hexdigest() != row["sha256"]:
            with self._transaction(conn):
                conn.execute(
                    "DELETE FROM state_blobs WHERE address = ? AND sha256 = ?",
                    (address, row["sha256"]),
                )
            raise DataFormatError(
                f"state blob {address} does not match its sha256 "
                f"{row['sha256']}"
            )
        return data

    # ------------------------------------------------------------------
    # Reaping (any process may run this; transitions are idempotent)
    # ------------------------------------------------------------------
    def reap_expired(self, now: float | None = None) -> dict[str, list[str]]:
        """Recover from crashes and dead deadlines in one sweep.

        * leased rows whose lease expired: requeued with backoff
          (``jobs.lease_expired``) or — attempt budget exhausted —
          dead-lettered as ``lost`` (``jobs.dead_lettered``);
        * queued rows whose ``expires_at`` passed: failed as expired
          (``jobs.expired``) so pollers get a terminal answer.

        Returns ``{"requeued": [...], "dead_lettered": [...],
        "expired": [...]}`` job-id lists (empty lists when idle).
        """
        now = self._time() if now is None else now
        requeued: list[str] = []
        dead: list[str] = []
        expired: list[str] = []
        conn = self._connection()
        with self._transaction(conn):
            rows = conn.execute(
                "SELECT job_id, attempts, max_attempts FROM task_runs "
                "WHERE state='leased' AND lease_expires_at <= ?",
                (now,),
            ).fetchall()
            for row in rows:
                if row["attempts"] >= row["max_attempts"]:
                    conn.execute(
                        "UPDATE task_runs SET state='lost', finished_at=?, "
                        "error=? WHERE job_id=? AND state='leased'",
                        (now,
                         f"lease expired after {row['attempts']} attempts "
                         f"(max {row['max_attempts']})",
                         row["job_id"]),
                    )
                    self._bump(conn, "jobs.lease_expired")
                    self._bump(conn, "jobs.dead_lettered")
                    dead.append(row["job_id"])
                else:
                    conn.execute(
                        "UPDATE task_runs SET state='queued', leased_by=NULL, "
                        "leased_at=NULL, lease_expires_at=NULL, "
                        "heartbeat_at=NULL, not_before=? "
                        "WHERE job_id=? AND state='leased'",
                        (now + self._backoff(row["attempts"]), row["job_id"]),
                    )
                    self._bump(conn, "jobs.lease_expired")
                    requeued.append(row["job_id"])
            rows = conn.execute(
                "SELECT job_id FROM task_runs WHERE state='queued' "
                "AND expires_at IS NOT NULL AND expires_at <= ?",
                (now,),
            ).fetchall()
            for row in rows:
                conn.execute(
                    "UPDATE task_runs SET state='failed', finished_at=?, "
                    "error='expired before execution (queue-visible "
                    "deadline passed)' WHERE job_id=? AND state='queued'",
                    (now, row["job_id"]),
                )
                self._bump(conn, "jobs.expired")
                expired.append(row["job_id"])
        return {"requeued": requeued, "dead_lettered": dead, "expired": expired}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(
        self, job_id: str, *, include_result: bool = True,
        include_payload: bool = False,
    ) -> JobRecord | None:
        """Fetch one job by id (``None`` when unknown)."""
        extra = ""
        if include_payload:
            extra += ", payload"
        if include_result:
            extra += ", result"
        row = self._connection().execute(
            f"SELECT {_COLUMN_SQL}{extra} FROM task_runs WHERE job_id = ?",
            (job_id,),
        ).fetchone()
        if row is None:
            return None
        return self._record_of(
            row, with_payload=include_payload, with_result=include_result
        )

    def counts_by_state(self) -> dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for row in self._connection().execute(
            "SELECT state, COUNT(*) AS n FROM task_runs GROUP BY state"
        ):
            counts[row["state"]] = row["n"]
        return counts

    def counters(self) -> dict[str, float]:
        """Persisted ``jobs.*`` counter totals (sorted, ints kept int)."""
        totals: dict[str, float] = {}
        for row in self._connection().execute(
            "SELECT name, value FROM job_counters ORDER BY name"
        ):
            value = row["value"]
            totals[row["name"]] = int(value) if value == int(value) else value
        return totals

    def histogram_summaries(self) -> dict[str, dict[str, Any]]:
        """Summaries (count/sum/min/max/p50/p90/p99) of the persisted
        queue-wait and run-time histograms."""
        summaries: dict[str, dict[str, Any]] = {}
        for row in self._connection().execute(
            "SELECT name, payload FROM job_histograms ORDER BY name"
        ):
            histogram = Histogram(row["name"])
            histogram.merge_dict(json.loads(row["payload"]))
            summaries[row["name"]] = histogram.summary()
        return summaries

    def stats(self) -> dict[str, Any]:
        """The ``/metricz`` job-plane section: states, counters,
        histogram summaries, and the queue's own configuration."""
        return {
            "path": str(self.path),
            "states": self.counts_by_state(),
            "counters": self.counters(),
            "histograms": self.histogram_summaries(),
            "lease_seconds": self.lease_seconds,
            "max_attempts": self.max_attempts,
        }
