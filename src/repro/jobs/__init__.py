"""Durable distributed job plane (zero-dependency, sqlite-backed).

The package that takes the analysis fleet-wide: a crash-safe queue file
any number of worker *processes* share, with leases, heartbeats,
reaping, bounded retries and dead-lettering — see ``docs/ARCHITECTURE.md``
for the state machine and ``docs/USAGE.md`` §5 for running workers.

* :class:`JobQueue` — the ``task_runs`` table and every state
  transition (enqueue / claim / heartbeat / complete / fail / release /
  reap), plus durable job-plane counters and histograms.  It is also
  the producer API ``repro.service`` drives in its ``--execution
  queue`` mode: enqueue idempotently, and read a job's status and
  result with :meth:`JobQueue.get`.
* :class:`JobWorker` / :func:`run_worker` — the consumer loop the
  ``repro work`` CLI runs: claim, heartbeat in the background, execute,
  report, survive SIGTERM cleanly.
"""

from repro.jobs.queue import (
    JOB_STATES,
    JobError,
    JobQueue,
    JobRecord,
    spec_key_of,
)
from repro.jobs.worker import JobWorker, default_worker_id, run_worker

__all__ = [
    "JOB_STATES",
    "JobError",
    "JobQueue",
    "JobRecord",
    "JobWorker",
    "default_worker_id",
    "run_worker",
    "spec_key_of",
]
