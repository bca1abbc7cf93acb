"""Checks of the job plane smoke, one per subcommand.

Run against a queue-mode ``repro serve`` with two ``repro work``
workers attached, in this order::

    PYTHONPATH=src python -m repro generate org /tmp/org.json --scale-divisor 200 --seed 7
    PYTHONPATH=src python -m repro serve /tmp/org.json --port 8038 \\
        --execution queue --jobs /tmp/jobs.sqlite --job-lease 2 \\
        --no-warm --refresh-mutations 0 --snapshot /tmp/jobs-snap.json &
    PYTHONPATH=src python -m repro work /tmp/jobs.sqlite --workers 2 \\
        --lease 2 --poll 0.05 &
    PYTHONPATH=src python -m repro analyze /tmp/org.json --format json > /tmp/inline-report.json
    PYTHONPATH=src python scripts/ci/job_plane_smoke.py queued-analyze
    PYTHONPATH=src python scripts/ci/job_plane_smoke.py crash-recovery

``crash-recovery`` SIGKILLs the worker process that leases its job.
After both daemons are stopped, ``plant-stale-lease`` leaves a lease
whose holder is long gone; a fresh daemon on the same queue file, with
no worker attached, must have requeued it, which
``stale-lease-requeued --url <its url>`` checks::

    PYTHONPATH=src python scripts/ci/job_plane_smoke.py plant-stale-lease
    PYTHONPATH=src python -m repro serve /tmp/org.json --port 8039 \\
        --execution queue --jobs /tmp/jobs.sqlite --job-lease 2 \\
        --no-warm --refresh-mutations 2 &
    PYTHONPATH=src python scripts/ci/job_plane_smoke.py stale-lease-requeued --url http://127.0.0.1:8039
    PYTHONPATH=src python scripts/ci/job_plane_smoke.py refresh-without-workers --url http://127.0.0.1:8039

``refresh-without-workers`` then checks that the same daemon's
scheduler refresh publishes a report without a worker and without
enqueueing a job.  ``bench-schema`` checks a quick
``scripts/bench_jobs.py`` run and the checked-in ``BENCH_jobs.json``.
Each check prints one line and exits non-zero when an assertion fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sqlite3
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.jobs import JobQueue

ROOT = Path(__file__).resolve().parents[2]


def call(url, path, method="GET", body=None):
    req = urllib.request.Request(f"{url}{path}", data=body, method=method)
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def normalized(payload):
    payload = dict(payload)
    for key in ("timings_seconds", "total_seconds", "metrics"):
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


def queued_analyze(args):
    """A queued analyze answers 202, and its result matches in-process
    execution (``--inline-report``, written by ``repro analyze``)."""
    status, submitted = call(args.url, "/v1/analyze", "POST", b"{}")
    assert status == 202, (status, submitted)
    assert submitted["state"] == "queued" and submitted["created"], submitted
    deadline = time.monotonic() + 120
    while True:
        status, job = call(args.url, submitted["poll"])
        if job["state"] == "done":
            break
        assert job["state"] in ("queued", "leased"), job
        assert time.monotonic() < deadline, job
        time.sleep(0.2)
    assert job["attempts"] == 1, job

    inline = json.loads(Path(args.inline_report).read_text())
    queued = job["result"]["report"]
    assert normalized(queued) == normalized(inline), "report mismatch"

    # Submitting the identical analysis again folds into the done job.
    status, again = call(args.url, "/v1/analyze", "POST", b"{}")
    assert status == 202 and not again["created"], again
    assert again["job_id"] == submitted["job_id"], again

    # The state rides in one content-addressed blob per fingerprint,
    # never inside a job row.
    conn = sqlite3.connect(args.jobs)
    rows = conn.execute(
        "SELECT payload FROM task_runs WHERE kind = 'analyze'"
    ).fetchall()
    refs = {json.loads(payload)["state_ref"] for (payload,) in rows}
    assert refs == {submitted["fingerprint"]}, refs
    blobs = [a for (a,) in conn.execute("SELECT address FROM state_blobs")]
    assert sorted(blobs) == sorted(refs), (blobs, refs)
    sizes = [len(payload) for (payload,) in rows]
    assert sizes and max(sizes) <= 4096, sizes
    conn.close()
    print("queued analyze ok: byte-identical to in-process")


def crash_recovery(args):
    """A SIGKILLed worker's job is reaped and retried to completion."""
    queue = JobQueue(args.jobs, lease_seconds=2.0)
    record, created = queue.enqueue("sleep", {"seconds": 8})
    assert created

    deadline = time.monotonic() + 60
    while True:
        current = queue.get(record.job_id)
        if current.state == "leased":
            break
        assert time.monotonic() < deadline, current
        time.sleep(0.1)
    # leased_by is host:pid — SIGKILL the worker holding the lease.
    victim = int(current.leased_by.split(":")[1])
    os.kill(victim, signal.SIGKILL)
    print("killed worker pid", victim, "mid-lease")

    deadline = time.monotonic() + 120
    while True:
        current = queue.get(record.job_id)
        if current.state == "done":
            break
        assert time.monotonic() < deadline, current
        time.sleep(0.2)
    assert current.attempts == 2, current  # the kill burned attempt 1
    jobs = call(args.url, "/metricz")[1]["jobs"]
    assert jobs["counters"]["jobs.lease_expired"] >= 1, jobs["counters"]
    assert jobs["counters"].get("jobs.stale_completions", 0) == 0, (
        jobs["counters"])
    queue.close()
    print("crash recovery ok: reaped once, retried, completed")


def plant_stale_lease(args):
    """Plant a lease whose holder is long gone (expired an hour ago) and
    write its job id to ``--job-id-file``."""
    queue = JobQueue(args.jobs, lease_seconds=2.0)
    record, _ = queue.enqueue("sleep", {"seconds": 1, "marker": "stale"})
    queue.claim("dead-daemon:99999", now=time.time() - 3600)
    queue.close()
    Path(args.job_id_file).write_text(record.job_id)
    print("planted stale lease:", record.job_id)


def stale_lease_requeued(args):
    """A warm restart reaped the planted lease: the job is queued again."""
    job_id = Path(args.job_id_file).read_text()
    job = call(args.url, f"/v1/jobs/{job_id}")[1]
    assert job["state"] == "queued", job
    print("warm-restart reap ok: stale lease requeued")


def refresh_without_workers(args):
    """Two mutations trigger a refresh (``--refresh-mutations 2``) that
    publishes a report with no worker attached and enqueues no job."""
    enqueued = call(args.url, "/v1/jobs")[1]["counters"].get("jobs.enqueued", 0)
    body = json.dumps({"mutations": [
        {"op": "add_user", "id": "ci-refresh-user"},
        {"op": "add_role", "id": "ci-refresh-role"},
    ]}).encode()
    status, applied = call(args.url, "/v1/mutations", "POST", body)
    assert status == 200 and applied["applied"] == 2, applied
    deadline = time.monotonic() + 60
    while True:
        try:
            latest = call(args.url, "/v1/reports/latest")[1]
            break
        except urllib.error.HTTPError as error:
            assert error.code == 404, error  # nothing published yet
        assert time.monotonic() < deadline, "no report published"
        time.sleep(0.2)
    assert latest["mutation_seq"] == applied["mutation_seq"], (latest, applied)
    after = call(args.url, "/v1/jobs")[1]["counters"].get("jobs.enqueued", 0)
    assert after == enqueued, (enqueued, after)
    print("refresh without workers ok: published seq", latest["seq"],
          "and enqueued nothing")


def bench_schema(args):
    """The quick jobs benchmark and the checked-in artifact share one
    schema, and the artifact shows the expected trends."""
    for path in (args.fresh, ROOT / "BENCH_jobs.json"):
        doc = json.loads(Path(path).read_text())
        assert doc["schema_version"] == 1, (path, doc.get("schema_version"))
        assert doc["environment"].keys() >= {"python", "sqlite"}
        enqueue = doc["enqueue"]
        assert enqueue.keys() >= {"jobs", "fresh_per_second",
                                  "dedup_per_second"}, (path, enqueue)
        rows = doc["workers"]
        assert [row["n_workers"] for row in rows] == [1, 2, 4], rows
        for row in rows:
            assert row.keys() >= {"jobs", "seconds", "jobs_per_second",
                                  "queue_wait_p50_seconds",
                                  "queue_wait_p99_seconds"}, (path, row)
            assert row["queue_wait_p50_seconds"] <= (
                row["queue_wait_p99_seconds"]), row
        print(f"bench schema ok: {path}")
    # Trends in the checked-in artifact: the dedup path (read-mostly)
    # beats fresh inserts, and sqlite's single-writer contention
    # degrades gracefully rather than collapsing with more claimers.
    doc = json.loads((ROOT / "BENCH_jobs.json").read_text())
    enqueue = doc["enqueue"]
    assert enqueue["dedup_per_second"] > enqueue["fresh_per_second"], enqueue
    rates = [row["jobs_per_second"] for row in doc["workers"]]
    assert min(rates) > 0.25 * max(rates), rates
    print("bench trends ok")


CHECKS = {
    "queued-analyze": queued_analyze,
    "crash-recovery": crash_recovery,
    "plant-stale-lease": plant_stale_lease,
    "stale-lease-requeued": stale_lease_requeued,
    "refresh-without-workers": refresh_without_workers,
    "bench-schema": bench_schema,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    parser.add_argument("--url", default="http://127.0.0.1:8038")
    parser.add_argument("--jobs", default="/tmp/jobs.sqlite")
    parser.add_argument("--inline-report", default="/tmp/inline-report.json")
    parser.add_argument("--job-id-file", default="/tmp/stale-job-id")
    parser.add_argument("--fresh", default="/tmp/bench-jobs.json")
    args = parser.parse_args(argv)
    CHECKS[args.check](args)


if __name__ == "__main__":
    main()
