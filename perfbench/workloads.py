"""The benchmark's three workloads: set-up, one cycle, and its checks.

Every workload is a closed loop with one client: the next operation is
sent only after the previous one completed.  Each runs on
``OrgProfile.small(divisor=10, seed=<seed>)`` — 9,000 users, 35,000
permissions, 5,000 roles with the paper's planted counts scaled down —
and keeps the operation order within a cycle fixed.

* ``audit`` — the paper's batch use: analyse one export, write the
  report out, and analyse it again with two workers (``PARALLEL``: the
  detector fan-out of ``repro analyze --workers 2`` plus the blocked
  co-occurrence scan on a ``WorkerPool`` over shared memory).
  Exercises datagen and the analysis layers; bypasses the service, the
  job plane and ``io.jsonio``.
* ``serve-rw`` — the inline service under a write+read mix over
  loopback HTTP: mutations, counts, an analysis that misses the cache,
  and the same analysis again, which hits it.
* ``serve-queue`` — the same cycle with queued execution: the analysis
  is enqueued, claimed and run by an in-process worker, and fetched
  from the job record; then a duplicate request must deduplicate.

Each workload also carries the per-layer probes of the traced run:
direct calls into the public functions of the layers it exercises,
recorded as ``bench.*`` spans, plus tallies of the sizes it moved.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from calib import Meter
from repro.core.engine import AnalysisConfig, analyze
from repro.core.incremental import IncrementalAuditor
from repro.core.report import Report
from repro.datagen.orggen import OrgProfile, generate_org
from repro.io.jsonio import state_from_dict, state_to_dict
from repro.jobs import JobQueue, JobWorker
from repro.obs import NULL_RECORDER, use_recorder
from repro.service import (
    AnalysisService,
    ServiceConfig,
    ServiceServer,
    apply_batch,
    parse_mutation_batch,
)

__all__ = ["WORKLOADS", "Gate", "clock"]

#: Mutations per cycle: fresh assignments, plus revocations of the
#: previous cycle's, so the state size stays constant while its
#: fingerprint changes every cycle.
PAIRS_PER_CYCLE = 8
#: Report fields that describe how a run went rather than what it
#: found; they differ between any two runs and are left out of the
#: byte-identity checks (as the repository's parity tests do).
RUN_SPECIFIC_FIELDS = ("timings_seconds", "total_seconds", "metrics")
#: Configuration keys that select how an analysis runs, never its result.
EXECUTION_FIELDS = ("n_workers", "block_rows", "finder_options")
#: The audit's parallel analysis: the detector fan-out (``n_workers``)
#: and, through the finder's own ``n_workers`` over several blocks, the
#: scan fan-out that publishes to shared memory and reuses one pool.
PARALLEL = AnalysisConfig(
    n_workers=2, block_rows=2048, finder_options={"n_workers": 2}
)


def clock(fn: Callable[[], Any]) -> tuple[Any, float]:
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def spanned(rec: Any, name: str, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` inside a ``bench.*`` span (a no-op when untraced)."""
    with use_recorder(rec), rec.span(name):
        return fn()


def report_digest(payload: dict[str, Any]) -> str:
    """sha256 of a serialised report without its run-specific fields.

    The config's execution fields are left out too: the serial and
    parallel reports must agree.
    """
    doc = {k: v for k, v in payload.items() if k not in RUN_SPECIFIC_FIELDS}
    doc["config"] = {
        k: v for k, v in (doc.get("config") or {}).items()
        if k not in EXECUTION_FIELDS
    }
    encoded = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class Gate:
    """Trace sink that forwards to ``sink`` only while ``on`` is set.

    The service and the job worker take their sinks at construction;
    the gate lets one process alternate traced and untraced cycles.
    """

    def __init__(self, sink: Any = None) -> None:
        self.sink = sink
        self.on = False

    def emit(self, root: Any) -> None:
        if self.on and self.sink is not None:
            self.sink.emit(root)


class Workload:
    """One workload: ``setup`` (timed as ``setup_s``), ``cycle``, ``close``.

    ``ops`` names the cycle's timed operations in order; ``gated`` maps
    each workload-neutral end-to-end metric to the operations it sums;
    ``composites`` names sums of operations that are printed as one.
    The traced/untraced ratio of ``report_new_s`` gives the trace
    overhead.
    """

    name = ""
    ops: tuple[str, ...] = ()
    gated: dict[str, tuple[str, ...]] = {}
    composites: dict[str, tuple[str, ...]] = {}
    #: Run the whole process on one CPU, so that the reference kernel
    #: runs where the operation ran (the service answers on its own
    #: threads, which the scheduler would otherwise move freely).
    one_cpu = False

    def __init__(self, seed: int, divisor: int, workdir: Path, gate: Gate):
        self.seed = seed
        self.divisor = divisor
        self.workdir = workdir
        self.gate = gate
        self.org = None
        #: Per-layer tallies of the traced cycles (sizes, counts).
        self.tally: Counter = Counter()
        #: Serialised reports produced in traced cycles.
        self.reports: list[dict[str, Any]] = []

    def describe(self) -> str:
        return "closed loop, 1 client"

    def generate(self, rec: Any) -> None:
        profile = OrgProfile.small(divisor=self.divisor, seed=self.seed)
        self.org = spanned(
            rec, "bench.datagen.generate_org", lambda: generate_org(profile)
        )

    def setup(self, rec: Any) -> None:
        self.generate(rec)

    def prepare_probes(self) -> None:
        """Build what the traced run's probes need (after set-up)."""

    def cycle(self, meter: Meter, rec: Any, probe: bool) -> None:
        raise NotImplementedError

    def final_checks(self, meter: Meter) -> None:
        """Checks that run once, after the last cycle."""

    def metricz(self) -> dict[str, Any] | None:
        return None

    def close(self) -> None:
        """Release everything set-up made (idempotent)."""


class Audit(Workload):
    name = "audit"
    ops = ("analyze_s", "serialise_s", "analyze_par_s")
    gated = {
        "report_new_s": ("analyze_s",),
        "report_again_s": ("analyze_par_s",),
        "other_ops_s": ("serialise_s",),
    }

    def describe(self) -> str:
        return "closed loop, 1 client; no service"

    def cycle(self, meter: Meter, rec: Any, probe: bool) -> None:
        state = self.org.state
        expected = self.org.expected_counts()

        def serial():
            return clock(lambda: spanned(
                rec, "bench.analyze", lambda: analyze(state)
            ))

        report = meter.op("analyze_s", serial)
        if report is None:
            return
        meter.check(
            report.counts() == expected,
            f"analyze: counts {report.counts()} != expected {expected}",
        )

        def serialise():
            def work():
                with use_recorder(rec), rec.span("bench.serialise"):
                    payload = spanned(
                        rec, "bench.report.to_dict", report.to_dict
                    )
                    text = spanned(
                        rec, "bench.report.json_dumps",
                        lambda: json.dumps(payload),
                    )
                return payload, text
            return clock(work)

        serialised = meter.op("serialise_s", serialise)
        if serialised is None:
            return
        payload, text = serialised
        digest = report_digest(payload)
        if probe:
            self.tally["report.bytes"] += len(text)
            self.reports.append(payload)
        # Keep only what later checks need: every live object makes the
        # collection before the next operation slower.
        del report, serialised, payload, text

        def parallel():
            return clock(lambda: spanned(
                rec, "bench.analyze_par",
                lambda: analyze(state, PARALLEL),
            ))

        report_par = meter.op("analyze_par_s", parallel)
        if report_par is None:
            return
        meter.check(
            report_par.counts() == expected,
            f"analyze(parallel): counts {report_par.counts()} "
            f"!= expected {expected}",
        )
        par_payload = report_par.to_dict()
        meter.check(
            report_digest(par_payload) == digest,
            "analyze(parallel): report differs from the serial report",
        )
        if probe:
            self.reports.append(par_payload)


class _Serve(Workload):
    """Shared set-up and write/read steps of the service workloads."""

    execution = "inline"
    one_cpu = True

    def __init__(self, seed: int, divisor: int, workdir: Path, gate: Gate):
        super().__init__(seed, divisor, workdir, gate)
        self.service: AnalysisService | None = None
        self.server: ServiceServer | None = None
        self.conn: http.client.HTTPConnection | None = None
        self.shadow: IncrementalAuditor | None = None
        self._rng = random.Random(f"perfbench-mutations-{seed}")
        self._roles: list[str] = []
        self._users: list[str] = []
        self._used: set[tuple[str, str]] = set()
        self._previous: list[tuple[str, str]] = []

    def describe(self) -> str:
        return (
            f"closed loop, 1 client, keep-alive loopback HTTP, one CPU; service "
            f"execution={self.execution} refresh_mutations=None "
            f"cache_capacity=4"
        )

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(refresh_mutations=None, cache_capacity=4)

    def setup(self, rec: Any) -> None:
        self.generate(rec)
        self.service = AnalysisService(
            self.org.state, self.service_config(), sinks=[self.gate]
        )
        self.server = ServiceServer(self.service, port=0)
        self.server.start()
        self.org = None  # the service holds its own copy
        self.conn = http.client.HTTPConnection(*self.server.address, timeout=120)

    def prepare_probes(self) -> None:
        self.shadow = IncrementalAuditor(self.service.state)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.service = None

    def http(self, rec: Any, span: str, method: str, path: str,
             body: bytes = b"") -> tuple[tuple[int, bytes], float]:
        """One request, timed from send to the last body byte."""
        headers = {"Content-Type": "application/json"} if body else {}

        def exchange() -> tuple[int, bytes]:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()

        return clock(lambda: spanned(rec, span, exchange))

    def next_batch(self) -> list[dict[str, str]]:
        """Revoke last cycle's fresh pairs, assign new ones (seeded)."""
        state = self.service.state
        if not self._roles:  # ids never change: only edges are mutated
            self._roles = sorted(state.role_ids())
            self._users = sorted(state.user_ids())
        fresh: list[tuple[str, str]] = []
        while len(fresh) < PAIRS_PER_CYCLE:
            pair = (self._rng.choice(self._roles), self._rng.choice(self._users))
            if pair in self._used or pair[1] in state.users_of_role(pair[0]):
                continue
            self._used.add(pair)
            fresh.append(pair)
        batch = [{"op": "assign_user", "role": r, "user": u} for r, u in fresh]
        batch += [
            {"op": "revoke_user", "role": r, "user": u}
            for r, u in self._previous
        ]
        self._previous = fresh
        return batch

    def write_and_read(
        self, meter: Meter, rec: Any
    ) -> tuple[list[dict[str, str]], dict[str, int]] | None:
        """Steps 1-2 of a cycle; returns the batch and the live counts."""
        batch = self.next_batch()
        body = json.dumps({"mutations": batch}).encode("utf-8")
        result = meter.op("mutate_s", lambda: self.http(
            rec, "bench.http.post_mutations", "POST", "/v1/mutations", body
        ))
        if result is None:
            return None
        status, data = result
        applied = json.loads(data).get("applied") if status == 200 else None
        if not meter.check(
            applied == len(batch),
            f"mutations: status {status}, applied {applied} != {len(batch)}",
        ):
            return None
        result = meter.op("counts_s", lambda: self.http(
            rec, "bench.http.get_counts", "GET", "/v1/counts"
        ))
        if result is None:
            return None
        status, data = result
        if not meter.check(status == 200, f"counts: status {status}"):
            return None
        return batch, json.loads(data)["counts"]

    def track(
        self, meter: Meter, rec: Any, batch: list[dict[str, str]],
        counts: dict[str, int],
    ) -> None:
        """Feed the shadow auditor the cycle's batch (traced run only).

        The shadow receives every batch through the public
        ``apply_batch``; its counts must equal the service's.
        """
        if self.shadow is None:
            return
        mutations = parse_mutation_batch({"mutations": batch})
        spanned(rec, "bench.service.apply_batch",
                lambda: apply_batch(self.shadow, mutations))
        shadow_counts = spanned(rec, "bench.service.counts", self.shadow.counts)
        meter.check(
            shadow_counts == counts,
            "counts: the service's counts differ from an auditor fed the "
            "same mutations",
        )

    def probe_state(self, rec: Any) -> None:
        """Freeze-path probes on the live state (traced cycles only)."""
        state = self.service.state
        spanned(rec, "bench.service.fingerprint", state.fingerprint)
        spanned(rec, "bench.service.copy", state.copy)

    def probe_report(self, rec: Any, payload: dict[str, Any]) -> None:
        """Report-layer probes: rebuild the served report, re-encode it."""
        report = Report.from_payload(payload, self.service.state)
        rebuilt = spanned(rec, "bench.report.to_dict", report.to_dict)
        text = spanned(
            rec, "bench.report.json_dumps",
            lambda: json.dumps(rebuilt, sort_keys=True),
        )
        self.tally["report.bytes"] += len(text)
        self.reports.append(payload)

    def metricz(self) -> dict[str, Any]:
        _, data = self.http(NULL_RECORDER, "", "GET", "/metricz")[0]
        return json.loads(data)


class ServeRW(_Serve):
    name = "serve-rw"
    ops = ("mutate_s", "counts_s", "analyze_miss_s", "analyze_hit_s")
    gated = {
        "report_new_s": ("analyze_miss_s",),
        "report_again_s": ("analyze_hit_s",),
        "other_ops_s": ("mutate_s", "counts_s"),
    }

    def cycle(self, meter: Meter, rec: Any, probe: bool) -> None:
        written = self.write_and_read(meter, rec)
        if written is None:
            return
        batch, counts = written
        miss: dict[str, Any] | None = None
        for op, expected_source in (
            ("analyze_miss_s", "miss"), ("analyze_hit_s", "hit")
        ):
            result = meter.op(op, lambda: self.http(
                rec, "bench.http.post_analyze", "POST", "/v1/analyze"
            ))
            if result is None:
                return
            status, data = result
            if not meter.check(status == 200, f"{op}: status {status}"):
                return
            doc = json.loads(data)
            meter.check(
                doc["cache"] == expected_source,
                f"{op}: cache {doc['cache']!r} != {expected_source!r}",
            )
            if miss is None:
                meter.check(
                    doc["report"]["counts"] == counts,
                    f"{op}: report counts differ from /v1/counts",
                )
                miss = {"fingerprint": doc["fingerprint"]}
                if probe:
                    miss["report"] = doc["report"]
            else:
                meter.check(
                    doc["fingerprint"] == miss["fingerprint"],
                    f"{op}: fingerprint changed between miss and hit",
                )
            del doc, data
        self.track(meter, rec, batch, counts)
        if probe:
            self.probe_state(rec)
            self.probe_report(rec, miss["report"])


class ServeQueue(_Serve):
    name = "serve-queue"
    execution = "queue"
    #: ``queued_s`` is timed in three parts, each between its own
    #: reference-kernel runs: at about 2 s in one piece, the host's
    #: speed drifts too far while it runs.
    composites = {
        "queued_s": ("queued_s.enqueue", "queued_s.run", "queued_s.fetch"),
    }
    ops = ("mutate_s", "counts_s", *composites["queued_s"], "enqueue_dedup_s")
    gated = {
        "report_new_s": composites["queued_s"],
        "report_again_s": ("enqueue_dedup_s",),
        "other_ops_s": ("mutate_s", "counts_s"),
    }

    def __init__(self, seed: int, divisor: int, workdir: Path, gate: Gate):
        super().__init__(seed, divisor, workdir, gate)
        self.worker: JobWorker | None = None
        self._jobs_path = workdir / "jobs.sqlite"
        #: The last job's response body (bytes, which the collector
        #: does not scan), for the parity check after the last cycle.
        self._last_job: bytes | None = None
        self._parity_checked = False

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            refresh_mutations=None,
            cache_capacity=4,
            execution="queue",
            jobs_path=self._jobs_path,
        )

    def setup(self, rec: Any) -> None:
        super().setup(rec)
        self.worker = JobWorker(
            JobQueue(self._jobs_path),
            worker_id="perfbench-worker",
            sinks=[self.gate],
        )

    def close(self) -> None:
        super().close()
        if self.worker is not None:
            self.worker.queue.close()
            self.worker = None

    def probe_jsonio(self, rec: Any) -> None:
        state = self.service.state
        document = spanned(
            rec, "bench.jsonio.state_to_dict", lambda: state_to_dict(state)
        )
        text = spanned(
            rec, "bench.jsonio.state_dumps",
            lambda: json.dumps(document, sort_keys=True),
        )
        spanned(
            rec, "bench.jsonio.state_from_dict",
            lambda: state_from_dict(document),
        )
        self.tally["jsonio.state_bytes"] += len(text)

    def inline_parity(self, meter: Meter, digest: str) -> None:
        inline = analyze(self.service.state.copy()).to_dict()
        meter.check(
            digest == report_digest(inline),
            "queued: job report differs from an inline analyze()",
        )

    def cycle(self, meter: Meter, rec: Any, probe: bool) -> None:
        written = self.write_and_read(meter, rec)
        if written is None:
            return
        batch, counts = written
        result = meter.op("queued_s.enqueue", lambda: self.http(
            rec, "bench.http.post_analyze", "POST", "/v1/analyze"
        ))
        if result is None:
            return
        status, data = result
        if not meter.check(status == 202, f"queued: enqueue status {status}"):
            return
        doc = json.loads(data)
        meter.check(doc["created"] is True,
                    "queued: a fresh state's job was not created")
        job_id = doc["job_id"]

        def run_job() -> tuple[Any, bool]:
            record = spanned(
                rec, "bench.jobs.claim",
                lambda: self.worker.queue.claim(self.worker.worker_id),
            )
            if record is None:
                return None, False
            # Like a ``repro work`` worker, run the engine with no
            # installed recorder: only the worker's own ``jobs.run``
            # span reaches the trace.
            with rec.span("bench.jobs.run_one"), use_recorder(NULL_RECORDER):
                return record, self.worker.run_one(record)

        result = meter.op("queued_s.run", lambda: clock(run_job))
        if result is None:
            return
        record, done = result
        if not meter.check(
            record is not None and record.job_id == job_id,
            "queued: the worker did not claim the enqueued job",
        ):
            return
        result = meter.op("queued_s.fetch", lambda: self.http(
            rec, "bench.http.get_job", "GET", f"/v1/jobs/{job_id}"
        ))
        if result is None:
            return
        job_status, job_data = result
        job = json.loads(job_data) if job_status == 200 else {}
        if not meter.check(
            done and job.get("state") == "done",
            f"queued: job ended {job.get('state')!r} (status {job_status})",
        ):
            return
        report = job["result"]["report"]
        meter.check(
            report["counts"] == counts,
            "queued: job report counts differ from /v1/counts",
        )
        self._last_job = job_data
        if meter.recording and not self._parity_checked:
            self._parity_checked = True
            self.inline_parity(meter, report_digest(report))
        if not probe:
            del job, report, record

        result = meter.op("enqueue_dedup_s", lambda: self.http(
            rec, "bench.http.post_analyze", "POST", "/v1/analyze"
        ))
        if result is None:
            return
        status, data = result
        doc = json.loads(data) if status == 202 else {}
        meter.check(
            doc.get("created") is False and doc.get("job_id") == job_id,
            f"enqueue_dedup: status {status}, created {doc.get('created')!r}",
        )
        self.track(meter, rec, batch, counts)
        if probe:
            self.probe_state(rec)
            self.probe_jsonio(rec)
            spanned(
                rec, "bench.jobs.get",
                lambda: self.worker.queue.get(job_id, include_result=True),
            )
            self.tally["jobs.payload_bytes"] += len(
                json.dumps(record.payload, sort_keys=True)
            )
            self.tally["jobs.result_bytes"] += len(
                json.dumps(job["result"], sort_keys=True)
            )
            self.probe_report(rec, report)

    def final_checks(self, meter: Meter) -> None:
        # The last cycle's job analysed the state as it still is.
        if self._last_job is not None:
            report = json.loads(self._last_job)["result"]["report"]
            self.inline_parity(meter, report_digest(report))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Audit, ServeRW, ServeQueue)
}
