"""Checks of the analysis service smoke, one per subcommand.

Run against a live ``repro serve`` of ``--dataset`` (the first two) or
in-process (the third)::

    PYTHONPATH=src python -m repro generate org /tmp/org.json --scale-divisor 200 --seed 7
    PYTHONPATH=src python -m repro serve /tmp/org.json --port 8035 \
        --snapshot /tmp/snap.json --refresh-mutations 4 &
    PYTHONPATH=src python scripts/ci/service_smoke.py counts-parity
    PYTHONPATH=src python scripts/ci/service_smoke.py cache-hit
    PYTHONPATH=src python scripts/ci/service_smoke.py backpressure

``counts-parity`` applies three mutations, so ``cache-hit`` expects the
dataset plus those three; run them in this order against a fresh
service.  After SIGTERM has drained that service, the last two check
its snapshot and a warm restart from it::

    PYTHONPATH=src python scripts/ci/service_smoke.py snapshot
    PYTHONPATH=src python -m repro serve --port 8036 \
        --snapshot /tmp/snap.json --no-warm &
    PYTHONPATH=src python scripts/ci/service_smoke.py warm-restart \
        --url http://127.0.0.1:8036

Each check prints one line and exits non-zero when an assertion fails.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
import urllib.request

from repro.core import analyze
from repro.io import load_json

#: The mutations ``counts-parity`` applies to the live service.
MUTATIONS = [
    {"op": "add_user", "id": "ci-user"},
    {"op": "add_role", "id": "ci-role"},
    {"op": "assign_user", "role": "ci-role", "user": "ci-user"},
]


def call(url, path, method="GET", payload=None, timeout=30):
    body = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(f"{url}{path}", data=body, method=method)
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def mutated_dataset(path):
    """The dataset at ``path`` after :data:`MUTATIONS`."""
    state = load_json(path)
    state.add_user("ci-user")
    state.add_role("ci-role")
    state.assign_user("ci-role", "ci-user")
    return state


def counts_parity(args):
    """The live /v1/counts (maintained incrementally) must agree with a
    from-scratch batch analysis of the same mutated dataset."""
    applied = call(args.url, "/v1/mutations", "POST", {"mutations": MUTATIONS})
    assert applied["applied"] == 3, applied
    counts = call(args.url, "/v1/counts")["counts"]
    expected = analyze(mutated_dataset(args.dataset)).counts()
    assert counts == expected, (counts, expected)
    print("counts parity ok:", counts)


def cache_hit(args):
    """A repeated analyze is served from the cache."""
    first = call(args.url, "/v1/analyze", "POST", {}, timeout=60)
    second = call(args.url, "/v1/analyze", "POST", {}, timeout=60)
    assert second["cache"] == "hit", (first["cache"], second["cache"])

    # The service maintains its fingerprint incrementally; it must
    # equal a from-scratch digest of the same content (the dataset
    # plus the three mutations of counts-parity).
    expected = mutated_dataset(args.dataset).recompute_fingerprint()
    assert second["fingerprint"] == expected, (second["fingerprint"], expected)
    metrics = call(args.url, "/metricz")
    assert metrics["counters"]["service.analyze_hit"] > 0, metrics["counters"]
    assert metrics["cache"]["hits"] > 0, metrics["cache"]
    print("cache ok:", metrics["cache"])


def backpressure(args):
    """Deterministic in-process check: a gated analysis holds the single
    queue slot, the next request gets 429 + Retry-After, and the
    in-flight request still completes correctly."""
    import repro.service.server as server_module
    from repro.datagen import OrgProfile, generate_org
    from repro.service import AnalysisService, ServiceConfig

    state = generate_org(OrgProfile.small(divisor=500, seed=7)).state
    service = AnalysisService(state, ServiceConfig(
        queue_limit=1, warm_start=False, refresh_mutations=None))
    release = threading.Event()
    real_analyze = server_module.analyze

    def gated(state, config=None, recorder=None):
        release.wait(30)
        return real_analyze(state, config, recorder)

    server_module.analyze = gated
    results = []
    worker = threading.Thread(
        target=lambda: results.append(service.handle("POST", "/v1/analyze")))
    worker.start()
    for _ in range(500):
        if service.handle("GET", "/metricz")[1]["queue"]["in_flight"] == 1:
            break
        time.sleep(0.01)
    status, payload, headers = service.handle("GET", "/v1/counts")
    assert status == 429, (status, payload)
    assert "Retry-After" in headers, headers
    release.set()
    worker.join(timeout=60)
    server_module.analyze = real_analyze
    status, body, _ = results[0]
    assert status == 200, (status, body)
    payload = json.loads(body)
    assert payload["cache"] == "miss", payload["cache"]
    assert payload["report"]["counts"] == analyze(
        service.state, service.config.analysis).counts()
    print("backpressure ok: 429 with intact in-flight result")


def snapshot(args):
    """The drained service wrote a version 2 snapshot (a JSON header
    line, then the state blob) that holds the three mutations under the
    fingerprint of its content."""
    from repro.service import SnapshotStore

    with open(args.snapshot, "rb") as source:
        header = json.loads(source.readline())
    assert header["version"] == 2, header
    state, meta = SnapshotStore(args.snapshot).load()
    assert meta.mutation_seq == 3, meta
    assert state.has_user("ci-user") and state.has_role("ci-role")
    assert meta.fingerprint == state.fingerprint(), meta
    assert meta.fingerprint == state.recompute_fingerprint(), meta
    print("snapshot ok: version", header["version"], "seq", meta.mutation_seq)


def warm_restart(args):
    """A service started from the snapshot says so on /healthz."""
    health = call(args.url, "/healthz")
    assert health["restored_from_snapshot"] is True, health
    assert health["mutation_seq"] == 3, health
    print("warm restart ok:", health["dataset"])


CHECKS = {
    "counts-parity": counts_parity,
    "cache-hit": cache_hit,
    "backpressure": backpressure,
    "snapshot": snapshot,
    "warm-restart": warm_restart,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    parser.add_argument("--url", default="http://127.0.0.1:8035")
    parser.add_argument("--dataset", default="/tmp/org.json")
    parser.add_argument("--snapshot", default="/tmp/snap.json")
    args = parser.parse_args(argv)
    CHECKS[args.check](args)


if __name__ == "__main__":
    main()
