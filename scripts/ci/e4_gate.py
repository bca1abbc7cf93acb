"""The paper-scale E4 gate: every planted count of the §IV-B table is
measured exactly.

Generates the paper's own workload (``OrgProfile.paper_scale()``: 90k
users, 350k permissions, 50k roles) once and requires its fingerprint
and the SHA-256 of its ``encode_state`` blob (id order, metadata and
edges included) to equal pinned values, so generator drift at full
scale fails.  Then it analyses the state serially and with the blocked
scan fanned out over two workers, and requires every row of the table
to match the planted count.  The serial report's ``encode()``
must be the sorted-key dump of its ``to_dict()``; the digest of that
report without its run-specific members is printed.  Then the state
round-trips through a ``SnapshotStore`` file in a temporary directory
(the service's drain and warm restart) and must come back equal, with
its fingerprint and counts; the save and load seconds and the file size
are printed::

    PYTHONPATH=src python scripts/ci/e4_gate.py

Exits non-zero when an assertion fails.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from pathlib import Path

from repro.core.engine import AnalysisConfig, analyze
from repro.datagen import OrgProfile, generate_org
from repro.io.statecodec import encode_state
from repro.service import SnapshotMeta, SnapshotStore

#: Report members that differ from run to run.
RUN_SPECIFIC = ("timings_seconds", "total_seconds", "metrics")
#: ``OrgProfile.paper_scale()``'s state: its fingerprint and the SHA-256
#: of its ``encode_state`` blob.
PAPER_SCALE_FINGERPRINT = (
    "4809c37c2a215d900671fcbd1cafcbfe8f5235ec96b851896c0fbb1f3fc3cf6d"
)
PAPER_SCALE_STATE_SHA256 = (
    "788b49058b7069b1d6d4d87d114cb048b843a7fa90fa5e9d643d3945b741663d"
)


def main() -> None:
    start = time.perf_counter()
    org = generate_org(OrgProfile.paper_scale())
    print(f"generate_org: {time.perf_counter() - start:.1f}s")
    assert org.state.fingerprint() == PAPER_SCALE_FINGERPRINT, (
        "paper-scale fingerprint differs from the pinned one"
    )
    state_sha256 = hashlib.sha256(encode_state(org.state)).hexdigest()
    assert state_sha256 == PAPER_SCALE_STATE_SHA256, (
        "paper-scale encode_state blob differs from the pinned one"
    )
    print("generated state ok: pinned fingerprint and state blob")
    expected = org.expected_counts()
    configs = {
        "serial": AnalysisConfig(),
        "2 workers, block_rows=4096": AnalysisConfig(
            n_workers=2, block_rows=4096
        ),
    }
    for label, config in configs.items():
        start = time.perf_counter()
        report = analyze(org.state, config)
        counts = report.counts()
        print(f"{label}: analyze {time.perf_counter() - start:.1f}s")
        for row, planted in expected.items():
            print(f"  {row:28} planted {planted:>7} measured {counts[row]:>7}")
        assert counts == expected, f"{label}: planted != measured"
        if label == "serial":
            check_report_bytes(report)
        del report
    print("E4 gate ok: every row matches at paper scale")

    with tempfile.TemporaryDirectory() as scratch:
        store = SnapshotStore(Path(scratch) / "snapshot")
        meta = SnapshotMeta(fingerprint=org.state.fingerprint())
        start = time.perf_counter()
        store.save(org.state, meta)
        print(f"SnapshotStore.save: {time.perf_counter() - start:.2f}s "
              f"({store.path.stat().st_size / 1e6:.1f} MB)")
        start = time.perf_counter()
        restored, loaded = store.load()
        print(f"SnapshotStore.load: {time.perf_counter() - start:.2f}s")
    # What a warm restart reads next.
    start = time.perf_counter()
    fingerprint = restored.fingerprint()
    print(f"fingerprint after load: {time.perf_counter() - start:.2f}s")
    assert fingerprint == loaded.fingerprint == org.state.fingerprint()
    assert restored == org.state
    assert analyze(restored).counts() == expected
    print("round trip ok: equal state, same fingerprint, same counts")


def check_report_bytes(report) -> None:
    """``encode()`` writes the bytes ``json.dumps(to_dict(), sort_keys=True)``
    does; print the digest of the report without its run-specific members."""
    start = time.perf_counter()
    encoded = report.encode()
    print(f"encode: {time.perf_counter() - start:.2f}s "
          f"({len(encoded) / 1e6:.1f} MB)")
    payload = report.to_dict()
    assert encoded == json.dumps(payload, sort_keys=True).encode("utf-8"), (
        "encode() differs from the sorted-key dump of to_dict()"
    )
    for key in RUN_SPECIFIC:
        del payload[key]
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    print(f"normalised report sha256: {digest}")


if __name__ == "__main__":
    main()
