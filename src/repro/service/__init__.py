"""Long-running RBAC analysis service (HTTP/JSON, stdlib-only).

The batch engine answers "what is inefficient *right now*?" for one
dataset export; this package turns the engine + incremental auditor +
workspace stack into a daemon that answers it continuously:

* :class:`AnalysisService` — the application object: live state behind
  an :class:`~repro.core.incremental.IncrementalAuditor`, a
  fingerprint-keyed :class:`ReportCache`, a background
  :class:`RefreshScheduler`, and per-endpoint metrics
  (:mod:`repro.service.server`);
* :class:`ServiceServer` — the stdlib ``ThreadingHTTPServer`` binding
  with backpressure, deadlines, and graceful drain;
* :class:`SnapshotStore` — atomic persistence for warm restarts
  (:mod:`repro.service.store`);
* the wire protocol — mutation vocabulary, batch validation, analyze
  overrides (:mod:`repro.service.protocol`).

Start one from the CLI with ``repro serve`` or in-process::

    from repro.service import AnalysisService, ServiceConfig, ServiceServer

    service = AnalysisService(state, ServiceConfig(snapshot_path="snap.bin"))
    server = ServiceServer(service, port=0)
    server.start()                      # background thread
    ...                                 # POST /v1/mutations, GET /v1/counts
    server.stop()                       # drain + snapshot

See ``docs/ARCHITECTURE.md`` (request lifecycle, cache keying, drain
semantics) and ``docs/OBSERVABILITY.md`` (endpoint + metric names).
"""

from repro.service.cache import ReportCache
from repro.service.protocol import (
    MUTATION_OPS,
    DeadlineExceeded,
    Mutation,
    ProtocolError,
    ServiceDraining,
    ServiceSaturated,
    apply_batch,
    build_analysis_config,
    config_key,
    parse_mutation_batch,
    validate_batch,
)
from repro.service.scheduler import RefreshScheduler
from repro.service.server import AnalysisService, ServiceConfig, ServiceServer
from repro.service.slo import SloTracker
from repro.service.store import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotMeta,
    SnapshotStore,
)
from repro.service.tracez import SlowTraceRing

__all__ = [
    "AnalysisService",
    "ServiceConfig",
    "ServiceServer",
    "SloTracker",
    "SlowTraceRing",
    "ReportCache",
    "RefreshScheduler",
    "SnapshotStore",
    "SnapshotMeta",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "Mutation",
    "MUTATION_OPS",
    "ProtocolError",
    "DeadlineExceeded",
    "ServiceSaturated",
    "ServiceDraining",
    "parse_mutation_batch",
    "validate_batch",
    "apply_batch",
    "build_analysis_config",
    "config_key",
]
