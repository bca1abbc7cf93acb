"""Loading and saving RBAC states.

Two interchange formats plus an anonymisation pass:

* :mod:`~repro.io.jsonio` — a single self-contained JSON document with
  entities (including attributes) and both edge lists.
* :mod:`~repro.io.csvio` — the lowest-common-denominator export real IAM
  platforms produce: two edge CSVs (role,user and role,permission) and an
  optional entity CSV for nodes without edges.
* :mod:`~repro.io.anonymize` — deterministic pseudonymisation so real
  datasets can be shared the way the paper shares only aggregates.

:mod:`~repro.io.statecodec` is the internal binary encoding the job
plane stores states in (a JSON header plus int32 edge arrays).
"""

from repro.io.csvio import load_csv, save_csv
from repro.io.jsonio import load_json, loads_json, save_json, dumps_json
from repro.io.anonymize import anonymize
from repro.io.dot import state_to_dot

__all__ = [
    "load_csv",
    "save_csv",
    "load_json",
    "loads_json",
    "save_json",
    "dumps_json",
    "anonymize",
    "state_to_dot",
]
