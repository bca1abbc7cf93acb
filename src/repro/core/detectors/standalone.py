"""Type 1 — standalone nodes (§III-A.1, §III-B).

A node is standalone when it has no edges at all:

* a **user** whose RUAM column sums to 0 (e.g. an off-boarded employee
  whose entry was never cleaned up);
* a **permission** whose RPAM column sums to 0 (e.g. a decommissioned
  asset);
* a **role** whose row sums to 0 in *both* RUAM and RPAM — the trickier
  case the paper calls out, since a role row exists in both matrices.
"""

from __future__ import annotations

from repro.core.detectors.base import AnalysisContext, Detector
from repro.core.taxonomy import (
    STANDALONE_PERMISSIONS,
    STANDALONE_ROLES,
    STANDALONE_USERS,
    Bucket,
    Findings,
)


class StandaloneNodeDetector(Detector):
    """Finds users, permissions, and roles with no edges."""

    name = "standalone_nodes"

    def detect(self, context: AnalysisContext) -> Findings:
        ruam, rpam = context.ruam, context.rpam
        # A standalone role has zero-sum rows in both matrices; the row
        # order is identical (state.role_ids()), so a vector AND suffices.
        empty_roles = (ruam.row_sums == 0) & (rpam.row_sums == 0)
        return Findings(
            [
                Bucket(STANDALONE_USERS, ruam.cols_with_sum(0)),
                Bucket(STANDALONE_PERMISSIONS, rpam.cols_with_sum(0)),
                Bucket(STANDALONE_ROLES, ruam.rows_where(empty_roles)),
            ]
        )
