"""Unit + property tests for the incremental auditor.

The contract under test: after ANY mutation sequence,
``auditor.counts() == analyze(auditor.state).counts()`` — the
incremental indexes never drift from the batch engine.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalysisConfig, Axis, analyze
from repro.core.incremental import IncrementalAuditor
from repro.core.state import RbacState
from repro.exceptions import ConfigurationError


def batch_counts(auditor: IncrementalAuditor) -> dict[str, int]:
    config = AnalysisConfig(
        similarity_threshold=auditor.similarity_threshold
    )
    return analyze(auditor.state, config).counts()


class TestConstruction:
    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            IncrementalAuditor(similarity_threshold=0)

    def test_empty_auditor(self):
        auditor = IncrementalAuditor()
        assert auditor.counts() == batch_counts(auditor)

    def test_ingests_existing_state(self, paper_example):
        auditor = IncrementalAuditor(paper_example)
        assert auditor.counts() == batch_counts(auditor)

    def test_source_state_copied(self, paper_example):
        auditor = IncrementalAuditor(paper_example)
        auditor.remove_role("R01")
        assert paper_example.has_role("R01")

    def test_counts_reads_maintained_standalone_counts(
        self, paper_example, monkeypatch
    ):
        # /v1/counts runs under the service's state lock: it must not
        # ask every user or permission for its roles.
        auditor = IncrementalAuditor(paper_example)
        auditor.remove_role("R01")  # U01 and P02 become unassigned
        expected = batch_counts(auditor)
        calls = []
        for name in ("roles_of_user", "roles_of_permission"):
            monkeypatch.setattr(
                RbacState,
                name,
                lambda self, member_id, name=name: calls.append(name),
            )
        assert auditor.counts() == expected
        assert expected["standalone_users"] == 1
        assert calls == []


class TestMutations:
    @pytest.fixture
    def auditor(self, paper_example) -> IncrementalAuditor:
        return IncrementalAuditor(paper_example)

    def test_new_role_is_standalone(self, auditor):
        auditor.add_role("fresh")
        assert auditor.counts()["standalone_roles"] == 1
        assert auditor.counts() == batch_counts(auditor)

    def test_assignment_updates_duplicates(self, auditor):
        # make R01's user set equal to R05's ({U04} vs {U01}): move U01->U04
        auditor.revoke_user("R01", "U01")
        auditor.assign_user("R01", "U04")
        groups = auditor.duplicate_groups(Axis.USERS)
        assert ["R01", "R05"] in groups
        assert auditor.counts() == batch_counts(auditor)

    def test_revocation_breaks_duplicate_group(self, auditor):
        auditor.revoke_user("R02", "U02")
        assert auditor.duplicate_groups(Axis.USERS) == []
        assert auditor.counts() == batch_counts(auditor)

    def test_similarity_appears_and_disappears(self, auditor):
        # R02 {U02,U03} vs R04 {U02,U03}: duplicates.  Extend R04 by one
        # user: now similar-at-1 instead.
        auditor.assign_user("R04", "U01")
        assert auditor.duplicate_groups(Axis.USERS) == []
        assert ["R02", "R04"] in auditor.similar_groups(Axis.USERS)
        auditor.revoke_user("R04", "U01")
        assert auditor.similar_groups(Axis.USERS) == []
        assert auditor.counts() == batch_counts(auditor)

    def test_remove_user_updates_all_roles(self, auditor):
        auditor.remove_user("U02")
        # R02/R04 had {U02,U03}: both now {U03} — still duplicates, and
        # both became single-user roles.
        counts = auditor.counts()
        assert counts["roles_same_users"] == 2
        assert counts["single_user_roles"] == 4  # R01, R02, R04, R05
        assert counts == batch_counts(auditor)

    def test_remove_permission_updates_roles(self, auditor):
        auditor.remove_permission("P05")
        assert auditor.counts() == batch_counts(auditor)

    def test_remove_role_clears_indexes(self, auditor):
        auditor.remove_role("R04")
        counts = auditor.counts()
        assert counts["roles_same_users"] == 0
        assert counts["roles_same_permissions"] == 0
        assert counts == batch_counts(auditor)

    def test_zero_overlap_similarity_through_small_sets(self):
        auditor = IncrementalAuditor(similarity_threshold=2)
        auditor.add_user("a")
        auditor.add_user("b")
        for role in ("r1", "r2"):
            auditor.add_role(role)
        auditor.add_permission("p")
        auditor.assign_permission("r1", "p")
        auditor.assign_permission("r2", "p")
        auditor.assign_user("r1", "a")
        auditor.assign_user("r2", "b")
        # {a} vs {b}: distance 2 with zero overlap
        assert ["r1", "r2"] in auditor.similar_groups(Axis.USERS)
        assert auditor.counts() == batch_counts(auditor)


class TestPropertyAgreement:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["assign_u", "revoke_u", "assign_p", "revoke_p",
                     "add_role", "remove_role", "remove_user"]
                ),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=40,
        ),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_never_drift_from_batch(self, operations, threshold):
        base = RbacState.build(
            users=[f"u{i}" for i in range(6)],
            roles=[f"r{i}" for i in range(6)],
            permissions=[f"p{i}" for i in range(6)],
        )
        auditor = IncrementalAuditor(base, similarity_threshold=threshold)
        next_role = 6
        for op, a, b in operations:
            state = auditor.state
            roles = state.role_ids()
            users = state.user_ids()
            permissions = state.permission_ids()
            try:
                if op == "assign_u" and roles and users:
                    auditor.assign_user(
                        roles[a % len(roles)], users[b % len(users)]
                    )
                elif op == "revoke_u" and roles and users:
                    auditor.revoke_user(
                        roles[a % len(roles)], users[b % len(users)]
                    )
                elif op == "assign_p" and roles and permissions:
                    auditor.assign_permission(
                        roles[a % len(roles)],
                        permissions[b % len(permissions)],
                    )
                elif op == "revoke_p" and roles and permissions:
                    auditor.revoke_permission(
                        roles[a % len(roles)],
                        permissions[b % len(permissions)],
                    )
                elif op == "add_role":
                    auditor.add_role(f"r{next_role}")
                    next_role += 1
                elif op == "remove_role" and roles:
                    auditor.remove_role(roles[a % len(roles)])
                elif op == "remove_user" and users:
                    auditor.remove_user(users[a % len(users)])
            except KeyError:
                pass
        assert auditor.counts() == batch_counts(auditor)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_batch_on_generated_orgs(self, seed):
        from repro.datagen import OrgProfile, generate_org

        org = generate_org(OrgProfile.small(divisor=500, seed=seed))
        auditor = IncrementalAuditor(org.state)
        assert auditor.counts() == batch_counts(auditor)
