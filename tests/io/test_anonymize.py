"""Unit tests for the anonymisation pass."""

from __future__ import annotations

import pytest

from repro.core import analyze
from repro.core.state import RbacState
from repro.exceptions import DuplicateEntityError
from repro.io import anonymize
from repro.io.anonymize import _pseudonym


class TestStructurePreservation:
    def test_sizes_unchanged(self, paper_example):
        anon = anonymize(paper_example)
        assert anon.n_users == paper_example.n_users
        assert anon.n_roles == paper_example.n_roles
        assert anon.n_permissions == paper_example.n_permissions
        assert anon.n_user_assignments == paper_example.n_user_assignments
        assert (
            anon.n_permission_assignments
            == paper_example.n_permission_assignments
        )

    def test_detection_results_identical(self, paper_example):
        """All detection counts carry over one-to-one — the property that
        makes anonymised sharing useful."""
        original = analyze(paper_example).counts()
        anonymised = analyze(anonymize(paper_example)).counts()
        assert original == anonymised

    def test_original_ids_absent(self, paper_example):
        anon = anonymize(paper_example)
        for user_id in paper_example.user_ids():
            assert not anon.has_user(user_id)
        for role_id in paper_example.role_ids():
            assert not anon.has_role(role_id)

    def test_attributes_dropped(self, small_org_state):
        anon = anonymize(small_org_state)
        sample_role = anon.role_ids()[0]
        assert dict(anon.get_role(sample_role).attributes) == {}


class TestKeying:
    def test_same_key_same_pseudonyms(self, paper_example):
        a = anonymize(paper_example, key="secret")
        b = anonymize(paper_example, key="secret")
        assert a == b

    def test_different_keys_differ(self, paper_example):
        a = anonymize(paper_example, key="one")
        b = anonymize(paper_example, key="two")
        assert set(a.user_ids()) != set(b.user_ids())

    def test_kind_prefixes(self, paper_example):
        anon = anonymize(paper_example)
        assert all(u.startswith("u-") for u in anon.user_ids())
        assert all(r.startswith("r-") for r in anon.role_ids())
        assert all(p.startswith("p-") for p in anon.permission_ids())

    def test_source_not_modified(self, paper_example):
        snapshot = paper_example.copy()
        anonymize(paper_example)
        assert paper_example == snapshot


def _per_item_anonymize(state: RbacState, key: bytes) -> RbacState:
    """The mutator-by-mutator construction ``anonymize`` replaces."""

    def alias(kind: str, entity_id: str) -> str:
        return _pseudonym(key, kind, entity_id, 16)

    clone = RbacState()
    for user_id in state.user_ids():
        clone.add_user(alias("user", user_id))
    for role_id in state.role_ids():
        clone.add_role(alias("role", role_id))
    for permission_id in state.permission_ids():
        clone.add_permission(alias("permission", permission_id))
    for role_id in state.role_ids():
        for user_id in state.users_of_role(role_id):
            clone.assign_user(alias("role", role_id), alias("user", user_id))
        for permission_id in state.permissions_of_role(role_id):
            clone.assign_permission(
                alias("role", role_id), alias("permission", permission_id)
            )
    return clone


class TestBulkConstruction:
    def test_equals_the_per_item_construction(self, small_org_state):
        anon = anonymize(small_org_state, key="k")
        expected = _per_item_anonymize(small_org_state, b"k")
        assert anon == expected
        assert anon.fingerprint() == expected.fingerprint()
        assert anon.user_ids() == expected.user_ids()
        assert anon.role_ids() == expected.role_ids()
        assert anon.permission_ids() == expected.permission_ids()

    def test_pseudonym_collision_raises(self, small_org_state):
        # One hex character leaves 16 pseudonyms per kind.
        with pytest.raises(DuplicateEntityError):
            anonymize(small_org_state, digest_length=1)
