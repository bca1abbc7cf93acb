"""Unit tests for :meth:`RbacState.fingerprint`.

The fingerprint is the analysis service's report-cache key, so the
contract is exactly two-sided: every content mutation must change it,
and insertion order must never change it.  It is also maintained
incrementally by the mutators once computed, so the maintained value
must equal a full recompute of the same content after every mutation.
"""

from __future__ import annotations

import random

import pytest

import repro.core.state as state_module
from repro.core.entities import Permission, Role, User
from repro.core.state import RbacState

from test_incremental_parity import random_step, seed_auditor

#: ``paper_example``'s fingerprint as computed by the original full-pass
#: implementation.  Fingerprints are report-cache keys, job spec keys
#: and snapshot checksums, so the values themselves must never change.
PAPER_EXAMPLE_FINGERPRINT = (
    "073820ac7717adf0c7aec7380a806a45ce8d87be16dc0998f20ce0024a372054"
)


def _hex256(value: str) -> None:
    assert isinstance(value, str)
    assert len(value) == 64
    int(value, 16)  # raises if not hex


class TestShape:
    def test_empty_state_has_stable_hex_digest(self):
        a, b = RbacState(), RbacState()
        _hex256(a.fingerprint())
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_is_deterministic_across_calls(self, paper_example):
        assert paper_example.fingerprint() == paper_example.fingerprint()

    def test_copy_preserves_fingerprint(self, paper_example):
        assert paper_example.copy().fingerprint() == paper_example.fingerprint()


class TestOrderInsensitivity:
    def test_rebuild_in_reverse_order_same_fingerprint(self, paper_example):
        rebuilt = RbacState.build(
            users=reversed(paper_example.user_ids()),
            roles=reversed(paper_example.role_ids()),
            permissions=reversed(paper_example.permission_ids()),
            user_assignments=reversed(
                [
                    (role_id, user_id)
                    for role_id in paper_example.role_ids()
                    for user_id in sorted(paper_example.users_of_role(role_id))
                ]
            ),
            permission_assignments=reversed(
                [
                    (role_id, permission_id)
                    for role_id in paper_example.role_ids()
                    for permission_id in sorted(
                        paper_example.permissions_of_role(role_id)
                    )
                ]
            ),
        )
        assert rebuilt.fingerprint() == paper_example.fingerprint()

    def test_interleaved_construction_same_fingerprint(self):
        a = RbacState.build(
            users=["u1", "u2"],
            roles=["r1"],
            permissions=["p1"],
            user_assignments=[("r1", "u1"), ("r1", "u2")],
            permission_assignments=[("r1", "p1")],
        )
        b = RbacState()
        b.add_user("u2")
        b.add_role("r1")
        b.add_permission("p1")
        b.assign_permission("r1", "p1")
        b.add_user("u1")
        b.assign_user("r1", "u2")
        b.assign_user("r1", "u1")
        assert a.fingerprint() == b.fingerprint()

    def test_remove_then_re_add_restores_fingerprint(self, paper_example):
        before = paper_example.fingerprint()
        members = sorted(paper_example.users_of_role("R02"))
        grants = sorted(paper_example.permissions_of_role("R02"))
        paper_example.remove_role("R02")
        assert paper_example.fingerprint() != before
        paper_example.add_role("R02")
        for user_id in members:
            paper_example.assign_user("R02", user_id)
        for permission_id in grants:
            paper_example.assign_permission("R02", permission_id)
        assert paper_example.fingerprint() == before


class TestMutationSensitivity:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.add_user("new-user"),
            lambda s: s.add_role("new-role"),
            lambda s: s.add_permission("new-permission"),
            lambda s: s.remove_user("U01"),
            lambda s: s.remove_role("R03"),
            lambda s: s.remove_permission("P01"),
            lambda s: s.assign_user("R03", "U01"),
            lambda s: s.revoke_user("R02", "U02"),
            lambda s: s.assign_permission("R02", "P01"),
            lambda s: s.revoke_permission("R04", "P05"),
        ],
        ids=[
            "add_user",
            "add_role",
            "add_permission",
            "remove_user",
            "remove_role",
            "remove_permission",
            "assign_user",
            "revoke_user",
            "assign_permission",
            "revoke_permission",
        ],
    )
    def test_every_mutation_kind_changes_fingerprint(
        self, paper_example, mutate
    ):
        before = paper_example.fingerprint()
        mutate(paper_example)
        assert paper_example.fingerprint() != before

    def test_idempotent_assign_keeps_fingerprint(self, paper_example):
        before = paper_example.fingerprint()
        paper_example.assign_user("R02", "U02")  # already assigned
        assert paper_example.fingerprint() == before

    def test_entity_metadata_is_part_of_the_content(self):
        plain = RbacState.build(users=["u1"])
        named = RbacState()
        named.add_user(User("u1", name="Alice"))
        attributed = RbacState()
        attributed.add_user(User("u1", attributes={"dept": "fraud"}))
        prints = {
            plain.fingerprint(),
            named.fingerprint(),
            attributed.fingerprint(),
        }
        assert len(prints) == 3

    def test_same_id_different_kind_edges_distinguished(self):
        # A user edge and a permission edge to an identically-named
        # target must not collide.
        a = RbacState()
        a.add_role(Role("r"))
        a.add_user("x")
        a.add_permission("x")
        a.assign_user("r", "x")
        b = RbacState()
        b.add_role(Role("r"))
        b.add_user("x")
        b.add_permission("x")
        b.assign_permission("r", "x")
        assert a.fingerprint() != b.fingerprint()


class TestGolden:
    def test_paper_example_fingerprint_is_pinned(self, paper_example):
        assert paper_example.fingerprint() == PAPER_EXAMPLE_FINGERPRINT
        assert (
            paper_example.recompute_fingerprint() == PAPER_EXAMPLE_FINGERPRINT
        )

    def test_incrementally_built_paper_example_matches_the_pin(
        self, paper_example
    ):
        # Same content, but the digest is maintained from the empty
        # state on rather than computed in one pass at the end.
        state = RbacState()
        state.fingerprint()
        for user_id in paper_example.user_ids():
            state.add_user(user_id)
        for role_id in paper_example.role_ids():
            state.add_role(role_id)
        for permission_id in paper_example.permission_ids():
            state.add_permission(permission_id)
        for role_id in paper_example.role_ids():
            for user_id in paper_example.users_of_role(role_id):
                state.assign_user(role_id, user_id)
            for permission_id in paper_example.permissions_of_role(role_id):
                state.assign_permission(role_id, permission_id)
        assert state._digest is not None
        assert state.fingerprint() == PAPER_EXAMPLE_FINGERPRINT

    def test_empty_state_is_zero(self):
        assert RbacState().fingerprint() == "0" * 64


def assert_maintained(state: RbacState, context: str) -> None:
    maintained = state.fingerprint()
    assert maintained == state.recompute_fingerprint(), (
        f"maintained digest drifted after {context}"
    )


class TestMaintainedDigest:
    """The maintained digest equals a full recompute at every step."""

    @pytest.mark.parametrize("seed", [3, 7, 1234, 999_331, 2024])
    def test_random_streams(self, seed):
        rng = random.Random(seed)
        auditor, next_id = seed_auditor(rng, threshold=1)
        state = auditor.state
        assert_maintained(state, "seeding")
        applied = 0
        for _ in range(600):
            description = random_step(rng, auditor, next_id)
            if description is None:
                continue
            applied += 1
            assert_maintained(state, f"step {applied}: {description}")
        assert applied >= 150

    def test_no_full_pass_after_the_first(self, paper_example, monkeypatch):
        paper_example.fingerprint()
        calls = []
        real = state_module._content_digest
        monkeypatch.setattr(
            state_module,
            "_content_digest",
            lambda state: calls.append(state) or real(state),
        )
        paper_example.assign_user("R03", "U01")
        paper_example.remove_role("R04")
        paper_example.fingerprint()
        paper_example.copy().fingerprint()
        assert calls == []

    def test_untracked_state_computes_nothing(self, monkeypatch):
        hashed = []
        real = state_module._item_digest
        monkeypatch.setattr(
            state_module,
            "_item_digest",
            lambda *parts: hashed.append(parts) or real(*parts),
        )
        state = RbacState.build(
            users=["u"], roles=["r"], permissions=["p"],
            user_assignments=[("r", "u")],
            permission_assignments=[("r", "p")],
        )
        state.revoke_user("r", "u")
        state.remove_permission("p")
        assert hashed == []
        assert state._digest is None

    def test_idempotent_assign_and_noop_revoke(self, paper_example):
        before = paper_example.fingerprint()
        paper_example.assign_user("R02", "U02")  # already present
        paper_example.assign_permission("R04", "P05")  # already present
        paper_example.revoke_user("R03", "U01")  # absent
        paper_example.revoke_permission("R02", "P01")  # absent
        assert paper_example.fingerprint() == before
        assert_maintained(paper_example, "idempotent assigns and no-op revokes")

    @pytest.mark.parametrize(
        "remove",
        [
            lambda s: s.remove_role("R04"),  # user and permission edges
            lambda s: s.remove_user("U02"),  # member of R02 and R04
            lambda s: s.remove_permission("P05"),  # granted by R04 and R05
        ],
        ids=["remove_role", "remove_user", "remove_permission"],
    )
    def test_remove_with_live_edges(self, paper_example, remove):
        paper_example.fingerprint()
        remove(paper_example)
        assert_maintained(paper_example, "removal with live edges")

    def test_remove_then_re_add_with_other_content(self, paper_example):
        paper_example.fingerprint()
        paper_example.remove_user("U02")
        paper_example.add_user(User("U02", name="Bob", attributes={"x": 1}))
        paper_example.assign_user("R05", "U02")
        assert_maintained(paper_example, "user re-added with new metadata")
        paper_example.remove_permission("P05")
        paper_example.add_permission(Permission("P05"))
        paper_example.assign_permission("R01", "P05")
        assert_maintained(paper_example, "permission re-added elsewhere")
        paper_example.remove_role("R02")
        paper_example.add_role(Role("R02", attributes={"tier": "gold"}))
        assert_maintained(paper_example, "role re-added empty")

    def test_mutating_a_copy_leaves_the_original(self, paper_example):
        before = paper_example.fingerprint()
        clone = paper_example.copy()
        clone.remove_role("R01")
        clone.add_user("U99")
        clone.assign_user("R02", "U99")
        assert paper_example.fingerprint() == before
        assert_maintained(paper_example, "mutations on a copy")
        assert_maintained(clone, "mutations on the copy itself")
        assert clone.fingerprint() != before

    def test_copy_before_first_fingerprint(self, paper_example):
        clone = paper_example.copy()
        clone.fingerprint()
        clone.revoke_user("R02", "U02")
        assert paper_example.fingerprint() == PAPER_EXAMPLE_FINGERPRINT
        assert_maintained(clone, "revoke on a copy tracked after copying")
