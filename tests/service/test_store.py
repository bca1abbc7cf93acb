"""Snapshot store tests: atomic writes, verified loads."""

from __future__ import annotations

import json
import random

import pytest

import repro.core.state as state_module
from repro.core.state import RbacState
from repro.exceptions import DataFormatError
from repro.service.store import (
    SNAPSHOT_FORMAT,
    SnapshotMeta,
    SnapshotStore,
)


def sample_state() -> RbacState:
    return RbacState.build(
        users=["u0", "u1", "u2"],
        roles=["r0", "r1"],
        permissions=["p0", "p1", "p2"],
        user_assignments=[("r0", "u0"), ("r0", "u1"), ("r1", "u2")],
        permission_assignments=[("r0", "p0"), ("r1", "p1"), ("r1", "p2")],
    )


def sample_meta(state: RbacState) -> SnapshotMeta:
    return SnapshotMeta(
        mutation_seq=17,
        fingerprint=state.fingerprint(),
        saved_at=1_700_000_000.0,
        extra={"reason": "test"},
    )


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap.json")
        assert not store.exists()
        store.save(state, sample_meta(state))
        assert store.exists()
        loaded, meta = store.load()
        assert loaded == state
        assert loaded.fingerprint() == state.fingerprint()
        assert meta.mutation_seq == 17
        assert meta.extra == {"reason": "test"}

    def test_save_creates_parent_directories(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "deep" / "nested" / "snap.json")
        store.save(state, sample_meta(state))
        assert store.exists()

    def test_overwrite_replaces_previous(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.json")
        first = sample_state()
        store.save(first, sample_meta(first))
        second = sample_state()
        second.add_user("u-new")
        store.save(second, sample_meta(second))
        loaded, _ = store.load()
        assert loaded == second

    def test_no_temp_files_left_behind(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap.json")
        store.save(state, sample_meta(state))
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]


class TestAtomicity:
    def test_failed_save_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        store = SnapshotStore(tmp_path / "snap.json")
        original = sample_state()
        store.save(original, sample_meta(original))

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("repro.service.store.json.dump", boom)
        with pytest.raises(RuntimeError):
            store.save(sample_state(), sample_meta(sample_state()))
        monkeypatch.undo()
        loaded, meta = store.load()
        assert loaded == original
        assert meta.mutation_seq == 17
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]


class TestLoadValidation:
    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataFormatError, match="corrupt snapshot"):
            SnapshotStore(path).load()

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataFormatError, match=SNAPSHOT_FORMAT):
            SnapshotStore(path).load()

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps({"format": SNAPSHOT_FORMAT, "version": 99})
        )
        with pytest.raises(DataFormatError, match="version"):
            SnapshotStore(path).load()

    def test_fingerprint_mismatch_detected(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap.json")
        store.save(state, sample_meta(state))
        document = json.loads(store.path.read_text(encoding="utf-8"))
        # Tamper with the persisted edges behind the fingerprint's back.
        document["state"]["user_assignments"] = [["r0", "u0"]]
        store.path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataFormatError, match="fingerprint check"):
            store.load()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mutation_seq", "abc"),
            ("mutation_seq", [1]),
            ("mutation_seq", float("inf")),
            ("saved_at", "abc"),
            ("saved_at", {}),
            ("extra", 5),
            ("extra", "abc"),
        ],
    )
    def test_malformed_meta(self, tmp_path, field, value):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap.json")
        store.save(state, sample_meta(state))
        document = json.loads(store.path.read_text(encoding="utf-8"))
        document["meta"][field] = value
        store.path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataFormatError, match="snapshot meta"):
            store.load()

    def test_empty_fingerprint_skips_the_check(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap.json")
        store.save(state, SnapshotMeta(mutation_seq=1, fingerprint=""))
        loaded, meta = store.load()
        assert loaded == state
        assert meta.fingerprint == ""


class TestMaintainedFingerprint:
    """The stored fingerprint may come from the maintained digest; the
    load check always recomputes it from the loaded content."""

    def mutated_state(self) -> RbacState:
        state = sample_state()
        state.fingerprint()  # from here on the mutators maintain it
        rng = random.Random(11)
        for n in range(60):
            role = rng.choice(state.role_ids())
            user = rng.choice(state.user_ids())
            permission = rng.choice(state.permission_ids())
            state.assign_user(role, user)
            state.revoke_permission(role, permission)
            if n % 10 == 0:
                state.add_user(f"x{n}")
                state.assign_permission(role, permission)
            if n % 15 == 0:
                state.remove_user(rng.choice(state.user_ids()))
        return state

    def test_snapshot_after_a_mutation_stream_loads(
        self, tmp_path, monkeypatch
    ):
        state = self.mutated_state()
        store = SnapshotStore(tmp_path / "snap.json")
        store.save(state, sample_meta(state))
        passes = []
        real = state_module._content_digest
        monkeypatch.setattr(
            state_module,
            "_content_digest",
            lambda loaded: passes.append(loaded) or real(loaded),
        )
        loaded, meta = store.load()
        assert loaded == state
        assert meta.fingerprint == state.fingerprint()
        assert len(passes) == 1  # verified from content, not trusted

    def test_tampered_snapshot_still_rejected(self, tmp_path):
        state = self.mutated_state()
        store = SnapshotStore(tmp_path / "snap.json")
        store.save(state, sample_meta(state))
        document = json.loads(store.path.read_text(encoding="utf-8"))
        document["state"]["user_assignments"].pop()
        store.path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataFormatError, match="fingerprint check"):
            store.load()

    def test_snapshot_written_by_the_full_pass_implementation_loads(
        self, tmp_path
    ):
        # A snapshot of sample_state() as the original full-pass
        # fingerprint implementation wrote it: existing snapshots must
        # keep passing their fingerprint check.
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({
            "format": "repro-rbac-snapshot",
            "version": 1,
            "meta": {
                "extra": {},
                "fingerprint": (
                    "2c6f711af5881c7b910552275f56e132"
                    "78a09fc93b96bbecaf47a7042189688b"
                ),
                "mutation_seq": 3,
                "saved_at": 0.0,
            },
            "state": {
                "format": "repro-rbac",
                "version": 1,
                "users": [{"id": "u0"}, {"id": "u1"}, {"id": "u2"}],
                "roles": [{"id": "r0"}, {"id": "r1"}],
                "permissions": [{"id": "p0"}, {"id": "p1"}, {"id": "p2"}],
                "user_assignments": [["r0", "u0"], ["r0", "u1"], ["r1", "u2"]],
                "permission_assignments": [
                    ["r0", "p0"], ["r1", "p1"], ["r1", "p2"]
                ],
            },
        }), encoding="utf-8")
        loaded, meta = SnapshotStore(path).load()
        assert loaded == sample_state()
        assert loaded.fingerprint() == meta.fingerprint
        assert meta.mutation_seq == 3
