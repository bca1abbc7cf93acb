"""Snapshot store tests: atomic writes, verified loads.

Version 2 files (a JSON header line, then the state codec blob) are
what the store writes; version 1 files (one JSON document, the state in
``jsonio`` form) are what earlier releases wrote, and still load.
:func:`write_v1` writes those, as the version 1 store did.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.state as state_module
from repro.core.entities import Permission, Role, User
from repro.core.state import RbacState
from repro.exceptions import DataFormatError
from repro.io.jsonio import state_to_dict
from repro.io.statecodec import decode_state, encode_state
from repro.service.store import (
    SNAPSHOT_FORMAT,
    SnapshotMeta,
    SnapshotStore,
)

KINDS = {"user": User, "role": Role, "permission": Permission}


def write_v1(path, state: RbacState, meta: SnapshotMeta) -> None:
    """The version 1 snapshot writer: one sorted-key JSON document."""
    document = {
        "format": SNAPSHOT_FORMAT,
        "version": 1,
        "meta": meta.to_dict(),
        "state": state_to_dict(state),
    }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document, out, sort_keys=True)


def write_v2(path, header: dict, blob: bytes) -> None:
    """A version 2 file with the given header and blob, as edited."""
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)


def read_v2(path) -> tuple[dict, bytes]:
    """The header and the blob of a version 2 file."""
    line, _, blob = path.read_bytes().partition(b"\n")
    return json.loads(line), blob


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


def named_state() -> RbacState:
    """``sample_state()`` with names and attributes on every kind."""
    state = RbacState()
    for kind, n in (("user", 3), ("role", 2), ("permission", 3)):
        for i in range(n):
            getattr(state, f"add_{kind}")(KINDS[kind](
                f"{kind[0]}{i}", f"Name {i}", {"level": i, "tags": ["a"]}
            ))
    for role, user in (("r0", "u0"), ("r0", "u1"), ("r1", "u2")):
        state.assign_user(role, user)
    for role, permission in (("r0", "p0"), ("r1", "p1"), ("r1", "p2")):
        state.assign_permission(role, permission)
    return state


#: Meta fields ``SnapshotMeta.from_dict`` must reject.
MALFORMED_META = [
    ("mutation_seq", "abc"),
    ("mutation_seq", [1]),
    ("mutation_seq", float("inf")),
    ("saved_at", "abc"),
    ("saved_at", {}),
    ("extra", 5),
    ("extra", "abc"),
]


@st.composite
def churned_states(draw) -> RbacState:
    """Adds, removes, re-adds and edge flips over a small id space, with
    names and attributes on every kind; the digest is maintained over
    the churn or never computed."""
    state = RbacState()
    if draw(st.booleans()):
        state.fingerprint()
    ops = draw(st.lists(st.tuples(
        st.sampled_from(sorted(KINDS)),
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from(["", "Named", "Ünïcode \"quoted\"\n"]),
        st.sampled_from([{}, {"n": 2}, {"tags": ["a", "b"], "x": 1.5}]),
    ), max_size=60))
    for kind, n, other, name, attributes in ops:
        entity_id = f"{kind[0]}{n}"
        role_id = f"r{other}"
        if not getattr(state, f"has_{kind}")(entity_id):
            getattr(state, f"add_{kind}")(
                KINDS[kind](entity_id, name, attributes)
            )
        elif n == other:
            getattr(state, f"remove_{kind}")(entity_id)
        elif kind != "role" and state.has_role(role_id):
            held = entity_id in getattr(state, f"{kind}s_of_role")(role_id)
            verb = "revoke" if held else "assign"
            getattr(state, f"{verb}_{kind}")(role_id, entity_id)
    return state


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

    @settings(max_examples=60, deadline=None)
    @given(state=churned_states())
    def test_churned_states_round_trip(self, tmp_path_factory, state):
        store = SnapshotStore(tmp_path_factory.mktemp("snap") / "snap")
        store.save(state, sample_meta(state))
        loaded, meta = store.load()
        assert loaded == state
        assert loaded.fingerprint() == state.fingerprint() == meta.fingerprint
        assert loaded.recompute_fingerprint() == meta.fingerprint
        assert meta.mutation_seq == 17

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

    def test_header_line_then_state_blob(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap")
        store.save(state, sample_meta(state))
        header, blob = read_v2(store.path)
        assert header == {
            "format": SNAPSHOT_FORMAT,
            "meta": sample_meta(state).to_dict(),
            "version": 2,
        }
        assert blob == encode_state(state)

    def test_version_1_file_round_trips(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap.json")
        write_v1(store.path, state, sample_meta(state))
        loaded, meta = store.load()
        assert loaded == state
        assert loaded.fingerprint() == meta.fingerprint
        assert meta == sample_meta(state)


class TestAtomicity:
    def test_failed_save_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        store = SnapshotStore(tmp_path / "snap.json")
        original = sample_state()
        store.save(original, sample_meta(original))

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        # Fails mid-write: the header line is already in the temp file.
        monkeypatch.setattr("repro.service.store.encode_state", boom)
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

    def test_wrong_format_marker_v2(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap")
        store.save(state, sample_meta(state))
        header, blob = read_v2(store.path)
        header["format"] = "something-else"
        write_v2(store.path, header, blob)
        with pytest.raises(DataFormatError, match=SNAPSHOT_FORMAT):
            store.load()

    def test_unsupported_version_v2(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap")
        store.save(state, sample_meta(state))
        header, blob = read_v2(store.path)
        header["version"] = 3
        write_v2(store.path, header, blob)
        with pytest.raises(DataFormatError, match="version"):
            store.load()

    def test_missing_header_line(self, tmp_path):
        path = tmp_path / "snap"
        path.write_bytes(encode_state(sample_state()))
        with pytest.raises(DataFormatError, match="corrupt snapshot"):
            SnapshotStore(path).load()

    @pytest.mark.parametrize("keep", [0, 1, 8, 20, -1])
    def test_truncated_blob(self, tmp_path, keep):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap")
        store.save(state, sample_meta(state))
        header, blob = read_v2(store.path)
        write_v2(store.path, header, blob[:keep])
        with pytest.raises(DataFormatError, match="state blob"):
            store.load()

    @pytest.mark.parametrize(
        "where, error",
        [
            ("magic", "bad magic"),
            ("version", "blob version"),
            ("header size", "blob header"),
            ("id", "duplicate user"),  # u1 -> u0
            ("name", "fingerprint check"),  # Name 1 -> Oame 1
            ("edge", "fingerprint check"),  # first user edge's role r0 -> r1
            ("last", "out of range"),
        ],
    )
    def test_flipped_byte_in_the_blob(self, tmp_path, where, error):
        state = named_state()
        store = SnapshotStore(tmp_path / "snap")
        store.save(state, sample_meta(state))
        header, blob = read_v2(store.path)
        offset = {
            "magic": 0,
            "version": 8,
            "header size": 12,
            "id": blob.index(b'"u1"') + 2,
            "name": blob.index(b"Name 1"),
            "edge": len(blob) - 4 * 2 * (3 + 3),
            "last": len(blob) - 1,
        }[where]
        flipped = bytearray(blob)
        flipped[offset] ^= 0x01
        write_v2(store.path, header, bytes(flipped))
        with pytest.raises(DataFormatError, match=error):
            store.load()

    def test_fingerprint_mismatch_detected(self, tmp_path):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap.json")
        write_v1(store.path, state, sample_meta(state))
        document = json.loads(store.path.read_text(encoding="utf-8"))
        # Tamper with the persisted edges behind the fingerprint's back.
        document["state"]["user_assignments"] = [["r0", "u0"]]
        store.path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataFormatError, match="fingerprint check"):
            store.load()

    @pytest.mark.parametrize("field, value", MALFORMED_META)
    def test_malformed_meta(self, tmp_path, field, value):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap.json")
        write_v1(store.path, state, sample_meta(state))
        document = json.loads(store.path.read_text(encoding="utf-8"))
        document["meta"][field] = value
        store.path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataFormatError, match="snapshot meta"):
            store.load()

    @pytest.mark.parametrize("field, value", MALFORMED_META)
    def test_malformed_meta_v2(self, tmp_path, field, value):
        state = sample_state()
        store = SnapshotStore(tmp_path / "snap")
        store.save(state, sample_meta(state))
        header, blob = read_v2(store.path)
        header["meta"][field] = value
        write_v2(store.path, header, blob)
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
        write_v1(store.path, state, sample_meta(state))
        document = json.loads(store.path.read_text(encoding="utf-8"))
        document["state"]["user_assignments"].pop()
        store.path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataFormatError, match="fingerprint check"):
            store.load()

    def test_tampered_snapshot_still_rejected_v2(self, tmp_path):
        state = self.mutated_state()
        store = SnapshotStore(tmp_path / "snap")
        store.save(state, sample_meta(state))
        header, blob = read_v2(store.path)
        # A well-formed blob of other content under the stored meta.
        edited = decode_state(blob)
        role = edited.role_ids()[0]
        edited.revoke_user(role, sorted(edited.users_of_role(role))[0])
        write_v2(store.path, header, encode_state(edited))
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
