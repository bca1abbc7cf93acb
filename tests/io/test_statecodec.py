"""The binary state codec: round trips and malformed input."""

from __future__ import annotations

import datetime
import json
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.state as state_module
from repro.core.entities import Permission, Role, User
from repro.core.state import RbacState
from repro.exceptions import DataFormatError
from repro.io.statecodec import FORMAT_VERSION, decode_state, encode_state

PREFIX = struct.Struct("<8sII")
KINDS = {"user": User, "role": Role, "permission": Permission}


def assert_round_trips(state: RbacState) -> RbacState:
    decoded = decode_state(encode_state(state))
    before, after = state.to_arrays(), decoded.to_arrays()
    assert after.user_ids == before.user_ids
    assert after.role_ids == before.role_ids
    assert after.permission_ids == before.permission_ids
    for axis in ("user_edges", "permission_edges"):
        for got, want in zip(getattr(after, axis), getattr(before, axis)):
            np.testing.assert_array_equal(got, want)
    assert after.metadata == before.metadata
    assert decoded.role_ids() == state.role_ids()
    assert decoded.fingerprint() == state.fingerprint()
    assert decoded.recompute_fingerprint() == state.recompute_fingerprint()
    assert decoded == state
    return decoded


def churned_state(seed: int, steps: int = 600) -> RbacState:
    """Adds, removes, re-adds and edge flips over a small id space, with
    names and attributes on every kind."""
    rng = random.Random(seed)
    state = RbacState()
    for _ in range(steps):
        kind = rng.choice(list(KINDS))
        entity_id = f"{kind[0]}{rng.randrange(15)}"
        present = getattr(state, f"has_{kind}")(entity_id)
        op = rng.random()
        if op < 0.35 and not present:
            name = rng.choice(["", "Named", "Ünïcode"])
            attributes = rng.choice([{}, {"n": rng.randrange(3)},
                                     {"tags": ["a", "b"], "x": 1.5}])
            getattr(state, f"add_{kind}")(
                KINDS[kind](entity_id, name, attributes)
            )
        elif op < 0.5 and present:
            getattr(state, f"remove_{kind}")(entity_id)
        else:
            member = rng.choice(["user", "permission"])
            roles, members = state.role_ids(), getattr(state, f"{member}_ids")()
            if roles and members:
                pair = (rng.choice(roles), rng.choice(members))
                verb = "assign" if rng.random() < 0.6 else "revoke"
                getattr(state, f"{verb}_{member}")(*pair)
    return state


class TestRoundTrip:
    def test_empty_state(self):
        assert_round_trips(RbacState())

    def test_paper_example(self, paper_example):
        assert_round_trips(paper_example)

    @pytest.mark.parametrize("min_dead", [64, 2], ids=["default", "compacting"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_churned_states(self, seed, min_dead, monkeypatch):
        # With a low threshold the id tables compact every few removals.
        monkeypatch.setattr(state_module, "_COMPACT_MIN_DEAD", min_dead)
        state = churned_state(seed)
        assert state.n_user_assignments and state.n_permission_assignments
        assert_round_trips(state)

    def test_removed_and_readded_ids_keep_insertion_order(self):
        state = RbacState.build(
            users=["u1", "u2", "u3"], roles=["r1", "r2"], permissions=["p1"],
            user_assignments=[("r1", "u1"), ("r2", "u3")],
            permission_assignments=[("r2", "p1")],
        )
        state.remove_user("u1")
        state.add_user(User("u1", name="back"))
        state.remove_role("r1")
        state.add_role("r1")
        decoded = assert_round_trips(state)
        assert decoded.user_ids() == ["u2", "u3", "u1"]
        assert decoded.role_ids() == ["r2", "r1"]

    def test_metadata_on_every_kind(self):
        state = RbacState()
        state.add_user(User("u", "Ann", {"dept": "ops", "level": 3}))
        state.add_role(Role("r", "Admin", {"owners": ["x", "y"]}))
        state.add_permission(Permission("p", "", {"scope": {"a": None}}))
        state.assign_user("r", "u")
        state.assign_permission("r", "p")
        decoded = assert_round_trips(state)
        assert decoded.get_role("r").attributes["owners"] == ["x", "y"]

    def test_non_json_attribute_keeps_the_fingerprint(self):
        # Written as its str, which is what the fingerprint hashes.
        when = datetime.date(2024, 5, 1)
        state = RbacState()
        state.add_user(User("u", attributes={"since": when}))
        decoded = decode_state(encode_state(state))
        assert decoded.get_user("u").attributes["since"] == str(when)
        assert decoded.recompute_fingerprint() == state.recompute_fingerprint()

    def test_encoding_is_deterministic(self):
        state = churned_state(4)
        assert encode_state(state) == encode_state(state.copy())


def split(blob: bytes) -> tuple[int, dict, bytes]:
    _magic, version, size = PREFIX.unpack_from(blob)
    header = json.loads(blob[PREFIX.size:PREFIX.size + size])
    return version, header, blob[PREFIX.size + size:]


def join(header: dict, edges: bytes, version: int = FORMAT_VERSION,
         magic: bytes = b"RBACSTB\x00") -> bytes:
    text = json.dumps(header).encode("utf-8")
    return PREFIX.pack(magic, version, len(text)) + text + edges


@pytest.fixture
def blob() -> bytes:
    return encode_state(RbacState.build(
        users=["u1", "u2"], roles=["r1"], permissions=["p1"],
        user_assignments=[("r1", "u1"), ("r1", "u2")],
        permission_assignments=[("r1", "p1")],
    ))


class TestFormat:
    def test_unknown_header_fields_are_ignored(self, blob):
        version, header, edges = split(blob)
        header["written_by"] = {"tool": "a later writer", "n": 1}
        decoded = decode_state(join(header, edges, version))
        assert decoded == decode_state(blob)

    def test_bad_magic(self, blob):
        _version, header, edges = split(blob)
        with pytest.raises(DataFormatError, match="magic"):
            decode_state(join(header, edges, magic=b"NOTABLOB"))

    def test_unknown_version(self, blob):
        _version, header, edges = split(blob)
        with pytest.raises(DataFormatError, match="version"):
            decode_state(join(header, edges, version=FORMAT_VERSION + 1))

    @pytest.mark.parametrize("keep", [0, 7, PREFIX.size, PREFIX.size + 5, -1])
    def test_truncated(self, blob, keep):
        with pytest.raises(DataFormatError):
            decode_state(blob[:keep])

    def test_trailing_bytes(self, blob):
        with pytest.raises(DataFormatError, match="describes"):
            decode_state(blob + b"\0\0\0\0")

    @pytest.mark.parametrize("index", [2, 99, -1])
    def test_out_of_range_index(self, blob, index):
        version, header, edges = split(blob)
        columns = np.frombuffer(edges, dtype="<i4").copy()
        # user roles [0, 0], user members [0, 1], permission roles [0],
        # permission members [0]: point a user edge past the two users.
        columns[3] = index
        with pytest.raises(DataFormatError, match="out of range"):
            decode_state(join(header, columns.tobytes(), version))

    @pytest.mark.parametrize(
        "change",
        [
            lambda header: header.pop("ids"),
            lambda header: header["edges"].pop("permission"),
            lambda header: header["edges"].update(user=-1),
            lambda header: header["ids"].update(user=["u1", "u1"]),
            lambda header: header["ids"].update(user=["u1", 5]),
            lambda header: header.update(metadata={"group": {}}),
            lambda header: header.update(metadata={"user": {"zz": ["", {}]}}),
            lambda header: header.update(metadata=[1]),
        ],
        ids=[
            "no-ids", "no-edge-count", "negative-count", "duplicate-id",
            "non-string-id", "unknown-kind", "unknown-id", "metadata-list",
        ],
    )
    def test_malformed_header(self, blob, change):
        version, header, edges = split(blob)
        change(header)
        with pytest.raises(DataFormatError):
            decode_state(join(header, edges, version))

    def test_header_that_is_not_json(self, blob):
        _version, header, edges = split(blob)
        text = b"{not json"
        with pytest.raises(DataFormatError, match="header"):
            decode_state(
                PREFIX.pack(b"RBACSTB\x00", FORMAT_VERSION, len(text))
                + text + edges
            )


def _old_header(state: RbacState) -> bytes:
    """The header as one ``json.dumps`` of the whole object writes it."""
    arrays = state.to_arrays()
    return json.dumps(
        {
            "ids": {
                "user": arrays.user_ids,
                "role": arrays.role_ids,
                "permission": arrays.permission_ids,
            },
            "metadata": arrays.metadata,
            "edges": {
                "user": len(arrays.user_edges[0]),
                "permission": len(arrays.permission_edges[0]),
            },
        },
        separators=(",", ":"),
        default=str,
    ).encode("utf-8")


def _header(blob: bytes) -> bytes:
    _, _, size = PREFIX.unpack_from(blob)
    return blob[PREFIX.size:PREFIX.size + size]


class TestHeaderText:
    """Plain id lists are joined, not dumped; the bytes stay the same."""

    @pytest.mark.parametrize(
        "awkward",
        ['a"b', "a\\b", "a'b", "a\x7fb", "a\x01b", "é", " ", "a b"],
        ids=["quote", "backslash", "apostrophe", "del", "control",
             "non-ascii", "space", "inner-space"],
    )
    def test_awkward_ids_on_every_kind(self, awkward):
        for kind in KINDS:
            ids = {name: [f"{name[0]}1", f"{name[0]}2"] for name in KINDS}
            ids[kind].insert(1, awkward)
            state = RbacState.from_arrays(
                ids["user"], ids["role"], ids["permission"],
                ([0, 1], [1, 0]), ([1], [1]),
                {"role": {ids["role"][1]: ("N", {"x": [1, "é"]})}},
            )
            blob = encode_state(state)
            assert _header(blob) == _old_header(state)
            assert_round_trips(state)

    @pytest.mark.parametrize(
        "ids",
        [([], [], []), (["u"], [], []), ([], ["r"], ["p"])],
        ids=["all-empty", "no-roles", "no-users"],
    )
    def test_empty_lists(self, ids):
        state = RbacState.from_arrays(*ids)
        assert _header(encode_state(state)) == _old_header(state)

    def test_plain_ids(self):
        state = churned_state(3)
        assert _header(encode_state(state)) == _old_header(state)


@settings(max_examples=150, deadline=None)
@given(
    ids=st.lists(
        st.text(
            alphabet=st.sampled_from(list("ab ~!#&(['\"\\\x7f\x01\x1fé ")),
            min_size=1,
            max_size=4,
        ),
        unique=True,
        max_size=6,
    )
)
def test_header_is_the_dumps_of_any_id_list(ids):
    state = RbacState.from_arrays(ids, ids, ids)
    blob = encode_state(state)
    assert _header(blob) == _old_header(state)
    assert decode_state(blob).user_ids() == ids
