"""Tests of the array-backed state layout.

:class:`RbacState` keeps interned id tables, a sparse name/attribute
side table and per-role integer edge dicts shared copy-on-write (a
bulk-built axis keeps read-only CSR arrays until something needs the
dicts).  These tests pin what that layout promises beyond the public
mutation semantics of ``test_state.py``: a GC footprint of O(roles), the
bulk ``from_arrays``/``to_arrays`` pair and its documented errors, id
order plus fingerprints identical to a plain dict-backed model under
random add/remove/re-add churn, copies included, bulk-built states that
behave as mutator-built ones, and an analysis of a decoded state that
builds no per-role dict.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.state as state_module
from repro.core.engine import AnalysisConfig, analyze
from repro.core.entities import Permission, Role, User
from repro.core.matrices import AssignmentMatrix
from repro.core.state import RbacState
from repro.datagen import OrgProfile, generate_org
from repro.exceptions import (
    DuplicateEntityError,
    UnknownEntityError,
    ValidationError,
)
from repro.io import statecodec
from repro.io.statecodec import decode_state, encode_state
from repro.jobs.queue import JobQueue
from repro.jobs.worker import JobWorker


def _tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


class TestGcFootprint:
    def test_state_and_copy_track_few_objects(self):
        profile = OrgProfile.small(divisor=10, seed=3)
        before = _tracked_objects()
        state = generate_org(profile).state
        built = _tracked_objects() - before
        # One side-table entry per role (each has attributes); the
        # 9,000 users, 35,000 permissions and ~38,000 edges own none.
        assert built <= 2 * state.n_roles
        before = _tracked_objects()
        clone = state.copy()
        # A fixed handful of tables: the edge dicts are shared until
        # one side writes to them, and untracked either way.
        assert _tracked_objects() - before < 64
        assert clone.fingerprint() == state.fingerprint()


def _retained_bytes(build) -> tuple[RbacState, int]:
    """``build()`` and the bytes it leaves allocated, per ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state = build()
        gc.collect()
        return state, tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


class TestBulkMemory:
    def test_from_arrays_retains_no_more_than_the_mutators(self):
        """The bulk path shares one int per slot between the id tables
        and the edge dict keys, as the per-item mutators do; an int per
        table and per edge would retain ~25% more."""
        blob = encode_state(
            generate_org(OrgProfile.small(divisor=100, seed=0)).state
        )

        def per_item() -> RbacState:
            # Decoded first, so both paths retain the same id strings.
            arrays = decode_state(blob).to_arrays()
            users, roles = arrays.user_ids, arrays.role_ids
            permissions, meta = arrays.permission_ids, arrays.metadata["role"]
            return RbacState.build(
                users,
                [Role(role_id, *meta[role_id]) for role_id in roles],
                permissions,
                [
                    (roles[role], users[user])
                    for role, user in zip(*map(list, arrays.user_edges))
                ],
                [
                    (roles[role], permissions[permission])
                    for role, permission in zip(
                        *map(list, arrays.permission_edges)
                    )
                ],
            )

        bulk, bulk_bytes = _retained_bytes(lambda: decode_state(blob))
        mutated, mutated_bytes = _retained_bytes(per_item)
        assert bulk == mutated
        assert bulk_bytes <= mutated_bytes * 1.02


class TestFromArraysErrors:
    def test_duplicate_id(self):
        with pytest.raises(DuplicateEntityError, match="duplicate role: 'r'"):
            RbacState.from_arrays(["u"], ["r", "x", "r"], [])

    def test_empty_id(self):
        with pytest.raises(ValueError, match="non-empty"):
            RbacState.from_arrays([], [], ["p", ""])

    def test_non_string_id(self):
        with pytest.raises(TypeError, match="must be a string"):
            RbacState.from_arrays(["u", 7], [], [])

    @pytest.mark.parametrize(
        "edges, message",
        [
            (([0], [-1]), "user index -1 is out of range"),
            (([0], [2]), r"user index 2 is out of range \[0, 2\)"),
            (([-1], [0]), "role index -1 is out of range"),
            (([0, 1], [0, 1]), "role index 1 is out of range"),
        ],
        ids=["negative-member", "member-past-end", "negative-role",
             "role-past-end"],
    )
    def test_index_out_of_range(self, edges, message):
        with pytest.raises(ValidationError, match=message):
            RbacState.from_arrays(["u1", "u2"], ["r"], [], user_edges=edges)

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError, match="2 role indices but 1"):
            RbacState.from_arrays(
                [], ["r"], ["p"], permission_edges=([0, 0], [0])
            )

    def test_non_integer_indices(self):
        with pytest.raises(ValidationError, match="integers"):
            RbacState.from_arrays(["u"], ["r"], [], user_edges=([0.0], [0.0]))

    def test_metadata_of_an_absent_id(self):
        with pytest.raises(UnknownEntityError):
            RbacState.from_arrays(
                ["u"], [], [], metadata={"user": {"v": ("Vee", {})}}
            )


class TestBulkRoundTrip:
    def test_paper_example(self, paper_example):
        rebuilt = RbacState.from_arrays(*paper_example.to_arrays())
        assert rebuilt == paper_example
        assert rebuilt.fingerprint() == paper_example.fingerprint()
        assert rebuilt.role_ids() == paper_example.role_ids()

    def test_metadata_and_removed_ids(self):
        state = RbacState()
        state.add_user(User("u1", name="Ann", attributes={"dept": "ops"}))
        for user_id in ("u2", "u3"):
            state.add_user(user_id)
        state.add_role(Role("r1", attributes={"tier": 1}))
        state.add_role("r2")
        state.add_permission(Permission("p1", name="read"))
        state.assign_user("r1", "u3")
        state.assign_user("r2", "u1")
        state.assign_permission("r2", "p1")
        state.remove_user("u2")
        state.remove_role("r1")
        state.add_role("r1")
        arrays = state.to_arrays()
        assert arrays.user_ids == ["u1", "u3"]
        assert arrays.role_ids == ["r2", "r1"]
        assert arrays.metadata["user"] == {"u1": ("Ann", {"dept": "ops"})}
        rebuilt = RbacState.from_arrays(*arrays)
        assert rebuilt == state
        assert rebuilt.fingerprint() == state.recompute_fingerprint()
        assert rebuilt.get_user("u1") == state.get_user("u1")

    def test_edges_are_grouped_by_role_then_member_index(self):
        state = RbacState.build(
            users=["b", "c", "a"],
            roles=["r2", "r1"],
            user_assignments=[("r1", "c"), ("r2", "b"), ("r1", "a"),
                              ("r2", "a")],
        )
        roles, users = state.to_arrays().user_edges
        ids = state.user_ids()
        pairs = [(state.role_ids()[r], ids[u]) for r, u in zip(roles, users)]
        assert pairs == [("r2", "b"), ("r2", "a"), ("r1", "c"), ("r1", "a")]

    def test_exported_metadata_is_a_copy(self):
        state = RbacState()
        state.add_user(User("u", name="Ann", attributes={"dept": "ops"}))
        fingerprint = state.fingerprint()
        name, attributes = state.to_arrays().metadata["user"]["u"]
        attributes["dept"] = "sales"
        assert state.get_user("u").attributes == {"dept": "ops"}
        assert state.fingerprint() == fingerprint
        assert state.recompute_fingerprint() == fingerprint

    def test_repeated_edges_collapse(self):
        state = RbacState.from_arrays(
            ["u"], ["r"], [], user_edges=(np.array([0, 0]), np.array([0, 0]))
        )
        assert state.n_user_assignments == 1
        assert state.n_unassigned_users == 0


def _digest(tag: str, *parts: str) -> int:
    h = hashlib.sha256(tag.encode("utf-8"))
    for part in parts:
        h.update(b"\x1f" + part.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


class DictModel:
    """The reference: dicts of entities and sets of id pairs."""

    def __init__(self) -> None:
        self.entities: dict[str, dict[str, tuple[str, dict]]] = {
            "user": {}, "role": {}, "permission": {},
        }
        self.edges: dict[str, set[tuple[str, str]]] = {"ru": set(), "rp": set()}

    def fingerprint(self) -> str:
        total = 0
        for tag, entities in self.entities.items():
            for entity_id, (name, attributes) in entities.items():
                text = (
                    json.dumps(attributes, sort_keys=True) if attributes else ""
                )
                total += _digest(tag, entity_id, name, text)
        for axis, pairs in self.edges.items():
            for role_id, member_id in pairs:
                total += _digest(f"edge:{axis}", role_id, member_id)
        return f"{total % (1 << 256):064x}"


_AXES = {"user": "ru", "permission": "rp"}


def _random_step(rng, state: RbacState, model: DictModel) -> None:
    kind = rng.choice(["user", "role", "permission"])
    entities = model.entities[kind]
    entity_id = f"{kind[0]}{rng.randrange(12)}"
    op = rng.random()
    if op < 0.3:
        if entity_id in entities:
            return
        name = rng.choice(["", "", "Named"])
        attributes = rng.choice([{}, {}, {"n": rng.randrange(3)}])
        cls = {"user": User, "role": Role, "permission": Permission}[kind]
        getattr(state, f"add_{kind}")(cls(entity_id, name, attributes))
        entities[entity_id] = (name, attributes)
    elif op < 0.45:
        if entity_id not in entities:
            return
        getattr(state, f"remove_{kind}")(entity_id)
        del entities[entity_id]
        for axis, pairs in model.edges.items():
            if kind == "role":
                pairs -= {pair for pair in pairs if pair[0] == entity_id}
            elif _AXES[kind] == axis:
                pairs -= {pair for pair in pairs if pair[1] == entity_id}
    else:
        member_kind = rng.choice(["user", "permission"])
        axis = _AXES[member_kind]
        roles = list(model.entities["role"])
        members = list(model.entities[member_kind])
        if not roles or not members:
            return
        pair = (rng.choice(roles), rng.choice(members))
        if rng.random() < 0.6:
            getattr(state, f"assign_{member_kind}")(*pair)
            model.edges[axis].add(pair)
        else:
            getattr(state, f"revoke_{member_kind}")(*pair)
            model.edges[axis].discard(pair)


def _assert_same(state: RbacState, model: DictModel) -> None:
    assert state.user_ids() == list(model.entities["user"])
    assert state.role_ids() == list(model.entities["role"])
    assert state.permission_ids() == list(model.entities["permission"])
    assert state.fingerprint() == model.fingerprint()
    assert state.recompute_fingerprint() == model.fingerprint()
    for axis, kind in (("ru", "user"), ("rp", "permission")):
        held = {member for _, member in model.edges[axis]}
        assert getattr(state, f"n_unassigned_{kind}s") == len(
            set(model.entities[kind]) - held
        )
        for member_id in model.entities[kind]:
            assert getattr(state, f"roles_of_{kind}")(member_id) == {
                role for role, member in model.edges[axis] if member == member_id
            }
    for user_id in model.entities["user"]:
        roles = {role for role, user in model.edges["ru"] if user == user_id}
        assert state.effective_permissions(user_id) == {
            permission
            for role, permission in model.edges["rp"]
            if role in roles
        }
    ruam = AssignmentMatrix.ruam(state)
    assert ruam.row_ids == state.role_ids()
    assert ruam.col_ids == state.user_ids()
    rows, cols = ruam.csr.nonzero()
    assert {
        (ruam.row_ids[r], ruam.col_ids[c]) for r, c in zip(rows, cols)
    } == model.edges["ru"]
    assert RbacState.from_arrays(*state.to_arrays()) == state


class TestAgainstDictModel:
    @pytest.mark.parametrize("min_dead", [64, 2], ids=["default", "compacting"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_churn_with_copies(self, seed, min_dead, monkeypatch):
        # With a low threshold the id tables compact every few removals,
        # also while edge dicts are shared with a copy.
        monkeypatch.setattr(state_module, "_COMPACT_MIN_DEAD", min_dead)
        rng = random.Random(seed)
        pairs = [(RbacState(), DictModel())]
        pairs[0][0].fingerprint()  # maintained from the first step on
        for step in range(1500):
            if rng.random() < 0.01 and len(pairs) < 4:
                state, model = rng.choice(pairs)
                pairs.append((state.copy(), copy.deepcopy(model)))
            state, model = rng.choice(pairs)
            _random_step(rng, state, model)
            if step % 100 == 99:
                for state, model in pairs:
                    _assert_same(state, model)
        assert len(pairs) > 1
        for state, model in pairs:
            _assert_same(state, model)

    def test_compaction_keeps_order_and_content(self):
        state, model = RbacState(), DictModel()
        for round_ in range(6):
            for index in range(40):
                user_id = f"u{index}"
                if user_id in model.entities["user"]:
                    state.remove_user(user_id)
                    del model.entities["user"][user_id]
                    model.edges["ru"] = {
                        pair for pair in model.edges["ru"] if pair[1] != user_id
                    }
                state.add_user(user_id)
                model.entities["user"][user_id] = ("", {})
            role_id = f"r{round_}"
            state.add_role(role_id)
            model.entities["role"][role_id] = ("", {})
            for index in range(0, 40, 3):
                state.assign_user(role_id, f"u{index}")
                model.edges["ru"].add((role_id, f"u{index}"))
        # 240 adds over 40 ids: the user table has compacted.
        assert state._users.n_slots < 240
        _assert_same(state, model)


class _CountingList(list):
    """A list that counts full iterations over it."""

    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


class TestReverseLookups:
    def test_reverse_queries_cost_the_degree_not_the_roles(self, monkeypatch):
        state = RbacState.build(
            users=[f"u{i}" for i in range(50)],
            roles=[f"r{i}" for i in range(1000)],
            permissions=["p0", "p1"],
            user_assignments=[(f"r{i}", f"u{i % 50}") for i in range(1000)],
            permission_assignments=[("r0", "p0"), ("r1", "p1")],
        )
        assert state.roles_of_user("u0") == {f"r{i}" for i in range(0, 1000, 50)}
        assert state.roles_of_permission("p0") == {"r0"}
        # Both reverse indexes are built; from now on nothing walks the
        # roles.
        monkeypatch.setattr(_CountingList, "iterations", 0)
        for axis in (state._users, state._permissions):
            axis.edges = _CountingList(axis.edges)
        state.assign_user("r7", "u0")
        state.revoke_user("r0", "u0")
        assert "r7" in state.roles_of_user("u0")
        assert state.effective_permissions("u1") == {"p1"}
        assert state.effective_users("p1") == {"u1"}
        state.remove_user("u1")
        assert state.roles_of_permission("p1") == {"r1"}
        state.remove_permission("p0")
        state.remove_role("r2")
        for user_id in state.user_ids():
            state.roles_of_user(user_id)
        assert _CountingList.iterations == 0
        state.recompute_fingerprint()  # a full pass does walk them
        assert _CountingList.iterations > 0

    def test_reverse_index_is_not_shared_with_a_copy(self):
        state = RbacState.build(
            users=["u"], roles=["r1", "r2"], user_assignments=[("r1", "u")]
        )
        assert state.roles_of_user("u") == {"r1"}
        clone = state.copy()
        clone.assign_user("r2", "u")
        state.remove_role("r1")
        assert state.roles_of_user("u") == frozenset()
        assert clone.roles_of_user("u") == {"r1", "r2"}

    def test_reverse_index_shares_the_role_tables_slot_ints(self):
        state = generate_org(OrgProfile.small(divisor=10, seed=2)).state
        axes = (state._users, state._permissions)
        for axis in axes:
            axis.built()
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for axis in axes:
                axis._reverse(state._roles)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        own = {slot: slot for slot in state._roles.ids}
        containers = 0
        for axis in axes:
            containers += sys.getsizeof(axis.holders)
            for held in axis.holders:
                containers += sys.getsizeof(held)
                for role in held:
                    assert own[role] is role
        # The lists and dicts and nothing else: a new int per edge
        # (~37,000 of them) would retain about 1.1 MB more.
        assert retained <= containers * 1.02


# ----------------------------------------------------------------------
# Bulk-built axes keep their arrays, and behave as built ones
# ----------------------------------------------------------------------
KINDS = ("user", "role", "permission")


def _unbuilt(state: RbacState) -> bool:
    return state._users.edges is None and state._permissions.edges is None


@st.composite
def bulk_contents(draw):
    """Ids per kind, edges as index pairs (repeats allowed), role names."""
    ids = {
        kind: draw(st.permutations(
            [f"{kind[0]}{i}" for i in range(draw(st.integers(0, 6)))]
        ))
        for kind in KINDS
    }

    def edges(kind: str) -> list[tuple[int, int]]:
        if not ids["role"] or not ids[kind]:
            return []
        return draw(st.lists(
            st.tuples(
                st.integers(0, len(ids["role"]) - 1),
                st.integers(0, len(ids[kind]) - 1),
            ),
            max_size=24,
        ))

    named = draw(st.sets(st.sampled_from(ids["role"]))) if ids["role"] else ()
    metadata = {"role": {
        role_id: ("Named", {"n": 1}) for role_id in ids["role"]
        if role_id in named
    }}
    return ids, edges("user"), edges("permission"), metadata


def _from_arrays(content) -> RbacState:
    ids, user_edges, permission_edges, metadata = content

    def columns(pairs):
        return tuple(np.array(column, dtype=np.int64).reshape(-1)
                     for column in (zip(*pairs) if pairs else ([], [])))

    return RbacState.from_arrays(
        ids["user"], ids["role"], ids["permission"],
        columns(user_edges), columns(permission_edges), metadata,
    )


def _from_mutators(content) -> RbacState:
    ids, user_edges, permission_edges, metadata = content
    roles = ids["role"]
    return RbacState.build(
        ids["user"],
        [Role(role_id, *metadata["role"].get(role_id, ("", {})))
         for role_id in roles],
        ids["permission"],
        [(roles[role], ids["user"][user]) for role, user in user_edges],
        [(roles[role], ids["permission"][permission])
         for role, permission in permission_edges],
    )


QUERIES = (
    "users_of_role", "permissions_of_role", "roles_of_user",
    "roles_of_permission", "effective_permissions", "fingerprint",
)
MUTATIONS = (
    "assign_user", "revoke_user", "assign_permission", "revoke_permission",
    "add_user", "add_role", "add_permission",
    "remove_user", "remove_role", "remove_permission",
)


def _apply(state: RbacState, op: str, a: int, b: int):
    """One operation by id (skipped where its ids do not fit); returns
    what a query returns."""
    if op == "fingerprint":
        return state.fingerprint()
    verb, _, kind = op.partition("_")
    if op in QUERIES:
        kind = "user" if op == "effective_permissions" else (
            kind.removeprefix("of_") if verb == "roles" else "role"
        )
        entity_id = f"{kind[0]}{a}"
        if getattr(state, f"has_{kind}")(entity_id):
            return getattr(state, op)(entity_id)
        return None
    if verb in ("assign", "revoke"):
        role_id, member_id = f"r{a}", f"{kind[0]}{b}"
        if state.has_role(role_id) and getattr(state, f"has_{kind}")(member_id):
            getattr(state, op)(role_id, member_id)
        return None
    entity_id = f"{kind[0]}{a}"
    if getattr(state, f"has_{kind}")(entity_id) == (verb == "remove"):
        getattr(state, op)(entity_id)
    return None


def _assert_same_arrays(got: RbacState, want: RbacState) -> None:
    """The comparisons that leave a bulk-built axis unbuilt."""
    mine, theirs = got.to_arrays(), want.to_arrays()
    for field in ("user_ids", "role_ids", "permission_ids", "metadata"):
        assert getattr(mine, field) == getattr(theirs, field)
    for field in ("user_edges", "permission_edges"):
        for column, expected in zip(getattr(mine, field), getattr(theirs, field)):
            np.testing.assert_array_equal(column, expected)
    for kind in ("user", "permission"):
        for array, expected in zip(got._edge_rows(kind), want._edge_rows(kind)):
            np.testing.assert_array_equal(array, expected)
    assert got.n_user_assignments == want.n_user_assignments
    assert got.n_permission_assignments == want.n_permission_assignments
    assert got.n_unassigned_users == want.n_unassigned_users
    assert got.n_unassigned_permissions == want.n_unassigned_permissions
    assert encode_state(got) == encode_state(want)


def _assert_alike(got: RbacState, want: RbacState) -> None:
    _assert_same_arrays(got, want)
    for role_id in want.role_ids():
        assert got.users_of_role(role_id) == want.users_of_role(role_id)
        assert got.permissions_of_role(role_id) == want.permissions_of_role(
            role_id
        )
    for user_id in want.user_ids():
        assert got.roles_of_user(user_id) == want.roles_of_user(user_id)
    for permission_id in want.permission_ids():
        assert got.roles_of_permission(permission_id) == (
            want.roles_of_permission(permission_id)
        )
    assert got.fingerprint() == got.recompute_fingerprint()
    assert got.fingerprint() == want.fingerprint()
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    content=bulk_contents(),
    operations=st.lists(
        st.tuples(
            st.sampled_from(QUERIES + MUTATIONS),
            st.integers(0, 7),
            st.integers(0, 7),
        ),
        max_size=30,
    ),
    min_dead=st.sampled_from([2, 64]),
)
def test_bulk_built_states_behave_as_mutator_built_ones(
    content, operations, min_dead
):
    # With a low threshold the id tables compact every few removals,
    # also while an axis still holds only its arrays.
    with mock.patch.object(state_module, "_COMPACT_MIN_DEAD", min_dead):
        reference = _from_mutators(content)
        bulk = _from_arrays(content)
        assert _unbuilt(bulk)
        _assert_same_arrays(bulk, reference)
        assert _unbuilt(bulk)
        pristine = _from_arrays(content)
        pristine_copy = pristine.copy()
        states = {"bulk": bulk, "copy before": bulk.copy()}
        for op, a, b in operations:
            expected = _apply(reference, op, a, b)
            for name, state in states.items():
                assert _apply(state, op, a, b) == expected, name
                _assert_same_arrays(state, reference)
            _apply(pristine_copy, op, a, b)
            if op in MUTATIONS and "copy after" not in states:
                states["copy after"] = bulk.copy()
        for state in states.values():
            _assert_alike(state, reference)
        _assert_alike(pristine_copy, reference)

        # Mutating a copy left the original as it was.
        assert _unbuilt(pristine)
        _assert_same_arrays(pristine, _from_mutators(content))
        for axis in (pristine._users, pristine._permissions):
            for array in axis.csr:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 7
        _assert_alike(pristine, _from_mutators(content))


class TestAnalysisBuildsNoEdgeDict:
    """The worker path: decode a blob, analyse it, with no per-role dict."""

    def test_generate_decode_and_analyze(self):
        state = generate_org(OrgProfile.small(divisor=100, seed=0)).state
        analyze(state)
        assert _unbuilt(state)
        decoded = decode_state(encode_state(state))
        analyze(decoded)
        assert _unbuilt(decoded) and _unbuilt(state)

    def test_job_worker_handle_analyze(self, tmp_path, monkeypatch):
        state = generate_org(OrgProfile.small(divisor=100, seed=0)).state
        queue = JobQueue(tmp_path / "jobs.sqlite", lease_seconds=10.0)
        try:
            queue.put_state_blob(state.fingerprint(), encode_state(state))
            queue.enqueue("analyze", {
                "state_ref": state.fingerprint(),
                "config": AnalysisConfig().to_dict(),
                "fingerprint": state.fingerprint(),
                "mutation_seq": 0,
            })
            decoded: list[RbacState] = []

            def spy(data: bytes) -> RbacState:
                decoded.append(decode_state(data))
                return decoded[-1]

            monkeypatch.setattr(statecodec, "decode_state", spy)
            worker = JobWorker(queue, worker_id="w-guard")
            result = worker.handle_analyze(queue.claim("w-guard"))
        finally:
            queue.close()
        assert result["report"].to_dict()["n_findings"] > 0
        assert len(decoded) == 1 and _unbuilt(decoded[0])
