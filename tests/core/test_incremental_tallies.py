"""The auditor's running tallies against the sweep oracle and the engine.

``IncrementalAuditor.counts()`` reads tallies each mutation keeps
current; it builds no group and sweeps no role.  After random mutation
sequences (removals, re-added ids and drains to empty included) the
tallies must equal both the sweep in ``counts_oracle.py`` and
``analyze(state).counts()``.
"""

from __future__ import annotations

from counts_oracle import sweep_counts
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AnalysisConfig, analyze
from repro.core.incremental import IncrementalAuditor, _AxisIndex
from repro.core.state import RbacState

#: Ids are drawn from a small pool, so removed ids get re-added.
POOL = 4

OPS = (
    "add_user", "add_role", "add_permission",
    "remove_user", "remove_role", "remove_permission",
    "assign_user", "revoke_user", "assign_permission", "revoke_permission",
    "drain",
)


def batch_counts(auditor: IncrementalAuditor) -> dict[str, int]:
    config = AnalysisConfig(
        similarity_threshold=auditor.similarity_threshold
    )
    return analyze(auditor.state, config).counts()


def assert_matches_oracle(auditor: IncrementalAuditor, context: str) -> None:
    tallies = auditor.counts()
    oracle = sweep_counts(auditor)
    assert tallies == oracle, f"after {context}: {tallies} != {oracle}"


def drain(auditor: IncrementalAuditor) -> None:
    """Remove every entity, checking the tallies after each removal."""
    state = auditor.state
    for role_id in state.role_ids():
        auditor.remove_role(role_id)
        assert_matches_oracle(auditor, f"drain remove_role({role_id})")
    for user_id in state.user_ids():
        auditor.remove_user(user_id)
        assert_matches_oracle(auditor, f"drain remove_user({user_id})")
    for permission_id in state.permission_ids():
        auditor.remove_permission(permission_id)
        assert_matches_oracle(
            auditor, f"drain remove_permission({permission_id})"
        )
    assert auditor.counts() == dict.fromkeys(auditor.counts(), 0)


def apply(auditor: IncrementalAuditor, op: str, a: int, b: int) -> None:
    """Apply ``op`` when it is valid on the current state; skip it
    otherwise."""
    state = auditor.state
    role, user, permission = f"r{a}", f"u{b}", f"p{b}"
    if op == "drain":
        drain(auditor)
    elif op == "add_user" and not state.has_user(f"u{a}"):
        auditor.add_user(f"u{a}")
    elif op == "add_role" and not state.has_role(role):
        auditor.add_role(role)
    elif op == "add_permission" and not state.has_permission(f"p{a}"):
        auditor.add_permission(f"p{a}")
    elif op == "remove_user" and state.has_user(f"u{a}"):
        auditor.remove_user(f"u{a}")
    elif op == "remove_role" and state.has_role(role):
        auditor.remove_role(role)
    elif op == "remove_permission" and state.has_permission(f"p{a}"):
        auditor.remove_permission(f"p{a}")
    elif state.has_role(role):
        if op in ("assign_user", "revoke_user") and state.has_user(user):
            getattr(auditor, op)(role, user)
        elif op in (
            "assign_permission", "revoke_permission"
        ) and state.has_permission(permission):
            getattr(auditor, op)(role, permission)


ids = st.integers(min_value=0, max_value=POOL - 1)
edges = st.lists(st.tuples(ids, ids), max_size=10)


class TestTalliesAgainstOracle:
    @given(
        threshold=st.integers(min_value=1, max_value=3),
        user_edges=edges,
        permission_edges=edges,
        operations=st.lists(
            st.tuples(st.sampled_from(OPS), ids, ids), max_size=40
        ),
    )
    # Re-adding a removed role with new edges, and draining to empty
    # then rebuilding, are pinned whatever the search draws.
    @example(
        threshold=1,
        user_edges=[(0, 0), (1, 0)],
        permission_edges=[(0, 1)],
        operations=[
            ("remove_role", 0, 0), ("add_role", 0, 0),
            ("assign_user", 0, 1), ("assign_permission", 0, 1),
            ("remove_user", 0, 0), ("remove_permission", 1, 0),
            ("add_user", 0, 0), ("assign_user", 1, 0),
        ],
    )
    @example(
        threshold=3,
        user_edges=[(0, 0), (1, 1), (2, 0), (2, 1)],
        permission_edges=[(0, 0), (1, 0), (3, 3)],
        operations=[
            ("drain", 0, 0), ("add_role", 1, 0), ("add_user", 2, 0),
            ("add_permission", 2, 0), ("assign_user", 1, 2),
            ("assign_permission", 1, 2), ("add_role", 0, 0),
            ("assign_user", 0, 2),
        ],
    )
    @settings(max_examples=80, deadline=None)
    def test_counts_equal_oracle_and_batch(
        self, threshold, user_edges, permission_edges, operations
    ):
        base = RbacState.build(
            users=[f"u{i}" for i in range(POOL)],
            roles=[f"r{i}" for i in range(POOL)],
            permissions=[f"p{i}" for i in range(POOL)],
            user_assignments=[(f"r{r}", f"u{u}") for r, u in user_edges],
            permission_assignments=[
                (f"r{r}", f"p{p}") for r, p in permission_edges
            ],
        )
        auditor = IncrementalAuditor(base, similarity_threshold=threshold)
        assert_matches_oracle(auditor, "construction")
        for step, (op, a, b) in enumerate(operations):
            apply(auditor, op, a, b)
            assert_matches_oracle(auditor, f"step {step}: {op}({a}, {b})")
            if op == "drain":
                assert auditor.counts() == batch_counts(auditor)
        assert auditor.counts() == batch_counts(auditor)


class TestCountsIsConstantTime:
    def test_counts_builds_no_group_and_sweeps_no_role(self, monkeypatch):
        from repro.datagen import OrgProfile, generate_org

        auditor = IncrementalAuditor(
            generate_org(OrgProfile.small(divisor=500, seed=5)).state,
            similarity_threshold=2,
        )
        role = auditor.state.role_ids()[0]
        auditor.remove_user(auditor.state.user_ids()[0])
        auditor.assign_permission(role, auditor.state.permission_ids()[-1])
        expected = batch_counts(auditor)

        def sweep(*_args, **_kwargs):
            raise AssertionError("counts() swept the state")

        for name in ("similar_components", "duplicate_groups"):
            monkeypatch.setattr(_AxisIndex, name, sweep)
        for name in ("role_ids", "users_of_role", "permissions_of_role"):
            monkeypatch.setattr(RbacState, name, sweep)
        assert auditor.counts() == expected


class _NoIteration(dict):
    """A bucket map whose iteration fails the test."""

    def _sweep(self, *_args, **_kwargs):
        raise AssertionError("the mutation walked every bucket")

    __iter__ = items = keys = values = _sweep


class TestSmallContentMutationIsLocal:
    def test_mutation_below_the_threshold_walks_no_bucket(self):
        from repro.datagen import OrgProfile, generate_org

        auditor = IncrementalAuditor(
            generate_org(OrgProfile.small(divisor=500, seed=5)).state,
            similarity_threshold=2,
        )
        user = auditor.state.user_ids()[0]
        permission = auditor.state.permission_ids()[0]
        auditor.add_role("guard")
        for index in (auditor._users, auditor._permissions):
            index.buckets = _NoIteration(index.buckets)
        # Each content the role passes through has one member, below
        # the threshold, so each needs the zero-overlap pass.
        auditor.assign_user("guard", user)
        auditor.assign_permission("guard", permission)
        assert auditor.counts() == batch_counts(auditor)
        auditor.revoke_user("guard", user)
        auditor.revoke_permission("guard", permission)
        assert auditor.counts() == batch_counts(auditor)
