"""A4 — ablation: incremental auditing vs batch re-analysis (extension).

The paper's framework runs as a periodic batch.  The incremental auditor
(`repro.core.incremental`) keeps the same counts current under a
mutation stream.  This ablation quantifies the trade: processing N
mutations incrementally vs re-running the batch engine after each
mutation (the naive "always fresh" alternative an operator might reach
for), and the one-off cost of building the incremental indexes.
"""

from __future__ import annotations

import pytest

from repro.core import AnalysisConfig, analyze
from repro.core.incremental import IncrementalAuditor
from repro.datagen import OrgProfile, generate_org

N_MUTATIONS = 100


@pytest.fixture(scope="module")
def org_state():
    return generate_org(OrgProfile.small(divisor=100, seed=3)).state


def _mutation_plan(state, n: int):
    """A deterministic plan of (role, user) assign/revoke toggles."""
    roles = [r for r in state.role_ids() if state.users_of_role(r)]
    users = state.user_ids()
    plan = []
    for i in range(n):
        plan.append((roles[i % len(roles)], users[(i * 7) % len(users)]))
    return plan


@pytest.mark.benchmark(group="ablation-incremental")
def test_incremental_mutation_stream(benchmark, org_state):
    plan = _mutation_plan(org_state, N_MUTATIONS)

    def run():
        auditor = IncrementalAuditor(org_state)
        for role_id, user_id in plan:
            auditor.assign_user(role_id, user_id)
            auditor.revoke_user(role_id, user_id)
        return auditor.counts()

    counts = benchmark.pedantic(run, rounds=3, iterations=1)
    # toggles cancel out: final counts match the untouched state
    assert counts == analyze(org_state).counts()


@pytest.mark.benchmark(group="ablation-incremental")
def test_batch_reanalysis_per_mutation(benchmark, org_state):
    """The naive alternative, at 1/10 of the mutation count (it is that
    much slower); compare per-mutation costs across the two tests."""
    plan = _mutation_plan(org_state, max(1, N_MUTATIONS // 10))
    config = AnalysisConfig()

    def run():
        state = org_state.copy()
        last = None
        for role_id, user_id in plan:
            state.assign_user(role_id, user_id)
            last = analyze(state, config).counts()
            state.revoke_user(role_id, user_id)
        return last

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["mutations"] = len(plan)


@pytest.mark.benchmark(group="ablation-incremental-build")
def test_incremental_index_build(benchmark, org_state):
    """One-off ingest cost of the incremental indexes."""
    auditor = benchmark.pedantic(
        IncrementalAuditor, args=(org_state,), rounds=3, iterations=1
    )
    assert auditor.state.n_roles == org_state.n_roles


@pytest.mark.benchmark(group="ablation-incremental")
def test_incremental_remove_stream(benchmark, org_state):
    """Entity removals: each asks the state which roles hold the user
    or permission, a reverse lookup that must cost the entity's degree,
    not the number of roles."""
    users = [u for u in org_state.user_ids() if org_state.roles_of_user(u)]
    permissions = [
        p for p in org_state.permission_ids() if org_state.roles_of_permission(p)
    ]
    users, permissions = users[:N_MUTATIONS], permissions[:N_MUTATIONS]

    def run():
        auditor = IncrementalAuditor(org_state.copy())
        for user_id, permission_id in zip(users, permissions):
            auditor.remove_user(user_id)
            auditor.remove_permission(permission_id)
        return auditor

    auditor = benchmark.pedantic(run, rounds=3, iterations=1)
    assert auditor.counts() == analyze(auditor.state).counts()
    benchmark.extra_info["mutations"] = len(users) + len(permissions)
