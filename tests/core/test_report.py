"""Unit tests for the Report container and its renderers."""

from __future__ import annotations

import json

import pytest

from repro.core import InefficiencyType, analyze
from repro.core.taxonomy import Axis
from repro.datagen import add_role_twin


@pytest.fixture
def report(paper_example):
    return analyze(paper_example)


class TestSelection:
    def test_of_type(self, report):
        findings = report.of_type(InefficiencyType.DUPLICATE_ROLES)
        assert len(findings) == 2

    def test_on_axis(self, report):
        assert len(
            report.on_axis(InefficiencyType.DUPLICATE_ROLES, Axis.USERS)
        ) == 1

    def test_sorted_findings_by_severity(self, report):
        ranks = [f.severity.rank for f in report.sorted_findings()]
        assert ranks == sorted(ranks, reverse=True)


class TestCounts:
    def test_group_counts_are_roles_not_groups(self, paper_example):
        """A 3-member duplicate group counts as 3 roles (paper: '8,000
        roles sharing the same users')."""
        add_role_twin(paper_example, "R04")
        counts = analyze(paper_example).counts()
        assert counts["roles_same_permissions"] == 3

    def test_consolidation_potential(self, report):
        potential = report.consolidation_potential()
        # Two pair-groups (users axis and permissions axis), one removable
        # role each.
        assert potential["removable_via_same_users"] == 1
        assert potential["removable_via_same_permissions"] == 1
        assert potential["removable_total_upper_bound"] == 2
        assert potential["total_roles"] == 5
        assert potential["fraction_of_roles"] == pytest.approx(0.4)

    def test_consolidation_empty_state(self):
        from repro.core.state import RbacState

        potential = analyze(RbacState()).consolidation_potential()
        assert potential["fraction_of_roles"] == 0.0


class TestRendering:
    def test_to_dict_round_trips_through_json(self, report):
        payload = json.loads(report.to_json())
        assert payload["dataset"]["roles"] == 5
        assert payload["counts"]["roles_same_users"] == 2
        assert payload["n_findings"] == len(report.findings)
        assert len(payload["findings"]) == len(report.findings)

    def test_encode_is_the_sorted_key_dump_of_to_dict(self, report, small_org_state):
        for each in (report, analyze(small_org_state)):
            assert any(f.group is not None for f in each.findings)
            expected = json.dumps(each.to_dict(), sort_keys=True)
            assert each.encode() == expected.encode("utf-8")

    def test_to_text_mentions_key_numbers(self, report):
        text = report.to_text()
        assert "5 roles" in text
        assert "roles_same_users" in text
        assert "counts by inefficiency" in text

    def test_to_text_caps_findings(self, report):
        text = report.to_text(max_findings=2)
        assert "showing 2 of" in text

    def test_to_markdown_has_table(self, report):
        markdown = report.to_markdown()
        assert "| Inefficiency | Count |" in markdown
        assert "| roles same users | 2 |" in markdown

    def test_repr(self, report):
        assert "findings=" in repr(report)


class TestCsvExport:
    def test_header_and_rows(self, report):
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "severity,type,axis,entity_kind,entity_ids,message"
        assert len(lines) == 1 + len(report.findings)

    def test_rows_ordered_by_severity(self, report):
        import csv
        import io

        from repro.core.taxonomy import Severity

        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        ranks = [Severity(row["severity"]).rank for row in rows]
        assert ranks == sorted(ranks, reverse=True)

    def test_group_entities_joined(self, report):
        assert "R02;R04" in report.to_csv()


class TestExtensionCounts:
    def test_zero_without_extension_detectors(self, report):
        assert report.extension_counts() == {"shadowed_roles": 0}

    def test_counts_shadowed_findings(self):
        from repro.core import AnalysisConfig, analyze
        from repro.core.state import RbacState

        state = RbacState.build(
            users=["a", "b"],
            roles=["big", "small"],
            permissions=["p", "q"],
            user_assignments=[("big", "a"), ("big", "b"), ("small", "a")],
            permission_assignments=[
                ("big", "p"), ("big", "q"), ("small", "p"),
            ],
        )
        extended = analyze(state, AnalysisConfig.with_extensions())
        assert extended.extension_counts() == {"shadowed_roles": 1}
        # the paper's table keys stay untouched
        assert "shadowed_roles" not in extended.counts()


class TestConfigRendering:
    def test_to_dict_carries_effective_config(self, report):
        payload = json.loads(report.to_json())
        config = payload["config"]
        assert config["finder"] == "cooccurrence"
        assert config["similarity_threshold"] == 1
        assert config["axes"] == ["users", "permissions"]
        assert config["n_workers"] == 1
        assert len(config["enabled_types"]) == 5

    def test_to_text_has_configuration_line(self, report):
        text = report.to_text()
        assert "configuration: finder=cooccurrence" in text
        assert "axes=users,permissions" in text

    def test_to_markdown_has_configuration_table(self, report):
        markdown = report.to_markdown()
        assert "## Configuration" in markdown
        assert "| finder | cooccurrence |" in markdown
        assert "| axes | users, permissions |" in markdown

    def test_config_dict_none_without_config(self, paper_example):
        from repro.core.report import Report

        bare = Report(state=paper_example, findings=[])
        assert bare.config_dict() is None
        assert json.loads(bare.to_json())["config"] is None
        assert "## Configuration" not in bare.to_markdown()
        assert "configuration:" not in bare.to_text()


class TestMetricsRendering:
    def test_to_dict_carries_metrics(self, report):
        payload = json.loads(report.to_json())
        metrics = payload["metrics"]
        assert metrics["schema"] == 2
        assert metrics["spans"] > 0
        assert metrics["counters"]["findings"] == payload["n_findings"]
        assert metrics["workers"]["mode"] == "serial"

    def test_to_text_has_metrics_block(self, report):
        text = report.to_text()
        assert "serial mode):" in text
        assert "matrix.ruam_nnz" in text

    def test_to_markdown_has_metrics_table(self, report):
        markdown = report.to_markdown()
        assert "## Metrics" in markdown
        assert "| matrix.ruam_nnz | 6 |" in markdown

    def test_renderers_omit_metrics_when_absent(self, paper_example):
        from repro.core.report import Report

        bare = Report(state=paper_example, findings=[])
        assert "metrics (" not in bare.to_text()
        assert "## Metrics" not in bare.to_markdown()


class TestReportIsAValue:
    def test_report_does_not_drift_when_its_state_changes(self):
        from repro.datagen import OrgProfile, generate_org

        state = generate_org(OrgProfile.small(divisor=100, seed=1)).state
        report = analyze(state)
        encoded = report.encode()
        text = report.to_text()
        markdown = report.to_markdown()
        consolidation = report.consolidation_potential()
        counts = report.counts()
        assert json.loads(encoded)["dataset"]["roles"] == 500
        assert consolidation["total_roles"] == 500

        for i in range(50):
            state.add_role(f"drift-{i}")

        assert state.n_roles == 550
        assert report.encode() == encoded
        assert report.to_text() == text
        assert report.to_markdown() == markdown
        assert report.consolidation_potential() == consolidation
        assert report.counts() == counts

    def test_report_keeps_no_state(self, paper_example):
        report = analyze(paper_example)
        assert not hasattr(report, "state")
        assert report.dataset == {
            "users": paper_example.n_users,
            "roles": paper_example.n_roles,
            "permissions": paper_example.n_permissions,
            "user_assignments": paper_example.n_user_assignments,
            "permission_assignments": paper_example.n_permission_assignments,
        }
        assert report.to_dict()["dataset"] == report.dataset
