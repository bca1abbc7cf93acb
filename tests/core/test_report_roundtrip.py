"""Round-trip reconstruction: dicts back into live core objects.

``Report.from_payload`` (and the ``from_dict`` constructors underneath
it) exist for the job plane: a worker ships ``report.to_dict()`` through
the queue and the service reattaches its snapshot to get a live report.
The contract is byte-identical re-serialisation — ``to_dict`` of the
reconstruction must equal the original payload key for key.
"""

from __future__ import annotations

import json

import pytest

from repro.core import analyze
from repro.core.engine import AnalysisConfig
from repro.core.report import Report
from repro.core.taxonomy import Axis, Finding
from repro.exceptions import ConfigurationError


@pytest.fixture
def report(paper_example):
    return analyze(paper_example)


class TestAnalysisConfigFromDict:
    def test_round_trip(self):
        config = AnalysisConfig(
            similarity_threshold=2,
            axes=(Axis.USERS,),
            collapse_duplicates=False,
            n_workers=2,
            block_rows=64,
        )
        rebuilt = AnalysisConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()

    def test_defaults_round_trip(self):
        config = AnalysisConfig()
        assert AnalysisConfig.from_dict(config.to_dict()).to_dict() == (
            config.to_dict()
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            AnalysisConfig.from_dict({"similarity_treshold": 2})

    def test_bad_enum_value_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalysisConfig.from_dict({"axes": ["sideways"]})
        with pytest.raises(ConfigurationError):
            AnalysisConfig.from_dict({"enabled_types": ["not_a_type"]})


class TestFindingFromDict:
    def test_every_finding_round_trips(self, report):
        for finding in report.findings:
            rebuilt = Finding.from_dict(finding.to_dict())
            assert rebuilt.to_dict() == finding.to_dict()
            assert rebuilt.type is finding.type
            assert rebuilt.severity is finding.severity
            if finding.group is not None:
                assert rebuilt.group.role_ids == finding.group.role_ids
                assert rebuilt.group.axis is finding.group.axis


class TestReportFromPayload:
    def test_byte_identical_reserialisation(self, report, paper_example):
        payload = report.to_dict()
        rebuilt = Report.from_payload(payload, paper_example)
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )

    def test_derived_views_survive(self, report, paper_example):
        rebuilt = Report.from_payload(report.to_dict(), paper_example)
        assert rebuilt.counts() == report.counts()
        assert (
            rebuilt.consolidation_potential()
            == report.consolidation_potential()
        )
        assert len(rebuilt.sorted_findings()) == len(report.sorted_findings())

    def test_legacy_kernel_config_reloads(self, report, paper_example):
        # A report stored while the config had a ``kernel`` field loads
        # and reserialises without it (see test_kernel_parity for the
        # values AnalysisConfig.from_dict accepts and rejects).
        payload = report.to_dict()
        legacy = {**payload, "config": {**payload["config"], "kernel": "auto"}}
        rebuilt = Report.from_payload(legacy, paper_example)
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )

    def test_text_rendering_matches(self, report, paper_example):
        rebuilt = Report.from_payload(report.to_dict(), paper_example)
        assert rebuilt.to_text() == report.to_text()
