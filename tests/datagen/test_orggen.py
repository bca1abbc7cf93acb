"""Unit tests for the planted-organisation generator (§IV-B stand-in)."""

from __future__ import annotations

import hashlib

import pytest

from repro.core import analyze
from repro.datagen import OrgProfile, PlantedCounts, generate_org
from repro.exceptions import ConfigurationError
from repro.io.statecodec import encode_state


class TestPlantedCounts:
    def test_defaults_match_paper(self):
        counts = PlantedCounts()
        assert counts.standalone_users == 500
        assert counts.standalone_permissions == 180_000
        assert counts.roles_without_users == 12_000
        assert counts.roles_without_permissions == 1_000
        assert counts.single_user_roles == 4_000
        assert counts.single_permission_roles == 21_000
        assert counts.roles_same_users == 8_000
        assert counts.roles_same_permissions == 2_000
        assert counts.roles_similar_users == 6_000
        assert counts.roles_similar_permissions == 4_000

    def test_scaled_keeps_pairs_even(self):
        scaled = PlantedCounts(roles_same_users=10).scaled(4)
        assert scaled.roles_same_users % 2 == 0

    def test_as_dict_keys_match_report_counts(self, paper_example):
        report_keys = set(analyze(paper_example).counts())
        assert set(PlantedCounts().as_dict()) == report_keys


class TestProfileValidation:
    def test_paper_scale_profile(self):
        profile = OrgProfile.paper_scale()
        blocks = profile.block_sizes()
        assert sum(blocks.values()) == 50_000
        assert blocks["normal"] == 10_000
        assert blocks["extra_single_permission"] == 7_000
        assert blocks["extra_single_user"] == 0

    def test_odd_pair_count_rejected(self):
        profile = OrgProfile(
            n_users=100, n_permissions=100, n_roles=50,
            planted=PlantedCounts(
                standalone_permissions=0, roles_without_users=0,
                roles_without_permissions=0, single_user_roles=0,
                single_permission_roles=0, roles_same_users=3,
                roles_same_permissions=0, roles_similar_users=0,
                roles_similar_permissions=0, standalone_users=0,
            ),
        )
        with pytest.raises(ConfigurationError, match="must be even"):
            profile.block_sizes()

    def test_role_budget_overflow_rejected(self):
        profile = OrgProfile(
            n_users=100, n_permissions=100, n_roles=5,
            planted=PlantedCounts().scaled(100),
        )
        with pytest.raises(ConfigurationError, match="exceed n_roles"):
            profile.block_sizes()

    def test_standalone_roles_planting_rejected(self):
        profile = OrgProfile(
            n_users=10, n_permissions=10, n_roles=10,
            planted=PlantedCounts(
                standalone_users=0, standalone_permissions=0,
                standalone_roles=1, roles_without_users=0,
                roles_without_permissions=0, single_user_roles=0,
                single_permission_roles=0, roles_same_users=0,
                roles_same_permissions=0, roles_similar_users=0,
                roles_similar_permissions=0,
            ),
        )
        with pytest.raises(ConfigurationError, match="standalone_roles"):
            profile.block_sizes()

    def test_set_size_minimum_enforced(self):
        profile = OrgProfile(
            n_users=100, n_permissions=100, n_roles=10,
            planted=PlantedCounts().scaled(10_000),
            user_set_size=(2, 4),
        )
        with pytest.raises(ConfigurationError, match=">= 3"):
            profile.block_sizes()


class TestGeneratedOrg:
    @pytest.fixture(scope="class")
    def org(self):
        return generate_org(OrgProfile.small(divisor=100, seed=3))

    def test_totals(self, org):
        assert org.state.n_users == 900
        assert org.state.n_roles == 500
        assert org.state.n_permissions == 3500

    def test_every_planted_count_detected_exactly(self, org):
        report = analyze(org.state)
        assert report.counts() == org.expected_counts()

    def test_deterministic(self):
        profile = OrgProfile.small(divisor=200, seed=7)
        assert generate_org(profile).state == generate_org(profile).state

    def test_seeds_differ(self):
        a = generate_org(OrgProfile.small(divisor=200, seed=1)).state
        b = generate_org(OrgProfile.small(divisor=200, seed=2)).state
        assert a != b

    def test_role_categories_annotated(self, org):
        categories = {
            org.state.get_role(role_id).attributes["category"]
            for role_id in org.state.role_ids()
        }
        assert "normal" in categories
        assert "same_users" in categories
        assert "no_users" in categories

    def test_full_coverage_of_usable_entities(self, org):
        """Only the planted standalone entities are unassigned."""
        report = analyze(org.state)
        counts = report.counts()
        assert counts["standalone_users"] == org.expected.standalone_users
        assert (
            counts["standalone_permissions"]
            == org.expected.standalone_permissions
        )

    @pytest.mark.parametrize("divisor", [50, 400])
    def test_other_scales_also_exact(self, divisor):
        org = generate_org(OrgProfile.small(divisor=divisor, seed=13))
        report = analyze(org.state)
        assert report.counts() == org.expected_counts()


class TestGoldenFingerprints:
    """The generator's output, pinned byte for byte.

    ``_Pool`` hands ``rng.choice`` a cached array of the id universe
    instead of the Python list; the draws, and therefore every generated
    organisation, must stay exactly what the list-based generator
    produced.
    """

    @pytest.mark.parametrize(
        "divisor,seed,fingerprint",
        [
            (100, 0, "f2fa5fc5529b0befada35828fc7a6f6eefda49a412960d22c4f1ba07f8b7ef32"),
            (10, 1, "4e397fa753499c36162697c8291289da3030fbb91e3ef70080123aaea33eb896"),
            (10, 2, "312837792f7328023c2c9f22df1379eeafb91a3b92f734357c970ba41abf7887"),
        ],
    )
    def test_generated_state_fingerprint(self, divisor, seed, fingerprint):
        org = generate_org(OrgProfile.small(divisor=divisor, seed=seed))
        assert org.state.fingerprint() == fingerprint

    @pytest.mark.parametrize(
        "divisor,seed,digest",
        [
            (100, 0, "d0e4a8046e0d81d72f36703a8ee406d5b287632865c77f5b5636b7efd5531aff"),
            (10, 1, "73143480babb999c20c6469c43d7e3c0cf4d83e466ce3842696c7c45b9069593"),
            (10, 2, "a2eff105e63f0794903e2770c1b077cd31d2dd744ceeb054309293451899d94f"),
        ],
    )
    def test_generated_state_encoding(self, divisor, seed, digest):
        """The fingerprint ignores insertion order; the state blob does
        not: it pins each kind's id order, the role metadata and the
        edges grouped by role."""
        org = generate_org(OrgProfile.small(divisor=divisor, seed=seed))
        assert hashlib.sha256(encode_state(org.state)).hexdigest() == digest
