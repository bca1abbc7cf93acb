"""Wire-protocol tests: parsing, atomic validation, analyze overrides."""

from __future__ import annotations

import pytest

from repro.core.engine import AnalysisConfig
from repro.core.taxonomy import InefficiencyType
from repro.core.incremental import IncrementalAuditor
from repro.core.state import RbacState
from repro.service.protocol import (
    MUTATION_OPS,
    Mutation,
    ProtocolError,
    apply_batch,
    build_analysis_config,
    config_key,
    parse_mutation_batch,
    validate_batch,
)


def small_state() -> RbacState:
    return RbacState.build(
        users=["u0", "u1"],
        roles=["r0", "r1"],
        permissions=["p0", "p1"],
        user_assignments=[("r0", "u0")],
        permission_assignments=[("r0", "p0")],
    )


class TestParseMutationBatch:
    def test_valid_batch(self):
        batch = parse_mutation_batch(
            {
                "mutations": [
                    {"op": "add_user", "id": "alice"},
                    {"op": "assign_user", "role": "r0", "user": "alice"},
                ]
            }
        )
        assert batch == [
            Mutation("add_user", ("alice",)),
            Mutation("assign_user", ("r0", "alice")),
        ]

    def test_to_dict_round_trips(self):
        for op, fields in MUTATION_OPS.items():
            mutation = Mutation(op, tuple(f"v{i}" for i in range(len(fields))))
            assert parse_mutation_batch(
                {"mutations": [mutation.to_dict()]}
            ) == [mutation]

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ([], "JSON object"),
            ({"mutations": "nope"}, '"mutations" array'),
            ({"mutations": [42]}, "mutation 0"),
            ({"mutations": [{"op": "explode"}]}, "unknown op"),
            ({"mutations": [{"op": "add_user"}]}, "requires a non-empty"),
            (
                {"mutations": [{"op": "add_user", "id": ""}]},
                "requires a non-empty",
            ),
            (
                {"mutations": [{"op": "assign_user", "role": "r0"}]},
                "'user'",
            ),
        ],
    )
    def test_shape_errors(self, document, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            parse_mutation_batch(document)

    def test_error_carries_offending_index(self):
        with pytest.raises(ProtocolError, match="mutation 1"):
            parse_mutation_batch(
                {
                    "mutations": [
                        {"op": "add_user", "id": "ok"},
                        {"op": "bogus"},
                    ]
                }
            )


class TestValidateBatch:
    def test_accepts_referentially_valid_batch(self):
        validate_batch(
            small_state(),
            [
                Mutation("add_role", ("r2",)),
                Mutation("assign_user", ("r2", "u1")),
                Mutation("remove_role", ("r1",)),
            ],
        )

    def test_sees_additions_earlier_in_the_batch(self):
        validate_batch(
            small_state(),
            [
                Mutation("add_user", ("fresh",)),
                Mutation("assign_user", ("r0", "fresh")),
            ],
        )

    def test_sees_removals_earlier_in_the_batch(self):
        with pytest.raises(ProtocolError, match="mutation 1: unknown role"):
            validate_batch(
                small_state(),
                [
                    Mutation("remove_role", ("r0",)),
                    Mutation("assign_user", ("r0", "u0")),
                ],
            )

    def test_sees_a_removal_and_re_addition_in_the_batch(self):
        validate_batch(
            small_state(),
            [
                Mutation("remove_user", ("u0",)),
                Mutation("add_user", ("u0",)),
                Mutation("assign_user", ("r0", "u0")),
            ],
        )
        with pytest.raises(ProtocolError, match="mutation 2: duplicate user"):
            validate_batch(
                small_state(),
                [
                    Mutation("remove_user", ("u0",)),
                    Mutation("add_user", ("u0",)),
                    Mutation("add_user", ("u0",)),
                ],
            )

    def test_reads_no_full_id_list(self, monkeypatch):
        # O(batch) under the service's state lock, not O(state).
        state = small_state()
        for name in ("user_ids", "role_ids", "permission_ids"):
            monkeypatch.setattr(
                type(state), name, lambda self: pytest.fail("id list read")
            )
        validate_batch(
            state,
            [
                Mutation("add_role", ("r2",)),
                Mutation("assign_user", ("r2", "u1")),
                Mutation("remove_permission", ("p0",)),
            ],
        )

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            (Mutation("add_user", ("u0",)), "duplicate user"),
            (Mutation("remove_permission", ("ghost",)), "unknown permission"),
            (Mutation("assign_user", ("ghost", "u0")), "unknown role"),
            (Mutation("revoke_permission", ("r0", "ghost")), "unknown permission"),
        ],
    )
    def test_referential_errors(self, mutation, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            validate_batch(small_state(), [mutation])

    def test_validation_mutates_nothing(self):
        state = small_state()
        before = state.fingerprint()
        with pytest.raises(ProtocolError):
            validate_batch(
                state,
                [
                    Mutation("add_role", ("r2",)),
                    Mutation("assign_user", ("r2", "ghost")),
                ],
            )
        assert state.fingerprint() == before


class TestApplyBatch:
    def test_applies_through_the_auditor(self):
        auditor = IncrementalAuditor(small_state())
        batch = [
            Mutation("add_role", ("r2",)),
            Mutation("assign_user", ("r2", "u1")),
            Mutation("revoke_permission", ("r0", "p0")),
        ]
        validate_batch(auditor.state, batch)
        assert apply_batch(auditor, batch) == 3
        assert auditor.state.users_of_role("r2") == {"u1"}
        assert auditor.state.permissions_of_role("r0") == frozenset()


class TestBuildAnalysisConfig:
    def test_none_returns_base(self):
        base = AnalysisConfig(similarity_threshold=2)
        assert build_analysis_config(base, None) is base
        assert build_analysis_config(base, {}) is base

    def test_overrides_apply(self):
        base = AnalysisConfig()
        config = build_analysis_config(
            base, {"similarity_threshold": 3, "n_workers": 2}
        )
        assert config.similarity_threshold == 3
        assert config.n_workers == 2
        assert config.finder == base.finder

    def test_unknown_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown analyze option"):
            build_analysis_config(AnalysisConfig(), {"similarity": 2})

    def test_non_boolean_extensions_rejected(self):
        with pytest.raises(ProtocolError, match='"extensions" must be'):
            build_analysis_config(AnalysisConfig(), {"extensions": "yes"})

    def test_invalid_value_becomes_protocol_error(self):
        with pytest.raises(ProtocolError, match="invalid analyze options"):
            build_analysis_config(
                AnalysisConfig(), {"similarity_threshold": 0}
            )

    def test_invalid_kernel_becomes_protocol_error(self):
        # The scan has one kernel: a kernel override is rejected like any
        # other unknown option, whatever its value.
        for kernel in ("auto", "sparse", "bits", "gpu"):
            with pytest.raises(ProtocolError, match="unknown analyze option"):
                build_analysis_config(AnalysisConfig(), {"kernel": kernel})

    def test_extensions_toggle_enabled_types(self):
        from repro.core.engine import ALL_TYPES, EXTENSION_TYPES

        on = build_analysis_config(AnalysisConfig(), {"extensions": True})
        off = build_analysis_config(AnalysisConfig(), {"extensions": False})
        assert on.enabled_types == ALL_TYPES + EXTENSION_TYPES
        assert off.enabled_types == ALL_TYPES

    def test_execution_override_keeps_the_base_types(self):
        # An execution-only override analyses exactly the base's types,
        # so it shares the base's cache entry.
        base = AnalysisConfig(
            enabled_types=(InefficiencyType.DUPLICATE_ROLES,)
        )
        config = build_analysis_config(base, {"block_rows": 8})
        assert config.enabled_types == base.enabled_types
        assert config_key(config) == config_key(base)

    def test_extensions_toggle_only_extension_types(self):
        from repro.core.engine import EXTENSION_TYPES

        paper = (InefficiencyType.DUPLICATE_ROLES,)
        base = AnalysisConfig(enabled_types=paper)
        on = build_analysis_config(base, {"extensions": True})
        assert on.enabled_types == paper + EXTENSION_TYPES
        off = build_analysis_config(on, {"extensions": False})
        assert off.enabled_types == paper

    @pytest.mark.parametrize(
        "override", [{"n_workers": 3}, {"block_rows": 8}]
    )
    def test_scan_override_never_conflicts_with_finder_options(
        self, override
    ):
        shape = {"n_workers": 2, "block_rows": 4}
        base = AnalysisConfig(finder_options={**shape, "x": 1}, **shape)
        config = build_analysis_config(base, override)
        ((key, value),) = override.items()
        assert getattr(config, key) == value
        assert config.finder_options == {"x": 1}
        assert config_key(config) == config_key(base)


class TestConfigKey:
    def test_execution_knobs_do_not_change_the_key(self):
        base = AnalysisConfig()
        tuned = AnalysisConfig(n_workers=4, block_rows=64)
        assert config_key(base) == config_key(tuned)

    def test_finder_option_copies_of_the_shape_do_not_change_the_key(self):
        mirrored = AnalysisConfig(n_workers=2, finder_options={"n_workers": 2})
        assert config_key(mirrored) == config_key(AnalysisConfig())

    def test_result_affecting_knobs_change_the_key(self):
        assert config_key(AnalysisConfig()) != config_key(
            AnalysisConfig(similarity_threshold=2)
        )

    def test_key_is_deterministic(self):
        assert config_key(AnalysisConfig()) == config_key(AnalysisConfig())
