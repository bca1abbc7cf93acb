"""Findings as columns: the column writers against the per-finding path.

Types 1-3 are held as bucket columns and types 4-5 as role-group
columns, and both are written to JSON straight from them.  These tests
pin what that must not change:

* golden SHA-256 digests of the normalised report (and of the
  detection-order finding list) for the paper example and
  ``OrgProfile.small(divisor=100)`` seeds 0-3, computed with the
  per-finding implementation;
* over churned states whose ids differ only in case, in Unicode or by a
  trailing ``"\\x00"``: ``encode()`` is the sorted-key dump of
  ``to_dict()``, ``from_payload`` round-trips byte-identically, the
  review order is :func:`sort_findings`' and the detection order is the
  per-finding detectors' (kept below as the reference);
* over the same states with groups of more than five roles: a report of
  columns counts, orders, writes and diffs as a report of the same
  findings held as records.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalysisConfig, analyze, taxonomy
from repro.core.detectors import (
    AnalysisContext,
    DuplicateRolesDetector,
    SimilarRolesDetector,
)
from repro.core.entities import EntityKind
from repro.core.report import Report
from repro.core.reportdiff import diff_reports, finding_key
from repro.core.state import RbacState
from repro.core.taxonomy import (
    DEFAULT_SEVERITY,
    ROLES_WITHOUT_PERMISSIONS,
    ROLES_WITHOUT_USERS,
    SINGLE_PERMISSION_ROLES,
    SINGLE_USER_ROLES,
    STANDALONE_PERMISSIONS,
    STANDALONE_ROLES,
    STANDALONE_USERS,
    Axis,
    Bucket,
    Finding,
    Findings,
    GroupSpec,
    Groups,
    InefficiencyType,
    RoleGroup,
    sort_findings,
)
from repro.datagen import OrgProfile, generate_org

RUN_SPECIFIC = ("timings_seconds", "total_seconds", "metrics")

#: Computed with the per-finding detectors and writer, before findings
#: became columns: (normalised report, detection-order finding dicts).
GOLDEN = {
    "paper": (
        "2b68a2252d284e4f11ead3b5b4201ea2a34ca36702d3e0675594cca05796c541",
        "0049b4b3920c9ff78e5886f9207289fad657b9bcde7a5a9d5569842b04d77824",
    ),
    0: (
        "ffd897d6b9ec3579021b2085146fc07bb3060fb20cabb1580f692ecf2cb31ce1",
        "a53e04aa713226e223b9656eaabb298c4244a71393146faf9eaee591bbca05f3",
    ),
    1: (
        "9f859255a340f443b5c660aa7685c0edc1a9d959e93c2a446252d608e86d4bec",
        "cda3356bfb57610e717fdd4aa3603561a4ada98b65552c7facb4e95b14b29c56",
    ),
    2: (
        "ffb943ff93f3a918ebfb06095152737b696fe8016e9b1c25d1322474db208869",
        "bf119bd63a1f18705e41f538f0a94062c8e7a3473f35e65361c90c95ede37139",
    ),
    3: (
        "35d768531f0c385095e1b3fb5340117109ce4567380c0f87fcbd48e70fa2f9a1",
        "8a51d4676597174c5615d5d56739371becde127ca77d85af2a4ed6bd7c0ed5a3",
    ),
}


def normalised_digest(payload: dict) -> str:
    doc = {k: v for k, v in payload.items() if k not in RUN_SPECIFIC}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def detection_digest(report: Report) -> str:
    text = json.dumps([f.to_dict() for f in report.findings])
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# The per-finding detectors of types 1-3 (the reference)
# ----------------------------------------------------------------------
def per_finding_types_1_to_3(context: AnalysisContext) -> list[Finding]:
    ruam, rpam = context.ruam, context.rpam
    found: list[Finding] = []

    def add(kind, entity_kind, entity_id, message, axis=None, details=None):
        found.append(
            Finding(
                type=kind,
                entity_kind=entity_kind,
                entity_ids=(entity_id,),
                severity=DEFAULT_SEVERITY[kind],
                message=message,
                axis=axis,
                details=details or {},
            )
        )

    standalone = InefficiencyType.STANDALONE_NODE
    for i in np.flatnonzero(ruam.col_sums == 0):
        user_id = ruam.col_ids[int(i)]
        add(standalone, EntityKind.USER, user_id,
            f"user {user_id!r} is not assigned to any role")
    for i in np.flatnonzero(rpam.col_sums == 0):
        permission_id = rpam.col_ids[int(i)]
        add(standalone, EntityKind.PERMISSION, permission_id,
            f"permission {permission_id!r} is not linked to any role")
    users, permissions = ruam.row_sums, rpam.row_sums
    for i in np.flatnonzero((users == 0) & (permissions == 0)):
        role_id = ruam.row_id(int(i))
        add(standalone, EntityKind.ROLE, role_id,
            f"role {role_id!r} has neither users nor permissions")
    disconnected = InefficiencyType.DISCONNECTED_ROLE
    for i in np.flatnonzero((users == 0) & (permissions > 0)):
        role_id, n = ruam.row_id(int(i)), int(permissions[i])
        add(disconnected, EntityKind.ROLE, role_id,
            f"role {role_id!r} has no users (but {n} permissions)",
            Axis.USERS, {"n_permissions": n})
    for i in np.flatnonzero((permissions == 0) & (users > 0)):
        role_id, n = rpam.row_id(int(i)), int(users[i])
        add(disconnected, EntityKind.ROLE, role_id,
            f"role {role_id!r} has no permissions (but {n} users)",
            Axis.PERMISSIONS, {"n_users": n})
    single = InefficiencyType.SINGLE_ASSIGNMENT_ROLE
    for matrix, axis, noun in (
        (ruam, Axis.USERS, "user"), (rpam, Axis.PERMISSIONS, "permission")
    ):
        for i in np.flatnonzero(matrix.row_sums == 1):
            role_id = matrix.row_id(int(i))
            add(single, EntityKind.ROLE, role_id,
                f"role {role_id!r} has exactly one {noun}", axis)
    return found


# ----------------------------------------------------------------------
# The per-group detectors of types 4-5 (the reference)
# ----------------------------------------------------------------------
def per_group_duplicates(
    detector: DuplicateRolesDetector, context: AnalysisContext
) -> list[Finding]:
    found = []
    for axis in detector._axes:
        matrix = context.ruam if axis is Axis.USERS else context.rpam
        workspace = context.workspace.axis(axis)
        if not workspace.n_rows:
            continue
        for group in detector._finder.find_groups_in(workspace, 0):
            role_ids = [
                matrix.row_id(int(workspace.original[member]))
                for member in group
            ]
            shared_count = int(workspace.norms[group[0]])
            found.append(
                group_record(
                    InefficiencyType.DUPLICATE_ROLES, role_ids, axis, 0,
                    shared_count,
                )
            )
    return found


def per_group_similar(
    detector: SimilarRolesDetector, context: AnalysisContext
) -> list[Finding]:
    k = detector._max_differences
    found = []
    for axis in detector._axes:
        matrix = context.ruam if axis is Axis.USERS else context.rpam
        workspace = context.workspace.axis(axis)
        if workspace.n_rows == 0:
            continue
        if detector._collapse_duplicates:
            view = workspace.collapsed()
            class_sizes = view.class_sizes
        else:
            view = workspace
            class_sizes = np.ones(workspace.n_rows, dtype=np.int64)
        for group in detector._finder.find_groups_in(view, k):
            role_ids = [
                matrix.row_id(int(view.original[member])) for member in group
            ]
            represented = int(sum(class_sizes[member] for member in group))
            found.append(
                group_record(
                    InefficiencyType.SIMILAR_ROLES, role_ids, axis, k,
                    represented,
                )
            )
    return found


def per_finding_detection(state: RbacState, config: AnalysisConfig):
    """Every finding in the order the per-finding engine collected them
    (``config`` enables types 1-3, which run first)."""
    from repro.core.engine import AnalysisEngine

    context = AnalysisContext(state)
    found = per_finding_types_1_to_3(context)
    for detector in AnalysisEngine(config).detectors[3:]:
        if isinstance(detector, DuplicateRolesDetector):
            found.extend(per_group_duplicates(detector, context))
        elif isinstance(detector, SimilarRolesDetector):
            found.extend(per_group_similar(detector, context))
        else:
            found.extend(detector.detect(context))
    return found


# ----------------------------------------------------------------------
# Churned states with awkward ids
# ----------------------------------------------------------------------
#: Ids that differ only in case, in Unicode normalisation, or by a
#: trailing NUL (which NumPy's ``U`` dtype would strip), plus quotes,
#: backslashes and non-BMP characters for the writer's escaping.
AWKWARD = [
    "a", "A", "a\x00", "a\x00\x00", "\x00",
    "\u00e9", "e\u0301", "\u00c9", "\u00df", "SS", "\ufb03", "\u03a9",
    " ", "\U0001f600", "'", '"', "\\", "it's", 'say "hi"', "tab\there",
    "x" * 40,
]


def churned_state(seed: int) -> RbacState:
    rng = random.Random(seed)
    names = AWKWARD + [f"n{i:02d}" for i in range(12)]
    state = RbacState()
    for kind in ("u", "r", "p"):
        for name in rng.sample(names, rng.randint(8, len(names))):
            getattr(state, {"u": "add_user", "r": "add_role",
                            "p": "add_permission"}[kind])(kind + name)
    for _ in range(rng.randint(30, 120)):
        roles = state.role_ids()
        users = state.user_ids()
        permissions = state.permission_ids()
        op = rng.random()
        if op < 0.35 and roles and users:
            role, user = rng.choice(roles), rng.choice(users)
            if user not in state.users_of_role(role):
                state.assign_user(role, user)
        elif op < 0.7 and roles and permissions:
            role, permission = rng.choice(roles), rng.choice(permissions)
            if permission not in state.permissions_of_role(role):
                state.assign_permission(role, permission)
        elif op < 0.8 and roles:
            role = rng.choice(roles)
            members = sorted(state.users_of_role(role))
            if members:
                state.revoke_user(role, rng.choice(members))
        elif op < 0.9 and roles:
            # Twin roles keep duplicate and similar groups in play.
            source = rng.choice(roles)
            twin = source + rng.choice(["", "\x00", "'"])
            if twin not in roles:
                state.add_role(twin)
                for user in state.users_of_role(source):
                    state.assign_user(twin, user)
                for permission in state.permissions_of_role(source):
                    state.assign_permission(twin, permission)
        elif roles:
            kind = rng.choice(["user", "role", "permission"])
            ids = {"user": users, "role": roles, "permission": permissions}
            if ids[kind]:
                getattr(state, f"remove_{kind}")(rng.choice(ids[kind]))
    return state


CONFIGS = [AnalysisConfig(), AnalysisConfig.with_extensions()]


@pytest.fixture(params=range(12), ids=lambda seed: f"churn{seed}")
def churned(request):
    return churned_state(request.param)


@pytest.mark.parametrize("case", list(GOLDEN), ids=str)
def test_golden_report_digests(case, paper_example):
    state = (
        paper_example
        if case == "paper"
        else generate_org(OrgProfile.small(divisor=100, seed=case)).state
    )
    report = analyze(state)
    payload = report.to_dict()
    assert (normalised_digest(payload), detection_digest(report)) == GOLDEN[case]
    assert report.encode() == json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("config", CONFIGS, ids=["paper-types", "extensions"])
class TestChurnedStates:
    def test_encode_is_the_sorted_key_dump_of_to_dict(self, churned, config):
        report = analyze(churned, config)
        assert report.encode() == json.dumps(
            report.to_dict(), sort_keys=True
        ).encode("utf-8")

    def test_detection_order_is_the_per_finding_detectors(
        self, churned, config
    ):
        report = analyze(churned, config)
        assert report.findings == per_finding_detection(churned, config)

    def test_review_order_is_sort_findings(self, churned, config):
        report = analyze(churned, config)
        expected = sort_findings(per_finding_detection(churned, config))
        assert report.sorted_findings() == expected
        # to_dict keeps Finding.to_dict's key insertion order, which the
        # unsorted dumps of audit and to_json write.
        assert json.dumps(report.to_dict()["findings"]) == json.dumps(
            [f.to_dict() for f in expected]
        )

    def test_payload_round_trip_is_byte_identical(self, churned, config):
        report = analyze(churned, config)
        payload = json.loads(report.encode())
        rebuilt = Report.from_payload(payload, churned)
        assert rebuilt.encode() == report.encode()
        assert rebuilt.findings == [
            Finding.from_dict(item) for item in payload["findings"]
        ]

    def test_diff_matches_the_per_finding_diff(self, churned, config):
        newer = churned.copy()
        newer.add_user("u\x00new")
        for role in newer.role_ids()[:2]:
            newer.remove_role(role)
        old, new = analyze(churned, config), analyze(newer, config)
        delta = diff_reports(old, new)

        old_by_key = {finding_key(f): f for f in old.findings}
        new_by_key = {finding_key(f): f for f in new.findings}
        assert delta.new_findings == sort_findings(
            [new_by_key[k] for k in new_by_key.keys() - old_by_key.keys()]
        )
        assert delta.resolved_findings == sort_findings(
            [old_by_key[k] for k in old_by_key.keys() - new_by_key.keys()]
        )
        assert delta.persisting_count == len(
            new_by_key.keys() & old_by_key.keys()
        )


def test_counting_and_writing_build_no_findings(paper_example):
    report = analyze(paper_example)
    repr(report)
    report.counts()
    report.consolidation_potential()
    report.encode()
    diff_reports(report, report)
    assert report.parts._findings is None
    assert len(report.findings) == len(report.parts) == 7


#: SHA-256 of ``to_text(max_findings=shown)`` with its timing line
#: masked, computed when ``to_text`` built every finding to show some.
TEXT_GOLDEN = {
    ("paper", 20): (
        "c71db2e180817c4936cce9327d0f5fc9c5f3e85e2102f880cdf5f7d7333a4dd7"
    ),
    (0, 20): "cf74f36fdac8286cbdd5278bd3fb865d953913b7247bb0d5e8b98b5b1a75bb9d",
    (0, 3000): (  # every finding, bucket rows included
        "1cfc0f91b90b7148ccec5661d01b86cdc29ae27031be3ea613e6472422bec994"
    ),
}


@pytest.mark.parametrize("case, shown", list(TEXT_GOLDEN), ids=str)
def test_to_text_builds_only_the_shown_findings(case, shown, paper_example):
    state = (
        paper_example
        if case == "paper"
        else generate_org(OrgProfile.small(divisor=100, seed=case)).state
    )
    report = analyze(state)
    text = report.to_text(max_findings=shown)
    assert report.parts._findings is None
    masked = re.sub(r"(?m)^analysis time: .*$", "analysis time: -", text)
    digest = hashlib.sha256(masked.encode()).hexdigest()
    assert digest == TEXT_GOLDEN[(case, shown)]


class TestRecordsStayRecords:
    """A type 1-3 finding no bucket would write as it stands keeps its
    record, its place in both orders, and its bytes."""

    def payload_with(self, paper_example, **changes):
        payload = analyze(paper_example).to_dict()
        (item,) = [
            f for f in payload["findings"] if f["type"] == "standalone_node"
        ]
        item.update(changes)
        return payload

    @pytest.mark.parametrize(
        "changes",
        [
            {"message": "P01 was retired"},
            {"severity": "high"},
            {"details": {"note": 1}},
            {"entity_ids": ["P01", "P07"]},
            {"axis": "users"},
        ],
        ids=["message", "severity", "details", "two-ids", "axis"],
    )
    def test_unbucketed_record_round_trips(self, paper_example, changes):
        payload = self.payload_with(paper_example, **changes)
        rebuilt = Report.from_payload(payload, paper_example)
        records = [Finding.from_dict(item) for item in payload["findings"]]
        assert rebuilt.findings == records
        assert rebuilt.sorted_findings() == sort_findings(records)
        assert rebuilt.to_dict()["findings"] == [
            f.to_dict() for f in sort_findings(records)
        ]
        assert rebuilt.encode() == json.dumps(
            rebuilt.to_dict(), sort_keys=True
        ).encode()

    def test_records_and_buckets_of_one_type_merge_by_ids(self):
        # Both orders: a record between two rows of a bucket, and a
        # bucket between records, each sorted by the entity-id tuple.
        custom = Finding(
            type=InefficiencyType.STANDALONE_NODE,
            entity_kind=EntityKind.USER,
            entity_ids=("b", "a"),
            severity=DEFAULT_SEVERITY[InefficiencyType.STANDALONE_NODE],
            message="custom",
        )
        found = Findings(
            [
                Bucket(STANDALONE_USERS, ["c", "b", "a\x00", "a"]),
                [custom],
                Bucket(STANDALONE_USERS, ["b", "A"]),
            ]
        )
        report = Report(state=RbacState(), findings=found)
        assert report.sorted_findings() == sort_findings(report.findings)
        assert [f.entity_ids for f in report.sorted_findings()] == [
            ("A",), ("a",), ("a\x00",), ("b",), ("b",), ("b", "a"), ("c",),
        ]
        assert report.encode() == json.dumps(
            report.to_dict(), sort_keys=True
        ).encode()


#: Every character a plain id may hold: printable ASCII but the three
#: JSON or ``repr`` would write otherwise.
PLAIN_ALPHABET = "".join(
    chr(code) for code in range(0x20, 0x7F) if chr(code) not in "\"'\\"
)
plain_ids = st.text(alphabet=PLAIN_ALPHABET, min_size=1, max_size=12)
#: Arbitrary ids, and ids one character away from plain.
any_ids = st.one_of(
    st.text(min_size=1, max_size=12),
    st.sampled_from(AWKWARD + ["\x7f", "\x1f", "a'b", 'a"b', "a\\b"]),
)
mixed_ids = st.one_of(plain_ids, any_ids)
#: A column of plain ids (written from the row template) or of plain
#: and other ids mixed (written by the fallback).
id_columns = st.one_of(
    st.lists(plain_ids, min_size=1, max_size=8),
    st.lists(mixed_ids, min_size=1, max_size=8),
)
ALL_SPECS = [
    STANDALONE_USERS,
    STANDALONE_PERMISSIONS,
    STANDALONE_ROLES,
    ROLES_WITHOUT_USERS,
    ROLES_WITHOUT_PERMISSIONS,
    SINGLE_USER_ROLES,
    SINGLE_PERMISSION_ROLES,
]


@settings(max_examples=200, deadline=None)
@given(ids=id_columns, data=st.data())
def test_bucket_rows_are_the_findings_they_stand_for(ids, data):
    counts = data.draw(
        st.lists(
            st.integers(0, 10**12), min_size=len(ids), max_size=len(ids)
        )
    )
    for spec in ALL_SPECS:
        bucket = Bucket(spec, ids, counts if spec.detail else None)
        findings = bucket.findings()
        assert bucket.dicts() == [f.to_dict() for f in findings]
        assert bucket.texts() == [
            json.dumps(f.to_dict(), sort_keys=True) for f in findings
        ]


@settings(max_examples=300, deadline=None)
@given(text=mixed_ids)
def test_plain_is_printable_ascii_without_quotes_or_backslash(text):
    expected = all(" " <= c <= "~" and c not in "\"'\\" for c in text)
    assert taxonomy._plain([text]) is expected
    if expected:
        assert json.dumps(text) == '"%s"' % text
        assert repr(text) == "'%s'" % text


def group_record(kind, role_ids, axis, k, detail_value):
    """A type 4 or 5 finding, worded as its detector words it."""
    size = len(role_ids)
    shown = ", ".join(role_ids[:5]) + ("…" if size > 5 else "")
    if kind is InefficiencyType.DUPLICATE_ROLES:
        message = f"{size} roles share the same {detail_value} " \
            f"{axis.value}: {shown}"
        details = {"group_size": size, "shared_count": detail_value,
                   "redundant_roles": size - 1}
        k = 0
    else:
        message = f"{size} roles have {axis.value} differing by at " \
            f"most {k}: {shown}"
        details = {"group_size": size, "max_differences": k,
                   "represented_roles": detail_value}
    return Finding(
        type=kind,
        entity_kind=EntityKind.ROLE,
        entity_ids=tuple(role_ids),
        severity=DEFAULT_SEVERITY[kind],
        message=message,
        axis=axis,
        group=RoleGroup(role_ids=tuple(role_ids), axis=axis,
                        max_differences=k),
        details=details,
    )


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(
        [InefficiencyType.DUPLICATE_ROLES, InefficiencyType.SIMILAR_ROLES]
    ),
    role_ids=st.one_of(
        st.lists(plain_ids, min_size=2, max_size=8),
        st.lists(mixed_ids, min_size=2, max_size=8),
    ),
    axis=st.sampled_from(list(Axis)),
    k=st.integers(0, 5),
    detail_value=st.one_of(st.integers(0, 10**12), st.booleans()),
)
def test_group_records_are_written_as_their_dicts(
    kind, role_ids, axis, k, detail_value
):
    finding = group_record(kind, role_ids, axis, k, detail_value)
    assert Findings([[finding]]).texts() == [
        json.dumps(finding.to_dict(), sort_keys=True)
    ]


@pytest.mark.parametrize("case", ["paper", 0], ids=str)
def test_encode_dumps_the_summary_and_no_finding(
    case, paper_example, monkeypatch
):
    state = (
        paper_example
        if case == "paper"
        else generate_org(OrgProfile.small(divisor=100, seed=case)).state
    )
    report = analyze(state)
    expected = report.encode()  # builds the row templates it needs
    dumped = []
    real_dumps = json.dumps

    def spy(value, *args, **kwargs):
        dumped.append(value)
        return real_dumps(value, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    assert report.encode() == expected
    summary = report._summary()
    # One dump per summary member and one per key, the findings' too,
    # however many findings there are.
    assert len(dumped) <= 2 * len(summary) + 1
    members = [*summary, "findings", *summary.values()]
    assert all(value in members for value in dumped)


# ----------------------------------------------------------------------
# Role groups as columns against the per-group detectors
# ----------------------------------------------------------------------
#: Names of a family of roles that differ only in case, and names with
#: quotes, a backslash, non-ASCII or trailing NULs.
PLAIN_FAMILY_NAMES = [
    "X", "x", "Y", "y", "Z", "z", "W", "w", "V", "v", "x-1", "X-1",
    "x.2", "x_3", "x 4", "Q",
]
FAMILY_NAMES = PLAIN_FAMILY_NAMES + [
    "x'", 'x"', "x\\", "é", "É", "x\x00", "x\x00\x00", "\U0001f600", "z'",
    "Ω",
]


def grouped_state(seed: int) -> RbacState:
    """A churned state plus one family of roles: a base role, up to
    seven twins (a duplicate group on both axes) and up to seven roles
    with one extra user each (a similar group on the users axis, and
    more duplicates on the permissions axis)."""
    rng = random.Random(seed)
    state = churned_state(seed)
    # Half the families have plain ids only, which the row template
    # writes; the others mix in ids that are dumped.
    names = rng.choice([PLAIN_FAMILY_NAMES, FAMILY_NAMES])
    names = rng.sample(names, len(names))
    n_twins, n_near = rng.randint(0, 7), rng.randint(0, 7)
    for n in range(2 + n_near):
        state.add_user(f"gu{n}")
    for n in range(2):
        state.add_permission(f"gp{n}")
    for n, name in enumerate(names[: 1 + n_twins + n_near]):
        role = "g" + name
        state.add_role(role)
        for member in ("gu0", "gu1"):
            state.assign_user(role, member)
        for member in ("gp0", "gp1"):
            state.assign_permission(role, member)
        if n > n_twins:
            state.assign_user(role, f"gu{n - n_twins + 1}")
    return state


GROUP_CONFIGS = CONFIGS + [
    AnalysisConfig(similarity_threshold=2),
    AnalysisConfig(collapse_duplicates=False),
    AnalysisConfig(axes=(Axis.PERMISSIONS,)),
]


def records_only(report: Report, state: RbacState) -> Report:
    """``report`` with its findings held as records alone."""
    return Report(
        state,
        Findings([list(report.findings)]),
        report.timings,
        report.total_seconds,
        report.config,
        report.metrics,
    )


def test_grouped_states_hold_groups_of_more_than_five():
    sizes = {
        kind: max(
            (
                len(f.entity_ids)
                for seed in range(10)
                for f in analyze(grouped_state(seed)).of_type(kind)
            ),
            default=0,
        )
        for kind in (
            InefficiencyType.DUPLICATE_ROLES, InefficiencyType.SIMILAR_ROLES
        )
    }
    assert min(sizes.values()) > 5


@settings(max_examples=200, deadline=None)
@given(
    groups=st.lists(
        st.one_of(
            st.lists(plain_ids, min_size=2, max_size=8),
            st.lists(mixed_ids, min_size=2, max_size=8),
        ),
        min_size=1,
        max_size=4,
    ),
    data=st.data(),
)
def test_group_rows_are_the_findings_they_stand_for(groups, data):
    counts = data.draw(
        st.lists(
            st.integers(0, 10**12), min_size=len(groups), max_size=len(groups)
        )
    )
    ids = [role_id for group in groups for role_id in group]
    bounds = np.cumsum([0] + [len(group) for group in groups]).tolist()
    for axis in Axis:
        for spec in (
            GroupSpec(InefficiencyType.DUPLICATE_ROLES, axis),
            GroupSpec(InefficiencyType.SIMILAR_ROLES, axis, 3),
        ):
            part = Groups(spec, ids, bounds, counts)
            findings = part.findings()
            kind, k = spec.type, spec.max_differences
            assert findings == [
                group_record(kind, group, axis, k, count)
                for group, count in zip(groups, counts)
            ]
            assert part.dicts() == [f.to_dict() for f in findings]
            assert part.texts() == [
                json.dumps(f.to_dict(), sort_keys=True) for f in findings
            ]
            assert [part.finding(row) for row in range(len(part))] == findings


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    config=st.sampled_from(GROUP_CONFIGS),
)
def test_group_columns_are_the_per_group_detectors(seed, config):
    state = grouped_state(seed)
    report = analyze(state, config)
    expected = per_finding_detection(state, config)
    records = records_only(report, state)
    assert report.findings == expected
    assert report.parts == records.parts
    payload = report.to_dict()
    # Key insertion order too: audit and to_json dump without sorting.
    assert json.dumps(payload) == json.dumps(records.to_dict())
    encoded = report.encode()
    assert encoded == json.dumps(payload, sort_keys=True).encode("utf-8")
    assert encoded == records.encode()
    assert report.counts() == records.counts()
    assert report.consolidation_potential() == records.consolidation_potential()
    assert report.parts.review_order() == records.parts.review_order()
    rebuilt = Report.from_payload(json.loads(encoded), state)
    assert rebuilt.encode() == encoded

    newer = state.copy()
    newer.add_user("u\x00new")
    family = [role for role in newer.role_ids() if role.startswith("g")]
    for role in newer.role_ids()[:2] + family[-1:]:
        if newer.has_role(role):
            newer.remove_role(role)
    new_report = analyze(newer, config)
    new_records = records_only(new_report, newer)
    expected_diff = diff_reports(records, new_records).to_dict()
    for old, new in [
        (report, new_report), (report, new_records), (records, new_report)
    ]:
        assert diff_reports(old, new).to_dict() == expected_diff
