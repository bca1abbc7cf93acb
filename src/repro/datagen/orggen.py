"""Synthetic organisation generator — stand-in for the paper's real dataset.

The paper's §IV-B experiment runs the framework over a proprietary dataset
from an organisation with 60,000+ employees (~90,000 users, ~350,000
permissions, ~50,000 roles) and reports one count per inefficiency type.
The raw data cannot be published, but the reported quantities can be
*planted*: this generator builds a full :class:`~repro.core.state.RbacState`
in which every inefficiency type occurs in an exact, verifiable number —
so the detection framework runs over the same scale and the same code
paths as it would on the real data, and its output can be asserted
against the planted ground truth.

Construction guarantees (verified by the test suite):

* every count in :class:`PlantedCounts` matches the corresponding key of
  :meth:`repro.core.report.Report.counts` exactly;
* no *accidental* inefficiencies: all non-planted role definitions are
  pairwise distinct, multi-member sets have at least 3 elements (so they
  are at Hamming distance >= 2 from every single-member set), sets dealt
  from the shuffled pools are mutually disjoint, and dedicated single
  users/permissions are used exactly once;
* every non-standalone user and permission is assigned somewhere
  (leftover pool entries are folded into normal roles at the end).

Planted duplicate/similar groups are pairs — the conservative reading the
paper itself uses for its "reduce roles by ~10%" estimate ("even if each
cluster contains only two roles").

Every role's user and permission sets are dealt first; the state is then
built in one :meth:`~repro.core.state.RbacState.from_arrays` call from
the id lists, each axis's sets as ``(role index, member index)`` arrays
and the role categories as role metadata (``attributes["category"]``),
with no per-item mutator call.  The RNG draws alone fix the content and
the id order: the test suite pins both the fingerprint and the
``encode_state`` blob of generated organisations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from repro.core.state import RbacState
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class PlantedCounts:
    """Ground-truth inefficiency counts (keys match ``Report.counts()``).

    Defaults are the paper's reported real-dataset figures.
    """

    standalone_users: int = 500
    standalone_permissions: int = 180_000
    standalone_roles: int = 0
    roles_without_users: int = 12_000
    roles_without_permissions: int = 1_000
    single_user_roles: int = 4_000
    single_permission_roles: int = 21_000
    roles_same_users: int = 8_000
    roles_same_permissions: int = 2_000
    roles_similar_users: int = 6_000
    roles_similar_permissions: int = 4_000

    def scaled(self, divisor: int) -> "PlantedCounts":
        """Divide every count by ``divisor`` (keeping pair counts even)."""
        def scale(value: int, even: bool = False) -> int:
            scaled_value = value // divisor
            if even and scaled_value % 2:
                scaled_value += 1
            return scaled_value

        return PlantedCounts(
            standalone_users=scale(self.standalone_users),
            standalone_permissions=scale(self.standalone_permissions),
            standalone_roles=scale(self.standalone_roles),
            roles_without_users=scale(self.roles_without_users),
            roles_without_permissions=scale(self.roles_without_permissions),
            single_user_roles=scale(self.single_user_roles),
            single_permission_roles=scale(self.single_permission_roles),
            roles_same_users=scale(self.roles_same_users, even=True),
            roles_same_permissions=scale(self.roles_same_permissions, even=True),
            roles_similar_users=scale(self.roles_similar_users, even=True),
            roles_similar_permissions=scale(
                self.roles_similar_permissions, even=True
            ),
        )

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class OrgProfile:
    """Full description of a synthetic organisation.

    Parameters
    ----------
    n_users, n_permissions, n_roles:
        Dataset totals.
    planted:
        Exact inefficiency counts to plant.
    user_set_size, permission_set_size:
        Inclusive size range of multi-member sets (minimum allowed is 3;
        see the module docstring for why).
    seed:
        RNG seed; generation is fully deterministic.
    """

    n_users: int
    n_permissions: int
    n_roles: int
    planted: PlantedCounts = PlantedCounts()
    user_set_size: tuple[int, int] = (3, 8)
    permission_set_size: tuple[int, int] = (3, 8)
    seed: int = 0

    @classmethod
    def paper_scale(cls, seed: int = 0) -> "OrgProfile":
        """The §IV-B scale: ~90k users, ~350k permissions, ~50k roles."""
        return cls(
            n_users=90_000,
            n_permissions=350_000,
            n_roles=50_000,
            planted=PlantedCounts(),
            seed=seed,
        )

    @classmethod
    def small(cls, divisor: int = 100, seed: int = 0) -> "OrgProfile":
        """A proportionally scaled-down profile for tests and examples."""
        return cls(
            n_users=90_000 // divisor,
            n_permissions=350_000 // divisor,
            n_roles=50_000 // divisor,
            planted=PlantedCounts().scaled(divisor),
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Derived block sizes
    # ------------------------------------------------------------------
    def block_sizes(self) -> dict[str, int]:
        """How many roles each construction block receives.

        Raises :class:`ConfigurationError` when the planted counts do not
        fit in the profile totals.
        """
        p = self.planted
        for name, value in p.as_dict().items():
            if value < 0:
                raise ConfigurationError(f"planted count {name} is negative")
        for name in (
            "roles_same_users",
            "roles_same_permissions",
            "roles_similar_users",
            "roles_similar_permissions",
        ):
            if getattr(p, name) % 2:
                raise ConfigurationError(
                    f"{name} must be even (groups are planted as pairs)"
                )
        if p.standalone_roles:
            raise ConfigurationError(
                "standalone_roles planting is expressed via n_roles; "
                "set it to 0 and use planting.add_standalone_role instead"
            )

        # Single-permission roles are drawn first from the user-axis group
        # blocks (those roles need *some* permission anyway), then from a
        # dedicated block; symmetrically for single-user roles.
        single_perm_overlap = min(
            p.single_permission_roles, p.roles_same_users + p.roles_similar_users
        )
        extra_single_perm = p.single_permission_roles - single_perm_overlap
        single_user_overlap = min(
            p.single_user_roles,
            p.roles_same_permissions + p.roles_similar_permissions,
        )
        extra_single_user = p.single_user_roles - single_user_overlap

        blocks = {
            "no_users": p.roles_without_users,
            "no_permissions": p.roles_without_permissions,
            "same_users": p.roles_same_users,
            "similar_users": p.roles_similar_users,
            "same_permissions": p.roles_same_permissions,
            "similar_permissions": p.roles_similar_permissions,
            "extra_single_permission": extra_single_perm,
            "extra_single_user": extra_single_user,
        }
        used = sum(blocks.values())
        if used > self.n_roles:
            raise ConfigurationError(
                f"planted roles ({used}) exceed n_roles ({self.n_roles})"
            )
        blocks["normal"] = self.n_roles - used

        if p.standalone_users > self.n_users:
            raise ConfigurationError("standalone_users exceeds n_users")
        if p.standalone_permissions > self.n_permissions:
            raise ConfigurationError(
                "standalone_permissions exceeds n_permissions"
            )
        if self.user_set_size[0] < 3 or self.permission_set_size[0] < 3:
            raise ConfigurationError(
                "multi-member set sizes must be >= 3 to keep them "
                "Hamming-separated from single-member sets"
            )
        if self.user_set_size[0] > self.user_set_size[1]:
            raise ConfigurationError("user_set_size range is inverted")
        if self.permission_set_size[0] > self.permission_set_size[1]:
            raise ConfigurationError("permission_set_size range is inverted")
        return blocks


@dataclass
class GeneratedOrg:
    """A generated organisation with its ground truth."""

    profile: OrgProfile
    state: RbacState
    expected: PlantedCounts

    def expected_counts(self) -> dict[str, int]:
        """Ground truth in the exact shape of ``Report.counts()``."""
        return self.expected.as_dict()


class _Pool:
    """Deals disjoint id sets from a shuffled pool, then unique random sets.

    While the pool lasts, returned sets are mutually disjoint (pairwise
    Hamming distance is the sum of their sizes).  Once exhausted, sets are
    drawn uniformly from the whole id universe, with a content registry
    rejecting exact repeats.  ``leftovers`` exposes ids never dealt, so the
    generator can fold them into existing roles for full coverage.
    """

    def __init__(
        self, ids: list[str], rng: np.random.Generator
    ) -> None:
        self._ids = list(ids)
        rng.shuffle(self._ids)  # type: ignore[arg-type]
        # ``rng.choice`` converts a list argument to an array on every
        # call, an O(universe) cost per draw; converting once removes it
        # with identical RNG consumption and results.
        self._choices = np.asarray(self._ids)
        self._cursor = 0
        self._rng = rng
        self._registry: set[frozenset[str]] = set()

    @property
    def universe_size(self) -> int:
        return len(self._ids)

    def register(self, members: frozenset[str]) -> None:
        """Record an externally built set, so future draws avoid it."""
        self._registry.add(members)

    def draw_set(self, size: int, max_attempts: int = 1000) -> frozenset[str]:
        """Deal a set of ``size`` ids (disjoint while the pool lasts)."""
        if size > len(self._ids):
            raise ConfigurationError(
                f"cannot draw a set of {size} from a universe of "
                f"{len(self._ids)}"
            )
        if self._cursor + size <= len(self._ids):
            members = frozenset(self._ids[self._cursor : self._cursor + size])
            self._cursor += size
            self._registry.add(members)
            return members
        for _attempt in range(max_attempts):
            members = frozenset(
                self._rng.choice(
                    self._choices, size=size, replace=False
                ).tolist()
            )
            if members in self._registry:
                continue
            self._registry.add(members)
            return members
        raise ConfigurationError("id universe too small for unique sets")

    def draw_one(self, max_attempts: int = 1000) -> str:
        """Deal one id to be used as a singleton set.

        While the pool lasts the id is fresh (never dealt before); after
        exhaustion an id is rejection-sampled so that its *singleton set*
        is unique (the id may still appear inside multi-member sets,
        which cannot create duplicate singletons).
        """
        if self._cursor < len(self._ids):
            value = self._ids[self._cursor]
            self._cursor += 1
            self._registry.add(frozenset((value,)))
            return value
        for _attempt in range(max_attempts):
            value = str(self._rng.choice(self._choices))
            singleton = frozenset((value,))
            if singleton in self._registry:
                continue
            self._registry.add(singleton)
            return value
        raise ConfigurationError("id universe exhausted for singleton sets")

    def extend_with_extra(
        self, members: frozenset[str]
    ) -> frozenset[str]:
        """``members`` plus one fresh id (for distance-1 similar pairs)."""
        if self._cursor < len(self._ids):
            extra = self._ids[self._cursor]
            self._cursor += 1
        else:
            for _attempt in range(1000):
                candidate = str(self._rng.choice(self._choices))
                if candidate not in members:
                    extra = candidate
                    break
            else:  # pragma: no cover - universe is never that tight
                raise ConfigurationError("cannot find an extra id")
        extended = members | {extra}
        self._registry.add(extended)
        return extended

    def leftovers(self) -> list[str]:
        """Ids never dealt (still needing coverage)."""
        return self._ids[self._cursor :]


def generate_org(profile: OrgProfile) -> GeneratedOrg:
    """Generate a full organisation according to ``profile``."""
    blocks = profile.block_sizes()
    planted = profile.planted
    rng = np.random.default_rng(profile.seed)

    user_width = max(5, len(str(profile.n_users)))
    role_width = max(5, len(str(profile.n_roles)))
    permission_width = max(6, len(str(profile.n_permissions)))
    user_ids = _numbered_ids("u", user_width, profile.n_users)
    role_ids = _numbered_ids("r", role_width, profile.n_roles)
    permission_ids = _numbered_ids("p", permission_width, profile.n_permissions)

    # Standalone entities: reserved, never assigned.
    usable_users = user_ids[: profile.n_users - planted.standalone_users]
    usable_permissions = permission_ids[
        : profile.n_permissions - planted.standalone_permissions
    ]
    if not usable_users or not usable_permissions:
        raise ConfigurationError(
            "profile leaves no usable users or permissions"
        )

    role_users, role_permissions, role_category = _deal_roles(
        profile, blocks, rng, role_ids, usable_users, usable_permissions
    )
    user_edges = _edge_arrays(role_ids, role_users, user_ids)
    permission_edges = _edge_arrays(role_ids, role_permissions, permission_ids)
    # The dealt sets go before the state is built, so the two are never
    # held at once.
    del role_users, role_permissions

    state = RbacState.from_arrays(
        user_ids,
        role_ids,
        permission_ids,
        user_edges,
        permission_edges,
        {
            "role": {
                role_id: ("", {"category": role_category[role_id]})
                for role_id in role_ids
            }
        },
    )
    return GeneratedOrg(profile=profile, state=state, expected=planted)


def _deal_roles(
    profile: OrgProfile,
    blocks: dict[str, int],
    rng: np.random.Generator,
    role_ids: list[str],
    usable_users: list[str],
    usable_permissions: list[str],
) -> tuple[
    dict[str, frozenset[str]], dict[str, frozenset[str]], dict[str, str]
]:
    """Deal every role its user set, permission set and category, block
    by block; returns ``(role_users, role_permissions, role_category)``."""
    planted = profile.planted
    user_pool = _Pool(usable_users, rng)
    permission_pool = _Pool(usable_permissions, rng)

    def user_set_size() -> int:
        low, high = profile.user_set_size
        return int(rng.integers(low, high + 1))

    def permission_set_size() -> int:
        low, high = profile.permission_set_size
        return int(rng.integers(low, high + 1))

    # role_id -> (user set, permission set, category)
    role_users: dict[str, frozenset[str]] = {}
    role_permissions: dict[str, frozenset[str]] = {}
    role_category: dict[str, str] = {}

    role_cursor = 0

    def next_role(category: str) -> str:
        nonlocal role_cursor
        role_id = role_ids[role_cursor]
        role_cursor += 1
        role_category[role_id] = category
        return role_id

    # Quotas of single-member sets still to hand out on each axis.
    single_perm_quota = planted.single_permission_roles
    single_user_quota = planted.single_user_roles

    def perm_side_for_group_role() -> frozenset[str]:
        """Permission set for a user-axis group member (single if quota)."""
        nonlocal single_perm_quota
        if single_perm_quota > 0:
            single_perm_quota -= 1
            return frozenset((permission_pool.draw_one(),))
        return permission_pool.draw_set(permission_set_size())

    def user_side_for_group_role() -> frozenset[str]:
        """User set for a permission-axis group member (single if quota)."""
        nonlocal single_user_quota
        if single_user_quota > 0:
            single_user_quota -= 1
            return frozenset((user_pool.draw_one(),))
        return user_pool.draw_set(user_set_size())

    # --- block 1: roles with permissions but no users ----------------------
    for _ in range(blocks["no_users"]):
        role_id = next_role("no_users")
        role_users[role_id] = frozenset()
        role_permissions[role_id] = permission_pool.draw_set(
            permission_set_size()
        )

    # --- block 2: roles with users but no permissions ----------------------
    for _ in range(blocks["no_permissions"]):
        role_id = next_role("no_permissions")
        role_users[role_id] = user_pool.draw_set(user_set_size())
        role_permissions[role_id] = frozenset()

    # --- block 3: pairs sharing the same user set ---------------------------
    for _pair in range(blocks["same_users"] // 2):
        shared_users = user_pool.draw_set(user_set_size())
        for _member in range(2):
            role_id = next_role("same_users")
            role_users[role_id] = shared_users
            role_permissions[role_id] = perm_side_for_group_role()

    # --- block 4: pairs with user sets at Hamming distance 1 ---------------
    for _pair in range(blocks["similar_users"] // 2):
        base_users = user_pool.draw_set(user_set_size())
        extended_users = user_pool.extend_with_extra(base_users)
        for members in (base_users, extended_users):
            role_id = next_role("similar_users")
            role_users[role_id] = members
            role_permissions[role_id] = perm_side_for_group_role()

    # --- block 5: pairs sharing the same permission set ---------------------
    for _pair in range(blocks["same_permissions"] // 2):
        shared_permissions = permission_pool.draw_set(permission_set_size())
        for _member in range(2):
            role_id = next_role("same_permissions")
            role_permissions[role_id] = shared_permissions
            role_users[role_id] = user_side_for_group_role()

    # --- block 6: pairs with permission sets at Hamming distance 1 ---------
    for _pair in range(blocks["similar_permissions"] // 2):
        base_permissions = permission_pool.draw_set(permission_set_size())
        extended_permissions = permission_pool.extend_with_extra(
            base_permissions
        )
        for grants in (base_permissions, extended_permissions):
            role_id = next_role("similar_permissions")
            role_permissions[role_id] = grants
            role_users[role_id] = user_side_for_group_role()

    # --- block 7: dedicated single-permission roles -------------------------
    for _ in range(blocks["extra_single_permission"]):
        role_id = next_role("single_permission")
        role_users[role_id] = user_pool.draw_set(user_set_size())
        role_permissions[role_id] = frozenset((permission_pool.draw_one(),))
        single_perm_quota -= 1

    # --- block 8: dedicated single-user roles --------------------------------
    for _ in range(blocks["extra_single_user"]):
        role_id = next_role("single_user")
        role_users[role_id] = frozenset((user_pool.draw_one(),))
        role_permissions[role_id] = permission_pool.draw_set(
            permission_set_size()
        )
        single_user_quota -= 1

    # --- block 9: normal (efficient) roles ----------------------------------
    normal_role_ids = []
    for _ in range(blocks["normal"]):
        role_id = next_role("normal")
        normal_role_ids.append(role_id)
        role_users[role_id] = user_pool.draw_set(user_set_size())
        role_permissions[role_id] = permission_pool.draw_set(
            permission_set_size()
        )

    # --- coverage: fold leftover pool ids into normal roles ------------------
    _fold_leftovers(user_pool.leftovers(), normal_role_ids, role_users, "users")
    _fold_leftovers(
        permission_pool.leftovers(),
        normal_role_ids,
        role_permissions,
        "permissions",
    )

    return role_users, role_permissions, role_category


def _numbered_ids(prefix: str, width: int, count: int) -> list[str]:
    """``prefix`` plus a zero-padded number, for ``0 .. count - 1``."""
    return list(map(f"{prefix}{{:0{width}d}}".format, range(count)))


def _edge_arrays(
    role_ids: list[str],
    assignment: dict[str, frozenset[str]],
    member_ids: list[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Each role's dealt set as ``(role index, member index)`` arrays."""
    index = dict(zip(member_ids, range(len(member_ids))))
    sets = [assignment[role_id] for role_id in role_ids]
    lengths = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    roles = np.repeat(np.arange(len(sets), dtype=np.int64), lengths)
    members = np.fromiter(
        map(index.__getitem__, chain.from_iterable(sets)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    return roles, members


def _fold_leftovers(
    leftovers: list[str],
    normal_role_ids: list[str],
    assignment: dict[str, frozenset[str]],
    noun: str,
) -> None:
    """Distribute never-dealt ids over normal roles for full coverage.

    Adding previously-unused ids to mutually-disjoint normal sets keeps
    them disjoint, so no new duplicate or similar pairs can appear.
    """
    if not leftovers:
        return
    if not normal_role_ids:
        raise ConfigurationError(
            f"{len(leftovers)} {noun} left unassigned but the profile has "
            "no normal roles to absorb them; raise n_roles or lower totals"
        )
    chunk = -(-len(leftovers) // len(normal_role_ids))  # ceil division
    cursor = 0
    for role_id in normal_role_ids:
        if cursor >= len(leftovers):
            break
        extra = leftovers[cursor : cursor + chunk]
        cursor += len(extra)
        assignment[role_id] = assignment[role_id] | set(extra)
