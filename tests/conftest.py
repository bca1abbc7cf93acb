"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import time

import pytest

from repro.core.state import RbacState


@pytest.fixture
def empty_state() -> RbacState:
    return RbacState()


@pytest.fixture
def paper_example() -> RbacState:
    """The worked example of Figure 1.

    * P01 is a standalone permission;
    * R02 has users but no permissions; R03 has permissions but no users;
    * R01 and R05 each have a single user;
    * R02 and R04 share the same users; R04 and R05 share the same
      permissions;
    * the RUAM co-occurrence matrix matches the one printed in §III-C
      (|R01|=1, |R02|=2, |R03|=0, |R04|=2, |R05|=1, g(R02,R04)=2).
    """
    return RbacState.build(
        users=["U01", "U02", "U03", "U04"],
        roles=["R01", "R02", "R03", "R04", "R05"],
        permissions=["P01", "P02", "P03", "P04", "P05", "P06"],
        user_assignments=[
            ("R01", "U01"),
            ("R02", "U02"),
            ("R02", "U03"),
            ("R04", "U02"),
            ("R04", "U03"),
            ("R05", "U04"),
        ],
        permission_assignments=[
            ("R01", "P02"),
            ("R01", "P03"),
            ("R03", "P03"),
            ("R03", "P04"),
            ("R04", "P05"),
            ("R04", "P06"),
            ("R05", "P05"),
            ("R05", "P06"),
        ],
    )


@pytest.fixture
def small_org_state() -> RbacState:
    """A small planted organisation shared by integration-style tests."""
    from repro.datagen import OrgProfile, generate_org

    return generate_org(OrgProfile.small(divisor=200, seed=11)).state


@pytest.fixture
def spy_executors(monkeypatch):
    """Record ``max_workers`` of every ProcessPoolExecutor a pool builds.

    Call it (optionally with a constructor ``delay`` in seconds) to
    install the spy; it returns the list it records into.  A request for
    more processes than cores is refused with ``OSError`` (as a sandbox
    would) instead of forked, so a regression of the pool's core-count
    cap cannot exhaust the host's processes while the test runs.
    """
    import repro.parallel.pool as pool_module

    real_executor = pool_module.ProcessPoolExecutor

    def install(delay: float = 0.0) -> list[int]:
        built: list[int] = []

        def spy_executor(max_workers):
            built.append(max_workers)
            time.sleep(delay)
            if max_workers > (os.cpu_count() or 1):
                raise OSError(f"refusing to start {max_workers} processes")
            return real_executor(max_workers=max_workers)

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", spy_executor)
        return built

    return install
