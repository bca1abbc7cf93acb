"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

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
def spy_threads(monkeypatch):
    """Record ``max_workers`` of every thread pool the scan builds.

    Returns the list it records into.  While installed, starting a child
    process (``multiprocessing`` or ``os.fork``) fails the test, so a
    scan that fans out provably stays inside this process.
    """
    import multiprocessing.process

    import repro.core.grouping.cooccurrence as scan_module

    real_executor = scan_module.ThreadPoolExecutor
    built: list[int] = []

    def spy_executor(max_workers, **kwargs):
        built.append(max_workers)
        return real_executor(max_workers=max_workers, **kwargs)

    def no_child_process(*args, **kwargs):
        raise AssertionError("the scan must not start a child process")

    monkeypatch.setattr(scan_module, "ThreadPoolExecutor", spy_executor)
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", no_child_process
    )
    monkeypatch.setattr(os, "fork", no_child_process)
    return built
