"""Settings shared by every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def _at_most_two_cpus(monkeypatch):
    """A command run in process takes a worker per CPU it may run on by
    default; the tests see at most two of them, so that no in-process run
    forks more than one child on a large machine.  A test that patches a
    count of its own overrides this one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = set(sorted(os.sched_getaffinity(0))[:2])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
