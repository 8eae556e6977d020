"""Shared test configuration."""

import os

import pytest
from hypothesis import settings

from headlab import parallel

# Property tests draw the same examples on every run, with no deadline and no
# example database, so the suite is deterministic and its timing cannot fail a
# test on a machine whose speed varies. Each test file sets its own example
# count on top: settings(settings.get_profile("deterministic"), max_examples=N).
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)


@pytest.fixture()
def two_cpus(monkeypatch):
    """The real `parallel.cpu_budget` reads two CPUs: budget 2, whatever the
    machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert parallel.cpu_budget() == 2
