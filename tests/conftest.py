"""Shared test configuration."""

from hypothesis import settings

# Property tests draw the same examples on every run, with no deadline and no
# example database, so the suite is deterministic and its timing cannot fail a
# test on a machine whose speed varies. Each test file sets its own example
# count on top: settings(settings.get_profile("deterministic"), max_examples=N).
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
