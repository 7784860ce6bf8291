"""Shared test settings.

The property tests run under one registered Hypothesis profile: examples
are derived from the test itself rather than a random seed, so every run
of the suite checks the same cases, and no example database is written.
"""

from hypothesis import settings

settings.register_profile("casimetry", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("casimetry")
