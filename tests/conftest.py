"""Test-session settings: Hypothesis draws a fixed sequence of examples and
keeps no example database, so a tier-1 run is reproducible and its time is
bounded."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=300)
settings.load_profile("tier1")
