"""Shared test settings: one deterministic hypothesis profile.

``derandomize`` fixes the examples each property test draws, so a run of
the suite is reproducible; ``max_examples`` bounds the time the property
tests add.
"""

from hypothesis import settings

settings.register_profile("trilevel", derandomize=True, deadline=None,
                          max_examples=500, database=None)
settings.load_profile("trilevel")
