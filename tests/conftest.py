"""Hypothesis profile for the test suite.

The seeded random-value generators live in `excalc.verify`, next to the
identity relations they feed.
"""

from __future__ import annotations

from hypothesis import settings

# Property tests draw the same bounded set of examples on every run, so the
# suite is reproducible and its wall time does not drift.
settings.register_profile(
    "excalc", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("excalc")
