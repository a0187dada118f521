"""Hypothesis draws the same examples on every run, so the suite is
reproducible; each test keeps its own ``max_examples`` and ``deadline``."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
