"""Shared test settings and helpers.

Hypothesis draws its examples from a seed derived from each test function
(``derandomize``, which also turns off the example database), so every run
checks the same examples, like the pinned seeds of the other randomized
tests. ``deadline=None`` keeps a slow host from failing a correct example.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("pinned", derandomize=True, deadline=None)
settings.load_profile("pinned")


@pytest.fixture
def traced_peak():
    """``peak(fn)``: the most bytes tracemalloc saw allocated while ``fn()``
    ran. Run ``fn`` once before, so that caches and imports stay out."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
