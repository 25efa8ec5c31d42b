"""Shared test settings.

Hypothesis draws its examples from a seed derived from each test function
(``derandomize``, which also turns off the example database), so every run
checks the same examples, like the pinned seeds of the other randomized
tests. ``deadline=None`` keeps a slow host from failing a correct example.
"""

from hypothesis import settings

settings.register_profile("pinned", derandomize=True, deadline=None)
settings.load_profile("pinned")
