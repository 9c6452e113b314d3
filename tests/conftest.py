"""Test settings shared by every module.

Hypothesis draws its examples from a seed derived from each test, so a
run of the suite draws the same examples every time and a failure
reproduces without the example database.
"""

from hypothesis import settings

settings.register_profile("infxlap", derandomize=True, deadline=None)
settings.load_profile("infxlap")
