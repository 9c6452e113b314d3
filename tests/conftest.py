"""Test settings and fixtures shared by every module.

Hypothesis draws its examples from a seed derived from each test, so a
run of the suite draws the same examples every time and a failure
reproduces without the example database.
"""

import pytest
from hypothesis import settings

from infxlap import grid

settings.register_profile("infxlap", derandomize=True, deadline=None)
settings.load_profile("infxlap")


@pytest.fixture
def graph_builds(monkeypatch):
    """The frames whose distance graph is built while the test runs."""
    builds = []
    build = grid._distance_graph

    def counting(frame):
        builds.append(frame)
        return build(frame)

    monkeypatch.setattr(grid, "_distance_graph", counting)
    return builds
