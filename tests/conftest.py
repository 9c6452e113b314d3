"""Test settings and fixtures shared by every module.

Hypothesis draws its examples from a seed derived from each test, so a
run of the suite draws the same examples every time and a failure
reproduces without the example database.
"""

import pytest
from hypothesis import settings

from infxlap import grid, solvers

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


@pytest.fixture
def tensor_builds(monkeypatch):
    """The frames whose Gauss-point metric is built while the test runs."""
    builds = []
    build = solvers._frame_tensor

    def counting(frame):
        builds.append(frame)
        return build(frame)

    monkeypatch.setattr(solvers, "_frame_tensor", counting)
    return builds


@pytest.fixture
def pattern_builds(monkeypatch):
    """The grids whose interior pattern is built while the test runs."""
    builds = []

    class Counting(solvers._InteriorPattern):
        def __init__(self, grid):
            builds.append(grid)
            super().__init__(grid)

    monkeypatch.setattr(solvers, "_InteriorPattern", Counting)
    return builds


@pytest.fixture
def factor_calls(monkeypatch):
    """The Hessian factorizations made while the test runs, one entry each:
    True on a band pattern, False on a nested-dissection one."""
    calls = []
    factor = solvers._InteriorPattern.factor

    def counting(pattern, data, run=None):
        calls.append(pattern.kd is not None)
        return factor(pattern, data, run)

    monkeypatch.setattr(solvers._InteriorPattern, "factor", counting)
    return calls


@pytest.fixture
def band_limit(monkeypatch):
    """``band_limit(m)`` sets the widest short interior side factored as a
    band (-1: none) for the grids whose pattern is built after it."""
    return lambda m: monkeypatch.setattr(solvers, "_BAND_MAX", m)
