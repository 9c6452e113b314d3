"""Verification-check tests: comparison, Harnack, cutoff bound, eikonal."""

import numpy as np
import pytest

from infxlap import verify
from infxlap.expressions import parse
from infxlap.grid import (build_grid, identity_frame, make_frame,
                          riemannian_distance, sample_frame)
from infxlap.solvers import ProblemSpec
from infxlap.verify import (CheckReport, check_comparison,
                            check_log_gradient_bound, eikonal_check,
                            harnack_constant, lipschitz_constant,
                            make_tent_cutoff, uniqueness_probe)


def unit_grid(n=17):
    return build_grid(0.0, 1.0, 0.0, 1.0, n, n)


def _lipschitz_problem(name):
    """The varframe-33 problem, or a 21x17 random full frame and data."""
    if name == "varframe":
        g = unit_grid(33)
        fr = sample_frame(parse("1"), parse("0"), parse("0"),
                          parse("1 + x/2"), g)
        X, Y = g.meshgrid()
        return g, fr, 1.0 + X / 4.0 + Y / 2.0
    g = build_grid(0.0, 1.2, 0.0, 0.8, 21, 17)
    rng = np.random.default_rng(21)
    fr = make_frame(g, 0.5 * rng.normal(size=(17, 21, 2, 2)) + 1.5 * np.eye(2))
    return g, fr, rng.normal(size=g.shape)


class TestLipschitz:
    def test_constant_zero(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        assert lipschitz_constant(np.full(g.shape, 3.0), g, fr) == 0.0

    def test_coordinate_function(self):
        g = unit_grid(17)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        c = lipschitz_constant(X, g, fr)
        # graph distance >= Euclidean, so the quotient never exceeds 1;
        # axis-aligned boundary pairs realize exactly 1
        assert 0.91 <= c <= 1.0 + 1e-12

    def test_frame_scaling(self):
        g = unit_grid(17)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        c1 = lipschitz_constant(X, g, fr)
        c2 = lipschitz_constant(X, g, fr.scaled(2.0))
        assert c2 == pytest.approx(2.0 * c1, rel=1e-12)

    def test_at_most_max_sources(self, monkeypatch):
        # 124 boundary nodes at 32^2: a floor stride of 1 would source all
        rows = []

        def counting(frame, grid, source):
            rows.extend(map(tuple, np.reshape(source, (-1, 2)).tolist()))
            return riemannian_distance(frame, grid, source)

        monkeypatch.setattr(verify, "riemannian_distance", counting)
        g = unit_grid(32)
        X, _ = g.meshgrid()
        lipschitz_constant(X, g, identity_frame(g))
        assert 0 < len(rows) <= 64
        assert len(set(rows)) == len(rows)

    # 64 is the number of sources lipschitz_constant takes at most
    @pytest.mark.parametrize("problem, max_sources",
                             [("varframe", 64), ("full", 64)])
    def test_matches_per_source_loop(self, problem, max_sources):
        g, fr, f = _lipschitz_problem(problem)
        nodes = [(int(i), int(j)) for j, i in np.argwhere(g.boundary_mask())]
        stride = -(-len(nodes) // max_sources)
        ref = 0.0
        for si, sj in nodes[::stride]:
            dist = riemannian_distance(fr, g, (si, sj))
            for ti, tj in nodes:
                if dist[tj, ti] > 0:
                    ref = max(ref, abs(f[tj, ti] - f[sj, si]) / dist[tj, ti])
        assert lipschitz_constant(f, g, fr) == ref

    def test_distances_come_through_the_module_seam(self, monkeypatch):
        # the benchmark times and perturbs distances by wrapping
        # verify.riemannian_distance; a path around it would escape both
        g, fr, f = _lipschitz_problem("varframe")
        base = lipschitz_constant(f, g, fr)
        monkeypatch.setattr(verify, "riemannian_distance",
                            lambda *args: 1.01 * riemannian_distance(*args))
        assert lipschitz_constant(f, g, fr) == pytest.approx(base / 1.01,
                                                             rel=1e-14)


class TestComparison:
    def test_reflexive(self):
        g = unit_grid(9)
        u = np.random.default_rng(0).normal(size=g.shape)
        assert check_comparison(u, u, g, tol=0.0).passed

    def test_uniform_shift(self):
        g = unit_grid(9)
        u = np.random.default_rng(1).normal(size=g.shape)
        assert check_comparison(u, u + 1.0, g, tol=0.0).passed

    def test_bump_violation_located(self):
        g = unit_grid(9)
        u = np.zeros(g.shape)
        v = np.zeros(g.shape)
        u[4, 5] = 0.5  # interior bump above v
        rep = check_comparison(u, v, g, tol=1e-12)
        assert not rep.passed
        assert rep.worst_node == (5, 4)
        assert rep.worst_value == pytest.approx(0.5)

    def test_boundary_violation_marked_inapplicable(self):
        g = unit_grid(9)
        u = np.zeros(g.shape)
        v = np.zeros(g.shape)
        u[0, 3] = 1.0  # boundary ordering broken
        rep = check_comparison(u, v, g, tol=1e-12)
        assert not rep.applicable and not rep.passed

    def test_antisymmetry_of_roles(self):
        g = unit_grid(9)
        rng = np.random.default_rng(2)
        u = rng.normal(size=g.shape)
        v = u + 0.5  # strict ordering both on boundary and interior
        assert check_comparison(u, v, g, tol=0.0).passed
        swapped = check_comparison(v, u, g, tol=0.0)
        assert not swapped.passed or not swapped.applicable


class TestHarnack:
    def _center_dist(self, g):
        return riemannian_distance(identity_frame(g), g, (8, 8))

    def test_constant_one(self):
        g = unit_grid(17)
        d = self._center_dist(g)
        c = harnack_constant(np.ones(g.shape), g, d, 0.2)
        assert c == pytest.approx(1.0 / 1.2, abs=1e-12)

    def test_constant_below_one(self):
        g = unit_grid(17)
        d = self._center_dist(g)
        for cval in (0.5, 2.0, 7.0):
            c = harnack_constant(np.full(g.shape, cval), g, d, 0.2)
            assert c == pytest.approx(cval / (cval + 0.2), abs=1e-12)
            assert c < 1.0

    def test_radius_monotone_for_constants(self):
        g = unit_grid(17)
        d = self._center_dist(g)
        u = np.full(g.shape, 3.0)
        assert harnack_constant(u, g, d, 0.15) > harnack_constant(u, g, d, 0.2)

    def test_scaling_identity(self):
        g = unit_grid(17)
        d = self._center_dist(g)
        rng = np.random.default_rng(3)
        u = 1.0 + rng.random(size=g.shape)
        r = 0.2
        for c in (0.5, 4.0):
            got = harnack_constant(c * u, g, d, r)
            ball = d <= r
            expect = float(np.max(c * u[ball]) / (np.min(c * u[ball]) + r))
            assert got == pytest.approx(expect, rel=1e-14)

    def test_ball_containment_enforced(self):
        g = unit_grid(17)
        d = self._center_dist(g)
        with pytest.raises(ValueError):
            harnack_constant(np.ones(g.shape), g, d, 0.45)

    def test_positivity_enforced(self):
        g = unit_grid(17)
        d = self._center_dist(g)
        u = np.ones(g.shape)
        u[8, 8] = -1.0
        with pytest.raises(ValueError):
            harnack_constant(u, g, d, 0.2)


class TestTentCutoff:
    def test_support_and_peak(self):
        g = unit_grid(17)
        z = make_tent_cutoff(g)
        assert np.all(z >= 0.0)
        assert float(np.max(z)) == 1.0
        bmask = g.boundary_mask()
        assert np.all(z[bmask] == 0.0)
        # first interior ring is also zero (compact support inset)
        assert np.all(z[1, :] == 0.0) and np.all(z[:, 1] == 0.0)
        assert np.all(z[-2, :] == 0.0) and np.all(z[:, -2] == 0.0)


class TestLogGradientBound:
    def test_zero_cutoff_passes(self):
        g = unit_grid(17)
        fr = identity_frame(g)
        u = np.full(g.shape, 2.0)
        p = np.full(g.shape, 2.0)
        rep = check_log_gradient_bound(u, np.zeros(g.shape), p, fr)
        assert rep.passed
        assert rep.stats["lhs_sup"] == 0.0

    def test_constant_u_constant_p(self):
        g = unit_grid(17)
        fr = identity_frame(g)
        u = np.full(g.shape, 5.0)
        p = np.full(g.shape, 2.0)
        rep = check_log_gradient_bound(u, make_tent_cutoff(g), p, fr)
        assert rep.passed
        assert rep.stats["lhs_sup"] == pytest.approx(0.0, abs=1e-20)

    def test_positivity_enforced(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        u = np.ones(g.shape)
        u[3, 3] = 0.0
        with pytest.raises(ValueError):
            check_log_gradient_bound(u, make_tent_cutoff(g),
                                     np.full(g.shape, 2.0), fr)


class TestUniqueness:
    def test_constant_data(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=np.full(g.shape, 2.0))
        rep = uniqueness_probe(spec)
        assert rep.passed
        assert rep.worst_value < 1e-6

    def test_jensen_starts_solved_through_the_module_seam(self, monkeypatch):
        # eps != 0 takes the same solve as eps = 0; the solve decides
        # what runs for which eps
        calls = []
        solve = verify.solve_dirichlet_infinity

        def counting(spec, init=None):
            calls.append(spec.epsilon)
            return solve(spec, init=init)

        monkeypatch.setattr(verify, "solve_dirichlet_infinity", counting)
        g = unit_grid(9)
        X, Y = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=identity_frame(g),
                           p=np.full(g.shape, 2.0), f=X + Y, epsilon=0.3)
        rep = uniqueness_probe(spec)
        assert calls == [0.3] * 3
        assert rep.stats["n_inits"] == 3


class TestEikonal:
    def test_euclidean_corner(self):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 65, 65)
        fr = identity_frame(g)
        d = riemannian_distance(fr, g, (0, 0))
        rep = eikonal_check(d, fr, exclusion_radius=0.2)
        assert rep.passed

    def test_scaling_cancellation_exact(self):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 33, 33)
        fr = identity_frame(g)
        d1 = riemannian_distance(fr, g, (0, 0))
        fr2 = fr.scaled(2.0)
        d2 = riemannian_distance(fr2, g, (0, 0))
        r1 = eikonal_check(d1, fr, exclusion_radius=0.2)
        r2 = eikonal_check(d2, fr2, exclusion_radius=0.1)
        assert r1.passed and r2.passed
        assert r1.worst_value == r2.worst_value

    def test_refinement_does_not_worsen(self):
        devs = []
        for n in (65, 129):
            g = build_grid(0.0, 1.0, 0.0, 1.0, n, n)
            fr = identity_frame(g)
            d = riemannian_distance(fr, g, (0, 0))
            devs.append(eikonal_check(d, fr, exclusion_radius=0.2).worst_value)
        assert devs[1] <= devs[0] + 1e-12

    def test_empty_selection_inapplicable(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        d = riemannian_distance(fr, g, (4, 4))
        rep = eikonal_check(d, fr, exclusion_radius=10.0)
        assert not rep.applicable


def test_report_format_contains_status():
    rep = CheckReport(name="demo", passed=True, worst_value=0.5, tol=1.0)
    assert "PASS" in rep.format()
    rep = CheckReport(name="demo", passed=False, worst_value=2.0, tol=1.0)
    assert "FAIL" in rep.format()
