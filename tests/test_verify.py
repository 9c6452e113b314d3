"""Verification-check tests: comparison, Harnack, cutoff bound, eikonal."""

import heapq
import itertools
from dataclasses import replace

import numpy as np
import pytest

from infxlap import verify
from infxlap.expressions import parse
from infxlap.grid import (build_grid, identity_frame, make_frame,
                          riemannian_distance, sample_frame)
from infxlap.solvers import ProblemSpec, solve_dirichlet_infinity
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


def _heapq_distances(fr, g, source):
    """Binary-heap Dijkstra over the 8 neighbors, each edge weighed as
    ||(M^t)^{-1}(Q - P)|| with M the mean of the endpoint frames."""
    ny, nx = g.shape
    dist = np.full(g.shape, np.inf)
    dist[source[1], source[0]] = 0.0
    heap = [(0.0, source[1], source[0])]
    while heap:
        d, j, i = heapq.heappop(heap)
        if d > dist[j, i]:
            continue
        for dj, di in itertools.product((-1, 0, 1), repeat=2):
            jq, iq = j + dj, i + di
            if (dj, di) == (0, 0) or not (0 <= jq < ny and 0 <= iq < nx):
                continue
            mid = 0.5 * (fr.a[j, i] + fr.a[jq, iq])
            w = np.linalg.norm(np.linalg.solve(mid.T, [di * g.hx, dj * g.hy]))
            if d + w < dist[jq, iq]:
                dist[jq, iq] = d + w
                heapq.heappush(heap, (d + w, jq, iq))
    return dist


@pytest.mark.parametrize("sources", [(4, 11),
                                     [(0, 0), (20, 16), (10, 8), (3, 15)]])
def test_distances_match_heapq_oracle(sources):
    g, fr, _ = _lipschitz_problem("full")
    d = riemannian_distance(fr, g, sources)
    ref = [_heapq_distances(fr, g, s) for s in np.reshape(sources, (-1, 2))]
    np.testing.assert_allclose(d, np.reshape(ref, d.shape), rtol=1e-14,
                               atol=0.0)


@pytest.mark.parametrize("problem", ["varframe", "full"])
@pytest.mark.parametrize("sources", [(4, 11),
                                     [(0, 0), (20, 16), (10, 8), (3, 15)]])
def test_limited_distances_are_the_unlimited_within_the_limit(problem,
                                                              sources):
    g, fr, _ = _lipschitz_problem(problem)
    full = riemannian_distance(fr, g, sources)
    # a limit the search reaches exactly at one node at least
    limit = float(np.sort(full, axis=None)[full.size // 2])
    d = riemannian_distance(fr, g, sources, limit=limit)
    near = full <= limit
    assert np.array_equal(d[near], full[near])
    assert np.any(~near) and np.all(d[~near] == 1e300)


@pytest.mark.parametrize("limit", [np.nan, -1.0])
def test_nan_or_negative_limit_raises(limit):
    g, fr, _ = _lipschitz_problem("full")
    with pytest.raises(ValueError, match=f"limit must be >= 0, got {limit}"):
        riemannian_distance(fr, g, (4, 11), limit=limit)


def _per_source_lipschitz(g, fr, f, max_sources=64):
    """The largest quotient over every source and boundary target, each
    source searched alone and unbounded, and the distance of its pair."""
    nodes = [(int(i), int(j)) for j, i in np.argwhere(g.boundary_mask())]
    stride = -(-len(nodes) // max_sources)
    ref, far = 0.0, None
    for si, sj in nodes[::stride]:
        dist = riemannian_distance(fr, g, (si, sj))
        for ti, tj in nodes:
            if dist[tj, ti] > 0:
                q = abs(f[tj, ti] - f[sj, si]) / dist[tj, ti]
                if q > ref:
                    ref, far = q, dist[tj, ti]
    return ref, far


class TestLipschitz:
    def test_graph_built_once(self, graph_builds):
        g, fr, f = _lipschitz_problem("varframe")
        riemannian_distance(fr, g, (0, 0))
        assert lipschitz_constant(f, g, fr) == lipschitz_constant(f, g, fr)
        assert len(graph_builds) == 1 and graph_builds[0] is fr

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

        def counting(frame, grid, source, limit=np.inf):
            rows.extend(map(tuple, np.reshape(source, (-1, 2)).tolist()))
            return riemannian_distance(frame, grid, source, limit=limit)

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
        ref, _ = _per_source_lipschitz(g, fr, f, max_sources)
        assert lipschitz_constant(f, g, fr) == ref

    @pytest.mark.parametrize("problem", ["varframe", "full"])
    @pytest.mark.parametrize("data", ["noise", "smooth"])
    def test_matches_per_source_loop_on_random_data(self, problem, data):
        g, fr, _ = _lipschitz_problem(problem)
        rng = np.random.default_rng(30)
        if data == "noise":
            f = rng.uniform(-1.0, 1.0, size=g.shape)
        else:
            X, Y = g.meshgrid()
            c = rng.normal(size=(3, 4))
            f = sum(c[0, k] * np.sin(c[1, k] * X + c[2, k] * Y + k)
                    for k in range(4))
        assert lipschitz_constant(f, g, fr) == _per_source_lipschitz(g, fr,
                                                                     f)[0]

    def test_matches_per_source_loop_on_a_far_pair(self):
        # f is the boundary arc length from (1/2, 0), up to 2 at (1/2, 1):
        # along the boundary it climbs at most 1.5 per unit of frame
        # distance (up the side x = 1), while the pair straight across the
        # square quotients 2 / d((1/2, 0), (1/2, 1)) = 2 / 0.8 = 2.5
        g, fr, _ = _lipschitz_problem("varframe")
        X, Y = g.meshgrid()
        f = np.where(Y == 1.0, 2.0 - np.abs(X - 0.5), np.abs(X - 0.5) + Y)
        ref, far = _per_source_lipschitz(g, fr, f)
        assert ref == pytest.approx(2.5, rel=0.05)
        assert far > 0.6 * np.max(riemannian_distance(fr, g, (0, 0)))
        assert lipschitz_constant(f, g, fr) == ref

    def test_later_batches_stop_at_spread_over_best_so_far(self,
                                                           monkeypatch):
        calls = []

        def recording(frame, grid, source, limit=np.inf):
            d = riemannian_distance(frame, grid, source, limit=limit)
            calls.append((np.reshape(source, (-1, 2)), limit, d))
            return d

        monkeypatch.setattr(verify, "riemannian_distance", recording)
        g, fr, f = _lipschitz_problem("varframe")
        lipschitz_constant(f, g, fr)
        bnd = g.boundary_mask()
        diameter = np.max(riemannian_distance(fr, g, (0, 0)))
        assert len(calls) == 4 and calls[0][1] == np.inf
        best = 0.0
        for src, limit, d in calls:
            fs = f[src[:, 1], src[:, 0]]
            spread = np.max(np.abs(f[bnd] - fs[:, None]))
            if best > 0.0:
                # a pair farther than spread / best quotients below best
                assert spread / best <= limit < diameter
            db = d[:, bnd]
            best = max(best, np.max(np.abs(f[bnd] - fs[:, None])[db > 0] /
                                    db[db > 0]))

    def test_constant_data_makes_no_distance_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "riemannian_distance",
                            lambda *args, **kwargs: calls.append(args))
        g, fr, _ = _lipschitz_problem("varframe")
        assert lipschitz_constant(np.full(g.shape, -2.0), g, fr) == 0.0
        assert calls == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_boundary_value_named(self, value):
        g, fr, f = _lipschitz_problem("varframe")
        f[0, 3] = f[20, 0] = value
        with pytest.raises(ValueError, match=r"node \(i=3, j=0\) is not "
                                             r"finite"):
            lipschitz_constant(f, g, fr)

    def test_distances_come_through_the_module_seam(self, monkeypatch):
        # the benchmark times and perturbs distances by wrapping
        # verify.riemannian_distance; a path around it would escape both
        g, fr, f = _lipschitz_problem("varframe")
        base = lipschitz_constant(f, g, fr)
        monkeypatch.setattr(verify, "riemannian_distance",
                            lambda *args, **kwargs:
                            1.01 * riemannian_distance(*args, **kwargs))
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

    def test_ordered_data_probe_can_fail(self):
        # data ordered but not a shift: f and f + 0.1 max(0, x - 1/2) on the
        # varframe problem.  The solve commutes with adding a constant, so
        # only a probe like this one can fail; it does at tol = 1e-6, by a
        # discretization error that shrinks under refinement
        worst = []
        for n in (17, 33):
            g = unit_grid(n)
            X, Y = g.meshgrid()
            f = 1.0 + X / 4.0 + Y / 2.0
            spec = ProblemSpec(
                grid=g, frame=sample_frame(parse("1"), parse("0"), parse("0"),
                                           parse("1 + x/2"), g),
                p=2.0 + X ** 2 / 4.0, f=f)
            u, ru = solve_dirichlet_infinity(spec)
            v, rv = solve_dirichlet_infinity(
                replace(spec, f=f + 0.1 * np.maximum(0.0, X - 0.5)))
            assert ru.polish_accepted and rv.polish_accepted
            rep = check_comparison(u, v, g, tol=1e-6)
            assert rep.applicable and not rep.passed
            assert rep.worst_value == pytest.approx(-float(np.min(v - u)))
            worst.append(rep.worst_value)
        # measured: 1.06e-4 at (4, 13) and 6.76e-5 at (6, 24)
        assert 1e-5 < worst[1] < worst[0] < 1e-3


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

    @pytest.mark.parametrize("r", [0.0, -0.1])
    def test_radius_must_be_positive(self, r):
        g = unit_grid(17)
        with pytest.raises(ValueError, match=r"^need r > 0$"):
            harnack_constant(np.ones(g.shape), g, self._center_dist(g), r)


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

    def test_negative_cutoff_rejected(self):
        g = unit_grid(9)
        zeta = make_tent_cutoff(g)
        zeta[4, 4] = -0.5
        with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
            check_log_gradient_bound(np.ones(g.shape), zeta,
                                     np.full(g.shape, 2.0), identity_frame(g))


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
