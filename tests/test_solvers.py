"""Inner linear solve, nonlinear iteration, and continuation tests."""

import numpy as np
import pytest

from infxlap.expressions import parse
from infxlap.grid import build_grid, identity_frame, sample_frame
from infxlap.operators import energy_functional, max_form_residual, \
    sup_extremal
from infxlap import solvers
from infxlap.solvers import (_DETA, _DXI, FactorizationError, PicardStall,
                             ProblemSpec, SolveReport, SolverConfig,
                             SolverError, _frame_metric_pack, _interp_gp,
                             _InteriorPattern, continue_k,
                             harmonic_extension, solve_dirichlet_infinity,
                             solve_jensen, solve_linear_weighted, solve_pk)


def unit_grid(n=17):
    return build_grid(0.0, 1.0, 0.0, 1.0, n, n)


def weighted_elements(pattern, frame, w):
    """Element matrices of u -> -div_X(w D_X u), as the linear solve builds
    them."""
    kpack = w[..., None] * _frame_metric_pack(frame)
    return _interp_gp(kpack, pattern.gidx).reshape(-1, 12) @ pattern.basis


def dense_assembly(gidx, ke, n_nodes):
    """Full matrix with ke[c, (a, b)] added at (gidx[c, a], gidx[c, b])."""
    mat = np.zeros((n_nodes, n_nodes))
    np.add.at(mat, (gidx[:, :, None], gidx[:, None, :]), ke.reshape(-1, 4, 4))
    return mat


class TestConfigValidation:
    def test_defaults_valid(self):
        SolverConfig()

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            SolverConfig(k_schedule=(4.0, 2.0))

    def test_damping_range(self):
        with pytest.raises(ValueError):
            SolverConfig(damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)

    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(picard_tol=-1e-8)

    def test_spec_rejects_small_p(self):
        g = unit_grid(5)
        with pytest.raises(ValueError):
            ProblemSpec(grid=g, frame=identity_frame(g),
                        p=np.full(g.shape, 1.5), f=np.zeros(g.shape))

    def test_spec_rejects_nonfinite_boundary(self):
        g = unit_grid(5)
        f = np.zeros(g.shape)
        f[0, 2] = np.inf
        with pytest.raises(ValueError):
            ProblemSpec(grid=g, frame=identity_frame(g),
                        p=np.full(g.shape, 2.0), f=f)


class TestLinearWeighted:
    def test_linear_data_exact(self):
        g = unit_grid()
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        u = solve_linear_weighted(np.ones(g.shape), np.zeros(g.shape), X,
                                  g, fr)
        assert np.max(np.abs(u - X)) < 1e-8

    def test_constant_data(self):
        g = unit_grid()
        fr = identity_frame(g)
        f = np.full(g.shape, 2.5)
        u = solve_linear_weighted(np.ones(g.shape), np.zeros(g.shape), f,
                                  g, fr)
        assert np.max(np.abs(u - 2.5)) < 1e-10

    def test_harmonic_polynomial(self):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 65, 65)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        f = X ** 2 - Y ** 2
        u = solve_linear_weighted(np.ones(g.shape), np.zeros(g.shape), f,
                                  g, fr)
        assert np.max(np.abs(u - f)) < 1e-6

    def test_rejects_nonpositive_weight(self):
        g = unit_grid(5)
        fr = identity_frame(g)
        w = np.ones(g.shape)
        w[2, 2] = 0.0
        with pytest.raises(ValueError):
            solve_linear_weighted(w, np.zeros(g.shape), np.zeros(g.shape),
                                  g, fr)

    def test_operator_symmetry(self):
        g = unit_grid(9)
        fr = sample_frame(parse("1"), parse("0"), parse("0"),
                          parse("1 + x/2"), g)
        rng = np.random.default_rng(0)
        w = 0.5 + rng.random(size=g.shape)
        pattern = _InteriorPattern(g)
        ke = weighted_elements(pattern, fr, w)
        mat = pattern.matrix(pattern.assemble(ke))
        u = rng.normal(size=pattern.n)
        v = rng.normal(size=pattern.n)
        lu_v = float((mat @ u) @ v)
        u_lv = float(u @ (mat @ v))
        assert lu_v == pytest.approx(u_lv, rel=1e-10)

    def test_maximum_principle_unit_weight(self):
        g = unit_grid()
        fr = identity_frame(g)
        rng = np.random.default_rng(5)
        f = rng.normal(size=g.shape)
        u = harmonic_extension(g, fr, f)
        bmask = g.boundary_mask()
        assert np.min(u) >= np.min(f[bmask]) - 1e-9
        assert np.max(u) <= np.max(f[bmask]) + 1e-9


class TestInteriorPattern:
    @pytest.fixture(params=[(9, 7), (7, 9)], ids=["9x7", "7x9"])
    def case(self, request):
        nx, ny = request.param
        g = build_grid(0.0, 1.0, 0.0, 1.5, nx, ny)
        fr = sample_frame(parse("1 + x/3"), parse("0.4*y"), parse("-0.3*x"),
                          parse("1 + y/2"), g)
        rng = np.random.default_rng(nx)
        return g, fr, rng, 0.5 + rng.random(size=g.shape)

    def test_element_matrices_match_gauss_sum(self, case):
        g, fr, _, w = case
        pattern = _InteriorPattern(g)
        cq = _interp_gp(w[..., None] * _frame_metric_pack(fr), pattern.gidx)
        bx, by = _DXI * (2.0 / g.hx), _DETA * (2.0 / g.hy)
        ref = g.hx * g.hy / 4.0 * (
            np.einsum("cq,qa,qb->cab", cq[..., 0], bx, bx)
            + np.einsum("cq,qa,qb->cab", cq[..., 1], bx, by)
            + np.einsum("cq,qa,qb->cab", cq[..., 1], by, bx)
            + np.einsum("cq,qa,qb->cab", cq[..., 2], by, by))
        got = (cq.reshape(-1, 12) @ pattern.basis).reshape(-1, 4, 4)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_block_matches_dense_assembly(self, case):
        g, fr, rng, w = case
        pattern = _InteriorPattern(g)
        inner = g.interior_mask().ravel()
        # the frame's element matrices are symmetric; random ones are not,
        # so a row/column swap in the scatter shows
        for ke in (weighted_elements(pattern, fr, w),
                   rng.normal(size=(len(pattern.gidx), 16))):
            ref = dense_assembly(pattern.gidx, ke, g.n_nodes)[inner][:, inner]
            got = pattern.matrix(pattern.assemble(ke)).toarray()
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(got - ref.T)) > 1e-2 * np.max(np.abs(ref))

    def test_lift_matches_boundary_columns(self, case):
        g, fr, rng, w = case
        pattern = _InteriorPattern(g)
        inner = g.interior_mask().ravel()
        f = rng.normal(size=g.n_nodes)
        for ke in (weighted_elements(pattern, fr, w),
                   rng.normal(size=(len(pattern.gidx), 16))):
            full = dense_assembly(pattern.gidx, ke, g.n_nodes)
            ref = full[inner][:, ~inner] @ f[~inner]
            got = pattern.lift(ke, f)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSolvePk:
    def test_constant_data_immediate(self):
        g = unit_grid()
        fr = identity_frame(g)
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=np.full(g.shape, 3.0))
        u, stats = solve_pk(spec, 4.0)
        assert np.max(np.abs(u - 3.0)) < 1e-12
        assert stats.iterations <= 1

    def test_plane_2harmonic(self):
        g = unit_grid()
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=X.copy())
        u, _ = solve_pk(spec, 1.0)
        assert np.max(np.abs(u - X)) < 1e-7

    def test_radial_4harmonic_oracle(self):
        # u = r^(2/3) = (x^2+y^2)^(1/3) is the radial p-harmonic profile
        # for p = 4 in two dimensions; [1,2]^2 avoids the origin
        g = build_grid(1.0, 2.0, 1.0, 2.0, 33, 33)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        exact = (X ** 2 + Y ** 2) ** (1.0 / 3.0)
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 4.0),
                           f=exact.copy())
        u, stats = solve_pk(spec, 1.0)
        assert np.max(np.abs(u - exact)) <= 5e-2
        assert stats.weak_residual < 1e-10

    def test_energy_not_worse_than_perturbations(self):
        g = unit_grid()
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        f = X + 0.3 * Y
        p = np.full(g.shape, 2.0)
        spec = ProblemSpec(grid=g, frame=fr, p=p, f=f.copy())
        k = 2.0
        warm = harmonic_extension(g, fr, f)
        u, _ = solve_pk(spec, k, init=warm)
        e_sol = energy_functional(u, fr, p, k)
        assert e_sol <= energy_functional(warm, fr, p, k) + 1e-6
        bump = np.sin(np.pi * X) * np.sin(np.pi * Y)
        rng = np.random.default_rng(6)
        for _ in range(10):
            pert = u + 0.1 * float(rng.uniform(0.5, 1.5)) * bump
            assert e_sol <= energy_functional(pert, fr, p, k) + 1e-6

    def test_stall_reported_with_history(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        cfg = SolverConfig(picard_max_iter=1, picard_tol=1e-14)
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=(X ** 2 + Y ** 2), config=cfg)
        with pytest.raises(PicardStall) as exc:
            solve_pk(spec, 8.0)
        assert exc.value.k == 8.0
        assert len(exc.value.history) >= 1

    def test_factorization_failure_named(self, monkeypatch):
        g = unit_grid(9)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=(X ** 2 + Y ** 2))
        warm = harmonic_extension(g, fr, spec.f)

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solvers, "splu", singular)
        with pytest.raises(FactorizationError) as exc:
            solve_pk(spec, 8.0, init=warm)
        assert isinstance(exc.value, SolverError)
        assert exc.value.k == 8.0
        assert exc.value.iteration >= 0
        assert "exactly singular" in str(exc.value)


class TestContinuation:
    def test_constant_all_gaps_zero(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=np.full(g.shape, 1.0))
        u, report = continue_k(spec)
        assert np.max(np.abs(u - 1.0)) < 1e-12
        assert all(gap < 1e-12 for gap in report.gaps)

    def test_empty_schedule_rejected(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        cfg = SolverConfig()
        cfg.k_schedule = ()  # mutate after construction to bypass validation
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=np.zeros(g.shape), config=cfg)
        with pytest.raises(ValueError):
            continue_k(spec)

    def test_report_format_mentions_every_k(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        cfg = SolverConfig(k_schedule=(2.0, 4.0), polish_sweeps=0)
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=X.copy(), config=cfg)
        _, report = continue_k(spec)
        text = report.format()
        assert "k=2" in text and "wall_time" in text
        # the count includes Newton steps, not only Picard sweeps
        assert " iterations=" in text and "picard" not in text

    def test_sup_extremal_improves_along_continuation(self):
        g = build_grid(1.0, 2.0, 1.0, 2.0, 33, 33)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        f = X ** (4.0 / 3.0) - Y ** (4.0 / 3.0)
        p = np.full(g.shape, 2.0)
        spec = ProblemSpec(grid=g, frame=fr, p=p, f=f.copy())
        u_first, _ = solve_pk(spec, spec.config.k_schedule[0])
        u_inf, _ = continue_k(spec)
        assert sup_extremal(u_inf, fr, p) <= \
            sup_extremal(u_first, fr, p) + 0.05


class TestJensen:
    def test_eps_zero_same_as_continuation(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=X.copy(), epsilon=0.0)
        u1, _ = continue_k(spec)
        u2, _ = solve_jensen(spec)
        assert np.array_equal(u1, u2)

    def test_max_form_mirror(self):
        # eps = -1 with f = -x: the max-form residual of the output is small
        g = build_grid(0.0, 1.0, 0.0, 1.0, 33, 33)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        p = np.full(g.shape, 2.0)
        spec = ProblemSpec(grid=g, frame=fr, p=p, f=(-X).copy(),
                           epsilon=-1.0)
        u, _ = solve_jensen(spec)
        res = max_form_residual(u, fr, p, 1.0)
        assert np.max(np.abs(res[1:-1, 1:-1])) <= 5e-2


class TestDirichletInfinity:
    def test_requires_eps_zero(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=np.zeros(g.shape), epsilon=1.0)
        with pytest.raises(ValueError):
            solve_dirichlet_infinity(spec)

    def test_unit_plane_any_p(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=fr, p=(2.0 + X ** 2), f=X.copy())
        u, report = solve_dirichlet_infinity(spec)
        assert np.max(np.abs(u - X)) < 1e-6
        assert isinstance(report, SolveReport)

    def test_comparison_shift(self):
        g = unit_grid(9)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        f = np.cos(2 * X) + 0.5 * Y
        p = 2.0 + X ** 2
        u, _ = solve_dirichlet_infinity(
            ProblemSpec(grid=g, frame=fr, p=p, f=f.copy()))
        v, _ = solve_dirichlet_infinity(
            ProblemSpec(grid=g, frame=fr, p=p, f=(f + 0.1)))
        # raising the boundary data never lowers the solution anywhere
        assert np.min(v - u) > -1e-6
