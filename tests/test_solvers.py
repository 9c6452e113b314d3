"""Harmonic extension, Newton iteration, and continuation tests."""

import numpy as np
import pytest

from infxlap.expressions import parse
from infxlap.grid import (build_grid, identity_frame, riemannian_gradient,
                          sample_frame)
from infxlap.operators import max_form_residual
from infxlap import solvers
from infxlap.solvers import (_DETA, _DXI, FactorizationError, NewtonStall,
                             ProblemSpec, SolveReport, SolverConfig,
                             SolverError, _EnergyModel, _frame_metric_pack,
                             _frame_tensor, _interp_gp, _InteriorPattern,
                             _nested_dissection, continue_k,
                             _polish_newton, harmonic_extension,
                             solve_dirichlet_infinity, solve_pk)


def unit_grid(n=17):
    return build_grid(0.0, 1.0, 0.0, 1.0, n, n)


def weighted_elements(pattern, frame, w):
    """Element matrices of u -> -div_X(w D_X u) on the pattern's basis."""
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

    def test_negative_polish_cap_rejected(self):
        with pytest.raises(ValueError, match="polish_sweeps"):
            SolverConfig(polish_sweeps=-3)
        SolverConfig(polish_sweeps=0)   # 0 skips the polish

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
    """The w = 1 problem (the harmonic extension) and the symmetry of the
    weighted operator."""

    def test_linear_data_exact(self):
        g = unit_grid()
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        u = harmonic_extension(g, fr, X)
        assert np.max(np.abs(u - X)) < 1e-8

    def test_constant_data(self):
        g = unit_grid()
        fr = identity_frame(g)
        u = harmonic_extension(g, fr, np.full(g.shape, 2.5))
        assert np.max(np.abs(u - 2.5)) < 1e-10

    def test_harmonic_polynomial(self):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 65, 65)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        f = X ** 2 - Y ** 2
        u = harmonic_extension(g, fr, f)
        assert np.max(np.abs(u - f)) < 1e-6

    def test_nan_interior_ignored(self):
        # only the boundary of f is read; the Newton step starts from an
        # interior of zeros
        g = unit_grid(9)
        fr = sample_frame(parse("1"), parse("0"), parse("0"),
                          parse("1 + x/2"), g)
        X, Y = g.meshgrid()
        f = 1.0 + X / 4.0 + Y * Y
        bmask = g.boundary_mask()
        u = harmonic_extension(g, fr, np.where(bmask, f, np.nan))
        assert np.all(np.isfinite(u))
        assert np.array_equal(u[bmask], f[bmask])
        assert np.max(np.abs(u - harmonic_extension(g, fr, f))) < 1e-13

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
        inner = pattern.interior
        # the frame's element matrices are symmetric; random ones are not,
        # so a row/column swap in the scatter shows
        for ke in (weighted_elements(pattern, fr, w),
                   rng.normal(size=(len(pattern.gidx), 16))):
            ref = dense_assembly(pattern.gidx, ke, g.n_nodes)[inner][:, inner]
            got = pattern.matrix(pattern.assemble(ke)).toarray()
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(got - ref.T)) > 1e-2 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (7, 9),
                                       (47, 47)])
    def test_nested_dissection_is_a_permutation(self, shape):
        order = _nested_dissection(*shape)
        assert np.array_equal(np.sort(order), np.arange(shape[0] * shape[1]))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (2, 9), (7, 7),
                                       (9, 9), (8, 8), (16, 16), (5, 12),
                                       (12, 5), (31, 47), (64, 33)])
    def test_nested_dissection_matches_recursive_reference(self, shape):
        # George's recursion, halves first and the separator after them
        def order(ids):
            if ids.size <= 2:
                return [ids.ravel()]
            ids = ids.T if ids.shape[1] > ids.shape[0] else ids
            s = len(ids) // 2
            return order(ids[:s]) + order(ids[s + 1:]) + [ids[s]]
        ref = np.concatenate(order(np.arange(shape[0] * shape[1])
                                   .reshape(shape)))
        assert np.array_equal(_nested_dissection(*shape), ref)

    def test_interior_numbered_in_nested_dissection_order(self):
        g = build_grid(0.0, 1.0, 0.0, 1.5, 9, 7)
        pattern = _InteriorPattern(g)
        rowmajor = np.flatnonzero(g.interior_mask())
        assert np.array_equal(pattern.interior,
                              rowmajor[_nested_dissection(5, 7)])

    def test_built_once_per_continuation(self, monkeypatch):
        builds = []

        class Counting(_InteriorPattern):
            def __init__(self, grid):
                builds.append(grid)
                super().__init__(grid)

        monkeypatch.setattr(solvers, "_InteriorPattern", Counting)
        solvers._interior_pattern.cache_clear()
        g = unit_grid(9)
        X, Y = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=identity_frame(g), p=2.0 + X ** 2,
                           f=X + Y ** 2)
        _, report = continue_k(spec)
        assert len(report.per_k) > 1
        assert builds == [g]


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
        bump = np.sin(np.pi * X) * np.sin(np.pi * Y)
        # the harmonic extension of linear data is already the minimizer;
        # start away from it so Newton has work to do
        start = harmonic_extension(g, fr, f) + 0.05 * bump
        u, _ = solve_pk(spec, k, init=start)
        # the energy Newton minimizes, at one frozen normalization
        model = _EnergyModel(spec, k, _frame_tensor(spec.frame))
        logs = model.evaluate(u).log_scale
        energy = lambda v: model.energy(model.evaluate(v), logs)  # noqa: E731
        e_sol = energy(u)
        assert e_sol <= energy(start)
        rng = np.random.default_rng(6)
        for _ in range(10):
            pert = u + 0.1 * float(rng.uniform(0.5, 1.5)) * bump
            assert e_sol <= energy(pert)

    def test_stall_reported_with_history(self, monkeypatch):
        g = unit_grid(9)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=(X ** 2 + Y ** 2))
        monkeypatch.setattr(solvers, "_NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(solvers, "_NEWTON_TOL", 1e-14)
        with pytest.raises(NewtonStall) as exc:
            solve_pk(spec, 8.0)
        assert isinstance(exc.value, SolverError)
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
        assert exc.value.history == []
        assert "exactly singular" in str(exc.value)

    def test_ascent_direction_named(self, monkeypatch):
        # factors whose solves come back negated give ascent directions:
        # Newton stops and says so instead of falling back to steepest
        # descent
        g = unit_grid(9)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                           f=(X ** 2 + Y ** 2))
        warm = harmonic_extension(g, fr, spec.f)
        real = solvers.splu

        class Negated:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return -self.lu.solve(b)

        monkeypatch.setattr(solvers, "splu",
                            lambda *a, **kw: Negated(real(*a, **kw)))
        with pytest.raises(NewtonStall) as exc:
            continue_k(spec, init=warm)
        assert exc.value.k == spec.config.k_schedule[0]
        assert exc.value.reason == "no descent direction"
        assert "no descent direction" in str(exc.value)
        assert exc.value.history == []
        assert np.array_equal(exc.value.u, warm)


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
        assert " iterations=" in text and "picard" not in text

    def test_sup_extremal_improves_along_continuation(self):
        def sup_extremal(u, fr, p):
            """max over interior nodes of ||D_X u||^{p(x)}"""
            g = riemannian_gradient(u, fr)
            n = np.sqrt(g[..., 0] ** 2 + g[..., 1] ** 2)
            return float(np.max(n[1:-1, 1:-1] ** p[1:-1, 1:-1]))

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
    def test_max_form_mirror(self):
        # eps = -1 with f = -x: the max-form residual of the output is small
        g = build_grid(0.0, 1.0, 0.0, 1.0, 33, 33)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        p = np.full(g.shape, 2.0)
        spec = ProblemSpec(grid=g, frame=fr, p=p, f=(-X).copy(),
                           epsilon=-1.0)
        u, _ = continue_k(spec)
        res = max_form_residual(u, fr, p, 1.0)
        assert np.max(np.abs(res[1:-1, 1:-1])) <= 5e-2


class TestDirichletInfinity:
    def test_jensen_returns_continuation_unpolished(self):
        # eps != 0 poses Jensen's auxiliary equation, which the polish of
        # the eps = 0 residual does not solve
        g = unit_grid(9)
        X, Y = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=identity_frame(g),
                           p=2.0 + X ** 2, f=X + 0.5 * Y, epsilon=0.3)
        u, report = solve_dirichlet_infinity(spec)
        u_cont, report_cont = continue_k(spec)
        assert np.array_equal(u, u_cont)
        assert report.per_k == report_cont.per_k
        assert report.polish_initial is None and report.polish_steps == 0
        assert "polish" not in report.format()

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


def _varframe(n=33, epsilon=0.0):
    """The problem of configs/variable_frame.ini at n x n."""
    g = unit_grid(n)
    fr = sample_frame(parse("1"), parse("0"), parse("0"), parse("1 + x/2"), g)
    X, Y = g.meshgrid()
    return ProblemSpec(grid=g, frame=fr, p=2.0 + X ** 2 / 4.0,
                       f=1.0 + X / 4.0 + Y / 2.0, epsilon=epsilon)


def _saddle():
    """A saddle whose equation degenerates at its critical point."""
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33)
    X, Y = g.meshgrid()
    return ProblemSpec(grid=g, frame=identity_frame(g), p=2.0 + X ** 2 / 4.0,
                       f=X ** 2 - Y ** 2 + 0.3 * X * Y)


class TestPolish:
    def test_saddle_rejected_keeps_continuation_field(self):
        # the equation degenerates at the critical point of the saddle:
        # Newton does not reach the discrete zero within the step cap
        spec = _saddle()
        g = spec.grid
        u, report = solve_dirichlet_infinity(spec)
        u_cont, _ = continue_k(spec)
        assert np.array_equal(u, u_cont)
        assert report.polish_accepted is False
        assert report.polish_stop in ("step cap", "line search failed")
        assert 0 < report.polish_steps <= spec.config.polish_sweeps
        assert report.polish_final >= solvers._POLISH_TOL
        i, j = report.polish_worst
        assert 0 < i < g.nx - 1 and 0 < j < g.ny - 1
        assert f"worst node (i={i}, j={j})" in report.format()
        assert "rejected" in report.format()

    def test_converged_polish_reported(self):
        spec = _varframe()
        u, report = solve_dirichlet_infinity(spec)
        res = solvers.infinity_x_residual_field(u, spec.frame, spec.p)
        assert report.polish_accepted is True
        assert report.polish_stop == "converged"
        assert 0 < report.polish_steps <= spec.config.polish_sweeps
        assert float(np.max(np.abs(res))) == report.polish_final
        assert report.polish_final < solvers._POLISH_TOL
        assert "accepted" in report.format()

    def test_polish_reuses_jacobian_factors(self, monkeypatch):
        # chord steps: the polish factors its Jacobian less often than it
        # steps (it factored once per step before the factors were reused)
        calls = []
        real = solvers.splu

        def counting(*args, **kwargs):
            calls.append(kwargs.get("permc_spec"))
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "splu", counting)
        spec = _varframe()
        _, report = solve_dirichlet_infinity(spec)
        assert report.polish_accepted is True
        assert calls.count("MMD_AT_PLUS_A") == report.polish_factorizations
        assert 0 < report.polish_factorizations < report.polish_steps
        assert (f"after {report.polish_steps} Newton steps "
                f"({report.polish_factorizations} factorizations)"
                in report.format())

    def test_start_independent(self):
        # Newton from the harmonic extension alone and from the
        # continuation field lands on the same discrete zero
        spec = _varframe()
        starts = [harmonic_extension(spec.grid, spec.frame, spec.f),
                  continue_k(spec)[0]]
        reports = [SolveReport(), SolveReport()]
        out = [_polish_newton(u, spec.frame, spec.p, 20, report)
               for u, report in zip(starts, reports)]
        assert all(report.polish_accepted for report in reports)
        assert np.max(np.abs(out[0] - out[1])) <= 1e-9

    def test_failed_factorization_returns_start(self, monkeypatch):
        spec = _varframe()
        u0 = harmonic_extension(spec.grid, spec.frame, spec.f)

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(solvers, "splu", singular)
        report = SolveReport()
        u = _polish_newton(u0, spec.frame, spec.p, 20, report)
        assert u is u0 and report.polish_accepted is False
        assert report.polish_final == report.polish_initial
        assert report.polish_steps == 0
        assert report.polish_stop.startswith("factorization failed")

    def test_second_order_on_aronsson(self):
        # the discrete zero converges at h^2, below the continuation's
        # k-truncation floor (~7e-5 at every size); the 129^2 Newton
        # starts from the exact data to keep the test short
        errors = []
        for n in (33, 65, 129):
            g = build_grid(1.0, 2.0, 1.0, 2.0, n, n)
            X, Y = g.meshgrid()
            exact = X ** (4.0 / 3.0) - Y ** (4.0 / 3.0)
            spec = ProblemSpec(grid=g, frame=identity_frame(g),
                               p=np.full(g.shape, 2.0), f=exact.copy())
            if n < 129:
                u, report = solve_dirichlet_infinity(spec)
            else:
                report = SolveReport()
                u = _polish_newton(exact, spec.frame, spec.p, 20, report)
            assert report.polish_accepted
            errors.append(float(np.max(np.abs(u - exact))))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert min(ratios) >= 3.5, (errors, ratios)


class TestPredictorCorrector:
    """Secant-predicted starts along the k schedule, guarded by energy."""

    @pytest.mark.parametrize("n", [17, 33])
    def test_fields_match_plain_warm_starts(self, n, monkeypatch):
        # each k's minimizer and every gap are those of a loop that starts
        # each k from the last minimizer
        spec = _varframe(n)
        fields, real = [], solvers._newton

        def recording(model, u, max_steps):
            out = real(model, u, max_steps)
            fields.append(out[0].u)
            return out

        monkeypatch.setattr(solvers, "_newton", recording)
        _, report = continue_k(spec)
        monkeypatch.undo()
        assert "secant" in [s.start for s in report.per_k]
        assert len(fields) == len(report.per_k)
        u, gaps = None, []
        for k, got in zip(spec.config.k_schedule, fields):
            prev, (u, _) = u, solve_pk(spec, k, init=u)
            assert np.max(np.abs(got - u)) <= 1e-8, k
            if prev is not None:
                gaps.append(float(np.max(np.abs(u - prev))))
        assert np.allclose(report.gaps, gaps, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("problem", [lambda: _varframe(17), _saddle],
                             ids=["varframe17", "saddle"])
    def test_starts_never_raise_the_energy(self, problem, monkeypatch):
        # the start Newton takes at each k has a k-energy no higher than
        # the previous minimizer's, at one normalization
        runs, real = [], solvers._newton

        def recording(model, u, max_steps):
            out = real(model, u, max_steps)
            runs.append((model, u.copy(), out[0].u))
            return out

        monkeypatch.setattr(solvers, "_newton", recording)
        _, report = continue_k(problem())
        assert "secant" in [s.start for s in report.per_k]
        for (_, _, prev), (model, start, _), stats in zip(
                runs, runs[1:], report.per_k[1:]):
            a, b = model.evaluate(start), model.evaluate(prev)
            logs = max(a.log_scale, b.log_scale)
            if stats.start == "secant":
                assert model.energy(a, logs) < model.energy(b, logs)
            else:
                assert np.array_equal(start, prev)

    def test_guard_keeps_the_warm_start_on_the_saddle(self):
        _, report = continue_k(_saddle())
        starts = {s.k: s.start for s in report.per_k}
        assert starts[8.0] == "secant" and starts[32.0] == "warm"
        lines = report.format().splitlines()
        assert "start=warm" in next(ln for ln in lines if "k=32 " in ln)

    def test_frame_tensor_built_once_per_continuation(self, monkeypatch):
        spec = _varframe(17)
        warm = harmonic_extension(spec.grid, spec.frame, spec.f)
        calls, real = [], solvers._frame_metric_pack
        monkeypatch.setattr(solvers, "_frame_metric_pack",
                            lambda frame: calls.append(frame) or real(frame))
        _, report = continue_k(spec, init=warm)
        assert len(report.per_k) > 1
        assert calls == [spec.frame]


class TestStopReasons:
    def test_varframe_stages_end_on_the_tolerance(self):
        spec = _varframe(17)
        _, report = continue_k(spec)
        assert len(report.per_k) == len(spec.config.k_schedule)
        for s in report.per_k:
            assert s.stop == "update below tolerance", s
            assert s.final_update < solvers._NEWTON_TOL
        assert "stop=update below tolerance" in report.format()

    def test_saddle_warm_start_stops_at_the_rounding_floor(self):
        # from the k = 4 minimizer, Newton at k = 8 reaches the rounding
        # floor of the energy with its update still above the tolerance
        spec = _saddle()
        u = None
        for k in (2.0, 4.0):
            u, stats = solve_pk(spec, k, init=u)
            assert stats.stop == "update below tolerance"
        _, stats = solve_pk(spec, 8.0, init=u)
        assert stats.stop == "rounding floor"
        assert stats.final_update > solvers._NEWTON_TOL
        assert "stop=rounding floor" in SolveReport(per_k=[stats]).format()

    @pytest.mark.parametrize("eps", [0.3, -0.3, 0.0])
    def test_weak_residual_small_on_resolved_stages(self, eps):
        # relative to the magnitudes of its terms, not to the load
        # eps^(kp-1), which falls far below them at large k
        _, report = continue_k(_varframe(17, eps))
        resolved = [s for s in report.per_k
                    if s.stop == "update below tolerance"]
        assert len(resolved) == len(report.per_k)
        assert max(s.weak_residual for s in resolved) <= 1e-6
