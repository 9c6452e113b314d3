"""Harmonic extension, Newton iteration, and continuation tests."""

import gc
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from infxlap.expressions import parse
from infxlap.grid import (build_grid, identity_frame, riemannian_gradient,
                          sample_frame)
from infxlap.operators import ResidualKernel, max_form_residual
from infxlap import cli, solvers, verify
from infxlap.config import load_problem
from infxlap.solvers import (_DETA, _DXI, FactorizationError, NewtonStall,
                             ProblemSpec, SolveReport, SolverConfig,
                             SolverError, _EnergyModel, _interp_gp,
                             _InteriorPattern, _nested_dissection,
                             continue_k, _polish_newton, harmonic_extension,
                             solve_dirichlet_infinity, solve_pk)

ROOT = Path(__file__).resolve().parents[1]


def unit_grid(n=17):
    return build_grid(0.0, 1.0, 0.0, 1.0, n, n)


def _config(path):
    """The problem of a shipped config file, loaded when called."""
    return lambda: load_problem(ROOT / path)


def metric_pack(frame):
    """Nodal A^t A packed as (T11, T12, T22), shape (ny, nx, 3)."""
    ata = np.einsum("...ki,...kj->...ij", frame.a, frame.a)
    return np.stack([ata[..., 0, 0], ata[..., 0, 1], ata[..., 1, 1]], axis=-1)


def weighted_elements(pattern, frame, w):
    """Element matrices of u -> -div_X(w D_X u) on the pattern's basis."""
    kpack = w[..., None] * metric_pack(frame)
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

    def test_spec_rejects_a_transposed_frame(self):
        # a 5x9 frame in a 9x5 problem: the model would read its metric
        # on cells that are not the grid's
        g, gt = (build_grid(0.0, 1.0, 0.0, 1.0, nx, ny)
                 for nx, ny in ((9, 5), (5, 9)))
        X, Y = g.meshgrid()
        with pytest.raises(ValueError, match=r"is not the frame's grid "
                           r"Grid2D\(.*nx=5, ny=9\)"):
            ProblemSpec(grid=g, frame=identity_frame(gt), p=2.0 + X,
                        f=X + Y)

    def test_spec_rejects_a_frame_on_another_rectangle(self):
        # same node counts, but the frame was sampled on [0, 2] x [0, 1]
        g, wide = unit_grid(9), build_grid(0.0, 2.0, 0.0, 1.0, 9, 9)
        fr = sample_frame(parse("1"), parse("0"), parse("0"),
                          parse("1 + x/2"), wide)
        X, Y = g.meshgrid()
        with pytest.raises(ValueError, match=r"xmax=1\.0.* is not the "
                           r"frame's grid .*xmax=2\.0"):
            ProblemSpec(grid=g, frame=fr, p=2.0 + X, f=X + Y)

    @pytest.mark.parametrize("name", ["p", "f"])
    def test_spec_rejects_fields_off_the_grid(self, name):
        g = unit_grid(5)
        fields = {"p": np.full(g.shape, 2.0), "f": np.zeros(g.shape),
                  name: np.full((4, 4), 2.0)}
        with pytest.raises(ValueError, match=rf"^{name} has shape \(4, 4\), "
                           r"not the grid's \(5, 5\)$"):
            ProblemSpec(grid=g, frame=identity_frame(g), **fields)

    @pytest.mark.parametrize("on", ["grid", "frame"])
    def test_harmonic_extension_rejects_another_grid(self, on):
        # f sampled on either grid: the frame's does not broadcast
        g, gt = unit_grid(9), build_grid(0.0, 1.0, 0.0, 1.0, 9, 5)
        f = np.zeros((gt if on == "grid" else g).shape)
        with pytest.raises(ValueError, match=r"^grid Grid2D\(.*ny=5\) is "
                           r"not the frame's grid Grid2D\(.*ny=9\)$"):
            harmonic_extension(gt, identity_frame(g), f)

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
        cq = _interp_gp(w[..., None] * metric_pack(fr), pattern.gidx)
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
        # both interior sides above the band's limit
        g = build_grid(0.0, 1.0, 0.0, 1.5, 67, 66)
        pattern = _InteriorPattern(g)
        rowmajor = np.flatnonzero(g.interior_mask())
        assert pattern.kd is None
        assert np.array_equal(pattern.interior,
                              rowmajor[_nested_dissection(64, 65)])

    def test_interior_numbered_along_the_short_side(self, case):
        g = case[0]
        pattern = _InteriorPattern(g)
        inner = np.flatnonzero(g.interior_mask()).reshape(g.ny - 2, -1)
        # 7 nodes across: a band of half-width 6 (5 interior nodes + 1)
        assert pattern.kd == 6
        assert np.array_equal(pattern.interior,
                              (inner if g.nx < g.ny else inner.T).ravel())
        mat = pattern.matrix(np.ones(pattern.nnz)).tocoo()
        assert np.max(np.abs(mat.row - mat.col)) == pattern.kd

    def test_built_once_per_grid(self, pattern_builds):
        # two continuations and a full solve on one grid number its
        # interior once; another grid, equal or not, builds its own
        builds = pattern_builds
        g = unit_grid(9)
        X, Y = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=identity_frame(g), p=2.0 + X ** 2,
                           f=X + Y ** 2)
        _, report = continue_k(spec)
        assert len(report.per_k) > 1
        assert builds == [g]
        continue_k(spec)
        _, report = solve_dirichlet_infinity(spec)
        assert report.polish is not None
        assert builds == [g]
        assert g.interior_pattern is vars(g)["interior_pattern"]
        other = unit_grid(9)
        continue_k(ProblemSpec(grid=other, frame=identity_frame(other),
                               p=spec.p, f=spec.f))
        assert builds == [g, other] and builds[1] is other

    def test_built_once_for_a_frame_on_an_equal_grid(self, pattern_builds):
        # a frame sampled on an equal but distinct grid: the spec keeps the
        # frame's grid, so the energy and the frame's Gauss-point metric
        # read one pattern
        g, twin = unit_grid(9), unit_grid(9)
        X, Y = g.meshgrid()
        spec = ProblemSpec(grid=g, frame=identity_frame(twin), p=2.0 + X,
                           f=X + Y ** 2)
        assert spec.grid is twin
        continue_k(spec)
        assert len(pattern_builds) == 1 and pattern_builds[0] is twin

    def test_pattern_freed_with_its_grid(self):
        # nothing in solvers keeps a grid or its pattern alive once the
        # problem posed on it is gone
        spec = _varframe(9)
        continue_k(spec)
        refs = [weakref.ref(spec.grid),
                weakref.ref(spec.grid.interior_pattern)]
        del spec
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


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
        model = _EnergyModel(spec, k)
        logs = model.evaluate(u).log_scale
        energy = lambda v: model.energy(model.evaluate(v), logs)  # noqa: E731
        e_sol = energy(u)
        assert e_sol <= energy(start)
        rng = np.random.default_rng(6)
        for _ in range(10):
            pert = u + 0.1 * float(rng.uniform(0.5, 1.5)) * bump
            assert e_sol <= energy(pert)

    def test_overflowing_energy_is_infinite_and_silent(self):
        # a steep trial at a flat iterate's normalization overflows the
        # Gauss-point density: the merit is +inf, with no overflow warning
        # (warnings are errors here), so Armijo rejects the trial
        spec = _varframe(17)
        model = _EnergyModel(spec, 64.0)
        flat = model.evaluate(np.ones(spec.grid.shape))
        trial = model.evaluate(spec.f)
        phi0 = model.merit(flat, flat)
        assert np.isfinite(phi0) and np.isfinite(model.merit(trial, trial))
        assert model.merit(trial, flat) == np.inf
        assert not model.merit(trial, flat) <= phi0

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
        assert exc.value.run.iterations >= 1
        assert exc.value.run.stop == exc.value.reason == "step cap"

    def test_line_search_failure_named(self, monkeypatch):
        # a merit that no trial step lowers: 60 halvings, then a stall with
        # the start as its last iterate
        spec, real = _varframe(9), _EnergyModel.merit
        monkeypatch.setattr(_EnergyModel, "merit", lambda model, ev, ref: (
            real(model, ev, ref) if ev is ref else np.inf))
        warm = harmonic_extension(spec.grid, spec.frame, spec.f)
        with pytest.raises(NewtonStall) as exc:
            continue_k(spec)
        assert exc.value.k == spec.config.k_schedule[0]
        assert exc.value.reason == exc.value.run.stop == "line search failed"
        assert "stopped after 0 steps: line search failed" in str(exc.value)
        assert exc.value.run.history == []
        assert exc.value.run.factorizations == 1
        assert np.array_equal(exc.value.u, warm)

    @staticmethod
    def _bowls(band_limit):
        """The 9^2 bowl and its harmonic start, on a grid whose pattern is
        built under each band limit: nested dissection, then the band."""
        out = []
        for limit in (-1, solvers._BAND_MAX):
            band_limit(limit)
            g = unit_grid(9)
            X, Y = g.meshgrid()
            spec = ProblemSpec(grid=g, frame=identity_frame(g),
                               p=np.full(g.shape, 2.0), f=(X ** 2 + Y ** 2))
            out.append((spec, harmonic_extension(g, spec.frame, spec.f)))
            assert (g.interior_pattern.kd is None) == (limit < 0)
        return out

    def test_factorization_failure_named(self, monkeypatch, band_limit):
        # both factorizations: SuperLU on nested dissection fails; the band
        # Cholesky breaks down, and SuperLU fails on the same matrix
        bowls = self._bowls(band_limit)

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solvers, "splu", singular)
        monkeypatch.setattr(solvers, "dpbtrf", lambda ab, **kw: (ab, 3))
        for (spec, warm), fallbacks in zip(bowls, (0, 1)):
            with pytest.raises(FactorizationError) as exc:
                solve_pk(spec, 8.0, init=warm)
            assert isinstance(exc.value, SolverError)
            assert exc.value.k == 8.0
            assert exc.value.run.history == []
            assert exc.value.run.factorizations == 0
            assert exc.value.run.superlu_fallbacks == fallbacks
            assert "exactly singular" in str(exc.value)
        # the harmonic start has no run to count a fallback in
        with pytest.raises(FactorizationError) as exc:
            harmonic_extension(spec.grid, spec.frame, spec.f)
        assert "non-positive pivot at 3" in str(exc.value)

    def test_ascent_direction_named(self, monkeypatch, band_limit):
        # factors whose solves come back negated give ascent directions:
        # Newton stops and says so instead of falling back to steepest
        # descent, with either factorization
        bowls = self._bowls(band_limit)
        real, real_band = solvers.splu, solvers.dpbtrs

        class Negated:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return -self.lu.solve(b)

        monkeypatch.setattr(solvers, "splu",
                            lambda *a, **kw: Negated(real(*a, **kw)))
        monkeypatch.setattr(solvers, "dpbtrs", lambda *a, **kw: (
            -real_band(*a, **kw)[0], 0))
        for spec, warm in bowls:
            with pytest.raises(NewtonStall) as exc:
                continue_k(spec, init=warm)
            assert exc.value.k == spec.config.k_schedule[0]
            assert exc.value.reason == "no descent direction"
            assert "no descent direction" in str(exc.value)
            assert exc.value.run.history == []
            assert exc.value.run.factorizations == 1
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

    def test_stop_sees_no_stage_values(self, monkeypatch):
        # stop may run a polish: the paused stage loop keeps neither its
        # model, nor its Gauss values, nor its prediction alive through it
        refs, evaluate, start = [], _EnergyModel.evaluate, _EnergyModel.start

        def evaluating(model, u):
            ev = evaluate(model, u)
            refs.append(weakref.ref(ev.n2))
            return ev

        def starting(model, u, predicted):
            refs.append(weakref.ref(model))
            if predicted is not None:
                refs.append(weakref.ref(predicted))
            return start(model, u, predicted)

        monkeypatch.setattr(_EnergyModel, "evaluate", evaluating)
        monkeypatch.setattr(_EnergyModel, "start", starting)
        alive = []
        _, report = continue_k(_varframe(17), stop=lambda k, u, report: (
            alive.append((k, sum(ref() is not None for ref in refs)))))
        assert alive == [(s.k, 0) for s in report.per_k]
        assert len(refs) > 3 * len(report.per_k)

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
        assert report.polish is None and report.polish_initial is None
        assert report.polish_accepted is None
        assert "polish" not in report.format()

    @pytest.mark.parametrize("problem", [
        _config("configs/jensen_min.ini"),
        lambda: replace(_varframe(17), config=SolverConfig(polish_sweeps=0))],
        ids=["jensen_min", "no_sweeps"])
    def test_unpolished_solves_match_continue_k(self, problem):
        spec = problem()
        u, report = solve_dirichlet_infinity(spec)
        u_cont, report_cont = continue_k(spec)
        assert np.array_equal(u, u_cont)
        assert report.per_k == report_cont.per_k
        assert report.gaps == report_cont.gaps
        assert report.polish is None and report.tries == []

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


def _rough(nx=21, ny=17):
    """A rough full frame whose large-k minimizers are not resolved."""
    g = build_grid(0.0, 1.0, 0.0, 1.3, nx, ny)
    fr = sample_frame(parse("1 + x/3"), parse("0.3*y"), parse("-0.2*x"),
                      parse("1 + y/2"), g)
    X, Y = g.meshgrid()
    return ProblemSpec(grid=g, frame=fr, p=2.0 + X ** 2,
                       f=np.sin(2.0 * X) + Y)


def _positive():
    """The positive-boundary problem of the acceptance gate."""
    g = unit_grid(65)
    X, Y = g.meshgrid()
    return ProblemSpec(grid=g, frame=identity_frame(g),
                       p=g.sample(parse("2 + x^2/4")),
                       f=1.5 + 0.25 * X + 0.25 * Y)


def _nine():
    """The 9^2 problem whose k = 32 and 64 stages stop at the floor."""
    g = unit_grid(9)
    X, Y = g.meshgrid()
    return ProblemSpec(grid=g, frame=identity_frame(g),
                       p=np.full(g.shape, 2.0), f=X ** 2 + Y)


@pytest.fixture
def lu_calls(monkeypatch):
    """The LU factorizations made while the test runs, one entry each:
    the permc_spec of a call through ``solvers.splu``, or "band" for one
    through ``solvers.dgbtrf``."""
    calls, real_lu, real_band = [], solvers.splu, solvers.dgbtrf

    def counting_lu(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real_lu(*args, **kwargs)

    def counting_band(*args, **kwargs):
        calls.append("band")
        return real_band(*args, **kwargs)

    monkeypatch.setattr(solvers, "splu", counting_lu)
    monkeypatch.setattr(solvers, "dgbtrf", counting_band)
    return calls


def _band_then_wide(band_limit):
    """For each grid built in the loop's body: up to the band limit (the
    polish Jacobian factored by band LU), then beyond it (by SuperLU);
    yields the name of the Jacobian's lu_calls entry."""
    for limit, jacobian in ((solvers._BAND_MAX, "band"),
                            (-1, "MMD_AT_PLUS_A")):
        band_limit(limit)
        yield jacobian


def _second_pivot_zero(ab, kl, ku, **kwargs):
    """A ``dgbtrf`` that finds U(2, 2) exactly zero."""
    return ab, np.arange(1, ab.shape[1] + 1, dtype=np.intc), 2


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
        assert report.polish.stop in ("step cap", "line search failed")
        assert 0 < report.polish.iterations <= spec.config.polish_sweeps
        assert report.polish_final >= solvers._POLISH_TOL
        i, j = report.polish_worst
        assert 0 < i < g.nx - 1 and 0 < j < g.ny - 1
        assert f"worst node (i={i}, j={j})" in report.format()
        assert "rejected" in report.format()

    def test_stalled_polish_reports_the_stall_run(self, monkeypatch):
        # the saddle's polish stops at the step cap twice, in the try from
        # k = 8 and in the final polish from k = 64: each stop reason and
        # its counts are those NewtonStall carries, and the last decides
        stalls, real = [], solvers._newton

        def recording(model, u, max_steps):
            try:
                return real(model, u, max_steps)
            except NewtonStall as exc:
                stalls.append(exc)
                raise

        monkeypatch.setattr(solvers, "_newton", recording)
        spec = _saddle()
        _, report = solve_dirichlet_infinity(spec)
        first, stall = stalls
        for s in stalls:
            assert s.k is None and s.reason == "step cap"
            assert s.run.iterations == spec.config.polish_sweeps
            assert s.run.factorizations > 0
        assert [k for k, _ in report.tries] == [8.0, 64.0]
        assert all(run is s.run for (_, run), s in zip(report.tries, stalls))
        assert report.polish is stall.run
        assert report.polish.stop == "step cap"
        assert report.polish.iterations == spec.config.polish_sweeps
        assert report.polish.factorizations > 0
        lines = report.format().splitlines()
        assert lines[-3] == (f"  polish from k=8: {first.run.format_counts()}"
                             ": step cap (rejected)")
        line = lines[-2]
        assert line.startswith("  polish from k=64: residual sup ")
        assert f"{stall.run.format_counts()} " in line
        assert line.endswith(": step cap (rejected)")

    @pytest.mark.parametrize("problem, tol", [
        (_config("perfbench/configs/varframe-17-polish10.ini"), 1e-10),
        (_config("configs/aronsson.ini"), 1e-10),
        (_config("configs/variable_frame.ini"), 1e-10),
        (_positive, 1e-10), (_nine, 1e-12)],
        ids=["varframe17", "aronsson", "varframe65", "positive", "nine"])
    def test_accepted_try_at_k8_returns_the_full_schedules_zero(self, problem,
                                                                tol):
        # the polish accepts the k = 8 minimizer, which ends the schedule,
        # and lands on the zero the polish of the whole continuation finds
        spec = problem()
        full, _ = continue_k(spec)
        ref = SolveReport()
        want = _polish_newton(full, spec.frame, spec.p,
                              spec.config.polish_sweeps, ref)
        u, report = solve_dirichlet_infinity(spec)
        assert ref.polish_accepted and report.polish_accepted
        assert np.max(np.abs(u - want)) <= tol
        assert [s.k for s in report.per_k] == [2.0, 4.0, 8.0]
        assert all(s.stop == "update below tolerance" for s in report.per_k)
        assert report.tries == [(8.0, report.polish)]
        line = report.format().splitlines()[-2]
        assert line.startswith("  polish from k=8: residual sup ")
        assert line.endswith(": converged (accepted)")

    @pytest.mark.parametrize("problem, ks", [
        (_saddle, [8.0, 64.0]), (_rough, [8.0, 64.0]),
        (lambda: replace(_saddle(), config=SolverConfig((2.0, 4.0, 8.0))),
         [8.0])], ids=["saddle", "rough", "saddle_to_k8"])
    def test_rejected_try_falls_back_to_the_full_continuation(self, problem,
                                                              ks):
        # the try at k = 8 is rejected; the schedule runs to its end and
        # the rejected polish of its last minimizer returns that field.  A
        # schedule that ends at k = 8 polishes its last minimizer once
        spec = problem()
        u, report = solve_dirichlet_infinity(spec)
        u_cont, report_cont = continue_k(spec)
        assert np.array_equal(u, u_cont)
        assert report.per_k == report_cont.per_k
        assert report.gaps == report_cont.gaps
        assert [k for k, _ in report.tries] == ks
        assert not any(run.stop == "converged" for _, run in report.tries)
        assert report.polish is report.tries[-1][1]
        lines = report.format().splitlines()[-1 - len(ks):-1]
        assert [ln.split(":")[0] for ln in lines] == [
            f"  polish from k={k:g}" for k in ks]
        assert all(ln.endswith(" (rejected)") for ln in lines)

    def test_converged_polish_reported(self):
        spec = _varframe()
        u, report = solve_dirichlet_infinity(spec)
        res = solvers.infinity_x_residual_field(u, spec.frame, spec.p)
        assert report.polish_accepted is True
        assert report.polish.stop == "converged"
        assert 0 < report.polish.iterations <= spec.config.polish_sweeps
        assert float(np.max(np.abs(res))) == report.polish_final
        assert report.polish_final < solvers._POLISH_TOL
        assert "accepted" in report.format()

    def test_polish_reuses_jacobian_factors(self, lu_calls, band_limit):
        # chord steps: the polish factors its Jacobian less often than it
        # steps (it factored once per step before the factors were reused),
        # by band LU and by SuperLU
        for jacobian in _band_then_wide(band_limit):
            lu_calls.clear()
            spec = _varframe()
            _, report = solve_dirichlet_infinity(spec)
            assert report.polish_accepted is True
            run = report.polish
            assert lu_calls.count(jacobian) == run.factorizations
            assert (lu_calls.count("band") + lu_calls.count("MMD_AT_PLUS_A")
                    == run.factorizations)
            assert 0 < run.factorizations < run.iterations
            assert (f"iterations={run.iterations:<4d} "
                    f"factorizations={run.factorizations:<4d} "
                    in report.format().splitlines()[-2])

    def test_every_factorization_is_in_the_record(self, lu_calls,
                                                  factor_calls, band_limit):
        # the harmonic start factors once; every other factorization is one
        # some Newton run reports.  Every LU is the polish's Jacobian's, a
        # Hessian's off the band or a counted Cholesky breakdown on it
        for jacobian in _band_then_wide(band_limit):
            lu_calls.clear()
            factor_calls.clear()
            _, report = solve_dirichlet_infinity(_varframe(17))
            assert report.polish_accepted is True
            factored = sum(s.factorizations for s in report.per_k)
            fallbacks = sum(s.superlu_fallbacks for s in report.per_k)
            band = jacobian == "band"
            assert factor_calls == [band] * (1 + factored)
            hessians = fallbacks if band else 1 + factored
            assert lu_calls.count("NATURAL") == hessians
            assert lu_calls.count(jacobian) == report.polish.factorizations
            assert len(lu_calls) == report.polish.factorizations + hessians
            assert report.polish.factorizations > 0

    def test_gmres_saves_jacobian_factorizations(self, monkeypatch):
        # at 65^2 the polish's chord steps fail where it factored its
        # Jacobian anew (3 factorizations); GMRES preconditioned by the
        # stale factors reaches the same discrete zero from one.  A model
        # that gives no operator to solve brings the refactoring back.  Both
        # run to a 1e-11 residual, so the comparison is of the zero, not
        # of where each run stops
        spec = _varframe(65)
        u0, _ = continue_k(spec)
        monkeypatch.setattr(solvers, "_POLISH_TOL", 1e-11)
        krylov = SolveReport()
        u = _polish_newton(u0, spec.frame, spec.p, 20, krylov)
        monkeypatch.setattr(solvers._PolishModel, "operator",
                            lambda *args: None)
        refactor = SolveReport()
        v = _polish_newton(u0, spec.frame, spec.p, 20, refactor)
        assert krylov.polish_accepted and refactor.polish_accepted
        assert refactor.polish.factorizations == 3
        assert krylov.polish.factorizations == 1
        assert np.max(np.abs(u - v)) <= 1e-12
        run = krylov.polish
        assert run.krylov_solves > 0
        assert (f"factorizations={run.factorizations:<4d} "
                f"chord_steps={run.chord_steps:<4d} "
                f"krylov_solves={run.krylov_solves:<4d} "
                f"krylov_iterations={run.krylov_iterations:<4d} "
                in krylov.format())

    def test_operator_freed_before_refactoring(self, monkeypatch):
        # with one Krylov iteration allowed a solve misses its forcing
        # term, and the next step refactors; the Jacobian it solved with
        # must be freed by then, or two are alive at once
        monkeypatch.setattr(solvers, "_KRYLOV_MAX_ITER", 1)
        ops, alive = [], []
        operator = solvers._PolishModel.operator
        factor = solvers._PolishModel.factor

        def recording(model, state):
            ops.append(weakref.ref(op := operator(model, state)))
            return op

        def counting(model, state, run=None):
            alive.append(sum(ref() is not None for ref in ops))
            return factor(model, state, run)

        monkeypatch.setattr(solvers._PolishModel, "operator", recording)
        monkeypatch.setattr(solvers._PolishModel, "factor", counting)
        spec = _varframe(33)
        report = SolveReport()
        _polish_newton(continue_k(spec)[0], spec.frame, spec.p, 20, report)
        assert report.polish.krylov_solves > 0
        assert report.polish.factorizations > 1
        assert alive == [0] * report.polish.factorizations

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

    def test_failed_factorization_returns_start(self, monkeypatch,
                                                band_limit):
        # both factorizations fail: the band LU meets a zero pivot at its
        # second unknown, node (2, 1) in the numbering along x; SuperLU
        # finds the Jacobian singular
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        for jacobian in _band_then_wide(band_limit):
            spec = _varframe()
            u0 = harmonic_extension(spec.grid, spec.frame, spec.f)
            report = SolveReport()
            with monkeypatch.context() as broken:
                broken.setattr(solvers, "splu", singular)
                broken.setattr(solvers, "dgbtrf", _second_pivot_zero)
                u = _polish_newton(u0, spec.frame, spec.p, 20, report)
            assert u is u0 and report.polish_accepted is False
            assert report.polish_final == report.polish_initial
            assert report.polish.history == []
            assert report.polish.stop.startswith("factorization failed")
            assert report.polish.stop.endswith(
                "zero pivot at node (i=2, j=1)" if jacobian == "band"
                else "exactly singular")

    @pytest.mark.parametrize("problem", [
        lambda: _varframe(17), _rough, lambda: _rough(17, 21)],
        ids=["varframe17", "rough21x17", "rough17x21"])
    def test_band_lu_direction_agrees_with_superlu(self, problem):
        # numbered along the short side m, the Jacobian at the k = 8
        # minimizer is a band of kl = ku = 2m; its LU gives SuperLU's
        # Newton direction, in the polish's row-major order
        spec = problem()
        ny, nx = spec.grid.shape
        u, _ = continue_k(replace(spec, config=SolverConfig((2.0, 4.0, 8.0))))
        model = solvers._PolishModel(spec.frame, spec.p)
        state = model.evaluate(u)
        kl, _, pos, _ = model.band
        jac = model.operator(state).tocoo()
        offsets = pos[jac.row] - pos[jac.col]
        assert kl == 2 * (min(nx, ny) - 2) == np.max(offsets) == -np.min(
            offsets)
        assert np.array_equal(pos, np.arange(len(pos))) == (nx <= ny)
        d = model.factor(state)(state.r, state)
        want = -splu(jac.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.01).solve(state.r)
        assert np.linalg.norm(d - want) <= 1e-12 * np.linalg.norm(want)

    def test_polish_evaluates_each_iterate_once(self, monkeypatch,
                                                band_limit):
        # factor and operator build the Jacobian from the jet of the
        # iterate's evaluation: each evaluation computes one jet and nothing
        # else does, on the band and off it.  The band LU's storage holds
        # the kernel's Jacobian values bit for bit
        calls, factored, stored = [], [], []
        parts, evaluate = ResidualKernel._parts, solvers._PolishModel.evaluate
        factor, dgbtrf = solvers._PolishModel.factor, solvers.dgbtrf

        def jet(kernel, u):
            calls.append("jet")
            return parts(kernel, u)

        def evaluating(model, u):
            calls.append("evaluate")
            return evaluate(model, u)

        def factoring(model, state, run=None):
            factored.append((model, state.u.copy()))
            return factor(model, state, run)

        def band_lu(ab, *args, **kwargs):
            stored.append(ab.ravel(order="F").copy())
            return dgbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(ResidualKernel, "_parts", jet)
        monkeypatch.setattr(solvers._PolishModel, "evaluate", evaluating)
        monkeypatch.setattr(solvers._PolishModel, "factor", factoring)
        monkeypatch.setattr(solvers, "dgbtrf", band_lu)
        for jacobian in _band_then_wide(band_limit):
            # the k = 8 minimizer's polish factors once and solves by GMRES
            spec = _varframe(17)
            u0, _ = continue_k(replace(spec, config=SolverConfig((2.0, 4.0,
                                                                  8.0))))
            for log in (calls, factored, stored):
                log.clear()
            report = SolveReport()
            _polish_newton(u0, spec.frame, spec.p, 20, report)
            run = report.polish
            assert report.polish_accepted
            assert run.factorizations > 0 and run.krylov_solves > 0
            evaluations = calls.count("evaluate")
            assert evaluations >= 1 + run.iterations
            assert calls == ["evaluate", "jet"] * evaluations
            assert len(factored) == run.factorizations
            assert len(stored) == (len(factored) if jacobian == "band" else 0)
            for (model, u), ab in zip(factored, stored):
                want = ResidualKernel(spec.frame, spec.p).jacobian(u).data
                assert np.array_equal(ab[model.band[1]], want)

    @pytest.mark.parametrize("problem, node", [
        (lambda: _varframe(17), "(i=2, j=1)"), (_rough, "(i=1, j=2)"),
        (lambda: _rough(17, 21), "(i=2, j=1)")],
        ids=["varframe17", "rough21x17", "rough17x21"])
    def test_zero_band_pivot_names_its_node(self, monkeypatch, problem,
                                            node):
        # a constant field zeroes the whole Jacobian: dgbtrf stops at the
        # first unknown, node (1, 1).  A zero pivot at the second is the
        # next node along the short side, x on a tall grid, y on a wide one
        spec = problem()
        model = solvers._PolishModel(spec.frame, spec.p)
        state = model.evaluate(np.ones(spec.grid.shape))
        assert model.operator(state).count_nonzero() == 0
        with pytest.raises(FactorizationError) as exc:
            solvers._factor(model, state)
        assert exc.value.k is None
        assert str(exc.value).endswith(
            "Jacobian: band LU met a zero pivot at node (i=1, j=1)")
        monkeypatch.setattr(solvers, "dgbtrf", _second_pivot_zero)
        with pytest.raises(FactorizationError,
                           match=f"at node {re.escape(node)}$"):
            solvers._factor(model, model.evaluate(spec.f))

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

        def recording(model, start, max_steps):
            out = real(model, start, max_steps)
            runs.append((model, start.u.copy(), out[0].u))
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

    @pytest.mark.parametrize("problem", [lambda: _varframe(17), _saddle],
                             ids=["varframe17", "saddle"])
    def test_each_iterate_evaluated_once(self, problem, monkeypatch):
        # a k stage evaluates its warm start once, and from the third k the
        # prediction once, also where the guard keeps one of them; every
        # other evaluation is a line-search trial, and none repeats a field
        seen, real = [], solvers._EnergyModel.evaluate
        monkeypatch.setattr(solvers._EnergyModel, "evaluate",
                            lambda model, u: seen.append((model.k, u.copy()))
                            or real(model, u))
        spec = problem()
        warm = harmonic_extension(spec.grid, spec.frame, spec.f)
        seen.clear()
        u, report = continue_k(spec, init=warm)
        assert [k for k, _ in seen if k not in spec.config.k_schedule] == []
        for i, stats in enumerate(report.per_k):
            fields = [v for k, v in seen if k == stats.k]
            assert sum(np.array_equal(v, warm) for v in fields) == 1, stats.k
            starts = 1 if i < 2 else 2
            assert len(fields) >= starts + stats.iterations
            assert len({v.tobytes() for v in fields}) == len(fields), stats.k
            warm = fields[-1]
        assert np.array_equal(warm, u)

    def test_polish_evaluates_its_start_once(self, monkeypatch):
        spec = _varframe(17)
        u0, _ = continue_k(spec)
        seen, real = [], solvers._PolishModel.evaluate
        monkeypatch.setattr(solvers._PolishModel, "evaluate",
                            lambda model, u: seen.append(u.copy())
                            or real(model, u))
        report = SolveReport()
        _polish_newton(u0, spec.frame, spec.p, 20, report)
        assert report.polish_accepted
        assert sum(np.array_equal(v, u0) for v in seen) == 1
        assert len(seen) >= 1 + report.polish.iterations

    def test_guard_keeps_the_warm_start_on_the_saddle(self):
        _, report = continue_k(_saddle())
        starts = {s.k: s.start for s in report.per_k}
        assert starts[8.0] == "secant" and starts[32.0] == "warm"
        lines = report.format().splitlines()
        assert "start=warm" in next(ln for ln in lines if "k=32 " in ln)

    def test_frame_tensor_built_once_per_frame(self, tensor_builds):
        # the harmonic start, a continuation from it, three uniqueness
        # solves and the CLI's comparison pair (whose raised spec keeps
        # the frame) build the frame's tensor once
        spec = _varframe(17)
        warm = harmonic_extension(spec.grid, spec.frame, spec.f)
        _, report = continue_k(spec, init=warm)
        assert len(report.per_k) > 1
        assert tensor_builds == [spec.frame]
        assert verify.uniqueness_probe(spec).passed
        assert cli._verify_comparison(spec).passed
        assert tensor_builds == [spec.frame]
        assert spec.frame.gauss_metric is vars(spec.frame)["gauss_metric"]
        other = _varframe(17)
        harmonic_extension(other.grid, other.frame, other.f)
        assert tensor_builds == [spec.frame, other.frame]

    def test_harmonic_start_shares_the_frame_tensor(self, tensor_builds):
        spec = _varframe(17)
        u, report = continue_k(spec)
        assert len(report.per_k) > 1
        assert tensor_builds == [spec.frame]
        warm = harmonic_extension(spec.grid, spec.frame, spec.f)
        assert np.array_equal(u, continue_k(spec, init=warm)[0])
        assert tensor_builds == [spec.frame]

    def test_frame_tensor_freed_with_its_frame(self):
        spec = _varframe(9)
        continue_k(spec)
        refs = [weakref.ref(spec.frame),
                *map(weakref.ref, spec.frame.gauss_metric)]
        del spec
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4


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

    def test_saddle_cholesky_breakdowns_are_counted(self, monkeypatch):
        # at k = 64 the saddle's equilibrated Hessians lose positive
        # pivots to rounding in the band Cholesky; SuperLU factors each of
        # them instead, the record counts every one, and the stop reasons
        # pinned above hold on the same stage-by-stage path
        calls, real = [], solvers.splu
        monkeypatch.setattr(solvers, "splu",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        spec, u, stages = _saddle(), None, []
        for k in spec.config.k_schedule:
            u, stats = solve_pk(spec, k, init=u)
            stages.append(stats)
        stops = [s.stop for s in stages]
        assert stops[:3] == ["update below tolerance"] * 2 + ["rounding floor"]
        assert stages[2].final_update > solvers._NEWTON_TOL
        fallbacks = [s.superlu_fallbacks for s in stages]
        assert stages[-1].k == 64.0 and fallbacks[-1] > 0
        assert len(calls) == sum(fallbacks)
        assert all(s.superlu_fallbacks <= s.factorizations for s in stages)
        assert (f"superlu_fallbacks={fallbacks[-1]:<4d} "
                in SolveReport(per_k=stages[-1:]).format())

    @pytest.mark.parametrize("eps", [0.3, -0.3, 0.0])
    def test_weak_residual_small_on_resolved_stages(self, eps):
        # relative to the magnitudes of its terms, not to the load
        # eps^(kp-1), which falls far below them at large k
        _, report = continue_k(_varframe(17, eps))
        resolved = [s for s in report.per_k
                    if s.stop == "update below tolerance"]
        assert len(resolved) == len(report.per_k)
        assert max(s.weak_residual for s in resolved) <= 1e-6
