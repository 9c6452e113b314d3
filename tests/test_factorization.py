"""The Newton Hessian's factorization: a grid whose short interior side
has at most ``solvers._BAND_MAX`` nodes is factored by LAPACK's band
Cholesky, a wider one through ``solvers.splu`` in the pattern's own
nested-dissection order, and the two give the same solves.  A
continuation reuses factors while its steps contract, preconditions
Krylov solves with them only off the band, and still ends each k at a
resolved minimizer, nested dissection fills no more than SuperLU's
minimum degree, and symmetric mode agrees with partial pivoting."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from infxlap import solvers
from infxlap.expressions import parse
from infxlap.grid import build_grid, sample_frame
from infxlap.solvers import (ProblemSpec, SolverConfig, _EnergyModel,
                             _InteriorPattern, _nested_dissection)


def varframe_spec(n=17, ny=None):
    g = build_grid(0.0, 1.0, 0.0, 1.0, n, ny or n)
    fr = sample_frame(parse("1"), parse("0"), parse("0"), parse("1 + x/2"), g)
    X, Y = g.meshgrid()
    return ProblemSpec(grid=g, frame=fr, p=2.0 + X ** 2 / 4.0,
                       f=1.0 + X / 4.0 + Y / 2.0,
                       config=SolverConfig(polish_sweeps=0))


@pytest.fixture
def splu_calls(monkeypatch):
    """The permc_spec of every call through ``solvers.splu``."""
    calls = []
    real = solvers.splu

    def counting(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "splu", counting)
    return calls


def test_every_factorization_goes_through_solvers_splu(splu_calls,
                                                        factor_calls):
    # on a grid too wide for the band, the benchmark times factorizations
    # by wrapping this module attribute; a call that bypasses it would read
    # as no factorization time at all
    spec = varframe_spec(solvers._BAND_MAX + 3)
    _, report = solvers.continue_k(spec)
    factored = sum(s.factorizations for s in report.per_k)
    # one for the harmonic start, then the ones each k reports, each in the
    # pattern's nested-dissection numbering
    assert factor_calls == [False] * (1 + factored)
    assert splu_calls == ["NATURAL"] * (1 + factored)


def test_every_factorization_is_counted(splu_calls, factor_calls):
    # on a band grid no Hessian goes to SuperLU unless the record counts
    # its Cholesky breakdown
    _, report = solvers.continue_k(varframe_spec())
    factored = sum(s.factorizations for s in report.per_k)
    assert factor_calls == [True] * (1 + factored)
    assert len(splu_calls) == sum(s.superlu_fallbacks for s in report.per_k)
    assert splu_calls == []


def test_continuation_reuses_factorizations(factor_calls, band_limit):
    band_limit(-1)
    _, report = solvers.continue_k(varframe_spec())
    newton = sum(s.iterations for s in report.per_k)
    # in nested dissection, 7 with the harmonic start: one per k, and one
    # more at k = 64, where a Krylov solve on the stale factors misses its
    # forcing term; 11 when a failed chord step refactored, 13 with warm
    # starts alone, 26 with one per Newton step
    assert len(factor_calls) == 1 + sum(s.factorizations
                                        for s in report.per_k)
    assert len(factor_calls) < newton
    assert 0 < len(factor_calls) <= 8


@pytest.mark.parametrize("n", [17, 49])
def test_band_grids_refactor_where_a_chord_step_fails(n, factor_calls):
    # a band factorization costs less than the Krylov solve it would save,
    # so a band grid refactors wherever a chord step fails
    _, report = solvers.continue_k(varframe_spec(n))
    assert [s.factorizations for s in report.per_k] == [1, 2, 1, 1, 2, 3]
    assert [s.krylov_solves for s in report.per_k] == [0] * 6
    assert factor_calls == [True] * 11
    assert {s.stop for s in report.per_k} == {_EnergyModel.converged}


def test_report_prints_factorizations():
    _, report = solvers.continue_k(varframe_spec())
    for line, s in zip(report.format().splitlines()[1:], report.per_k):
        assert (f"iterations={s.iterations:<4d} "
                f"factorizations={s.factorizations:<4d} ") in line


def test_krylov_solves_replace_refactorizations(band_limit):
    # at 49^2 in nested dissection every k factors its Hessian once: where a
    # chord step fails, GMRES preconditioned by the stale factors takes its
    # place
    band_limit(-1)
    _, report = solvers.continue_k(varframe_spec(49))
    assert [s.factorizations for s in report.per_k] == [1] * 6
    assert sum(s.krylov_solves for s in report.per_k) >= 4
    assert sum(s.chord_steps for s in report.per_k) >= 12
    for line, s in zip(report.format().splitlines()[1:], report.per_k):
        cap = solvers._KRYLOV_MAX_ITER
        assert s.krylov_iterations <= cap * s.krylov_solves
        assert s.chord_steps + s.factorizations <= s.iterations
        assert (f"factorizations={s.factorizations:<4d} "
                f"chord_steps={s.chord_steps:<4d} "
                f"krylov_solves={s.krylov_solves:<4d} "
                f"krylov_iterations={s.krylov_iterations:<4d} ") in line


@pytest.mark.parametrize("n", [17, 33, 49])
def test_each_stage_ends_at_a_resolved_minimizer(n):
    # chord steps must not end a k early: one fresh Newton step from each
    # returned field is below the tolerance that ends the iteration
    spec = varframe_spec(n)
    u = solvers.harmonic_extension(spec.grid, spec.frame, spec.f)
    for k in spec.config.k_schedule:
        u, _ = solvers.solve_pk(spec, k, init=u)
        model = _EnergyModel(spec, k)
        ev = model.evaluate(u)
        d = model.factor(ev)(model.residual(ev), ev)
        assert np.max(np.abs(d)) <= solvers._NEWTON_TOL, k


def test_reused_factors_follow_the_gradient_scale():
    # energy, gradient and Hessian are normalized by exp(-log_scale) at
    # each iterate; factors reused at another scale must give the same
    # Newton direction
    spec = varframe_spec()
    model = _EnergyModel(spec, 64.0)
    ev = model.evaluate(solvers.harmonic_extension(spec.grid, spec.frame,
                                                   spec.f))
    factors = model.factor(ev)
    d = factors(model.residual(ev), ev)
    for shift in (-4.0, 3.0):
        logs = ev.log_scale + shift
        grad = model.gradient(ev, logs)[model.interior]
        assert np.allclose(factors(grad, ev._replace(log_scale=logs)), d,
                           rtol=1e-12, atol=0.0)


def k64_hessian(spec):
    """The k = 64 Newton Hessian at the continuation field: its pattern,
    CSC data and the equilibrated matrix S A S."""
    u, _ = solvers.continue_k(spec)
    model = _EnergyModel(spec, 64.0)
    ev = model.evaluate(u)
    data = model.hessian(ev, ev.log_scale)
    pattern = model.pattern
    s = 1.0 / np.sqrt(data[pattern.diag])
    return pattern, data, pattern.matrix(data * s[pattern.indices]
                                         * s[pattern.col])


def nested_dissection_of(pattern, grid):
    """Positions in the pattern's numbering, in nested-dissection order."""
    mj, mi = np.subtract(grid.shape, 2)
    return np.argsort(pattern.interior)[_nested_dissection(mj, mi)]


def superlu(a):
    """The SuperLU factors the nested-dissection path computes for a."""
    return splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def test_nested_dissection_fills_no_more_than_minimum_degree():
    spec = varframe_spec(33)
    pattern, _, a = k64_hessian(spec)
    nd = nested_dissection_of(pattern, spec.grid)
    lu = superlu(a[nd][:, nd].tocsc())
    # the same matrix in row-major node order, ordered by SuperLU
    rowmajor = np.argsort(pattern.interior)
    mmd = splu(a[rowmajor][:, rowmajor].tocsc(), permc_spec="MMD_AT_PLUS_A",
               diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    assert lu.L.nnz + lu.U.nnz <= mmd.L.nnz + mmd.U.nnz


def test_symmetric_mode_agrees_with_partial_pivoting(band_limit):
    band_limit(-1)
    pattern, data, a = k64_hessian(varframe_spec())
    assert pattern.kd is None
    solve, _ = pattern.factor(data)
    b = np.random.default_rng(3).normal(size=pattern.n)
    x_sym = solve(b)
    x_piv = splu(a).solve(b)
    assert np.linalg.norm(x_sym - x_piv) <= 1e-10 * np.linalg.norm(x_piv)
    assert np.allclose(a.diagonal(), 1.0)


@pytest.mark.parametrize("nx, ny", [(17, 17), (21, 17), (17, 21)],
                         ids=["17x17", "21x17", "17x21"])
def test_band_solve_agrees_with_superlu(nx, ny):
    spec = varframe_spec(nx, ny)
    pattern, data, a = k64_hessian(spec)
    # numbered along the short side, the block is a band of half-width 16
    assert pattern.kd == 16 == np.max(np.abs(a.tocoo().row - a.tocoo().col))
    solve, s = pattern.factor(data)
    assert np.array_equal(s, 1.0 / np.sqrt(data[pattern.diag]))
    nd = nested_dissection_of(pattern, spec.grid)
    b = np.random.default_rng(nx * ny).normal(size=pattern.n)
    x_band, x_lu = solve(b), np.empty(pattern.n)
    x_lu[nd] = superlu(a[nd][:, nd].tocsc()).solve(b[nd])
    assert np.linalg.norm(x_band - x_lu) <= 1e-12 * np.linalg.norm(x_lu)


@pytest.mark.parametrize("nx, ny", [(65, 65), (65, 90), (90, 65)])
def test_factorization_flips_above_the_band_limit(nx, ny, splu_calls):
    # a short interior side of 63 nodes is factored as a band, of 64 by
    # nested dissection and SuperLU
    assert solvers._BAND_MAX == 63
    for grow, kd in ((0, 64), (1, None)):
        grid = build_grid(0.0, 1.0, 0.0, 1.0, nx + grow, ny + grow)
        pattern = _InteriorPattern(grid)
        assert pattern.kd == kd
        laplace = np.tile([1.0, 0.0, 1.0], (len(pattern.gidx), 4))
        data = pattern.assemble(laplace @ pattern.basis)
        b = np.ones(pattern.n)
        x = pattern.factor(data)[0](b)
        s = 1.0 / np.sqrt(data[pattern.diag])
        a = pattern.matrix(data * s[pattern.indices] * s[pattern.col])
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert splu_calls == ["NATURAL"]
