"""The Newton Hessian's factorization: every call goes through
``solvers.splu`` in the pattern's own nested-dissection order, a
continuation reuses factors while its steps contract and still ends each
k at a resolved minimizer, that order fills no more than SuperLU's minimum
degree, and symmetric mode agrees with partial pivoting."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from infxlap import solvers
from infxlap.expressions import parse
from infxlap.grid import build_grid, sample_frame
from infxlap.solvers import (ProblemSpec, SolverConfig, _EnergyModel,
                             _frame_tensor)


def varframe_spec(n=17):
    g = build_grid(0.0, 1.0, 0.0, 1.0, n, n)
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


def test_every_factorization_goes_through_solvers_splu(splu_calls):
    # the benchmark times factorizations by wrapping this module attribute;
    # a call that bypasses it would read as no factorization time at all
    _, report = solvers.continue_k(varframe_spec())
    factored = sum(s.factorizations for s in report.per_k)
    # one for the harmonic start, then the ones each k reports, each in the
    # pattern's nested-dissection numbering
    assert splu_calls == ["NATURAL"] * (1 + factored)


def test_continuation_reuses_factorizations(splu_calls):
    _, report = solvers.continue_k(varframe_spec())
    newton = sum(s.iterations for s in report.per_k)
    # 8 with the harmonic start: one per k, and one more at k = 64, where a
    # Krylov solve on the stale factors hits its cap; 11 when a failed
    # chord step refactored, 13 with warm starts alone, 26 with one per
    # Newton step
    assert len(splu_calls) < newton
    assert len(splu_calls) <= 8


def test_report_prints_factorizations():
    _, report = solvers.continue_k(varframe_spec())
    for line, s in zip(report.format().splitlines()[1:], report.per_k):
        assert (f"iterations={s.iterations:<4d} "
                f"factorizations={s.factorizations:<4d} ") in line


def test_krylov_solves_replace_refactorizations():
    # at 49^2 every k factors its Hessian once: where a chord step fails,
    # conjugate gradients preconditioned by the stale factors take its place
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
        model = _EnergyModel(spec, k, _frame_tensor(spec.frame))
        ev = model.evaluate(u)
        d = model.factor(ev)(model.residual(ev), ev)
        assert np.max(np.abs(d)) <= solvers._NEWTON_TOL, k


def test_reused_factors_follow_the_gradient_scale():
    # energy, gradient and Hessian are normalized by exp(-log_scale) at
    # each iterate; factors reused at another scale must give the same
    # Newton direction
    spec = varframe_spec()
    model = _EnergyModel(spec, 64.0, _frame_tensor(spec.frame))
    ev = model.evaluate(solvers.harmonic_extension(spec.grid, spec.frame,
                                                   spec.f))
    factors = model.factor(ev)
    d = factors(model.residual(ev), ev)
    for shift in (-4.0, 3.0):
        logs = ev.log_scale + shift
        grad = model.gradient(ev, logs)[model.interior]
        assert np.allclose(factors(grad, ev._replace(log_scale=logs)), d,
                           rtol=1e-12, atol=0.0)


def k64_hessian(n):
    """The equilibrated k = 64 Newton Hessian at the continuation field."""
    spec = varframe_spec(n)
    u, _ = solvers.continue_k(spec)
    model = _EnergyModel(spec, 64.0, _frame_tensor(spec.frame))
    ev = model.evaluate(u)
    data = model.hessian(ev, ev.log_scale)
    pattern = model.pattern
    lu, s = pattern.factor(data)
    a = pattern.matrix(data * s[pattern.indices] * s[pattern.col])
    return pattern, lu, a


def test_nested_dissection_fills_no_more_than_minimum_degree():
    pattern, lu, a = k64_hessian(33)
    # the same matrix in row-major node order, ordered by SuperLU
    rowmajor = np.argsort(pattern.interior)
    mmd = splu(a[rowmajor][:, rowmajor].tocsc(), permc_spec="MMD_AT_PLUS_A",
               diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    assert lu.L.nnz + lu.U.nnz <= mmd.L.nnz + mmd.U.nnz


def test_symmetric_mode_agrees_with_partial_pivoting():
    pattern, lu, a = k64_hessian(17)
    b = np.random.default_rng(3).normal(size=pattern.n)
    x_sym = lu.solve(b)
    x_piv = splu(a).solve(b)
    assert np.linalg.norm(x_sym - x_piv) <= 1e-10 * np.linalg.norm(x_piv)
    assert np.allclose(a.diagonal(), 1.0)
