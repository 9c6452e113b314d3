"""The Newton Hessian's factorization: every call goes through
``solvers.splu``, and symmetric mode agrees with partial pivoting."""

import numpy as np
from scipy.sparse.linalg import splu

from infxlap import solvers
from infxlap.expressions import parse
from infxlap.grid import build_grid, sample_frame
from infxlap.solvers import ProblemSpec, SolverConfig, _EnergyModel


def varframe_spec(n=17):
    g = build_grid(0.0, 1.0, 0.0, 1.0, n, n)
    fr = sample_frame(parse("1"), parse("0"), parse("0"), parse("1 + x/2"), g)
    X, Y = g.meshgrid()
    return ProblemSpec(grid=g, frame=fr, p=2.0 + X ** 2 / 4.0,
                       f=1.0 + X / 4.0 + Y / 2.0,
                       config=SolverConfig(polish_sweeps=0))


def test_every_factorization_goes_through_solvers_splu(monkeypatch):
    # the benchmark times factorizations by wrapping this module attribute;
    # a call that bypasses it would read as no factorization time at all
    calls = []
    real = solvers.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "splu", counting)
    _, report = solvers.continue_k(varframe_spec())
    newton = sum(s.iterations for s in report.per_k)
    # the harmonic start, every Newton step, and at least one more
    # factorization per k (a Picard sweep or the step that stops Newton)
    assert len(calls) >= newton + len(report.per_k) + 1


def test_symmetric_mode_agrees_with_partial_pivoting():
    spec = varframe_spec()
    u, _ = solvers.continue_k(spec)
    model = _EnergyModel(spec, 64.0)
    pattern = model.pattern
    data = model.hessian(u, model.log_scale(u))
    lu, s = pattern.factor(data)
    a = pattern.matrix(data * s[pattern.indices] * s[pattern.col])
    b = np.random.default_rng(3).normal(size=pattern.n)
    x_sym = lu.solve(b)
    x_piv = splu(a).solve(b)
    assert np.linalg.norm(x_sym - x_piv) <= 1e-10 * np.linalg.norm(x_piv)
    assert np.allclose(a.diagonal(), 1.0)
