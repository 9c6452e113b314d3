"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Each test prints ``[criterion N] PASS/FAIL <name> (<measurement>)`` to the
real stdout so the gate is readable even under pytest capture, then asserts
the same condition with its pinned tolerance and wall-time budget.  Expensive
solves are shared through module-scoped fixtures; the fixture's wall time is
charged to every criterion that uses it.
"""

import sys
import time

import numpy as np
import pytest

from infxlap.expressions import parse
from infxlap.grid import (build_grid, identity_frame, riemannian_distance,
                          riemannian_gradient, sample_frame,
                          symmetrized_hessian)
from infxlap.operators import (ExponentData, PointJet, infinity_x_residual_at,
                               infinity_x_residual_field, min_form_residual,
                               pk_residual_at)
from infxlap.solvers import (ProblemSpec, SolverConfig, continue_k,
                             solve_dirichlet_infinity, solve_pk)
from infxlap.verify import (check_log_gradient_bound, eikonal_check,
                            harnack_constant, make_tent_cutoff,
                            uniqueness_probe)

N = 65


def announce(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status} {name} ({detail})",
          file=sys.__stdout__, flush=True)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# -- shared expensive solves -------------------------------------------------

@pytest.fixture(scope="module")
def aronsson():
    """65x65 continuation on the planar Aronsson-type data x^(4/3)-y^(4/3)."""
    g = build_grid(1.0, 2.0, 1.0, 2.0, N, N)
    fr = identity_frame(g)
    X, Y = g.meshgrid()
    exact = X ** (4.0 / 3.0) - Y ** (4.0 / 3.0)
    spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0),
                       f=exact.copy())
    (u, report), wall = timed(continue_k, spec)
    return {"u": u, "report": report, "exact": exact, "wall": wall}


@pytest.fixture(scope="module")
def cone():
    """Cone boundary data (distance to an exterior vertex), variable frame
    and exponent: A = diag(1, 1+x/2), p = 2 + x^2/4 on the unit square."""
    g = build_grid(0.0, 1.0, 0.0, 1.0, N, N)
    exprs = [parse(s) for s in ("1", "0", "0", "1 + x/2")]
    fr = sample_frame(*exprs, g)
    # distance from a vertex at (-0.5,-0.5), outside the closed domain,
    # computed on an extended grid with matching spacing and sliced back
    ext = int(round(0.5 / g.hx))
    ge = build_grid(-0.5, 1.0, -0.5, 1.0, N + ext, N + ext)
    fre = sample_frame(*exprs, ge)
    dist = riemannian_distance(fre, ge, (0, 0))[ext:, ext:]
    p = g.sample(parse("2 + x^2/4"))
    spec = ProblemSpec(grid=g, frame=fr, p=p, f=dist.copy(),
                       config=SolverConfig(polish_sweeps=400))
    (u, _), wall = timed(solve_dirichlet_infinity, spec)
    return {"spec": spec, "u": u, "frame": fr, "p": p, "wall": wall}


@pytest.fixture(scope="module")
def positive():
    """Positive-boundary solve used by the Harnack and cutoff-bound gates:
    A = I, p = 2 + x^2/4, boundary data in [1.5, 2] on the unit square."""
    g = build_grid(0.0, 1.0, 0.0, 1.0, N, N)
    fr = identity_frame(g)
    X, Y = g.meshgrid()
    f = 1.5 + 0.25 * X + 0.25 * Y
    p = g.sample(parse("2 + x^2/4"))
    spec = ProblemSpec(grid=g, frame=fr, p=p, f=f.copy())
    (u, _), wall = timed(solve_dirichlet_infinity, spec)
    return {"grid": g, "frame": fr, "p": p, "f": f, "u": u, "wall": wall}


# -- criteria ----------------------------------------------------------------

def test_criterion_01_stencil_order():
    """Gradient and Hessian converge at 2nd order on u = sin x cos y."""
    t0 = time.perf_counter()
    gerrs, herrs = [], []
    for n in (33, 65, 129):
        g = build_grid(0.0, 1.0, 0.0, 1.0, n, n)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        u = np.sin(X) * np.cos(Y)
        grad = riemannian_gradient(u, fr)
        gex = np.stack([np.cos(X) * np.cos(Y), -np.sin(X) * np.sin(Y)],
                       axis=-1)
        gerrs.append(float(np.max(np.abs(grad - gex))))
        hess = symmetrized_hessian(u, fr)
        hex_ = np.stack([-np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y),
                         -np.sin(X) * np.cos(Y)], axis=-1)
        herrs.append(float(np.max(np.abs(hess - hex_))))
    wall = time.perf_counter() - t0
    ratios = [gerrs[0] / gerrs[1], gerrs[1] / gerrs[2],
              herrs[0] / herrs[1], herrs[1] / herrs[2]]
    ok = min(ratios) >= 3.5 and wall < 1.0
    announce(1, "stencil order", ok,
             f"min ratio {min(ratios):.2f} >= 3.5, {wall:.2f}s < 1s")
    assert min(ratios) >= 3.5
    assert wall < 1.0


def test_criterion_02_k1_p2_harmonic():
    """k=1, p=2 solve reproduces the harmonic polynomial x^2 - y^2."""
    g = build_grid(0.0, 1.0, 0.0, 1.0, N, N)
    fr = identity_frame(g)
    X, Y = g.meshgrid()
    f = X ** 2 - Y ** 2
    spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 2.0), f=f.copy())
    (result, wall) = timed(solve_pk, spec, 1.0)
    err = float(np.max(np.abs(result[0] - f)))
    ok = err < 1e-6 and wall < 5.0
    announce(2, "k=1, p=2 harmonic polynomial", ok,
             f"sup err {err:.2e} < 1e-6, {wall:.2f}s < 5s")
    assert err < 1e-6
    assert wall < 5.0


def test_criterion_03_p4_radial():
    """p=4 solve matches the radial profile r^(2/3), improving on refinement."""
    t0 = time.perf_counter()
    errs = {}
    for n in (33, N):
        g = build_grid(1.0, 2.0, 1.0, 2.0, n, n)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        exact = (X ** 2 + Y ** 2) ** (1.0 / 3.0)
        spec = ProblemSpec(grid=g, frame=fr, p=np.full(g.shape, 4.0),
                           f=exact.copy())
        u, _ = solve_pk(spec, 1.0)
        errs[n] = float(np.max(np.abs(u - exact)))
    wall = time.perf_counter() - t0
    ok = errs[N] <= 5e-2 and errs[N] < errs[33] and wall < 30.0
    announce(3, "p=4 radial oracle", ok,
             f"sup err {errs[N]:.2e} <= 5e-2, refines {errs[33]:.2e} -> "
             f"{errs[N]:.2e}, {wall:.1f}s < 30s")
    assert errs[N] <= 5e-2
    assert errs[N] < errs[33]
    assert wall < 30.0


def test_criterion_04_aronsson_continuation(aronsson):
    """Continuation limit matches x^(4/3) - y^(4/3), with shrinking gaps."""
    err = float(np.max(np.abs(aronsson["u"] - aronsson["exact"])))
    gaps = aronsson["report"].gaps
    decreasing = all(b <= a for a, b in zip(gaps, gaps[1:]))
    final_lt_first = gaps[-1] < gaps[0]
    wall = aronsson["wall"]
    ok = err <= 2e-2 and decreasing and final_lt_first and wall < 60.0
    announce(4, "Aronsson continuation", ok,
             f"sup err {err:.2e} <= 2e-2, gaps {gaps[0]:.1e} -> {gaps[-1]:.1e}"
             f" decreasing, {wall:.1f}s < 60s")
    assert err <= 2e-2
    assert decreasing
    assert final_lt_first
    assert wall < 60.0


def test_criterion_05_cone_variable_frame(cone):
    """Variable frame/exponent cone data solves to small interior residual."""
    res = infinity_x_residual_field(cone["u"], cone["frame"], cone["p"])
    sup = float(np.max(np.abs(res[1:-1, 1:-1])))
    wall = cone["wall"]
    ok = sup <= 5e-2 and wall < 60.0
    announce(5, "cone data, variable frame and exponent", ok,
             f"interior residual sup {sup:.2e} <= 5e-2, {wall:.1f}s < 60s")
    assert sup <= 5e-2
    assert wall < 60.0


def test_criterion_06_jensen_lower_equation():
    """Jensen auxiliary solve at eps=1: gradient stays near the cone slope
    and the min-form residual is small."""
    g = build_grid(0.0, 1.0, 0.0, 1.0, N, N)
    fr = identity_frame(g)
    X, _ = g.meshgrid()
    p = np.full(g.shape, 2.0)
    spec = ProblemSpec(grid=g, frame=fr, p=p, f=X.copy(), epsilon=1.0)
    (result, wall) = timed(continue_k, spec)
    u = result[0]
    grad = riemannian_gradient(u, fr)
    n2_min = float(np.min(grad[..., 0] ** 2 + grad[..., 1] ** 2))
    mr = min_form_residual(u, fr, p, 1.0)
    res = float(np.max(np.abs(mr[1:-1, 1:-1])))
    ok = n2_min >= 1.0 - 5e-2 and res <= 5e-2 and wall < 60.0
    announce(6, "Jensen lower auxiliary equation", ok,
             f"min |grad|^2 {n2_min:.4f} >= 0.95, residual {res:.2e} <= 5e-2,"
             f" {wall:.1f}s < 60s")
    assert n2_min >= 1.0 - 5e-2
    assert res <= 5e-2
    assert wall < 60.0


def test_criterion_07_uniqueness(cone):
    """Three warm starts on the cone problem agree to solver tolerance."""
    report, wall = timed(uniqueness_probe, cone["spec"])
    total = wall + cone["wall"]
    ok = report.worst_value < 1e-3 and total < 180.0
    announce(7, "uniqueness across warm starts", ok,
             f"max pairwise sup {report.worst_value:.2e} < 1e-3, "
             f"{total:.1f}s < 180s")
    assert report.worst_value < 1e-3
    assert total < 180.0


def test_criterion_08_comparison():
    """Raising the boundary data by 0.1 never lowers the solution."""
    t0 = time.perf_counter()
    g = build_grid(0.0, 1.0, 0.0, 1.0, N, N)
    fr = sample_frame(parse("1"), parse("0"), parse("0"), parse("1 + x/2"), g)
    X, Y = g.meshgrid()
    p = g.sample(parse("2 + x^2/4"))
    f = 1.0 + X / 4.0 + Y / 2.0
    u, _ = solve_dirichlet_infinity(ProblemSpec(grid=g, frame=fr, p=p,
                                                f=f.copy()))
    v, _ = solve_dirichlet_infinity(ProblemSpec(grid=g, frame=fr, p=p,
                                                f=(f + 0.1)))
    wall = time.perf_counter() - t0
    drop = float(np.min(v - u))
    ok = drop > -1e-6 and wall < 120.0
    announce(8, "comparison under raised data", ok,
             f"min(v-u) {drop:.2e} > -1e-6, {wall:.1f}s < 120s")
    assert drop > -1e-6
    assert wall < 120.0


def test_criterion_09_harnack(positive):
    """Harnack quotient bound on five random admissible balls."""
    t0 = time.perf_counter()
    g, u = positive["grid"], positive["u"]
    fr = positive["frame"]
    rng = np.random.default_rng(7)
    worst = -np.inf
    tried = attempts = 0
    while tried < 5 and attempts < 50:
        attempts += 1
        ci = int(rng.integers(N // 4, 3 * N // 4))
        cj = int(rng.integers(N // 4, 3 * N // 4))
        r = float(rng.uniform(0.05, 0.12))
        dist = riemannian_distance(fr, g, (ci, cj))
        try:
            c = harnack_constant(u, g, dist, r)
        except ValueError:
            continue
        tried += 1
        worst = max(worst, c - (2.0 / (1.0 + r) + 0.1))
    wall = positive["wall"] + time.perf_counter() - t0
    ok = tried == 5 and worst <= 0.0 and wall < 60.0
    announce(9, "Harnack bound on random balls", ok,
             f"worst margin {worst:.3f} <= 0 over {tried} balls, "
             f"{wall:.1f}s < 60s")
    assert tried == 5
    assert worst <= 0.0
    assert wall < 60.0


def test_criterion_10_log_gradient_bound(positive):
    """Cutoff-weighted log-gradient bound holds for two distinct exponents."""
    t0 = time.perf_counter()
    g, fr, f = positive["grid"], positive["frame"], positive["f"]
    zeta = make_tent_cutoff(g)
    r1 = check_log_gradient_bound(positive["u"], zeta, positive["p"], fr,
                                  tol=0.1)
    p_b = g.sample(parse("2 + y^2/3"))
    u_b, _ = solve_dirichlet_infinity(ProblemSpec(grid=g, frame=fr, p=p_b,
                                                  f=f.copy()))
    r2 = check_log_gradient_bound(u_b, zeta, p_b, fr, tol=0.1)
    wall = positive["wall"] + time.perf_counter() - t0
    ok = r1.passed and r2.passed and wall < 60.0
    announce(10, "log-gradient cutoff bound, two exponents", ok,
             f"margins {r1.worst_value:.2f} / {r2.worst_value:.2f} within "
             f"tol 0.1, {wall:.1f}s < 60s")
    assert r1.passed
    assert r2.passed
    assert wall < 60.0


def test_criterion_11_frame_scaling():
    """Doubling the frame halves distances exactly and leaves the
    eikonal deviation bit-identical."""
    t0 = time.perf_counter()
    g = build_grid(0.0, 1.0, 0.0, 1.0, N, N)
    fr = identity_frame(g)
    fr2 = fr.scaled(2.0)
    d1 = riemannian_distance(fr, g, (0, 0))
    d2 = riemannian_distance(fr2, g, (0, 0))
    exact_halving = np.array_equal(d1, 2.0 * d2)
    r1 = eikonal_check(d1, fr, exclusion_radius=0.2)
    r2 = eikonal_check(d2, fr2, exclusion_radius=0.1)
    wall = time.perf_counter() - t0
    ok = (exact_halving and r1.passed and r2.passed
          and r1.worst_value == r2.worst_value and wall < 5.0)
    announce(11, "frame scaling and eikonal consistency", ok,
             f"halving exact, deviation {r1.worst_value:.3f} identical, "
             f"{wall:.2f}s < 5s")
    assert exact_halving
    assert r1.passed and r2.passed
    assert r1.worst_value == r2.worst_value
    assert wall < 5.0


def test_criterion_12_jet_hand_values():
    """Pointwise residual formulas match frozen hand evaluations."""
    t0 = time.perf_counter()
    checks = []
    # unit gradient kills the log term: residual is -<H eta, eta>
    e = ExponentData(p=3.0, grad_ln_p=(4.0, -7.0))
    j = PointJet(eta=(0.6, 0.8), H=((1.0, 2.0), (2.0, 3.0)))
    quad = 1 * 0.36 + 2 * 2 * 0.6 * 0.8 + 3 * 0.64
    checks.append(abs(infinity_x_residual_at(j, e) + quad))
    # eta=(2,0), H=diag(3,5), grad ln p=(1,0): -(12 + 8 ln 2)
    e = ExponentData(p=2.0, grad_ln_p=(1.0, 0.0))
    j = PointJet(eta=(2.0, 0.0), H=((3.0, 0.0), (0.0, 5.0)))
    checks.append(abs(infinity_x_residual_at(j, e)
                      + 12.0 + 8.0 * np.log(2.0)))
    # kp=2 with |eta|=1, H=I: residual -tr H = -2
    e = ExponentData(p=2.0, k=1.0)
    j = PointJet(eta=(1.0, 0.0), H=((1.0, 0.0), (0.0, 1.0)))
    checks.append(abs(pk_residual_at(j, e) + 2.0))
    # kp=4 with eta=(1,0), H=diag(1,0): -(1 + (4-2)*1) = -3
    e = ExponentData(p=4.0, k=1.0)
    j = PointJet(eta=(1.0, 0.0), H=((1.0, 0.0), (0.0, 0.0)))
    checks.append(abs(pk_residual_at(j, e) + 3.0))
    wall = time.perf_counter() - t0
    worst = max(checks)
    ok = worst <= 1e-12 and wall < 1.0
    announce(12, "jet-level hand values", ok,
             f"worst deviation {worst:.1e} <= 1e-12, {wall:.3f}s < 1s")
    assert worst <= 1e-12
    assert wall < 1.0
