"""Numerical property checks for computed solutions.

Comparison, uniqueness, the Harnack quotient on Riemannian balls, the
log-gradient cutoff inequality, and eikonal consistency of distance
fields.  Every check returns a :class:`CheckReport` carrying the
worst-case node so failures are debuggable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import FrameField, Grid2D, grad_ln_p, riemannian_distance, \
    riemannian_gradient
from .solvers import ProblemSpec, continue_k, harmonic_extension, \
    solve_dirichlet_infinity


@dataclass
class CheckReport:
    name: str
    passed: bool
    worst_value: float
    tol: float
    worst_node: tuple[int, int] | None = None
    applicable: bool = True
    stats: dict = field(default_factory=dict)

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.applicable:
            status = "INAPPLICABLE"
        parts = [f"{self.name}: {status}",
                 f"  worst value = {self.worst_value:.6e} (tol {self.tol:g})"]
        if self.worst_node is not None:
            parts.append(f"  worst node (i, j) = {self.worst_node}")
        for key, val in self.stats.items():
            parts.append(f"  {key} = {val}")
        return "\n".join(parts)


def lipschitz_constant(f: np.ndarray, grid: Grid2D, frame: FrameField,
                       max_sources: int = 64) -> float:
    """Largest boundary difference quotient |f(x)-f(y)| / d(x, y).

    The sources are boundary nodes, subsampled evenly to at most
    ``max_sources``; all boundary nodes remain targets.  One
    multi-source Dijkstra call gives every source's distance field.
    """
    if max_sources < 1:
        raise ValueError(f"max_sources must be >= 1, got {max_sources}")
    tj, ti = np.argwhere(grid.boundary_mask()).T
    stride = -(-len(ti) // max_sources)  # ceiling: at most max_sources
    sj, si = tj[::stride], ti[::stride]
    d = riemannian_distance(frame, grid, np.column_stack([si, sj]))[:, tj, ti]
    df = np.abs(f[tj, ti] - f[sj, si][:, None])
    sel = d > 0
    return float(np.max(df[sel] / d[sel])) if np.any(sel) else 0.0


def check_comparison(u: np.ndarray, v: np.ndarray, grid: Grid2D,
                     tol: float = 0.0) -> CheckReport:
    """u <= v + tol on the interior, given the same ordering on the boundary."""
    diff = u - v
    bgap = float(np.max(diff[grid.boundary_mask()]))
    if bgap > tol:
        return CheckReport(name="comparison", passed=False, worst_value=bgap,
                           tol=tol, applicable=False,
                           stats={"reason": "boundary ordering violated"})
    inner = diff[1:-1, 1:-1]
    worst = float(np.max(inner))
    jj, ii = np.unravel_index(np.argmax(inner), inner.shape)
    return CheckReport(name="comparison", passed=worst <= tol,
                       worst_value=worst, tol=tol,
                       worst_node=(int(ii) + 1, int(jj) + 1))


def harnack_constant(u: np.ndarray, grid: Grid2D, dist: np.ndarray,
                     r: float) -> float:
    """sup_{B_r} u / (inf_{B_r} u + r) on Riemannian balls.

    ``dist`` is the distance field from the ball center.  Requires u > 0
    on B_2r and B_2r strictly inside the domain (no boundary node within
    distance 2r).
    """
    if r <= 0:
        raise ValueError("need r > 0")
    ball = dist <= r
    ball2 = dist <= 2.0 * r
    if np.any(ball2 & grid.boundary_mask()):
        raise ValueError("ball of radius 2r not contained in the domain")
    if np.any(u[ball2] <= 0.0):
        raise ValueError("u not positive on the 2r ball")
    return float(np.max(u[ball]) / (np.min(u[ball]) + r))


def make_tent_cutoff(grid: Grid2D, margin: int = 2) -> np.ndarray:
    """Pyramid cutoff, zero on the boundary and its first interior ring.

    Linear in each coordinate direction, peak value 1 at the center of
    the inset rectangle.
    """
    if margin < 2:
        raise ValueError("margin must keep the boundary ring free")
    X, Y = grid.meshgrid()
    x_lo = grid.xmin + margin * grid.hx
    x_hi = grid.xmax - margin * grid.hx
    y_lo = grid.ymin + margin * grid.hy
    y_hi = grid.ymax - margin * grid.hy
    tent = np.minimum.reduce([X - x_lo, x_hi - X, Y - y_lo, y_hi - Y])
    tent = np.maximum(tent, 0.0)
    peak = float(np.max(tent))
    return tent / peak if peak > 0 else tent


def check_log_gradient_bound(u: np.ndarray, zeta: np.ndarray, p: np.ndarray,
                             frame: FrameField,
                             tol: float = 0.1) -> CheckReport:
    """Cutoff inequality for positive solutions.

    LHS = sup |<D_X zeta, D_X ln u>|^{p(x)},
    RHS = sup ||D_X zeta + zeta ln(zeta/u) D_X ln p||^{p(x)},
    with zeta ln(zeta/u) taken as 0 where zeta = 0.  Both products are
    read as Euclidean operations on the frame-gradient vectors.
    Pass iff LHS <= RHS (1 + tol) + tol.
    """
    if np.any(u <= 0.0):
        raise ValueError("u must be positive everywhere")
    if np.any(zeta < 0.0):
        raise ValueError("cutoff must be nonnegative")
    gz = riemannian_gradient(zeta, frame)
    glu = riemannian_gradient(np.log(u), frame)
    glp = grad_ln_p(p, frame)
    pe = np.asarray(p, dtype=float)

    inner = slice(1, -1)
    dot = (gz[..., 0] * glu[..., 0] + gz[..., 1] * glu[..., 1])
    lhs_field = np.abs(dot[inner, inner]) ** pe[inner, inner]

    with np.errstate(divide="ignore"):
        zlog = np.where(zeta > 0.0,
                        zeta * np.log(np.maximum(zeta, 1e-300) / u), 0.0)
    vec = gz + zlog[..., None] * glp
    norm = np.sqrt(vec[..., 0] ** 2 + vec[..., 1] ** 2)
    rhs_field = norm[inner, inner] ** pe[inner, inner]

    lhs = float(np.max(lhs_field))
    rhs = float(np.max(rhs_field))
    margin = lhs - (rhs * (1.0 + tol) + tol)
    jj, ii = np.unravel_index(np.argmax(lhs_field), lhs_field.shape)
    return CheckReport(name="log-gradient bound", passed=margin <= 0.0,
                       worst_value=margin, tol=tol,
                       worst_node=(int(ii) + 1, int(jj) + 1),
                       stats={"lhs_sup": lhs, "rhs_sup": rhs})


def uniqueness_probe(spec: ProblemSpec, n_inits: int = 3,
                     tol: float = 1e-3, seed: int = 0) -> CheckReport:
    """Solve from distinct warm starts and compare the final fields.

    Starts: frame-harmonic extension, constant boundary mean, and
    boundary-respecting random smooth bumps.  Pass iff the maximum
    pairwise sup-distance stays below ``tol``.
    """
    if n_inits < 2:
        raise ValueError("need at least 2 initializations")
    grid, frame, f = spec.grid, spec.frame, spec.f
    bmask = grid.boundary_mask()
    rng = np.random.default_rng(seed)
    X, Y = grid.meshgrid()
    sx = (X - grid.xmin) / (grid.xmax - grid.xmin)
    sy = (Y - grid.ymin) / (grid.ymax - grid.ymin)
    bump_shape = np.sin(np.pi * sx) * np.sin(np.pi * sy)

    const = np.full(grid.shape, float(np.mean(f[bmask])))
    const[bmask] = f[bmask]
    inits = [harmonic_extension(grid, frame, f), const]
    scale = max(float(np.ptp(f[bmask])), 1.0)
    while len(inits) < n_inits:
        amp = 0.1 * scale * (1.0 + rng.random())
        inits.append(inits[0] + amp * bump_shape)

    solve = solve_dirichlet_infinity if spec.epsilon == 0.0 else continue_k
    solutions = [solve(spec, init=w)[0] for w in inits]
    worst = max(float(np.max(np.abs(a - b)))
                for a, b in itertools.combinations(solutions, 2))
    return CheckReport(name="uniqueness probe", passed=worst < tol,
                       worst_value=worst, tol=tol,
                       stats={"n_inits": n_inits})


def eikonal_check(d: np.ndarray, frame: FrameField,
                  exclusion_radius: float, tol: float = 0.1) -> CheckReport:
    """sup | ||D_X d|| - 1 | over interior nodes beyond the exclusion radius."""
    g = riemannian_gradient(d, frame)
    n = np.sqrt(g[..., 0] ** 2 + g[..., 1] ** 2)
    dev = np.abs(n - 1.0)
    sel = (d > exclusion_radius) & frame.grid.interior_mask()
    if not np.any(sel):
        return CheckReport(name="eikonal", passed=False, worst_value=np.inf,
                           tol=tol, applicable=False,
                           stats={"reason": "no nodes beyond exclusion radius"})
    worst = float(np.max(dev[sel]))
    flat = np.where(sel, dev, -np.inf)
    jj, ii = np.unravel_index(np.argmax(flat), flat.shape)
    return CheckReport(name="eikonal", passed=worst <= tol, worst_value=worst,
                       tol=tol, worst_node=(int(ii), int(jj)))
