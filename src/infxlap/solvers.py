"""Existence construction: kp(x)-Laplace solves continued to k -> infinity.

The Dirichlet problem -div_X(||D_X u||^{kp(x)-2} D_X u) = eps^{kp(x)-1}
is the Euler-Lagrange equation of a convex regularized energy.  It is
solved by a short lagged-coefficient (Picard) warm-up -- freeze the
weight w = (delta^2 + ||D_X u||^2)^{(kp(x)-2)/2}, solve the linear
weighted problem, damp -- followed by Newton iterations with an Armijo
line search on that energy, which remain convergent at large kp where
the pure lagged map oscillates.  Increasing k along a schedule with
warm starts gives the surrogate for the uniform limit u_infinity.

The inner linear problem minimizes the discrete energy
sum_cells w ||A grad u||^2 over bilinear elements (2x2 Gauss points,
coefficients interpolated from the nodes), i.e. the discrete divergence
is the negative adjoint of the discrete cell gradient under the lattice
inner product.  The resulting operator is symmetric positive definite,
reproduces linear fields exactly, and (for the unit frame) annihilates
the harmonic polynomial x^2 - y^2 exactly.  It is solved by diagonally
preconditioned conjugate gradients.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import FrameField, Grid2D, riemannian_gradient
# infinity_x_residual_field stays importable here: perfbench traces it as
# solvers.infinity_x_residual_field
from .operators import ResidualKernel, infinity_x_residual_field  # noqa: F401


class SolverError(RuntimeError):
    """Inner or outer iteration failed."""


class LinearSolveError(SolverError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"conjugate gradients stalled after {iterations} iterations "
            f"(relative residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class PicardStall(SolverError):
    def __init__(self, k: float, history: list[float]):
        super().__init__(
            f"Picard iteration did not converge at k={k:g} "
            f"(last update {history[-1]:.3e} after {len(history)} iterations)"
        )
        self.k = k
        self.history = history


@dataclass
class SolverConfig:
    """Tuning knobs for the Picard / continuation machinery."""

    k_schedule: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    delta_reg: float = 1e-8        # gradient regularization inside weights
    damping: float = 0.7           # Picard damping theta in (0, 1]
    picard_tol: float = 1e-8       # sup-norm update stopping criterion
    picard_max_iter: int = 500
    cg_tol: float = 1e-10          # relative residual
    cg_max_iter: int | None = None  # default 10 * nx * ny
    continuation_tol: float = 1e-4  # sup-norm gap between successive k
    polish_sweeps: int = 50        # pointwise Newton sweeps at eps = 0
    p_min: float = 2.0
    det_floor: float = 1e-10

    def __post_init__(self):
        if not all(b > a for a, b in zip(self.k_schedule, self.k_schedule[1:])):
            raise ValueError("k_schedule must be strictly increasing")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")
        for name in ("delta_reg", "picard_tol", "cg_tol", "continuation_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ProblemSpec:
    """A fully materialized Dirichlet problem."""

    grid: Grid2D
    frame: FrameField
    p: np.ndarray           # exponent field, all nodes
    f: np.ndarray           # boundary data sampled on all nodes
    epsilon: float = 0.0
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if np.any(self.p < self.config.p_min):
            raise ValueError(
                f"exponent below p_min={self.config.p_min:g} "
                f"(min sampled p = {np.min(self.p):g})"
            )
        bmask = self.grid.boundary_mask()
        if not np.all(np.isfinite(self.f[bmask])):
            raise ValueError("boundary data not finite on boundary nodes")


@dataclass
class PkStats:
    k: float
    iterations: int
    final_update: float
    weak_residual: float


@dataclass
class SolveReport:
    per_k: list[PkStats] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    polish_initial: float | None = None
    polish_final: float | None = None
    polish_accepted: bool | None = None

    def format(self) -> str:
        lines = ["solve report"]
        for s in self.per_k:
            lines.append(
                f"  k={s.k:<6g} picard_iterations={s.iterations:<4d} "
                f"final_update={s.final_update:.3e} "
                f"weak_residual={s.weak_residual:.3e}"
            )
        for (a, b), gap in zip(zip([s.k for s in self.per_k],
                                   [s.k for s in self.per_k][1:]), self.gaps):
            lines.append(f"  gap |u_{b:g} - u_{a:g}|_sup = {gap:.3e}")
        if self.polish_initial is not None:
            lines.append(
                f"  polish: residual sup {self.polish_initial:.3e} -> "
                f"{self.polish_final:.3e} "
                f"({'accepted' if self.polish_accepted else 'rejected'})"
            )
        lines.append(f"  wall_time = {self.wall_time:.2f} s")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# bilinear-element assembly of the weighted energy operator
# ---------------------------------------------------------------------------

_GP = 1.0 / math.sqrt(3.0)
_GAUSS = [(-_GP, -_GP), (_GP, -_GP), (_GP, _GP), (-_GP, _GP)]
# local corner order: SW, SE, NE, NW in reference coords
_CORNER_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_CORNER_ETA = np.array([-1.0, -1.0, 1.0, 1.0])

_SHAPE = np.array([[0.25 * (1 + cx * x) * (1 + cy * y)
                    for cx, cy in zip(_CORNER_XI, _CORNER_ETA)]
                   for x, y in _GAUSS])                      # (4 gp, 4 nodes)
_DXI = np.array([[0.25 * cx * (1 + cy * y)
                  for cx, cy in zip(_CORNER_XI, _CORNER_ETA)]
                 for x, y in _GAUSS])
_DETA = np.array([[0.25 * cy * (1 + cx * x)
                   for cx, cy in zip(_CORNER_XI, _CORNER_ETA)]
                  for x, y in _GAUSS])


def _cell_corner_indices(grid: Grid2D) -> np.ndarray:
    """Flat node indices of every cell's corners, order SW, SE, NE, NW."""
    ny, nx = grid.shape
    node_index = np.arange(ny * nx).reshape(ny, nx)
    corners = [node_index[:-1, :-1], node_index[:-1, 1:],
               node_index[1:, 1:], node_index[1:, :-1]]
    return np.stack([c.ravel() for c in corners], axis=1)    # (ncell, 4)


def _interp_gp(nodal: np.ndarray, gidx: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a nodal field to the Gauss points.

    ``nodal`` has shape (ny, nx) or (ny, nx, m); the result has shape
    (ncell, 4gp) or (ncell, 4gp, m).
    """
    flat = nodal.reshape(-1, *nodal.shape[2:])
    vals = flat[gidx]                                        # (ncell, 4, ...)
    if vals.ndim == 2:
        return np.einsum("qa,ca->cq", _SHAPE, vals)
    return np.einsum("qa,cak->cqk", _SHAPE, vals)


def _assemble_from_gp(grid: Grid2D, cq: np.ndarray,
                      gidx: np.ndarray) -> sp.csr_matrix:
    """Assemble the stiffness matrix from packed symmetric tensors at the
    Gauss points: cq has shape (ncell, 4gp, 3) storing (C11, C12, C22).
    """
    ny, nx = grid.shape
    bx = _DXI * (2.0 / grid.hx)                              # (4gp, 4nodes)
    by = _DETA * (2.0 / grid.hy)
    detj = grid.hx * grid.hy / 4.0
    # ke[c,a,b] = sum_q detj * grad N_a . C(q) grad N_b
    ke = detj * (
        np.einsum("cq,qa,qb->cab", cq[..., 0], bx, bx)
        + np.einsum("cq,qa,qb->cab", cq[..., 1], bx, by)
        + np.einsum("cq,qa,qb->cab", cq[..., 1], by, bx)
        + np.einsum("cq,qa,qb->cab", cq[..., 2], by, by)
    )
    rows = np.repeat(gidx, 4, axis=1).ravel()
    cols = np.tile(gidx, (1, 4)).ravel()
    mat = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(ny * nx, ny * nx))
    return mat.tocsr()


def _frame_metric_pack(frame: FrameField) -> np.ndarray:
    """Nodal A^t A packed as (T11, T12, T22), shape (ny, nx, 3)."""
    a = frame.a
    t11 = a[..., 0, 0] ** 2 + a[..., 1, 0] ** 2
    t12 = a[..., 0, 0] * a[..., 0, 1] + a[..., 1, 0] * a[..., 1, 1]
    t22 = a[..., 0, 1] ** 2 + a[..., 1, 1] ** 2
    return np.stack([t11, t12, t22], axis=-1)


def _assemble_stiffness(grid: Grid2D, frame: FrameField,
                        w: np.ndarray) -> sp.csr_matrix:
    """Stiffness matrix of u -> -div_X(w D_X u) with Dirichlet rows kept.

    The nodal diffusion tensor K = w A^t A is interpolated bilinearly to
    the 2x2 Gauss points of every cell.
    """
    kpack = w[..., None] * _frame_metric_pack(frame)
    gidx = _cell_corner_indices(grid)
    return _assemble_from_gp(grid, _interp_gp(kpack, gidx), gidx)


def _pcg(mat: sp.csr_matrix, b: np.ndarray, x0: np.ndarray,
         tol: float, max_iter: int, precond=None) -> tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients; returns (x, iterations, rel res)."""
    x = x0.copy()
    r = b - mat @ x
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        bnorm = 1.0
    if precond is None:
        apply_m = lambda v: v
    else:
        apply_m = precond
    z = apply_m(r)
    d = z.copy()
    rz = float(r @ z)
    res = np.linalg.norm(r) / bnorm
    it = 0
    while res > tol and it < max_iter:
        q = mat @ d
        alpha = rz / float(d @ q)
        x += alpha * d
        r -= alpha * q
        z = apply_m(r)
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
        res = np.linalg.norm(r) / bnorm
        it += 1
    return x, it, res


def solve_linear_weighted(w: np.ndarray, rhs: np.ndarray,
                          f_boundary: np.ndarray, grid: Grid2D,
                          frame: FrameField,
                          config: SolverConfig | None = None,
                          init: np.ndarray | None = None) -> np.ndarray:
    """Solve -div_X(w D_X u) = rhs with Dirichlet data f on the boundary.

    ``w`` and ``rhs`` are nodal fields; the load uses lumped (trapezoid)
    quadrature.  Raises :class:`LinearSolveError` on stall.
    """
    config = config or SolverConfig()
    interior = grid.interior_mask().ravel()
    if np.any(w[1:-1, 1:-1] <= 0.0):
        raise ValueError("weight must be positive on interior nodes")
    mat = _assemble_stiffness(grid, frame, np.asarray(w, dtype=float))
    f_flat = np.asarray(f_boundary, dtype=float).ravel()
    load = np.asarray(rhs, dtype=float).ravel() * (grid.hx * grid.hy)

    a_ii = mat[interior][:, interior].tocsc()
    a_ib = mat[interior][:, ~interior]
    b = load[interior] - a_ib @ f_flat[~interior]

    max_iter = config.cg_max_iter or 10 * grid.n_nodes
    # complete sparse factorization as the preconditioner: the weight
    # contrast reaches ~1e16 near k = 64, where incomplete/diagonal
    # preconditioning stalls; desk-scale grids keep the LU cheap
    try:
        lu = splu(a_ii)
        precond = lu.solve
    except RuntimeError:
        diag = a_ii.diagonal()
        precond = lambda v: v / diag
    x0 = (np.asarray(init, dtype=float).ravel()[interior]
          if init is not None else np.zeros(int(interior.sum())))
    x, iters, res = _pcg(a_ii.tocsr(), b, x0, config.cg_tol, max_iter, precond)
    if res > config.cg_tol:
        raise LinearSolveError(iters, res)

    u = f_flat.copy()
    u[interior] = x
    return u.reshape(grid.shape)


def harmonic_extension(grid: Grid2D, frame: FrameField, f: np.ndarray,
                       config: SolverConfig | None = None) -> np.ndarray:
    """Discrete frame-harmonic extension of the boundary data (w = 1)."""
    return solve_linear_weighted(np.ones(grid.shape), np.zeros(grid.shape),
                                 f, grid, frame, config)


# ---------------------------------------------------------------------------
# nonlinear outer iteration
# ---------------------------------------------------------------------------

_EXP_LIMIT = 700.0  # exponent guard after normalization (double overflow)


def _picard_weight(u: np.ndarray, frame: FrameField, kp: np.ndarray,
                   delta: float) -> tuple[np.ndarray, float]:
    """Normalized weight (delta^2 + ||D_X u||^2)^{(kp-2)/2} / W and log W.

    Computed in log space; raises if the normalized exponent leaves
    [-700, 700] (weight would over/underflow double precision).
    """
    g = riemannian_gradient(u, frame)
    n2 = delta * delta + g[..., 0] ** 2 + g[..., 1] ** 2
    logw = 0.5 * (kp - 2.0) * np.log(n2)
    logw_max = float(np.max(logw[1:-1, 1:-1]))
    logw = logw - logw_max
    if float(np.min(logw)) < -_EXP_LIMIT:
        raise SolverError(
            "weight dynamic range exceeds e^700 after normalization; "
            "the gradient is too degenerate for this k"
        )
    return np.exp(logw), logw_max


def _jensen_rhs(eps: float, kp: np.ndarray, logw_max: float) -> np.ndarray:
    """sign(eps) |eps|^{kp(x)-1} scaled by the weight normalization."""
    if eps == 0.0:
        return np.zeros_like(kp)
    logmag = (kp - 1.0) * math.log(abs(eps)) - logw_max
    if float(np.max(logmag)) > _EXP_LIMIT:
        raise SolverError("right-hand side overflows after normalization")
    return math.copysign(1.0, eps) * np.exp(logmag)


class _EnergyModel:
    """Gauss-point evaluation of the regularized kp(x) Dirichlet energy.

    J(u) = sum_cells sum_gp detJ (delta^2 + ||A grad u||^2)^{kp/2} / kp
           - sum_interior eps^{kp-1} u h_x h_y,

    whose Euler-Lagrange equation is the lagged problem's fixed point.
    Every quantity is normalized by exp(log_scale) in log space so that
    k = 64 stays inside double precision; the scale is frozen across one
    line search, which leaves Armijo comparisons exact.
    """

    def __init__(self, spec: ProblemSpec, k: float):
        grid = spec.grid
        self.grid = grid
        self.gidx = _cell_corner_indices(grid)
        self.tq = _interp_gp(_frame_metric_pack(spec.frame), self.gidx)
        self.kp_nodal = k * np.asarray(spec.p, dtype=float)
        self.kpq = _interp_gp(self.kp_nodal, self.gidx)
        self.bx = _DXI * (2.0 / grid.hx)
        self.by = _DETA * (2.0 / grid.hy)
        self.detj = grid.hx * grid.hy / 4.0
        self.delta2 = spec.config.delta_reg ** 2
        self.eps = spec.epsilon
        self.interior = grid.interior_mask().ravel()

    def _grads(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        uc = u.ravel()[self.gidx]                            # (ncell, 4)
        gx = np.einsum("ca,qa->cq", uc, self.bx)
        gy = np.einsum("ca,qa->cq", uc, self.by)
        return gx, gy

    def _norm2(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        t = self.tq
        return (self.delta2 + t[..., 0] * gx * gx
                + 2.0 * t[..., 1] * gx * gy + t[..., 2] * gy * gy)

    def log_scale(self, u: np.ndarray) -> float:
        """log of the largest Gauss-point weight m = n^{kp-2} at u.

        Normalizing by the maximum makes overflow impossible; weights at
        the small end may underflow to zero, which simply drops their
        (negligible) energy contribution.
        """
        gx, gy = self._grads(u)
        logm = 0.5 * (self.kpq - 2.0) * np.log(self._norm2(gx, gy))
        return float(np.max(logm))

    def load(self, logs: float) -> np.ndarray:
        """Normalized lumped load vector over all nodes."""
        b = np.zeros(self.grid.n_nodes)
        if self.eps == 0.0:
            return b
        logmag = (self.kp_nodal - 1.0) * math.log(abs(self.eps)) - logs
        if float(np.max(logmag)) > _EXP_LIMIT:
            raise SolverError("right-hand side overflows after normalization")
        mag = math.copysign(1.0, self.eps) * np.exp(logmag)
        b[self.interior] = (mag * (self.grid.hx * self.grid.hy)).ravel()[
            self.interior]
        return b

    def energy(self, u: np.ndarray, logs: float) -> float:
        """Scaled energy; +inf on overflow (rejected by the line search)."""
        gx, gy = self._grads(u)
        n2 = self._norm2(gx, gy)
        with np.errstate(over="ignore"):
            dens = np.exp(0.5 * self.kpq * np.log(n2)
                          - np.log(self.kpq) - logs)
        val = self.detj * float(np.sum(dens))
        b = self.load(logs)
        val -= float(b @ u.ravel())
        return val

    def gradient(self, u: np.ndarray, logs: float) -> np.ndarray:
        """Scaled energy gradient over all nodes (boundary rows included)."""
        gx, gy = self._grads(u)
        n2 = self._norm2(gx, gy)
        m = np.exp(0.5 * (self.kpq - 2.0) * np.log(n2) - logs)
        t = self.tq
        f0 = t[..., 0] * gx + t[..., 1] * gy
        f1 = t[..., 1] * gx + t[..., 2] * gy
        rc = self.detj * (np.einsum("cq,qa->ca", m * f0, self.bx)
                          + np.einsum("cq,qa->ca", m * f1, self.by))
        r = np.zeros(self.grid.n_nodes)
        np.add.at(r, self.gidx, rc)
        return r - self.load(logs)

    def hessian(self, u: np.ndarray, logs: float) -> sp.csr_matrix:
        """Scaled energy Hessian: C = m T + m (kp-2)/n^2 (T xi)(T xi)^t.

        The normalized weight is floored just above the underflow level
        so the matrix never becomes exactly singular where the gradient
        is flat and kp is large; the line search still uses the exact
        energy and gradient.
        """
        gx, gy = self._grads(u)
        n2 = self._norm2(gx, gy)
        m = np.exp(0.5 * (self.kpq - 2.0) * np.log(n2) - logs)
        m = np.maximum(m, 1e-290)
        mp = m * (self.kpq - 2.0) / n2
        t = self.tq
        f0 = t[..., 0] * gx + t[..., 1] * gy
        f1 = t[..., 1] * gx + t[..., 2] * gy
        cq = np.stack([m * t[..., 0] + mp * f0 * f0,
                       m * t[..., 1] + mp * f0 * f1,
                       m * t[..., 2] + mp * f1 * f1], axis=-1)
        return _assemble_from_gp(self.grid, cq, self.gidx)


def solve_pk(spec: ProblemSpec, k: float,
             init: np.ndarray | None = None,
             damping: float | None = None) -> tuple[np.ndarray, PkStats]:
    """Solve -Delta_{X,kp(x)} u = eps^{kp(x)-1}, u = f on the boundary.

    A couple of damped lagged-coefficient (Picard) sweeps warm up the
    iterate while they keep lowering the regularized energy; Newton with
    an Armijo line search on that convex energy then takes over, which
    stays convergent where the pure lagged map starts to oscillate
    (kp beyond about 16).  Weight, load, and Hessian are jointly
    normalized in log space so k = 64 fits in double precision.
    """
    cfg = spec.config
    theta = damping if damping is not None else cfg.damping
    kp = k * np.asarray(spec.p, dtype=float)
    u = (np.asarray(init, dtype=float).copy() if init is not None
         else harmonic_extension(spec.grid, spec.frame, spec.f, cfg))
    model = _EnergyModel(spec, k)
    interior = spec.grid.interior_mask().ravel()
    history: list[float] = []
    converged = False

    # Picard warm-up: accepted only while the energy goes down
    for _ in range(min(2, cfg.picard_max_iter)):
        try:
            w, logw_max = _picard_weight(u, spec.frame, kp, cfg.delta_reg)
            rhs = _jensen_rhs(spec.epsilon, kp, logw_max)
            u_tilde = solve_linear_weighted(w, rhs, spec.f, spec.grid,
                                            spec.frame, cfg, init=u)
        except SolverError:
            break
        u_new = (1.0 - theta) * u + theta * u_tilde
        logs = model.log_scale(u)
        if not model.energy(u_new, logs) < model.energy(u, logs):
            break
        update = float(np.max(np.abs(u_new - u)))
        history.append(update)
        u = u_new
        if update < cfg.picard_tol:
            converged = True
            break

    while not converged and len(history) < cfg.picard_max_iter:
        logs = model.log_scale(u)
        r = model.gradient(u, logs)
        rhs_i = r[interior]
        hess = model.hessian(u, logs)
        a_ii = hess[interior][:, interior]
        # symmetric diagonal equilibration: the weight grading (up to
        # ~e^600 across the domain at large kp) would otherwise sink the
        # direct factorization
        s = 1.0 / np.sqrt(a_ii.diagonal())
        ds = sp.diags(s)
        a_s = (ds @ a_ii @ ds).tocsc()
        try:
            d = s * splu(a_s).solve(s * (-rhs_i))
        except RuntimeError:
            d, _, res = _pcg(a_s.tocsr(), s * (-rhs_i),
                             np.zeros_like(rhs_i), cfg.cg_tol,
                             cfg.cg_max_iter or 10 * spec.grid.n_nodes)
            d = s * d
            if not np.all(np.isfinite(d)):
                raise PicardStall(k, history + [float("nan")]) from None
        slope = float(rhs_i @ d)
        if not slope < 0.0:
            # numerically indefinite step; fall back to steepest descent
            d = -rhs_i
            slope = -float(rhs_i @ rhs_i)
        phi0 = model.energy(u, logs)
        # once the predicted decrease falls below rounding in the energy,
        # further steps only amplify noise through the near-singular
        # directions of the weight; the minimizer is resolved
        if -slope <= 16.0 * np.finfo(float).eps * max(abs(phi0), 1e-300):
            converged = True
            break
        # keep the first trial step commensurate with the data scale; the
        # full Newton step is always tried once |d| is moderate
        step_cap = 10.0 * max(1.0, float(np.ptp(u)))
        dmax = float(np.max(np.abs(d)))
        alpha = min(1.0, step_cap / dmax) if dmax > 0 else 1.0
        u_try = u
        for _ in range(60):
            u_try = u.copy()
            flat = u_try.ravel()
            flat[interior] += alpha * d
            if model.energy(u_try, logs) <= phi0 + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            raise PicardStall(k, history + [alpha * float(np.max(np.abs(d)))])
        update = alpha * float(np.max(np.abs(d)))
        history.append(update)
        u = u_try
        if update < cfg.picard_tol:
            converged = True
    if not converged:
        raise PicardStall(k, history)

    # weak residual of the final iterate in the normalized energy gradient
    logs = model.log_scale(u)
    resid = model.gradient(u, logs)[interior]
    scale = np.linalg.norm(model.load(logs)[interior])
    weak = float(np.linalg.norm(resid) / (scale if scale > 0 else 1.0))
    return u, PkStats(k=k, iterations=len(history),
                      final_update=history[-1] if history else 0.0,
                      weak_residual=weak)


def continue_k(spec: ProblemSpec,
               init: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Warm-started continuation along the k schedule.

    On a Picard stall the failing k is retried twice with halved damping
    before the failure (tagged with k) is propagated.
    """
    cfg = spec.config
    if not cfg.k_schedule:
        raise ValueError("empty k schedule")
    t0 = time.perf_counter()
    report = SolveReport()
    u = (np.asarray(init, dtype=float).copy() if init is not None
         else harmonic_extension(spec.grid, spec.frame, spec.f, cfg))
    prev = None
    for k in cfg.k_schedule:
        theta = cfg.damping
        for attempt in range(3):
            try:
                u_new, stats = solve_pk(spec, k, init=u, damping=theta)
                break
            except PicardStall:
                if attempt == 2:
                    raise
                theta *= 0.5
        report.per_k.append(stats)
        if prev is not None:
            gap = float(np.max(np.abs(u_new - prev)))
            report.gaps.append(gap)
            if gap < cfg.continuation_tol:
                u = u_new
                break
        prev = u_new
        u = u_new
    report.wall_time = time.perf_counter() - t0
    return u, report


def solve_jensen(spec: ProblemSpec,
                 init: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Jensen auxiliary solve: continuation with signed rhs eps^{kp(x)-1}.

    eps > 0 targets the min-form equation, eps < 0 the max-form (odd
    powers keep the sign), eps = 0 the plain variable-exponent
    infinity-Laplace equation.
    """
    return continue_k(spec, init=init)


def _polish_newton(u0: np.ndarray, frame: FrameField, p: np.ndarray,
                   sweeps: int, damping: float = 0.5) -> tuple[np.ndarray, float, float, bool]:
    """Damped pointwise Newton sweeps on the infinity(x) residual.

    Nodes are updated in colored batches (stride 5 in each direction).
    The residual at an interior node is affine in the node's own value,
    so its Newton diagonal is analytic (:meth:`ResidualKernel.diagonal`);
    one residual evaluation after each color's update gives the next
    color's residual and gradient, and after the last color the sweep's
    sup-norm.  Sweeps stop early once the residual sup-norm stalls.  The
    polished field is kept only if the interior residual sup-norm went
    down.
    """
    grid = frame.grid
    kernel = ResidualKernel(frame, p)
    u = u0.copy()
    u_in = u[1:-1, 1:-1]
    r, g1, g2 = kernel.jets(u)
    initial = float(np.max(np.abs(r)))
    best = u.copy()
    best_sup = initial
    step_cap = max(grid.hx, grid.hy)
    # color (cj, ci) holds the nodes (1 + cj + 5a, 1 + ci + 5b)
    colors = [(slice(cj, None, 5), slice(ci, None, 5))
              for cj in range(5) for ci in range(5)
              if cj < u_in.shape[0] and ci < u_in.shape[1]]

    since_improved = 0
    for _ in range(sweeps):
        for c in colors:
            rc = r[c]
            dr = kernel.diagonal(g1[c], g2[c], c)
            ok = np.abs(dr) > 1e-10
            step = np.zeros_like(rc)
            step[ok] = np.clip(rc[ok] / dr[ok], -step_cap, step_cap)
            u_in[c] -= damping * step
            r, g1, g2 = kernel.jets(u)
        cur = float(np.max(np.abs(r)))
        if cur < 0.999 * best_sup:
            since_improved = 0
        else:
            since_improved += 1
        if cur < best_sup:
            best_sup = cur
            best = u.copy()
        if since_improved >= 25:
            break
    accepted = best_sup < initial
    return (best if accepted else u0), initial, min(best_sup, initial), accepted


def solve_dirichlet_infinity(spec: ProblemSpec,
                             init: np.ndarray | None = None
                             ) -> tuple[np.ndarray, SolveReport]:
    """Dirichlet solve of the eps = 0 equation with Newton polish.

    Runs the continuation and then a fixed number of damped pointwise
    Newton sweeps on the residual, accepted only if they reduce the
    interior residual sup-norm.
    """
    if spec.epsilon != 0.0:
        raise ValueError("solve_dirichlet_infinity requires epsilon = 0")
    t0 = time.perf_counter()
    u, report = solve_jensen(spec, init=init)
    if spec.config.polish_sweeps > 0:
        u, r0, r1, ok = _polish_newton(u, spec.frame, spec.p,
                                       spec.config.polish_sweeps)
        report.polish_initial = r0
        report.polish_final = r1
        report.polish_accepted = ok
    report.wall_time = time.perf_counter() - t0
    return u, report
