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
the harmonic polynomial x^2 - y^2 exactly.  It is solved by a direct
SuperLU factorization, in symmetric mode, of the equilibrated interior block.
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


class FactorizationError(SolverError):
    def __init__(self, k: float, iteration: int, message: str):
        super().__init__(f"SuperLU could not factor the Newton Hessian at "
                         f"k={k:g} (iteration {iteration}): {message}")
        self.k, self.iteration, self.message = k, iteration, message


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
                f"  k={s.k:<6g} iterations={s.iterations:<4d} "
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

# cell corners SW, SE, NE, NW: (j, i) offsets and reference coordinates
_CJ, _CI = np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0])
_XI, _ETA = 2.0 * _CI - 1.0, 2.0 * _CJ - 1.0
# 2x2 Gauss points in corner order, as (4, 1) columns: rows are points
_GX, _GY = _XI[:, None] / math.sqrt(3.0), _ETA[:, None] / math.sqrt(3.0)
_SHAPE = 0.25 * (1 + _XI * _GX) * (1 + _ETA * _GY)          # (4 gp, 4 nodes)
_DXI = 0.25 * _XI * (1 + _ETA * _GY)
_DETA = 0.25 * _ETA * (1 + _XI * _GX)


def _interp_gp(nodal: np.ndarray, gidx: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a nodal field to the Gauss points.

    ``nodal`` has shape (ny, nx) or (ny, nx, m); the result has shape
    (ncell, 4gp) or (ncell, 4gp, m).
    """
    vals = nodal.reshape(-1, *nodal.shape[2:])[gidx]        # (ncell, 4, ...)
    return vals @ _SHAPE.T if vals.ndim == 2 else _SHAPE @ vals


def _frame_metric_pack(frame: FrameField) -> np.ndarray:
    """Nodal A^t A packed as (T11, T12, T22), shape (ny, nx, 3)."""
    ata = np.swapaxes(frame.a, -1, -2) @ frame.a
    return ata[..., [0, 0, 1], [0, 1, 1]]


class _InteriorPattern:
    """Interior block of the bilinear stiffness matrix on a fixed CSC pattern.

    Column n holds the interior nodes within one grid step of interior node
    n (numbered row-major), rows ascending.  ``indptr``, ``indices`` and the
    slot of each element-matrix entry (``nnz`` if it touches the boundary)
    depend on the grid alone.
    """

    def __init__(self, grid: Grid2D):
        ny, nx = grid.shape
        mj, mi = ny - 2, nx - 2
        self.n = mj * mi
        node = np.arange(ny * nx).reshape(ny, nx)
        self.gidx = np.stack([node[j:ny - 1 + j, i:nx - 1 + i].ravel()
                              for j, i in zip(_CJ, _CI)], axis=1)  # (ncell, 4)
        self.interior = grid.interior_mask().ravel()
        # interior number of every node (-1 on the boundary), and of the
        # nine neighbours of each interior node in row-major order
        number = np.full((ny, nx), -1)
        number[1:-1, 1:-1] = np.arange(self.n).reshape(mj, mi)
        nbr = np.stack([number[j:j + mj, i:i + mi].ravel()
                        for j in range(3) for i in range(3)], axis=1)
        valid = nbr >= 0
        self.nnz = int(valid.sum())
        table = np.where(valid, np.cumsum(valid).reshape(nbr.shape) - 1,
                         self.nnz)
        self.indices = nbr[valid].astype(np.intc)
        self.indptr = np.append(0, valid.sum(axis=1).cumsum()).astype(np.intc)
        self.col = np.repeat(np.arange(self.n), valid.sum(axis=1))
        self.diag = table[:, 4]
        # entry (a, b) of a cell's element matrix: row corner a, column
        # corner b; each interior node is corner b of exactly one cell, and
        # corner a is interior iff its offset from b is a valid neighbour
        offset = 3 * (_CJ[:, None] - _CJ + 1) + _CI[:, None] - _CI + 1
        slot = np.full((ny - 1, nx - 1, 4, 4), self.nnz)
        for b, (j, i) in enumerate(zip(_CJ, _CI)):
            slot[1 - j:ny - 1 - j, 1 - i:nx - 1 - i, :, b] = \
                table.reshape(mj, mi, 9)[:, :, offset[:, b]]
        self.slot = slot.ravel()
        # element matrices ke = cq.reshape(ncell, 12) @ basis: ke[c, (a, b)]
        # = sum_q detj grad N_a . C(q) grad N_b, cq[c, q] = (C11, C12, C22)
        bx = self.bx = _DXI * (2.0 / grid.hx)                # (4gp, 4nodes)
        by = self.by = _DETA * (2.0 / grid.hy)
        self.detj = grid.hx * grid.hy / 4.0
        outer = lambda p, q: p[:, :, None] * q[:, None, :]   # noqa: E731
        self.basis = self.detj * np.stack(
            [outer(bx, bx), outer(bx, by) + outer(by, bx), outer(by, by)],
            axis=1).reshape(12, 16)

    def assemble(self, ke: np.ndarray) -> np.ndarray:
        """CSC data of the interior block."""
        return np.bincount(self.slot, weights=ke.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(self.n, self.n))

    def lift(self, ke: np.ndarray, f: np.ndarray) -> np.ndarray:
        """A_ib f_b on the interior rows, summed element by element."""
        fe = np.where(self.interior, 0.0, f)[self.gidx]
        kf = (ke.reshape(-1, 4, 4) @ fe[..., None])[..., 0]
        return np.bincount(self.gidx.ravel(), weights=kf.ravel(),
                           minlength=len(f))[self.interior]

    def factor(self, data: np.ndarray):
        """SuperLU factors of S A S, S = diag(A)^(-1/2), and diag(S).

        Equilibration, since the weight grading reaches ~e^600 at large kp,
        leaves S A S SPD with a unit diagonal: LU without pivoting is then
        Cholesky up to a diagonal scaling, and backward stable.
        """
        s = 1.0 / np.sqrt(data[self.diag])
        return splu(self.matrix(data * s[self.indices] * s[self.col]),
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True)), s


def _pcg(mat: sp.csc_matrix, b: np.ndarray, x0: np.ndarray,
         tol: float, max_iter: int, precond) -> tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients; returns (x, iterations, rel res)."""
    x = x0.copy()
    r = b - mat @ x
    bnorm = np.linalg.norm(b) or 1.0
    z = precond(r)
    d = z.copy()
    rz = float(r @ z)
    res = np.linalg.norm(r) / bnorm
    it = 0
    while res > tol and it < max_iter:
        q = mat @ d
        alpha = rz / float(d @ q)
        x += alpha * d
        r -= alpha * q
        z = precond(r)
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
    if np.any(w[1:-1, 1:-1] <= 0.0):
        raise ValueError("weight must be positive on interior nodes")
    pattern = _InteriorPattern(grid)
    interior = pattern.interior
    kpack = np.asarray(w, dtype=float)[..., None] * _frame_metric_pack(frame)
    ke = _interp_gp(kpack, pattern.gidx).reshape(-1, 12) @ pattern.basis
    data = pattern.assemble(ke)
    f_flat = np.asarray(f_boundary, dtype=float).ravel()
    load = np.asarray(rhs, dtype=float).ravel() * (grid.hx * grid.hy)
    b = load[interior] - pattern.lift(ke, f_flat)

    max_iter = config.cg_max_iter or 10 * grid.n_nodes
    # complete sparse factorization as the preconditioner: the weight
    # contrast reaches ~1e16 near k = 64, where incomplete/diagonal
    # preconditioning stalls; desk-scale grids keep the LU cheap
    try:
        lu, s = pattern.factor(data)
        precond = lambda v: s * lu.solve(s * v)
    except RuntimeError:
        diag = data[pattern.diag]
        precond = lambda v: v / diag
    x0 = (np.asarray(init, dtype=float).ravel()[interior]
          if init is not None else np.zeros(pattern.n))
    x, iters, res = _pcg(pattern.matrix(data), b, x0, config.cg_tol, max_iter,
                         precond)
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
        pat = self.pattern = _InteriorPattern(grid)
        self.gidx, self.interior = pat.gidx, pat.interior
        self.bx, self.by, self.detj = pat.bx, pat.by, pat.detj
        self.tq = _interp_gp(_frame_metric_pack(spec.frame), self.gidx)
        self.kp_nodal = k * np.asarray(spec.p, dtype=float)
        self.kpq = _interp_gp(self.kp_nodal, self.gidx)
        self.delta2 = spec.config.delta_reg ** 2
        self.eps = spec.epsilon

    def _grads(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        uc = u.ravel()[self.gidx]                            # (ncell, 4)
        return uc @ self.bx.T, uc @ self.by.T

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
        mag = _jensen_rhs(self.eps, self.kp_nodal, logs)
        return np.where(self.interior,
                        (mag * (self.grid.hx * self.grid.hy)).ravel(), 0.0)

    def energy(self, u: np.ndarray, logs: float) -> float:
        """Scaled energy; +inf on overflow (rejected by the line search)."""
        gx, gy = self._grads(u)
        n2 = self._norm2(gx, gy)
        with np.errstate(over="ignore"):
            dens = np.exp(0.5 * self.kpq * np.log(n2)
                          - np.log(self.kpq) - logs)
        return (self.detj * float(np.sum(dens))
                - float(self.load(logs) @ u.ravel()))

    def gradient(self, u: np.ndarray, logs: float) -> np.ndarray:
        """Scaled energy gradient over all nodes (boundary rows included)."""
        gx, gy = self._grads(u)
        n2 = self._norm2(gx, gy)
        m = np.exp(0.5 * (self.kpq - 2.0) * np.log(n2) - logs)
        t = self.tq
        f0 = t[..., 0] * gx + t[..., 1] * gy
        f1 = t[..., 1] * gx + t[..., 2] * gy
        rc = self.detj * ((m * f0) @ self.bx + (m * f1) @ self.by)
        r = np.bincount(self.gidx.ravel(), weights=rc.ravel(),
                        minlength=self.grid.n_nodes)
        return r - self.load(logs)

    def hessian(self, u: np.ndarray, logs: float) -> np.ndarray:
        """Scaled energy Hessian: C = m T + m (kp-2)/n^2 (T xi)(T xi)^t,
        as the CSC data of its interior block on ``self.pattern``.

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
        return self.pattern.assemble(cq.reshape(-1, 12) @ self.pattern.basis)


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
    interior = model.interior
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
        rhs_i = model.gradient(u, logs)[interior]
        try:
            lu, s = model.pattern.factor(model.hessian(u, logs))
        except RuntimeError as exc:
            raise FactorizationError(k, len(history), str(exc)) from exc
        d = s * lu.solve(s * (-rhs_i))
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
