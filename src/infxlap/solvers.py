"""Existence construction: kp(x)-Laplace solves continued to k -> infinity.

The Dirichlet problem -div_X(||D_X u||^{kp(x)-2} D_X u) = eps^{kp(x)-1}
is the Euler-Lagrange equation of a convex regularized energy, which is
minimized by Newton's method with an Armijo line search.  Increasing k
along a schedule gives the surrogate for the uniform limit u_infinity; the
start is the frame-harmonic extension, the minimizer of the quadratic
energy at kp = 2, which one Newton step finds.  From the third k on,
Newton starts from a secant extrapolation in 1/k guarded by the k-energy
(a predictor-corrector continuation with Newton as the corrector,
Allgower-Georg, *Numerical Continuation Methods*, Springer 1990, ch. 2).

The energy is evaluated over bilinear elements (2x2 Gauss points,
coefficients interpolated from the nodes), once per iterate.  Its Hessian
is symmetric positive definite, reproduces linear fields exactly, and (for
the unit frame at kp = 2) annihilates the harmonic polynomial x^2 - y^2
exactly.  One Newton routine runs both stages, the continuation and the
polish, and reuses the last factors while the steps contract (chord steps):
SuperLU factors the Hessian's equilibrated interior block in symmetric mode
in the grid's nested-dissection numbering, the Jacobian in minimum degree.
"""

from __future__ import annotations

import functools
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import FrameField, Grid2D
# infinity_x_residual_field stays importable here: perfbench traces it as
# solvers.infinity_x_residual_field
from .operators import ResidualKernel, infinity_x_residual_field  # noqa: F401

_P_MIN = 2.0        # smallest exponent p(x) a problem may sample


class SolverError(RuntimeError):
    """Inner or outer iteration failed."""


class NewtonStall(SolverError):
    """A Newton iteration stopped for ``reason`` at ``k`` (None in the
    polish); ``u`` is its last iterate, ``history`` its step lengths."""

    def __init__(self, model, reason: str, u: np.ndarray,
                 history: list[float]):
        last = f", last update {history[-1]:.3e}" if history else ""
        super().__init__(f"Newton iteration ({model.stage}) stopped after "
                         f"{len(history)} steps: {reason}{last}")
        self.k, self.reason, self.u, self.history = model.k, reason, u, history


class FactorizationError(NewtonStall):
    """SuperLU could not factor the stage's matrix at ``u``."""


@dataclass
class SolverConfig:
    """Settings of the continuation and the polish."""

    k_schedule: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    polish_sweeps: int = 20        # cap on global Newton steps at eps = 0

    def __post_init__(self):
        if not all(b > a for a, b in zip(self.k_schedule, self.k_schedule[1:])):
            raise ValueError("k_schedule must be strictly increasing")
        if self.polish_sweeps < 0:
            raise ValueError("polish_sweeps must be >= 0 (0 skips the polish)")


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
        if np.any(self.p < _P_MIN):
            raise ValueError(
                f"exponent below p_min={_P_MIN:g} "
                f"(min sampled p = {np.min(self.p):g})"
            )
        bmask = self.grid.boundary_mask()
        if not np.all(np.isfinite(self.f[bmask])):
            raise ValueError("boundary data not finite on boundary nodes")


@dataclass
class PkStats:
    k: float
    iterations: int
    factorizations: int     # Hessian factorizations, at most one per step
    final_update: float
    weak_residual: float    # interior gradient over its terms' magnitudes
    start: str              # "warm" (the given start) or "secant" (predicted)
    stop: str               # "update below tolerance" or "rounding floor"


@dataclass
class SolveReport:
    per_k: list[PkStats] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    polish_initial: float | None = None
    polish_final: float | None = None
    polish_accepted: bool | None = None
    polish_stop: str | None = None
    polish_steps: int = 0
    polish_factorizations: int = 0
    polish_worst: tuple[int, int] | None = None   # (i, j) of the last iterate

    def format(self) -> str:
        lines = ["solve report"]
        for s in self.per_k:
            lines.append(
                f"  k={s.k:<6g} iterations={s.iterations:<4d} "
                f"factorizations={s.factorizations:<4d} "
                f"final_update={s.final_update:.3e} "
                f"weak_residual={s.weak_residual:.3e} "
                f"start={s.start} stop={s.stop}"
            )
        for a, b, gap in zip(self.per_k, self.per_k[1:], self.gaps):
            lines.append(f"  gap |u_{b.k:g} - u_{a.k:g}|_sup = {gap:.3e}")
        if self.polish_initial is not None:
            i, j = self.polish_worst
            lines.append(
                f"  polish: residual sup {self.polish_initial:.3e} -> "
                f"{self.polish_final:.3e} after {self.polish_steps} Newton "
                f"steps ({self.polish_factorizations} factorizations), "
                f"worst node (i={i}, j={j}): {self.polish_stop} "
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


def _frame_tensor(frame: FrameField) -> np.ndarray:
    """A^t A at the Gauss points, shape (ncell, 4gp, 3)."""
    return _interp_gp(_frame_metric_pack(frame),
                      _interior_pattern(frame.grid).gidx)


def _nested_dissection(mj: int, mi: int) -> np.ndarray:
    """Row-major ids of an mj x mi block in nested-dissection order: split
    across the longer side by a one-node separator numbered after both
    halves, down to two nodes (George, SIAM J. Numer. Anal. 10 (1973)
    345-363).

    A block's order depends on its shape alone, so each distinct shape is
    ordered once.
    """
    @functools.cache
    def order(r: int, c: int) -> np.ndarray:
        if r * c <= 2:
            return np.arange(r * c)
        if c > r:       # a wide block is ordered as its transpose
            t = order(c, r)
            return t % r * c + t // r
        s = r // 2
        return np.concatenate([order(s, c), order(r - s - 1, c) + (s + 1) * c,
                               s * c + np.arange(c)])
    return order(mj, mi)


class _InteriorPattern:
    """Interior block of the bilinear stiffness matrix on a fixed CSC pattern.

    Interior nodes are numbered in nested-dissection order, which the
    factorization keeps; ``interior`` holds their flat ids in that order.
    Column n holds the interior nodes that share a cell with node n, rows
    ascending.  ``indptr``, ``indices`` and the slot of each element-matrix
    entry (``nnz`` if it touches the boundary) depend on the grid alone.
    """

    def __init__(self, grid: Grid2D):
        ny, nx = grid.shape
        self.n = n = (ny - 2) * (nx - 2)
        node = np.arange(ny * nx).reshape(ny, nx)
        self.gidx = np.stack([node[j:ny - 1 + j, i:nx - 1 + i].ravel()
                              for j, i in zip(_CJ, _CI)], axis=1)  # (ncell, 4)
        self.interior = node[1:-1, 1:-1].ravel()[
            _nested_dissection(ny - 2, nx - 2)]
        number = np.full(ny * nx, -1)
        number[self.interior] = np.arange(n)
        # entry (a, b) of a cell's element matrix: row corner a, column
        # corner b, at CSC key column * n + row
        corner = number[self.gidx]
        inside = (corner[:, :, None] >= 0) & (corner[:, None, :] >= 0)
        keys, slot = np.unique((corner[:, None, :] * n + corner[:, :, None])
                               [inside], return_inverse=True)
        self.nnz = len(keys)
        self.slot = np.full(inside.size, self.nnz)
        self.slot[inside.ravel()] = slot
        self.indices, self.col = (keys % n).astype(np.intc), keys // n
        self.indptr = np.searchsorted(self.col, range(n + 1)).astype(np.intc)
        self.diag = np.searchsorted(keys, np.arange(n) * (n + 1))
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

    def factor(self, data: np.ndarray):
        """SuperLU factors of S A S, S = diag(A)^(-1/2), and diag(S).

        Equilibration, since the weight grading reaches ~e^600 at large kp,
        leaves S A S SPD with a unit diagonal: LU without pivoting is then
        Cholesky up to a diagonal scaling, and backward stable.
        """
        s = 1.0 / np.sqrt(data[self.diag])
        return splu(self.matrix(data * s[self.indices] * s[self.col]),
                    permc_spec="NATURAL", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True)), s


@functools.lru_cache(maxsize=1)
def _interior_pattern(grid: Grid2D) -> _InteriorPattern:
    """The grid's pattern, built once while the same grid is solved on."""
    return _InteriorPattern(grid)


# ---------------------------------------------------------------------------
# nonlinear outer iteration
# ---------------------------------------------------------------------------

_EXP_LIMIT = 700.0  # exponent guard after normalization (double overflow)
_DELTA_REG = 1e-8   # gradient regularization inside the energy weights


# u at the Gauss points: n2 = delta^2 + ||A grad u||^2, its log, logm = log
# of the weight n^{kp-2}, the flux T grad u and log_scale = max logm, whose
# normalization makes overflow impossible (weights at the small end may
# underflow to zero, dropping their negligible energy contribution).
_GaussValues = namedtuple("_GaussValues",
                          "u n2 ln_n2 logm log_scale f0 f1")


class _EnergyModel:
    """Gauss-point evaluation of the regularized kp(x) Dirichlet energy.

    J(u) = sum_cells sum_gp detJ (delta^2 + ||A grad u||^2)^{kp/2} / kp
           - sum_interior eps^{kp-1} u h_x h_y,

    whose Euler-Lagrange equation is the kp(x)-Laplace problem above.
    Every quantity is normalized by exp(log_scale) in log space so that
    k = 64 stays inside double precision; the scale is frozen across one
    line search, which leaves Armijo comparisons exact.
    """

    converged = "update below tolerance"     # _newton's stop when solved

    def __init__(self, spec: ProblemSpec, k: float, tq: np.ndarray):
        """``tq``: :func:`_frame_tensor` of ``spec.frame``, shared by the
        models of one continuation."""
        self.k, self.stage = k, f"kp(x)-energy Hessian at k={k:g}"
        self.factorizations = 0
        self.grid = grid = spec.grid
        pat = self.pattern = _interior_pattern(grid)
        self.gidx, self.interior = pat.gidx, pat.interior
        self.bx, self.by, self.detj = pat.bx, pat.by, pat.detj
        self.tq = tq
        self.kp_nodal = k * np.asarray(spec.p, dtype=float)
        self.kpq = _interp_gp(self.kp_nodal, self.gidx)
        self.delta2 = _DELTA_REG ** 2
        self.eps = spec.epsilon
        # interior cell areas carrying the sign of eps, 0.0 on the boundary
        area = grid.hx * grid.hy
        self.area = np.where(grid.interior_mask(),
                             -area if self.eps < 0 else area, 0.0).ravel()

    def evaluate(self, u: np.ndarray) -> _GaussValues:
        uc = u.ravel()[self.gidx]                            # (ncell, 4)
        gx, gy = uc @ self.bx.T, uc @ self.by.T
        t = self.tq
        n2 = (self.delta2 + t[..., 0] * gx * gx
              + 2.0 * t[..., 1] * gx * gy + t[..., 2] * gy * gy)
        ln_n2 = np.log(n2)
        logm = 0.5 * (self.kpq - 2.0) * ln_n2
        return _GaussValues(u, n2, ln_n2, logm, float(np.max(logm)),
                            t[..., 0] * gx + t[..., 1] * gy,
                            t[..., 1] * gx + t[..., 2] * gy)

    def load(self, logs: float) -> np.ndarray:
        """Normalized lumped load vector over all nodes: |eps|^{kp(x)-1}
        scaled by the weight normalization, times the signed cell area."""
        if self.eps == 0.0:
            return np.zeros_like(self.area)
        logmag = (self.kp_nodal - 1.0) * math.log(abs(self.eps)) - logs
        over = logmag > _EXP_LIMIT
        if np.any(over):
            j, i = np.unravel_index(np.argmax(over), over.shape)
            raise SolverError(f"right-hand side overflows after normalization"
                              f" at k={self.k:g}, node (i={i}, j={j})")
        return np.exp(logmag).ravel() * self.area

    def energy(self, ev: _GaussValues, logs: float) -> float:
        """Scaled energy; +inf on overflow (rejected by the line search)."""
        with np.errstate(over="ignore"):
            dens = np.exp(0.5 * self.kpq * ev.ln_n2 - np.log(self.kpq) - logs)
        return (self.detj * float(np.sum(dens))
                - float(self.load(logs) @ ev.u.ravel()))

    def below(self, u: np.ndarray, v: np.ndarray) -> bool:
        """Whether the energy of u is below that of v, both normalized at
        the larger of their scales."""
        a, b = self.evaluate(u), self.evaluate(v)
        logs = max(a.log_scale, b.log_scale)
        return self.energy(a, logs) < self.energy(b, logs)

    def _elements(self, ev: _GaussValues, logs: float) -> np.ndarray:
        """Scaled element gradients, shape (ncell, 4 nodes)."""
        m = np.exp(ev.logm - logs)
        return self.detj * ((m * ev.f0) @ self.bx + (m * ev.f1) @ self.by)

    def _assemble(self, rc: np.ndarray) -> np.ndarray:
        return np.bincount(self.gidx.ravel(), weights=rc.ravel(),
                           minlength=self.grid.n_nodes)

    def gradient(self, ev: _GaussValues, logs: float) -> np.ndarray:
        """Scaled energy gradient over all nodes (boundary rows included)."""
        return self._assemble(self._elements(ev, logs)) - self.load(logs)

    def weak_residual(self, ev: _GaussValues) -> float:
        """Interior gradient norm relative to the norm of its terms'
        magnitudes (assembled |element gradients| plus |load|): a relative
        figure at any eps and k, near rounding once the stage resolves."""
        logs = ev.log_scale
        rc, load = self._elements(ev, logs), self.load(logs)
        r = (self._assemble(rc) - load)[self.interior]
        scale = np.linalg.norm(
            (self._assemble(np.abs(rc)) + np.abs(load))[self.interior])
        return float(np.linalg.norm(r) / (scale if scale > 0 else 1.0))

    def hessian(self, ev: _GaussValues, logs: float) -> np.ndarray:
        """Scaled energy Hessian: C = m T + m (kp-2)/n^2 (T xi)(T xi)^t,
        as the CSC data of its interior block on ``self.pattern``.

        The normalized weight is floored just above the underflow level
        so the matrix never becomes exactly singular where the gradient
        is flat and kp is large; the line search still uses the exact
        energy and gradient.
        """
        m = np.maximum(np.exp(ev.logm - logs), 1e-290)
        mp = m * (self.kpq - 2.0) / ev.n2
        t, f0, f1 = self.tq, ev.f0, ev.f1
        cq = np.stack([m * t[..., 0] + mp * f0 * f0,
                       m * t[..., 1] + mp * f0 * f1,
                       m * t[..., 2] + mp * f1 * f1], axis=-1)
        return self.pattern.assemble(cq.reshape(-1, 12) @ self.pattern.basis)

    # as a model for _newton: the merit is the energy and the residual its
    # interior gradient, each normalized at the reference iterate's scale
    def residual(self, ev: _GaussValues) -> np.ndarray:
        return self.gradient(ev, ev.log_scale)[self.interior]

    def merit(self, ev: _GaussValues, ref: _GaussValues) -> float:
        return self.energy(ev, ref.log_scale)

    def slope(self, grad: np.ndarray, d: np.ndarray) -> float:
        return float(grad @ d)

    def solved(self, ev: _GaussValues, update: float) -> bool:
        return update < _NEWTON_TOL

    def factor(self, ev: _GaussValues):
        """Direction solver from the SuperLU factors of the equilibrated
        Hessian at ev; it keeps no Gauss-point values alive."""
        lu, s = self.pattern.factor(self.hessian(ev, ev.log_scale))
        logs, self.factorizations = ev.log_scale, self.factorizations + 1
        # energy, gradient and Hessian all carry exp(-log_scale), so
        # factors built at another scale are rescaled by the difference
        return lambda grad, at: (math.exp(at.log_scale - logs)
                                 * (s * lu.solve(s * -grad)))


_NEWTON_TOL = 1e-8        # sup-norm update that ends a k stage
_CONTINUATION_TOL = 1e-4  # sup-norm gap between successive k that ends it
_POLISH_TOL = 1e-9        # interior residual sup-norm that ends the polish
_CHORD_CONTRACTION = 0.1  # largest chord step over the last update
_NEWTON_MAX_ITER = 500


def _factor(model, state, history=()):
    """``model.factor(state)``, raising :class:`FactorizationError`."""
    try:
        return model.factor(state)
    except RuntimeError as exc:
        raise FactorizationError(model, "factorization failed: SuperLU could"
                                 f" not factor the {model.stage}: {exc}",
                                 state.u, list(history)) from exc


def _newton(model, u: np.ndarray, max_steps: int):
    """Newton with an Armijo line search on ``model``'s merit, from u.

    ``model.factor(state)`` returns a direction solver ``(g, state) -> d``
    for ``g = model.residual(state)``; ``merit(state, ref)`` is normalized
    at ref and has the derivative ``slope(g, d)`` along d.  After a full
    step the last factors are reused (a chord step, Kelley, *Solving
    Nonlinear Equations with Newton's Method*, SIAM 2003, ch. 5.4) if their
    direction descends and is at most ``_CHORD_CONTRACTION`` times the last
    update.  Returns (state, step lengths, stop reason): ``model.converged``
    once ``model.solved(state, last update)``, or else "rounding floor"
    after a fresh step whose predicted decrease is below rounding in the
    merit.
    """
    state, history, factors, full = model.evaluate(u), [], None, False
    while not model.solved(state, history[-1] if history else math.inf):
        if len(history) >= max_steps:
            raise NewtonStall(model, "step cap", state.u, history)
        g = model.residual(state)
        d = factors(g, state) if full else None
        # a chord step must descend and contract the last update
        fresh = d is None or not (model.slope(g, d) < 0.0 and float(
            np.max(np.abs(d))) <= _CHORD_CONTRACTION * history[-1])
        if fresh:
            factors = None      # free the old factors before factoring anew
            factors = _factor(model, state, history)
            d = factors(g, state)
        slope = model.slope(g, d)
        if not slope < 0.0:
            raise NewtonStall(model, "no descent direction", state.u, history)
        phi0 = model.merit(state, state)
        # once the predicted decrease falls below rounding in the merit,
        # the line search cannot tell the full step from noise: take it,
        # and after a fresh Newton step stop, the solution is resolved
        floor = -slope <= 16.0 * np.finfo(float).eps * max(abs(phi0), 1e-300)
        # keep the first trial step commensurate with the data scale; the
        # full Newton step is always tried once |d| is moderate
        step_cap = 10.0 * max(1.0, float(np.ptp(state.u)))
        dmax = float(np.max(np.abs(d)))
        alpha = 1.0 if floor or dmax == 0 else min(1.0, step_cap / dmax)
        for _ in range(60):
            u_try = state.u.copy()
            u_try.ravel()[model.interior] += alpha * d
            trial = model.evaluate(u_try)
            if floor or (model.merit(trial, state)
                         <= phi0 + 1e-4 * alpha * slope):
                break
            alpha *= 0.5
        else:
            raise NewtonStall(model, "line search failed", state.u, history)
        history.append(alpha * dmax)
        state, full = trial, alpha == 1.0
        if floor and fresh and not model.solved(state, history[-1]):
            return state, history, "rounding floor"
    return state, history, model.converged


def harmonic_extension(grid: Grid2D, frame: FrameField,
                       f: np.ndarray) -> np.ndarray:
    """Discrete frame-harmonic extension of the boundary values of f.

    The kp = 2 energy is quadratic, so one Newton step from f with its
    interior zeroed (only the boundary of f need be finite) minimizes it.
    """
    u = np.where(grid.interior_mask(), 0.0, np.asarray(f, dtype=float))
    model = _EnergyModel(ProblemSpec(grid=grid, frame=frame, f=u,
                                     p=np.full(grid.shape, 2.0)), 1.0,
                         _frame_tensor(frame))
    ev = model.evaluate(u)
    u.ravel()[model.interior] += _factor(model, ev)(model.residual(ev), ev)
    return u


def continue_k(spec: ProblemSpec,
               init: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Predictor-corrector continuation along the k schedule.

    Each k runs :func:`_newton` on the convex regularized kp(x) energy
    until an update falls below ``_NEWTON_TOL``.  The first k starts from
    ``init`` or the harmonic extension of f, the second from the first
    minimizer.  From the third on, with u0 and u1 the minimizers at k0 <
    k1, Newton starts from the prediction u1 + c (u1 - u0), c = (1/k -
    1/k1) / (1/k1 - 1/k0), linear in 1/k and 0.5 on a doubling schedule,
    if its k-energy is below u1's at one normalization, and from u1
    otherwise.  Every k shares one frame tensor at the Gauss points.  The
    continuation stops once successive minimizers differ by less than
    ``_CONTINUATION_TOL``.  With eps != 0 it solves the Jensen auxiliary
    equation: eps > 0 targets the min form, eps < 0 the max form.  A
    Newton failure propagates, tagged with its k.
    """
    if not spec.config.k_schedule:
        raise ValueError("empty k schedule")
    t0 = time.perf_counter()
    tq = _frame_tensor(spec.frame)
    u = (np.asarray(init, dtype=float) if init is not None
         else harmonic_extension(spec.grid, spec.frame, spec.f))
    report, path = SolveReport(), []    # path: last two (k, u_k)
    for k in spec.config.k_schedule:
        model, start = _EnergyModel(spec, k, tq), "warm"
        if len(path) == 2:
            (k0, u0), (k1, u1) = path
            c = (1.0 / k - 1.0 / k1) / (1.0 / k1 - 1.0 / k0)
            predicted = u1 + c * (u1 - u0)
            if model.below(predicted, u):
                u, start = predicted, "secant"
        ev, history, stop = _newton(model, u, _NEWTON_MAX_ITER)
        u = ev.u
        report.per_k.append(PkStats(
            k=k, iterations=len(history),
            factorizations=model.factorizations, final_update=history[-1],
            weak_residual=model.weak_residual(ev), start=start, stop=stop))
        if path:
            gap = float(np.max(np.abs(u - path[-1][1])))
            report.gaps.append(gap)
            if gap < _CONTINUATION_TOL:
                break
        path = path[-1:] + [(k, u)]
    report.wall_time = time.perf_counter() - t0
    return u, report


def solve_pk(spec: ProblemSpec, k: float,
             init: np.ndarray | None = None) -> tuple[np.ndarray, PkStats]:
    """The kp(x) minimizer at one k: :func:`continue_k` on the schedule
    (k,), from ``init`` or the harmonic extension of f."""
    one = replace(spec, config=replace(spec.config, k_schedule=(k,)))
    u, report = continue_k(one, init)
    return u, report.per_k[0]


class _PolishModel:
    """The discrete infinity(x)-equation r(u) = 0 as a model for
    :func:`_newton`.  The merit is ||r||_2, whose slope along the Newton
    direction is -||r||_2, so Armijo asks ||r_new|| <= (1 - 1e-4 a)||r||.
    """

    k, stage, factorizations = None, "infinity(x)-equation Jacobian", 0
    converged = "converged"
    State = namedtuple("State", "u r")      # r: interior, row-major

    def __init__(self, frame: FrameField, p: np.ndarray):
        self.kernel = ResidualKernel(frame, p)
        self.interior = np.flatnonzero(frame.grid.interior_mask())

    def evaluate(self, u: np.ndarray) -> State:
        return self.State(u, self.kernel.jets(u)[0].ravel())

    def residual(self, state: State) -> np.ndarray:
        return state.r

    def merit(self, state: State, ref: State) -> float:
        return float(np.linalg.norm(state.r))

    def slope(self, r: np.ndarray, d: np.ndarray) -> float:
        return -float(np.linalg.norm(r))

    def solved(self, state: State, update: float) -> bool:
        return float(np.max(np.abs(state.r))) < _POLISH_TOL

    def factor(self, state: State):
        # a minimum-degree order on J + J^t with a weak pivot threshold
        # has ~40 % less fill than COLAMD and factors twice as fast
        lu = splu(self.kernel.jacobian(state.u), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.01)
        self.factorizations += 1
        return lambda r, at: -lu.solve(r)


def _polish_newton(u0: np.ndarray, frame: FrameField, p: np.ndarray,
                   sweeps: int, report: SolveReport) -> np.ndarray:
    """At most ``sweeps`` steps (chord steps count) of :func:`_newton` on
    the interior infinity(x) residual, accepted once sup |r| < _POLISH_TOL;
    on a stop (step cap, failed line search or factorization) ``u0`` comes
    back.  ``report`` gets the initial and last iterate's residual sup, the
    verdict, the steps, factorizations, stop reason and the worst node."""
    model = _PolishModel(frame, p)
    report.polish_initial = float(np.max(np.abs(model.evaluate(u0).r)))
    try:
        state, history, stop = _newton(model, u0, sweeps)
    except NewtonStall as exc:
        state, history, stop = model.evaluate(exc.u), exc.history, exc.reason
    jj, ii = np.unravel_index(np.argmax(np.abs(state.r)),
                              np.subtract(u0.shape, 2))
    report.polish_worst = (int(ii) + 1, int(jj) + 1)
    report.polish_final = float(np.max(np.abs(state.r)))
    report.polish_accepted, report.polish_stop = stop == "converged", stop
    report.polish_steps = len(history)
    report.polish_factorizations = model.factorizations
    return state.u if report.polish_accepted else u0


def solve_dirichlet_infinity(spec: ProblemSpec,
                             init: np.ndarray | None = None
                             ) -> tuple[np.ndarray, SolveReport]:
    """Dirichlet solve of the problem ``spec`` poses, for any eps.

    Runs the continuation.  At eps = 0 it then takes at most
    ``polish_sweeps`` global Newton steps on the discrete residual; if
    they do not reach a residual sup-norm below ``_POLISH_TOL``, the
    continuation field is returned and the report names the rejection,
    its steps and its worst node.  At eps != 0 the Jensen continuation
    field is the result, unpolished.
    """
    t0 = time.perf_counter()
    u, report = continue_k(spec, init=init)
    if spec.epsilon == 0.0 and spec.config.polish_sweeps > 0:
        u = _polish_newton(u, spec.frame, spec.p,
                           spec.config.polish_sweeps, report)
    report.wall_time = time.perf_counter() - t0
    return u, report
