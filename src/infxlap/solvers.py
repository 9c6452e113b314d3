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
polish; from k = 8 an accepted polish ends the schedule.  One band rule
picks the factorization of both stages.  Where the grid's short interior
side m has at most ``_BAND_MAX`` nodes, the unknowns are numbered along it
and LAPACK factors a band: the equilibrated Hessian's (half-width m + 1) by
Cholesky, the polish Jacobian's (kl = ku = 2m) by pivoted LU.  The band's
dense kernels beat SuperLU's per-column work: on 2 cores the Jacobian's LU
(its values read from the iterate's jet) takes 0.15 against 0.8 ms at 17^2
and 9-11 against 15 ms at 65^2, and a solve 0.011 against 0.018 ms at 17^2
but 0.64 against 0.40-0.65 ms at 65^2.  On wider grids SuperLU factors the
Hessian in nested-dissection order, whose fill grows more slowly (George &
Liu, *Computer Solution of Large Sparse Positive Definite Systems*, 1981,
chs. 4 and 8), and the Jacobian in minimum degree.  Later steps reuse the
factors (chord steps) or precondition GMRES with them, the Hessian's only
off the band.
"""

from __future__ import annotations

import functools
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .grid import FrameField, Grid2D
# infinity_x_residual_field stays importable here: perfbench traces it as
# solvers.infinity_x_residual_field
from .operators import ResidualKernel, infinity_x_residual_field  # noqa: F401

_P_MIN = 2.0        # smallest exponent p(x) a problem may sample
# widest short interior side factored as a band (65 nodes across); the
# band's fill grows as m^3, nested dissection's as m^2 log m
_BAND_MAX = 63


class SolverError(RuntimeError):
    """Inner or outer iteration failed."""


class NewtonStall(SolverError):
    """A Newton iteration stopped for ``reason`` at ``k`` (None in the
    polish): ``u`` is its last iterate, ``run`` its run, whose stop it sets."""

    def __init__(self, model, reason: str, u: np.ndarray, run: NewtonRun):
        run.stop = reason
        last = f", last update {run.final_update:.3e}" if run.history else ""
        super().__init__(f"Newton iteration ({model.stage}) stopped after "
                         f"{run.iterations} steps: {reason}{last}")
        self.k, self.reason, self.u, self.run = model.k, reason, u, run


class FactorizationError(NewtonStall):
    """The stage's matrix at ``u`` could not be factored."""


@dataclass
class SolverConfig:
    """Settings of the continuation and the polish."""

    k_schedule: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    polish_sweeps: int = 20        # cap on global Newton steps at eps = 0

    def __post_init__(self):
        if not all(b > a for a, b in zip(self.k_schedule, self.k_schedule[1:])):
            raise ValueError("k_schedule must be strictly increasing")
        # k >= 1 keeps kp >= p >= _P_MIN, as operators.ExponentData asks
        if not all(1.0 <= k < math.inf for k in self.k_schedule):
            raise ValueError(f"k_schedule must hold finite k >= 1, not "
                             f"{', '.join(map(str, self.k_schedule))}")
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
        if self.grid != self.frame.grid:
            raise ValueError(f"grid {self.grid} is not the frame's grid "
                             f"{self.frame.grid}")
        self.grid = self.frame.grid     # one grid object, one pattern
        for name, value in (("p", self.p), ("f", self.f)):
            if np.shape(value) != self.grid.shape:
                raise ValueError(f"{name} has shape {np.shape(value)}, not "
                                 f"the grid's {self.grid.shape}")
        if np.any(self.p < _P_MIN):
            raise ValueError(f"exponent below p_min={_P_MIN:g} "
                             f"(min sampled p = {np.min(self.p):g})")
        if not np.all(np.isfinite(self.f[self.grid.boundary_mask()])):
            raise ValueError("boundary data not finite on boundary nodes")


@dataclass
class NewtonRun:
    """What one :func:`_newton` run did: its steps, stop and linear solves."""

    history: list[float] = field(default_factory=list)
    stop: str = ""
    factorizations: int = 0     # at most one a step
    chord_steps: int = 0        # steps on the last factors alone
    krylov_solves: int = 0      # preconditioned by them, tried
    krylov_iterations: int = 0
    superlu_fallbacks: int = 0  # band Cholesky breakdowns SuperLU factored

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def final_update(self) -> float:
        return self.history[-1] if self.history else math.nan

    def format_counts(self) -> str:
        return " ".join([f"{name}={getattr(self, name):<4d}" for name in (
            "iterations", "factorizations", "chord_steps", "krylov_solves",
            "krylov_iterations", "superlu_fallbacks")]
            + [f"final_update={self.final_update:.3e}"])


@dataclass(kw_only=True)
class PkStats(NewtonRun):
    """A k stage's run, stopped at the tolerance or the rounding floor."""

    k: float
    start: str              # "warm" (the given start) or "secant" (predicted)
    weak_residual: float    # interior gradient over its terms' magnitudes


@dataclass
class SolveReport:
    per_k: list[PkStats] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    tries: list[tuple[float, NewtonRun]] = field(default_factory=list)
    polish: NewtonRun | None = None     # the deciding try; None if none ran
    polish_initial: float | None = None
    polish_final: float | None = None
    polish_worst: tuple[int, int] | None = None   # (i, j) of the last iterate

    @property
    def polish_accepted(self) -> bool | None:     # None when no polish ran
        return self.polish and self.polish.stop == _PolishModel.converged

    def format(self) -> str:
        lines = ["solve report"]
        for s in self.per_k:
            lines.append(f"  k={s.k:<6g} {s.format_counts()} "
                         f"weak_residual={s.weak_residual:.3e} "
                         f"start={s.start} stop={s.stop}")
        for a, b, gap in zip(self.per_k, self.per_k[1:], self.gaps):
            lines.append(f"  gap |u_{b.k:g} - u_{a.k:g}|_sup = {gap:.3e}")
        lines += [f"  polish from k={k:g}: {r.format_counts()}: {r.stop} "
                  "(rejected)" for k, r in self.tries[:-1]]     # early tries
        if self.polish is not None:
            i, j = self.polish_worst
            at = f" from k={self.tries[-1][0]:g}" if self.tries else ""
            lines.append(
                f"  polish{at}: residual sup {self.polish_initial:.3e} -> "
                f"{self.polish_final:.3e} {self.polish.format_counts()} "
                f"worst node (i={i}, j={j}): {self.polish.stop} "
                f"({'accepted' if self.polish_accepted else 'rejected'})")
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


def _frame_tensor(frame: FrameField) -> tuple[np.ndarray, ...]:
    """A^t A at the Gauss points: contiguous T11, T12, T22, each (ncell, 4)."""
    ata = np.swapaxes(frame.a, -1, -2) @ frame.a
    t = _interp_gp(ata[..., [0, 0, 1], [0, 1, 1]],
                   frame.grid.interior_pattern.gidx)
    return tuple(np.ascontiguousarray(t[..., c]) for c in range(3))


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


def _band_slots(r, c, top: int, rows: int) -> np.ndarray:
    """Slots of entries (r, c) in LAPACK band storage, column-major with
    ``rows`` rows: entry (r, c) at row top + r - c of column c."""
    return top + r - c + c * rows


class _InteriorPattern:
    """Interior block of the bilinear stiffness matrix on a fixed CSC pattern.

    The grid's short interior side m chooses the numbering, and with it the
    factorization.  Up to ``_BAND_MAX`` nodes the interior is numbered
    along the short side, which makes the block a band of half-width
    ``kd`` = m + 1; wider grids number it in nested-dissection order and
    ``kd`` is None.  ``interior`` holds the flat node ids in that order.
    Column n holds the interior nodes that share a cell with node n, rows
    ascending.  ``indptr``, ``indices`` and the slot of each element-matrix
    entry (``nnz`` if it touches the boundary) depend on the grid alone, as
    does the band-storage slot of each lower-triangle entry.  Each grid
    owns its pattern, built on first use as ``grid.interior_pattern``.
    """

    def __init__(self, grid: Grid2D):
        ny, nx = grid.shape
        self.n = n = (ny - 2) * (nx - 2)
        node = np.arange(ny * nx).reshape(ny, nx)
        self.gidx = np.stack([node[j:ny - 1 + j, i:nx - 1 + i].ravel()
                              for j, i in zip(_CJ, _CI)], axis=1)  # (ncell, 4)
        inner, m = node[1:-1, 1:-1], min(ny, nx) - 2
        if m <= _BAND_MAX:
            self.kd = m + 1
            self.interior = (inner if nx <= ny else inner.T).ravel()
        else:
            self.kd = None
            self.interior = inner.ravel()[_nested_dissection(ny - 2, nx - 2)]
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
        if self.kd is not None:
            # LAPACK lower band storage, kd + 1 rows: r >= c at row r - c
            self.lower = np.flatnonzero(self.indices >= self.col)
            self.band = _band_slots(self.indices[self.lower],
                                    self.col[self.lower], 0, self.kd + 1)
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

    def factor(self, data: np.ndarray, run: NewtonRun | None = None):
        """A solve x = (S A S)^(-1) b from factors of S A S, and diag(S),
        S = diag(A)^(-1/2).

        Equilibration, since the weight grading reaches ~e^600 at large kp,
        leaves S A S SPD with a unit diagonal.  On a band (``kd`` set),
        LAPACK's ``dpbtrf`` factors it by Cholesky in place: from 17 to 65
        nodes across, its dense kernels take a seventh to a half of
        SuperLU's time, which goes to per-column work.  Elsewhere SuperLU
        factors it in nested-dissection order without pivoting, which is
        then Cholesky up to a diagonal scaling, and backward stable; its
        fill grows more slowly than the band's.  Where rounding leaves the
        band a non-positive pivot, SuperLU's unpivoted LU factors the same
        matrix instead, and ``run.superlu_fallbacks`` counts it; with no run
        to count it in, the breakdown raises.
        """
        s = 1.0 / np.sqrt(data[self.diag])
        sas = data * s[self.indices] * s[self.col]
        if self.kd is not None:
            ab = np.zeros((self.kd + 1) * self.n)
            ab[self.band] = sas[self.lower]
            # Fortran order, so that f2py factors the array in place
            cb, info = dpbtrf(ab.reshape(self.kd + 1, self.n, order="F"),
                              lower=1, overwrite_ab=1)
            if info == 0:
                return lambda b: dpbtrs(cb, b, lower=1)[0], s
            if run is None:
                raise RuntimeError(f"band Cholesky met a non-positive pivot "
                                   f"at {info} and no run records a fallback")
            run.superlu_fallbacks += 1
        return splu(self.matrix(sas), permc_spec="NATURAL",
                    diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True)).solve, s


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

    def __init__(self, spec: ProblemSpec, k: float):
        self.k, self.stage = k, f"kp(x)-energy Hessian at k={k:g}"
        self.grid = grid = spec.grid
        pat = self.pattern = grid.interior_pattern
        self.gidx, self.interior = pat.gidx, pat.interior
        self.bx, self.by, self.detj = pat.bx, pat.by, pat.detj
        self.tq = spec.frame.gauss_metric
        kp_nodal = k * np.asarray(spec.p, dtype=float)
        kpq = _interp_gp(kp_nodal, self.gidx)
        self.half_kp, self.half_kpm2 = 0.5 * kpq, 0.5 * (kpq - 2.0)
        self.ln_kpq = np.log(kpq)
        self.eps = spec.epsilon
        # log |eps|^{kp-1} (unused at eps = 0), interior cell areas signed
        self.log_load = (kp_nodal - 1.0) * math.log(abs(self.eps) or 1.0)
        area = grid.hx * grid.hy
        self.area = np.where(grid.interior_mask(),
                             -area if self.eps < 0 else area, 0.0).ravel()

    def evaluate(self, u: np.ndarray) -> _GaussValues:
        uc = u.ravel()[self.gidx]                            # (ncell, 4)
        gx, gy = uc @ self.bx.T, uc @ self.by.T
        t11, t12, t22 = self.tq
        n2 = (_DELTA_REG ** 2 + t11 * gx * gx
              + 2.0 * t12 * gx * gy + t22 * gy * gy)
        ln_n2 = np.log(n2)
        logm = self.half_kpm2 * ln_n2
        return _GaussValues(u, n2, ln_n2, logm, float(logm.max()),
                            t11 * gx + t12 * gy, t12 * gx + t22 * gy)

    def load(self, logs: float) -> np.ndarray | float:
        """Normalized lumped load over all nodes, 0.0 at eps = 0: |eps|^{kp-1}
        scaled by the weight normalization, times the signed cell area."""
        if self.eps == 0.0:
            return 0.0
        logmag = self.log_load - logs
        over = logmag > _EXP_LIMIT
        if np.any(over):
            j, i = np.unravel_index(np.argmax(over), over.shape)
            raise SolverError(f"right-hand side overflows after normalization"
                              f" at k={self.k:g}, node (i={i}, j={j})")
        return np.exp(logmag).ravel() * self.area

    @np.errstate(over="ignore")
    def energy(self, ev: _GaussValues, logs: float) -> float:
        """Scaled energy; +inf on overflow (rejected by the line search)."""
        dens = np.exp(self.half_kp * ev.ln_n2 - self.ln_kpq - logs)
        return self.detj * float(dens.sum()) - (
            float(self.load(logs) @ ev.u.ravel()) if self.eps else 0.0)

    def start(self, u: np.ndarray, predicted: np.ndarray | None):
        """The evaluated start: the predicted field's if its energy is below
        u's at the larger of their scales, else u's (``self.secant``)."""
        ev, self.secant = self.evaluate(u), False
        if predicted is not None:
            pe = self.evaluate(predicted)
            logs = max(ev.log_scale, pe.log_scale)
            self.secant = self.energy(pe, logs) < self.energy(ev, logs)
        return pe if self.secant else ev

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
        mp = m * (2.0 * self.half_kpm2) / ev.n2
        (t11, t12, t22), f0, f1 = self.tq, ev.f0, ev.f1
        cq = np.stack([m * t11 + mp * f0 * f0,
                       m * t12 + mp * f0 * f1,
                       m * t22 + mp * f1 * f1], axis=-1)
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

    def operator(self, ev: _GaussValues):
        """The Hessian at ev; None on a band, where refactoring is cheaper."""
        return (self.pattern.matrix(self.hessian(ev, ev.log_scale))
                if self.pattern.kd is None else None)

    def factor(self, ev: _GaussValues, run: NewtonRun | None = None):
        """Direction solver from the factors of the equilibrated Hessian at
        ev (:meth:`_InteriorPattern.factor`, which counts a fallback in
        ``run``); it keeps no Gauss-point values alive."""
        solve, s = self.pattern.factor(self.hessian(ev, ev.log_scale), run)
        logs = ev.log_scale
        # energy, gradient and Hessian all carry exp(-log_scale), so
        # factors built at another scale are rescaled by the difference
        return lambda grad, at: (math.exp(at.log_scale - logs)
                                 * (s * solve(s * -grad)))


_NEWTON_TOL = 1e-8        # sup-norm update that ends a k stage
_CONTINUATION_TOL = 1e-4  # sup-norm gap between successive k that ends it
_POLISH_TOL = 1e-9        # interior residual sup-norm that ends the polish
_POLISH_FROM_K = 8.0      # smallest k whose minimizer the polish tries
_CHORD_CONTRACTION = 0.1  # largest chord step over the last update
_KRYLOV_FORCING = 1e-4    # ||pre(linear residual)||_2 over ||pre(-g)||_2
_KRYLOV_MAX_ITER = 10     # Krylov iterations before the stage refactors
_NEWTON_MAX_ITER = 500
_ROUNDING = 16.0 * np.finfo(float).eps    # merit rounding over |merit|


def _factor(model, state, run: NewtonRun | None = None):
    """``model.factor(state, run)``, raising :class:`FactorizationError`."""
    try:
        return model.factor(state, run)
    except RuntimeError as exc:
        raise FactorizationError(model, "factorization failed: could not "
                                 f"factor the {model.stage}: {exc}",
                                 state.u, run or NewtonRun()) from exc


def _krylov(op, b, x, pre):
    """One GMRES cycle (Saad-Schultz, SIAM J. Sci. Stat. Comput. 7 (1986)
    856-869) on op d = b from x = pre(b), preconditioned by pre: d, whether
    ||pre(b - op d)||_2 <= forcing ||pre(b)||_2 by the cap, steps."""
    steps, scale = [], math.sqrt(x @ x)
    x, info = gmres(op, b, x, rtol=_KRYLOV_FORCING, maxiter=1,
                    restart=_KRYLOV_MAX_ITER, callback=steps.append,
                    M=LinearOperator(op.shape, pre, dtype=float),
                    callback_type="pr_norm")
    return x, info == 0 or steps[-1] * math.sqrt(b @ b) <= (
        _KRYLOV_FORCING * scale), len(steps)


def _newton(model, state, max_steps: int):
    """Newton with an Armijo line search on ``model``'s merit, from ``state``.

    ``model.factor(state, run)`` returns a direction solver ``(g, state) -> d``
    for ``g = model.residual(state)``; ``merit(state, ref)`` is normalized
    at ref and has the derivative ``slope(g, d)`` along d.  After a full
    step the last factors give a chord step (Kelley, *Solving Nonlinear
    Equations with Newton's Method*, SIAM 2003, ch. 5.4) if it descends and
    is at most ``_CHORD_CONTRACTION`` times the last update; else, and off
    the floor for all their later directions, they precondition
    :func:`_krylov` on ``model.operator(state)`` from their direction if
    that is at most the last update (inexact Newton, Eisenstat-Walker, SIAM
    J. Sci. Comput. 17 (1996) 16-32).  It refactors otherwise, also where
    the operator is None or the Krylov direction does not descend above
    rounding, and after a step that missed the forcing term (which ends no
    stage).  Returns (state, :class:`NewtonRun`), stopped at
    ``model.converged`` once ``model.solved(state, last update)``, else at
    "rounding floor"; a stall carries the run so far.
    """
    run, factors, full = NewtonRun(stop=model.converged), None, False
    stale, update, history = False, math.inf, run.history
    while not model.solved(state, update):
        if len(history) >= max_steps:
            raise NewtonStall(model, "step cap", state.u, run)
        g = model.residual(state)
        phi0 = model.merit(state, state)
        # at the floor the line search cannot tell a step from rounding in
        # the merit: take the full step, and stop there after a fresh one
        rounding = _ROUNDING * max(abs(phi0), 1e-300)
        d, met = factors(g, state) if full else None, True
        if d is not None:
            slope, size = model.slope(g, d), float(abs(d).max())
            if slope < 0.0 and (not stale or -slope <= rounding) and (
                    size <= _CHORD_CONTRACTION * history[-1]):
                run.chord_steps += 1
            elif size > history[-1] or (op := model.operator(state)) is None:
                d = None    # out of Newton's local regime, or no operator
            else:
                d, met, its = _krylov(op, -g, d, lambda r: -factors(r, state))
                del op      # not alive through a later factorization
                run.krylov_solves += 1
                run.krylov_iterations += its
                d, stale = (d if -model.slope(g, d) > rounding else None), True
        if fresh := d is None:
            factors = None      # free the old factors before factoring anew
            factors, stale, met = _factor(model, state, run), False, True
            run.factorizations += 1
            d = factors(g, state)
        slope = model.slope(g, d)
        if not slope < 0.0:
            raise NewtonStall(model, "no descent direction", state.u, run)
        floor = -slope <= rounding
        # keep the first trial step commensurate with the data scale; the
        # full Newton step is always tried once |d| is moderate
        step_cap = 10.0 * max(1.0, float(state.u.max() - state.u.min()))
        dmax = float(abs(d).max())
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
            raise NewtonStall(model, "line search failed", state.u, run)
        history.append(alpha * dmax)
        state, full = trial, alpha == 1.0 and met
        update = alpha * dmax if met else math.inf
        if floor and fresh and not model.solved(state, update):
            run.stop = "rounding floor"
            break
    return state, run


def harmonic_extension(grid: Grid2D, frame: FrameField,
                       f: np.ndarray) -> np.ndarray:
    """Discrete frame-harmonic extension of the boundary values of f.

    The kp = 2 energy is quadratic, so one Newton step from f with its
    interior zeroed (only the boundary of f need be finite) minimizes it.
    It reads the grid's pattern and the frame's Gauss-point metric.
    """
    if grid != frame.grid:
        raise ValueError(f"grid {grid} is not the frame's grid {frame.grid}")
    u = np.where(grid.interior_mask(), 0.0, np.asarray(f, dtype=float))
    model = _EnergyModel(ProblemSpec(grid=grid, frame=frame, f=u,
                                     p=np.full(grid.shape, 2.0)), 1.0)
    ev = model.evaluate(u)
    u.ravel()[model.interior] += _factor(model, ev)(model.residual(ev), ev)
    return u


def continue_k(spec: ProblemSpec, init: np.ndarray | None = None, *,
               stop=None) -> tuple[np.ndarray, SolveReport]:
    """Predictor-corrector continuation along the k schedule.

    Each k runs :func:`_newton` on the convex regularized kp(x) energy
    until an update falls below ``_NEWTON_TOL``.  The first k starts from
    ``init`` or the harmonic extension of f, the second from the first
    minimizer.  From the third on, with u0 and u1 the minimizers at k0 <
    k1, Newton starts from the prediction u1 + c (u1 - u0), c = (1/k -
    1/k1) / (1/k1 - 1/k0), linear in 1/k and 0.5 on a doubling schedule,
    if its k-energy is below u1's at one normalization, and from u1
    otherwise.  It stops once successive minimizers differ by less than
    ``_CONTINUATION_TOL``, or else once ``stop(k, u, report)`` is true,
    called with the minimizer u and no Gauss values alive.  With eps != 0
    it solves the Jensen auxiliary equation: eps > 0 targets the min form,
    eps < 0 the max form.  A Newton failure propagates, tagged with its k.
    """
    if not spec.config.k_schedule:
        raise ValueError("empty k schedule")
    t0 = time.perf_counter()
    u = (np.asarray(init, dtype=float) if init is not None
         else harmonic_extension(spec.grid, spec.frame, spec.f))
    report, path = SolveReport(), []    # path: last two (k, u_k)
    for k in spec.config.k_schedule:
        model, predicted = _EnergyModel(spec, k), None
        if len(path) == 2:
            (k0, u0), (k1, u1) = path
            c = (1.0 / k - 1.0 / k1) / (1.0 / k1 - 1.0 / k0)
            predicted = u1 + c * (u1 - u0)
        # no name here holds the start's Gauss values, so (CPython 3.11+)
        # Newton's next step frees them, before any later factorization
        ev, run = _newton(model, model.start(u, predicted), _NEWTON_MAX_ITER)
        u = ev.u
        report.per_k.append(PkStats(
            k=k, start="secant" if model.secant else "warm", **vars(run),
            weak_residual=model.weak_residual(ev)))
        del model, ev, predicted    # not alive through stop()
        if path:
            gap = float(np.max(np.abs(u - path[-1][1])))
            report.gaps.append(gap)
        if path and gap < _CONTINUATION_TOL or stop and stop(k, u, report):
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


def _jacobian_band(frame: FrameField):
    """None where the Hessian is no band, else the polish Jacobian's band
    in the Hessian's numbering: kl = ku = 2m, the slot in ``dgbtrf``'s
    storage of each entry of ``frame.jacobian_blocks``' CSC pattern, each
    row-major unknown's band position and each band position's unknown."""
    kl = 2 * (min(frame.grid.shape) - 2)
    if kl > 2 * _BAND_MAX:
        return None
    _, rows, indptr = frame.jacobian_blocks
    pos = np.argsort(frame.grid.interior_pattern.interior)
    slots = _band_slots(pos[rows], np.repeat(pos, np.diff(indptr)), 2 * kl,
                        3 * kl + 1)
    return kl, slots, pos, np.argsort(pos)


class _PolishModel:
    """The discrete infinity(x)-equation r(u) = 0 as a model for
    :func:`_newton`.  The merit is ||r||_2, whose slope along the Newton
    direction is -||r||_2, so Armijo asks ||r_new|| <= (1 - 1e-4 a)||r||.
    """

    k, stage = None, "infinity(x)-equation Jacobian"
    converged = "converged"
    # r: interior, row-major; jet: the kernel's parts, read by the Jacobian
    State = namedtuple("State", "u r jet")

    def __init__(self, frame: FrameField, p: np.ndarray):
        self.kernel = ResidualKernel(frame, p)
        self.interior = np.flatnonzero(frame.grid.interior_mask())
        self.band = frame.jacobian_band

    def evaluate(self, u: np.ndarray) -> State:
        r, jet = self.kernel.jets(u)
        return self.State(u, r.ravel(), jet)

    def residual(self, state: State) -> np.ndarray:
        return state.r

    def merit(self, state: State, ref: State) -> float:
        return math.sqrt(state.r @ state.r)

    def slope(self, r: np.ndarray, d: np.ndarray) -> float:
        return -math.sqrt(r @ r)

    def solved(self, state: State, update: float) -> bool:
        return float(abs(state.r).max()) < _POLISH_TOL

    def operator(self, state: State):
        return self.kernel.jacobian(state.u, state.jet)

    def factor(self, state: State, run: NewtonRun | None = None):
        if self.band is None:
            # minimum degree on J + J^t with a weak pivot threshold: ~40 %
            # less fill than COLAMD off the band, and twice as fast
            lu = splu(self.operator(state), permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.01)
            return lambda r, at: -lu.solve(r)
        # the Hessian's band rule: values, scatter and dgbtrf take 0.15 ms
        # against CSC and SuperLU's 0.8 at 17^2, 9-11 against 15 at 65^2
        kl, slots, pos, inv = self.band
        ab = np.zeros((3 * kl + 1) * len(pos))
        ab[slots] = self.kernel.jacobian_data(state.jet)
        lu, piv, info = dgbtrf(ab.reshape(3 * kl + 1, -1, order="F"), kl, kl,
                               overwrite_ab=1)
        if info > 0:    # U(info, info) = 0: name that column's node
            j, i = divmod(inv[info - 1], self.kernel.frame.grid.nx - 2)
            raise RuntimeError(f"band LU met a zero pivot at node "
                               f"(i={i + 1}, j={j + 1})")
        return lambda r, at: -dgbtrs(lu, kl, kl, r[inv], piv)[0][pos]


def _polish_newton(u0: np.ndarray, frame: FrameField, p: np.ndarray,
                   sweeps: int, report: SolveReport) -> np.ndarray:
    """At most ``sweeps`` steps (chord steps count) of :func:`_newton` on
    the interior infinity(x) residual, accepted once sup |r| < _POLISH_TOL;
    on a stop (step cap, failed line search or factorization) ``u0`` comes
    back.  ``report`` gets the run, both residual sups and the worst node."""
    model = _PolishModel(frame, p)
    start = model.evaluate(u0)
    report.polish_initial = float(np.max(np.abs(start.r)))
    try:
        state, report.polish = _newton(model, start, sweeps)
    except NewtonStall as exc:
        state, report.polish = model.evaluate(exc.u), exc.run
    jj, ii = np.unravel_index(np.argmax(np.abs(state.r)),
                              np.subtract(u0.shape, 2))
    report.polish_worst = (int(ii) + 1, int(jj) + 1)
    report.polish_final = float(np.max(np.abs(state.r)))
    return state.u if report.polish_accepted else u0


def solve_dirichlet_infinity(spec: ProblemSpec,
                             init: np.ndarray | None = None
                             ) -> tuple[np.ndarray, SolveReport]:
    """Dirichlet solve of the problem ``spec`` poses, for any eps.

    At eps = 0, at most ``polish_sweeps`` Newton steps on the discrete
    residual polish the first minimizer from k = ``_POLISH_FROM_K`` before
    the last k; acceptance (below ``_POLISH_TOL``) ends the schedule.  Else
    the last minimizer's polish decides, and a rejected one returns the
    continuation field.  ``report.tries`` holds each polish's k and run.
    At eps != 0 the Jensen continuation field is the result, unpolished.
    """
    t0 = time.perf_counter()
    sweeps = spec.config.polish_sweeps if spec.epsilon == 0.0 else 0
    out = []            # the field each polish returns

    def polish(k, u, report, final=False):  # no try after a rejected one
        if final or (_POLISH_FROM_K <= k < spec.config.k_schedule[-1]
                     and report.polish is None):
            out.append(_polish_newton(u, spec.frame, spec.p, sweeps, report))
            report.tries.append((k, report.polish))
        return report.polish_accepted
    u, report = continue_k(spec, init=init, stop=polish if sweeps else None)
    if sweeps and not report.polish_accepted:
        polish(report.per_k[-1].k, u, report, final=True)
    u = out[-1] if out else u
    report.wall_time = time.perf_counter() - t0
    return u, report
