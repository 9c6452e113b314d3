"""Pointwise residuals of the frame differential operators.

Jet-level functions evaluate the operator expressions exactly as written
(no regularization), so hand-computed values can be asserted to machine
precision.  Field-level functions plug the discrete gradient/Hessian in
as the jet and regularize the logarithm at flat spots.

Conventions at a vanishing gradient: every residual term carrying a
positive power of the gradient norm is taken at its limit value 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import FrameField, Grid2D, _d_axis, grad_ln_p

#: log regularization floor for field residuals (never applied to jets)
DELTA_LOG = 1e-12


@dataclass(frozen=True)
class PointJet:
    """First/second-order jet element: vector eta, symmetric matrix H."""

    eta: tuple[float, float]
    H: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        if self.H[0][1] != self.H[1][0]:
            raise ValueError("jet matrix must be symmetric")


@dataclass(frozen=True)
class ExponentData:
    """Exponent information at a point: p(x), k, D_X kp, D_X ln p."""

    p: float
    k: float = 1.0
    grad_kp: tuple[float, float] = (0.0, 0.0)
    grad_ln_p: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"need p > 1, got {self.p}")
        if not self.k >= 1.0:
            raise ValueError(f"need k >= 1, got {self.k}")


def _quad(H, eta) -> float:
    return (H[0][0] * eta[0] * eta[0] + 2.0 * H[0][1] * eta[0] * eta[1]
            + H[1][1] * eta[1] * eta[1])


def infinity_residual_at(j: PointJet) -> float:
    """<H eta, eta>: the plain frame infinity-Laplacian at the jet."""
    return _quad(j.H, j.eta)


def infinity_x_residual_at(j: PointJet, e: ExponentData) -> float:
    """-(<H eta, eta> + ||eta||^2 <eta, D_X ln p> ln ||eta||).

    The log term is 0 when ||eta|| = 0 (limit value) or ||eta|| = 1.
    """
    n = math.hypot(*j.eta)
    if n == 0.0:
        return 0.0
    logterm = (n * n
               * (j.eta[0] * e.grad_ln_p[0] + j.eta[1] * e.grad_ln_p[1])
               * math.log(n))
    return -(_quad(j.H, j.eta) + logterm)


def pk_residual_at(j: PointJet, e: ExponentData) -> float:
    """Variable-exponent p-Laplace residual at a jet (non-divergence form).

    -( n^{kp-2} tr H + (kp-2) n^{kp-4} <H eta, eta>
       + n^{kp-2} <eta, D_X kp> ln n )  with n = ||eta||; all three terms
    are 0 at n = 0 (this covers 2 < kp <= 4 by convention).
    """
    n = math.hypot(*j.eta)
    if n == 0.0:
        return 0.0
    kp = e.k * e.p
    tr = j.H[0][0] + j.H[1][1]
    term1 = n ** (kp - 2.0) * tr
    term2 = (kp - 2.0) * n ** (kp - 4.0) * _quad(j.H, j.eta)
    term3 = (n ** (kp - 2.0)
             * (j.eta[0] * e.grad_kp[0] + j.eta[1] * e.grad_kp[1])
             * math.log(n))
    return -(term1 + term2 + term3)


class ResidualKernel:
    """-Delta_{X,infinity(x)} u on interior nodes for one (frame, p).

    The frame entries and D_X ln p are cached as contiguous arrays, and
    the 2x2 products are written out, so an evaluation is a few dozen
    small array operations.  The Hessian is the symmetrized nested
    stencil of :func:`infxlap.grid.symmetrized_hessian`; the logarithm
    is regularized as ln(max(||D_X u||, DELTA_LOG)).
    """

    def __init__(self, frame: FrameField, p: np.ndarray):
        glnp = grad_ln_p(p, frame)
        a = frame.a
        self.frame = frame
        self._a = [np.ascontiguousarray(a[..., i, k])
                   for i in (0, 1) for k in (0, 1)]
        self._a_in = [np.ascontiguousarray(c[1:-1, 1:-1]) for c in self._a]
        self._lnp = [np.ascontiguousarray(glnp[1:-1, 1:-1, c]) for c in (0, 1)]
        self._blocks = None

    def _parts(self, u: np.ndarray):
        """Interior D_X u, symmetrized Hessian, ||D_X u||^2, <D_X u, D_X ln p>
        and the floored ln ||D_X u||."""
        grid = self.frame.grid
        a11, a12, a21, a22 = self._a
        ux = _d_axis(u, grid.hx, axis=1)
        uy = _d_axis(u, grid.hy, axis=0)
        g = (a11 * ux + a12 * uy, a21 * ux + a22 * uy)
        # X_i(g_j) = b_i1 dx g_j + b_i2 dy g_j; interior nodes read only
        # the central stencil of g
        gx = [_d_axis(c, grid.hx, axis=1)[1:-1, 1:-1] for c in g]
        gy = [_d_axis(c, grid.hy, axis=0)[1:-1, 1:-1] for c in g]
        b11, b12, b21, b22 = self._a_in
        g1, g2 = g[0][1:-1, 1:-1], g[1][1:-1, 1:-1]
        h11 = b11 * gx[0] + b12 * gy[0]
        h12 = 0.5 * ((b11 * gx[1] + b12 * gy[1]) + (b21 * gx[0] + b22 * gy[0]))
        h22 = b21 * gx[1] + b22 * gy[1]
        n2 = g1 * g1 + g2 * g2
        dot = g1 * self._lnp[0] + g2 * self._lnp[1]
        log_n = np.log(np.maximum(np.sqrt(n2), DELTA_LOG))
        return g1, g2, h11, h12, h22, n2, dot, log_n

    def jets(self, u: np.ndarray):
        """Interior residual and the two components of D_X u there."""
        g1, g2, h11, h12, h22, n2, dot, log_n = self._parts(u)
        quad = h11 * g1 * g1 + 2.0 * h12 * g1 * g2 + h22 * g2 * g2
        return -(quad + n2 * dot * log_n), g1, g2

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The residual field, boundary entries 0."""
        out = np.zeros(self.frame.grid.shape)
        out[1:-1, 1:-1] = self.jets(u)[0]
        return out

    def jacobian(self, u: np.ndarray) -> sp.csc_matrix:
        """d r / d u on interior rows and columns (row-major node order).

        With G_i = diag(a_i1) Dx + diag(a_i2) Dy on the whole lattice,
        D_X u = (G1 u, G2 u) and the Hessian is H11 = G1 G1,
        H12 = (G1 G2 + G2 G1)/2, H22 = G2 G2 applied to u, so dr/du is
        -(sum_ab g_a g_b H_ab + sum_a c_a G_a), c_a the derivative of the
        bracket of r in g_a at fixed H.  The five blocks are built once per
        kernel as (nnz, 5) data on one CSC pattern (:class:`_LatticeProducts`).
        """
        if self._blocks is None:
            lp, a = _lattice_products(self.frame.grid), self.frame.a
            g1, g2 = (a[..., i, :].ravel()[lp.coef] * lp.val for i in (0, 1))
            x1, x2, y1, y2 = g1[lp.e1], g2[lp.e1], g1[lp.e2], g2[lp.e2]
            m = np.stack([np.bincount(slot, w, len(lp.rows)) for slot, w in (
                (lp.pslot, x1 * y1), (lp.pslot, 0.5 * (x1 * y2 + x2 * y1)),
                (lp.pslot, x2 * y2), (lp.gslot, g1[lp.gent]),
                (lp.gslot, g2[lp.gent]))], axis=1)
            keep = np.any(m != 0.0, axis=1)
            self._blocks = m[keep], lp.rows[keep], np.searchsorted(
                lp.cols[keep], np.arange(lp.n + 1)).astype(np.intc)
        m, rows, indptr = self._blocks
        g1, g2, h11, h12, h22, n2, dot, log_n = self._parts(u)
        # d(||g||^2 dot ln||g||)/d g_a = (2 dot ln||g|| + dot) g_a
        # + ||g||^2 lnp_a ln||g||, the middle term absent below the floor
        s = 2.0 * dot * log_n + np.where(n2 > DELTA_LOG ** 2, dot, 0.0)
        c = [2.0 * (ha * g1 + hb * g2) + s * ga + n2 * la * log_n
             for ha, hb, ga, la in ((h11, h12, g1, self._lnp[0]),
                                    (h12, h22, g2, self._lnp[1]))]
        w = np.stack([g1 * g1, 2.0 * g1 * g2, g2 * g2, c[0], c[1]], axis=-1)
        data = -np.einsum("ij,ij->i", m, np.take(w.reshape(-1, 5), rows, 0))
        return sp.csc_matrix((data, rows, indptr), shape=(g1.size,) * 2)


class _LatticeProducts:
    """Entries of Dx and Dy on the lattice (G_i = diag(a_i1) Dx + diag(a_i2)
    Dy has values ``a[..., i, :].ravel()[coef] * val``), the pairs (e1, e2)
    with col(e1) = row(e2) that sum to G_a G_b on interior nodes, and their
    and G_i's (``gent``) slots in one CSC pattern of interior nodes."""

    def __init__(self, grid: Grid2D):
        ny, nx = grid.shape
        d = [sp.kron(sp.eye(ny), _d_axis(np.eye(nx), grid.hx, 0), "coo"),
             sp.kron(_d_axis(np.eye(ny), grid.hy, 0), sp.eye(nx), "coo")]
        row, col, self.val = (np.concatenate([getattr(m, k) for m in d])
                              for k in ("row", "col", "data"))
        # per-grid index arrays as C ints: they stay cached after the polish
        self.coef = (2 * row + np.repeat([0, 1], [m.nnz for m in d])
                     ).astype(np.intc)
        self.n, shape = (ny - 2) * (nx - 2), (len(row), ny * nx)
        number = np.full(ny * nx, -1)
        number[grid.interior_mask().ravel()] = np.arange(self.n)
        r, c = number[row], number[col]
        e1, e2 = np.flatnonzero(r >= 0), np.flatnonzero(c >= 0)
        # the pairs are the pattern of [col(e1) = m] [row(e2) = m]
        pairs = (sp.csr_matrix((np.ones(len(e1)), (e1, col[e1])), shape)
                 @ sp.csr_matrix((np.ones(len(e2)), (row[e2], e2)),
                                 shape[::-1])).tocoo()
        self.e1, self.e2 = pairs.row, pairs.col
        self.gent = np.flatnonzero((r >= 0) & (c >= 0)).astype(np.intc)
        keys, slot = np.unique(np.concatenate(
            [c[self.e2] * self.n + r[self.e1],
             c[self.gent] * self.n + r[self.gent]]), return_inverse=True)
        slot = slot.astype(np.intc)
        self.pslot, self.gslot = slot[:len(self.e1)], slot[len(self.e1):]
        self.rows, self.cols = ((keys % self.n).astype(np.intc),
                                (keys // self.n).astype(np.intc))


@functools.lru_cache(maxsize=1)
def _lattice_products(grid: Grid2D) -> _LatticeProducts:
    """The grid's products, built once while the same grid is polished."""
    return _LatticeProducts(grid)


def infinity_x_residual_field(u: np.ndarray, frame: FrameField,
                              p: np.ndarray) -> np.ndarray:
    """-Delta_{X,infinity(x)} u on interior nodes (boundary entries 0).

    Uses the discrete gradient/Hessian as the jet and regularizes the
    logarithm as ln(max(||D_X u||, DELTA_LOG)); see :class:`ResidualKernel`.
    """
    return ResidualKernel(frame, p)(u)


def min_form_residual(u: np.ndarray, frame: FrameField, p: np.ndarray,
                      eps: float) -> np.ndarray:
    """min{ ||D_X u||^2 - eps, -Delta_{X,infinity(x)} u } (interior)."""
    if eps <= 0:
        raise ValueError("min form needs eps > 0")
    r, g1, g2 = ResidualKernel(frame, p).jets(u)
    out = np.zeros(frame.grid.shape)
    out[1:-1, 1:-1] = np.minimum(g1 * g1 + g2 * g2 - eps, r)
    return out


def max_form_residual(u: np.ndarray, frame: FrameField, p: np.ndarray,
                      eps: float) -> np.ndarray:
    """max{ eps - ||D_X u||^2, -Delta_{X,infinity(x)} u } (interior)."""
    if eps <= 0:
        raise ValueError("max form needs eps > 0 (the magnitude of the parameter)")
    r, g1, g2 = ResidualKernel(frame, p).jets(u)
    out = np.zeros(frame.grid.shape)
    out[1:-1, 1:-1] = np.maximum(eps - (g1 * g1 + g2 * g2), r)
    return out

