"""Pointwise residuals of the frame differential operators.

Jet-level functions evaluate the operator expressions exactly as written
(no regularization), so hand-computed values can be asserted to machine
precision.  Field-level functions plug the discrete gradient/Hessian in
as the jet and regularize the logarithm at flat spots.

Conventions at a vanishing gradient: every residual term carrying a
positive power of the gradient norm is taken at its limit value 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import FrameField, grad_ln_p

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

    D_X u = G u with G = ``frame.jet_operator``, and the Hessian X_a(g_b) is
    G applied to g_b, read at the interior nodes and symmetrized: the
    interior of :func:`infxlap.grid.symmetrized_hessian` bit for bit.  The
    logarithm is regularized as ln(max(||D_X u||, DELTA_LOG)).
    """

    def __init__(self, frame: FrameField, p: np.ndarray):
        self.frame, self._g = frame, frame.jet_operator
        self._lnp = np.moveaxis(grad_ln_p(p, frame)[1:-1, 1:-1], -1, 0)

    def _parts(self, u: np.ndarray):
        """Interior D_X u, symmetrized Hessian, ||D_X u||^2, <D_X u, D_X ln p>
        and the floored ln ||D_X u||."""
        shape = (2,) + self.frame.grid.shape
        g = (self._g @ u.ravel()).reshape(shape)
        # (X_1 g_b, X_2 g_b) at the interior nodes, for b = 1, 2
        (h11, h21), (h12, h22) = (
            (self._g @ c.ravel()).reshape(shape)[:, 1:-1, 1:-1] for c in g)
        g1, g2 = g[:, 1:-1, 1:-1]
        h12 = 0.5 * (h12 + h21)
        n2 = g1 * g1 + g2 * g2
        dot = g1 * self._lnp[0] + g2 * self._lnp[1]
        log_n = np.log(np.maximum(np.sqrt(n2), DELTA_LOG))
        return g1, g2, h11, h12, h22, n2, dot, log_n

    def jets(self, u: np.ndarray):
        """Interior residual and the jet it reads, :meth:`_parts` of u."""
        parts = g1, g2, h11, h12, h22, n2, dot, log_n = self._parts(u)
        quad = h11 * g1 * g1 + 2.0 * h12 * g1 * g2 + h22 * g2 * g2
        return -(quad + n2 * dot * log_n), parts

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The residual field, boundary entries 0."""
        return np.pad(self.jets(u)[0], 1)

    def jacobian(self, u: np.ndarray, parts=None) -> sp.csc_matrix:
        """d r / d u on interior nodes (row-major), at the jet parts or u's."""
        _, rows, indptr = self.frame.jacobian_blocks
        return sp.csc_matrix((self.jacobian_data(parts or self._parts(u)),
                              rows, indptr), shape=(len(indptr) - 1,) * 2)

    def jacobian_data(self, parts) -> np.ndarray:
        """The CSC data of :meth:`jacobian` at the jet ``parts``.

        D_X u = (G1 u, G2 u) and the Hessian is H11 = G1 G1,
        H12 = (G1 G2 + G2 G1)/2, H22 = G2 G2 applied to u, so dr/du is
        -(sum_ab g_a g_b H_ab + sum_a c_a G_a), c_a the derivative of the
        bracket of r in g_a at fixed H.  The five blocks depend only on the
        frame and live as long as it does (``FrameField.jacobian_blocks``).
        """
        m, rows, _ = self.frame.jacobian_blocks
        g1, g2, h11, h12, h22, n2, dot, log_n = parts
        # d(||g||^2 dot ln||g||)/d g_a = (2 dot ln||g|| + dot) g_a
        # + ||g||^2 lnp_a ln||g||, the middle term absent below the floor
        s = 2.0 * dot * log_n + np.where(n2 > DELTA_LOG ** 2, dot, 0.0)
        c = [2.0 * (ha * g1 + hb * g2) + s * ga + n2 * la * log_n
             for ha, hb, ga, la in ((h11, h12, g1, self._lnp[0]),
                                    (h12, h22, g2, self._lnp[1]))]
        w = np.stack([g1 * g1, 2.0 * g1 * g2, g2 * g2, c[0], c[1]], axis=-1)
        return -np.einsum("ij,ij->i", m, np.take(w.reshape(-1, 5), rows, 0))


def _jacobian_blocks(frame: FrameField):
    """G1 G1, (G1 G2 + G2 G1)/2, G2 G2, G1 and G2 (``frame.jet_operator``)
    on interior rows and columns, as (nnz, 5) data on the CSC pattern of
    their union, with its rows and indptr."""
    g, n = frame.jet_operator, frame.grid.n_nodes
    g1, g2 = g[:n], g[n:]
    inner = np.flatnonzero(frame.grid.interior_mask())
    blocks = [m[inner][:, inner].tocsc() for m in
              (g1 @ g1, 0.5 * (g1 @ g2 + g2 @ g1), g2 @ g2, g1, g2)]
    # a sum of |b| cancels no entry and stores no zero; tocsc sorts rows
    union = sum(abs(b) for b in blocks).tocsc()
    # number the union's entries 1..nnz: the product with a block's
    # pattern then reads each block entry's slot, in the block's order
    union.data = np.arange(1, union.nnz + 1)
    data = np.zeros((union.nnz, 5))
    for k, b in enumerate(blocks):
        b.eliminate_zeros()     # the union holds every nonzero entry
        b.data, values = np.ones(b.nnz, np.int8), b.data
        data[union.multiply(b).data - 1, k] = values
    for x in (data, union.indices, union.indptr):    # shared by every kernel
        x.flags.writeable = False
    return data, union.indices, union.indptr


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
    r, (g1, g2, *_) = ResidualKernel(frame, p).jets(u)
    return np.pad(np.minimum(g1 * g1 + g2 * g2 - eps, r), 1)


def max_form_residual(u: np.ndarray, frame: FrameField, p: np.ndarray,
                      eps: float) -> np.ndarray:
    """max{ eps - ||D_X u||^2, -Delta_{X,infinity(x)} u } (interior)."""
    if eps <= 0:
        raise ValueError("max form needs eps > 0 (the magnitude of the parameter)")
    r, (g1, g2, *_) = ResidualKernel(frame, p).jets(u)
    return np.pad(np.maximum(eps - (g1 * g1 + g2 * g2), r), 1)

