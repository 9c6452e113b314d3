"""Rectangular grid, frame field, and discrete Riemannian calculus.

Scalar fields are arrays of shape ``(ny, nx)`` indexed ``[j, i]`` with
``x_i = xmin + i*hx`` and ``y_j = ymin + j*hy``.  Vector fields carry a
trailing axis of length 2 (frame components), symmetric matrix fields a
trailing axis of length 3 storing ``(M11, M12, M22)`` so symmetry is
exact by construction.

The frame is a per-node invertible 2x2 matrix ``A`` with rows giving the
coefficients of the two vector fields in the Euclidean basis; the
frame gradient of u is ``A (du/dx, du/dy)``.  First derivatives use
central differences at interior nodes (second order) and third-order
one-sided stencils on the boundary rows, so that nesting two first
derivatives stays second-order accurate up to the boundary.  The
Riemannian distance is a shortest path on the 8-neighbor lattice graph,
stored both ways in 8 slots per node and searched directed from many
sources in one Dijkstra call; it is built once per frame and kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .expressions import Expr, evaluate

_DET_FLOOR = 1e-10   # smallest |det A| a frame may have at a node


class GridError(ValueError):
    """Invalid grid geometry."""


class FrameSingular(ValueError):
    """Frame determinant below the floor at some node."""

    def __init__(self, i: int, j: int, x: float, y: float, det: float):
        super().__init__(
            f"|det A| = {abs(det):.3e} below floor at node (i={i}, j={j}), "
            f"(x={x:g}, y={y:g})"
        )
        self.node = (i, j)
        self.det = det


@dataclass(frozen=True)
class Grid2D:
    """Node lattice on the rectangle [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            # the one-sided edge stencils of _d_axis read four nodes
            raise GridError(f"need nx, ny >= 4 (edge stencils read four "
                            f"nodes), got nx={self.nx}, ny={self.ny}")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise GridError("nonpositive domain extent")

    @property
    def hx(self) -> float:
        return (self.xmax - self.xmin) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.ymax - self.ymin) / (self.ny - 1)

    @property
    def xs(self) -> np.ndarray:
        return self.xmin + self.hx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.ymin + self.hy * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X, Y of shape (ny, nx)."""
        return np.meshgrid(self.xs, self.ys)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    def interior_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        m[1:-1, 1:-1] = True
        return m

    def boundary_mask(self) -> np.ndarray:
        return ~self.interior_mask()

    def sample(self, expr: Expr) -> np.ndarray:
        """Evaluate an expression at every node in one array pass; a
        :class:`DomainError` names the first failing node (row-major)."""
        return np.array(evaluate(expr, *self.meshgrid()))

    @cached_property
    def interior_pattern(self):
        """:class:`infxlap.solvers._InteriorPattern`, kept with the grid."""
        from .solvers import _InteriorPattern
        return _InteriorPattern(self)


def build_grid(xmin, xmax, ymin, ymax, nx, ny) -> Grid2D:
    return Grid2D(float(xmin), float(xmax), float(ymin), float(ymax), int(nx), int(ny))


@dataclass(frozen=True, eq=False)
class FrameField:
    """Per-node frame matrix A; frames compare and hash by identity."""

    grid: Grid2D
    a: np.ndarray          # (ny, nx, 2, 2), read-only

    @property
    def det(self) -> np.ndarray:
        return (self.a[..., 0, 0] * self.a[..., 1, 1]
                - self.a[..., 0, 1] * self.a[..., 1, 0])

    def scaled(self, c: float) -> "FrameField":
        return make_frame(self.grid, c * self.a)

    @cached_property
    def distance_graph(self):
        """The edge graph :func:`riemannian_distance` searches, stored both
        ways in 8 slots per node; built on first use and kept for the life
        of the frame (``a`` is read-only).  A failed build caches nothing."""
        return _distance_graph(self)

    @cached_property
    def jet_operator(self):
        """G = [G1; G2], G_i = diag(a_i1) Dx + diag(a_i2) Dy with the stencils
        of :func:`_d_axis`, as one CSR matrix: G u stacks the components of
        D_X u.  Built on first use and kept for the life of the frame."""
        ny, nx = self.grid.shape
        dx = sp.kron(sp.eye(ny), _d_axis(np.eye(nx), self.grid.hx, 0), "csr")
        dy = sp.kron(_d_axis(np.eye(ny), self.grid.hy, 0), sp.eye(nx), "csr")
        return sp.vstack([sp.diags(self.a[..., i, 0].ravel()) @ dx
                          + sp.diags(self.a[..., i, 1].ravel()) @ dy
                          for i in (0, 1)], format="csr")

    @cached_property
    def jacobian_blocks(self):
        """:func:`infxlap.operators._jacobian_blocks`, kept with the frame."""
        from .operators import _jacobian_blocks
        return _jacobian_blocks(self)

    @cached_property
    def jacobian_band(self):
        """:func:`infxlap.solvers._jacobian_band`, kept with the frame."""
        from .solvers import _jacobian_band
        return _jacobian_band(self)

    @cached_property
    def gauss_metric(self):
        """:func:`infxlap.solvers._frame_tensor`, kept with the frame."""
        from .solvers import _frame_tensor
        return _frame_tensor(self)


def make_frame(grid: Grid2D, a: np.ndarray) -> FrameField:
    """Wrap a read-only copy of per-node matrices, checking invertibility."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    if a.shape != (grid.ny, grid.nx, 2, 2):
        raise ValueError(f"frame array must have shape {(grid.ny, grid.nx, 2, 2)}")
    frame = FrameField(grid=grid, a=a)
    det = frame.det
    bad = np.abs(det) < _DET_FLOOR
    if np.any(bad):
        j, i = np.argwhere(bad)[0]
        raise FrameSingular(int(i), int(j), grid.xs[i], grid.ys[j], float(det[j, i]))
    return frame


def sample_frame(a11, a12, a21, a22, grid: Grid2D) -> FrameField:
    """Sample four entry expressions a_ij(x, y) into a FrameField."""
    a = np.empty((grid.ny, grid.nx, 2, 2))
    a[..., 0, 0] = grid.sample(a11)
    a[..., 0, 1] = grid.sample(a12)
    a[..., 1, 0] = grid.sample(a21)
    a[..., 1, 1] = grid.sample(a22)
    return make_frame(grid, a)


def identity_frame(grid: Grid2D) -> FrameField:
    return make_frame(grid, np.tile(np.eye(2), grid.shape + (1, 1)))


def _d_axis(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative along one axis: central interior, matched edges.

    The 4-point edge stencils are second order with leading error term
    (h^2/6) u''', the same as the central stencil, so the error of the
    whole derivative field is a single smooth O(h^2) function of
    position.  Nested differentiation (the Hessian) then stays second
    order up to the boundary; an edge stencil with a different leading
    error would leave an O(h^2) jump between adjacent nodes that the
    outer stencil amplifies to O(h).
    """
    u = np.asarray(u, dtype=float).swapaxes(0, axis)
    d = np.empty_like(u)
    h2 = 2.0 * h
    d[1:-1] = (u[2:] - u[:-2]) / h2
    d[0] = (-4.0 * u[0] + 7.0 * u[1] - 4.0 * u[2] + u[3]) / h2
    d[-1] = (4.0 * u[-1] - 7.0 * u[-2] + 4.0 * u[-3] - u[-4]) / h2
    return d.swapaxes(0, axis)


def euclidean_gradient(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """(du/dx, du/dy) at every node, shape (ny, nx, 2)."""
    out = np.empty(grid.shape + (2,))
    out[..., 0] = _d_axis(u, grid.hx, axis=1)
    out[..., 1] = _d_axis(u, grid.hy, axis=0)
    return out


def riemannian_gradient(u: np.ndarray, frame: FrameField) -> np.ndarray:
    """Frame gradient D_X u = A (du/dx, du/dy), shape (ny, nx, 2).

    Interior nodes use central differences (second order); boundary
    nodes carry one-sided values so that consumers that re-differentiate
    (Hessian, energy quadrature) have data on the full lattice.
    """
    g = euclidean_gradient(u, frame.grid)
    return np.einsum("...ij,...j->...i", frame.a, g)


def symmetrized_hessian(u: np.ndarray, frame: FrameField) -> np.ndarray:
    """Symmetrized frame Hessian, stored as (M11, M12, M22), shape (ny, nx, 3).

    Computes X_i(X_j u) by applying the discrete frame gradient to each
    component of D_X u (nested first-derivative stencils; the cross term
    is the standard 4-point stencil on the differentiated field), then
    averages M and M^t.  Only interior values are meaningful; boundary
    rows hold the same nested-stencil values for completeness.
    """
    g = riemannian_gradient(u, frame)
    out = np.empty(frame.grid.shape + (3,))
    m = np.empty(frame.grid.shape + (2, 2))
    for jcomp in range(2):
        dg = euclidean_gradient(g[..., jcomp], frame.grid)
        # m[..., i, jcomp] = X_i(g_jcomp) = sum_k a_ik d_k g_jcomp
        m[..., :, jcomp] = np.einsum("...ik,...k->...i", frame.a, dg)
    out[..., 0] = m[..., 0, 0]
    out[..., 1] = 0.5 * (m[..., 0, 1] + m[..., 1, 0])
    out[..., 2] = m[..., 1, 1]
    return out


def _distance_graph(frame: FrameField):
    """CSR matrix of the 8-neighbor edges, weighted as
    :func:`riemannian_distance` describes, stored both ways in 8 slots per
    node (slot s: the s-th offset in flat-index order; slot 7-s: its
    reverse; off-grid: a zero-weight self-loop), filled slot-major."""
    grid = frame.grid
    ny, nx = grid.shape
    n = grid.n_nodes
    flat = np.arange(n, dtype=np.int32).reshape(ny, nx)
    cols = np.repeat(flat[None], 8, axis=0)
    weights = np.zeros((8, ny, nx))
    for s, (dj, di) in enumerate(((0, 1), (1, -1), (1, 0), (1, 1)), 4):
        # slice pairs: node (j, i) -> neighbor (j+dj, i+di)
        js, jd = slice(0, ny - dj), slice(dj, ny)
        is_ = slice(max(0, -di), nx - max(0, di))
        id_ = slice(max(0, di), nx - max(0, -di))
        mid = 0.5 * (frame.a[js, is_] + frame.a[jd, id_])
        det = (mid[..., 0, 0] * mid[..., 1, 1]
               - mid[..., 0, 1] * mid[..., 1, 0])
        if np.any(det == 0.0):
            # name the edge's first endpoint and its midpoint determinant
            bj, bi = np.argwhere(det == 0.0)[0]
            i, j = int(bi) + is_.start, int(bj)
            raise FrameSingular(i, j, grid.xs[i], grid.ys[j],
                                float(det[bj, bi]))
        dx, dy = di * grid.hx, dj * grid.hy
        # (M^t)^{-1} (dx, dy) via the adjugate formula
        v0 = (mid[..., 1, 1] * dx - mid[..., 1, 0] * dy) / det
        v1 = (-mid[..., 0, 1] * dx + mid[..., 0, 0] * dy) / det
        cols[s, js, is_], cols[7 - s, jd, id_] = flat[jd, id_], flat[js, is_]
        w = np.sqrt(v0 * v0 + v1 * v1)
        weights[s, js, is_] = weights[7 - s, jd, id_] = w
    indptr = np.arange(0, 8 * n + 1, 8, dtype=np.int32)
    return sp.csr_matrix((weights.reshape(8, n).T.ravel(),
                          cols.reshape(8, n).T.ravel(), indptr), (n, n))


def riemannian_distance(frame: FrameField, grid: Grid2D,
                        source) -> np.ndarray:
    """Shortest-path frame distances from one or many source nodes.

    ``source`` is one ``(i, j)`` pair or an ``(m, 2)`` array of pairs;
    the result has shape ``np.shape(source)[:-1] + (ny, nx)``, so a
    single pair gives one ``(ny, nx)`` field.  ``grid`` must be
    ``frame.grid``.  Edge weight between lattice neighbors P, Q is
    ||(M^t)^{-1}(Q - P)|| with M the entrywise average of the endpoint
    frames (edge-midpoint quadrature of curve length), the same both ways.
    ``frame.distance_graph`` stores it both ways in 8 slots per node, one
    CSR matrix over the flat node index ``j*nx + i``, built on the frame's
    first call and kept on the frame: 8·n entries (2.1 M at 513², 26.3 MB
    with its int32 indices).  A frame whose edge midpoint is singular
    raises :class:`FrameSingular` on every call.  One directed
    ``scipy.sparse.csgraph.dijkstra`` call solves every source and
    returns m*n doubles.
    """
    # imported here so that runs which never ask for a distance do not
    # load scipy's csgraph module
    from scipy.sparse.csgraph import dijkstra

    if grid != frame.grid:
        raise ValueError(f"grid {grid} is not the frame's grid {frame.grid}")
    ny, nx = grid.shape
    src = np.asarray(source, dtype=float)
    if src.shape[-1:] != (2,):
        raise ValueError(f"source must be (i, j) or an (m, 2) array, "
                         f"got shape {src.shape}")
    pairs = src.reshape(-1, 2)
    bad = ~((pairs == np.round(pairs)) & (pairs >= 0) & (pairs < (nx, ny)))
    if np.any(bad):
        si, sj = (f"{v:g}" for v in pairs[np.argwhere(bad)[0, 0]])
        raise ValueError(f"source node ({si}, {sj}) is not an integer "
                         f"node of the {nx}x{ny} grid")

    ij = pairs.astype(np.intp)
    dist = dijkstra(frame.distance_graph, directed=True,
                    indices=ij[:, 1] * nx + ij[:, 0])
    dist = dist.reshape(src.shape[:-1] + grid.shape)
    # rectangles are connected; keep a finite sentinel regardless
    dist[~np.isfinite(dist)] = 1e300
    return dist


def grad_ln_p(p: np.ndarray, frame: FrameField) -> np.ndarray:
    """Frame gradient G ln p(x) (``frame.jet_operator``), shape (ny, nx, 2);
    rejects exponents at or below 1."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 1.0):
        j, i = np.argwhere(p <= 1.0)[0]
        raise ValueError(
            f"exponent p = {p[j, i]:g} <= 1 at node (i={i}, j={j})"
        )
    g = frame.jet_operator @ np.log(p).ravel()
    return np.moveaxis(g.reshape(2, *frame.grid.shape), 0, -1)
