"""Correctness checks that do not trust the program under test.

Every check returns a list of failure messages; an empty list is a pass.
The problem is the one in ``configs/*.ini``; its frame and exponent are
written out here in closed form, so residuals use the analytic D_X ln p and
the benchmark's own central differences rather than the program's stencils.
"""

from __future__ import annotations

import math

import numpy as np

# Criterion 5 of the acceptance gate pins the interior residual at 5e-2.
RESIDUAL_BOUND = 5e-2
# Nodes within this many rings of the boundary are left out of the residual
# check: the program's one-sided edge stencils feed the Hessian there.
RESIDUAL_RING = 4
# sup ||A grad f|| for f = 1 + x/4 + y/2 and A = diag(1, 1 + x/2), reached
# at x = 1: ||(1/4, 3/4)||.  No graph edge can have a larger quotient.
LIPSCHITZ_UPPER = math.sqrt(10.0) / 4.0
# The right edge x = 1: f rises by 1/2 over a distance of 1/1.5.
LIPSCHITZ_LOWER = 0.5 / (1.0 / 1.5)
# Relative slack for quantities that are exact up to summation rounding.
ROUNDING = 1e-12
# The CLI's eikonal suite: its tolerance, and the distance from the source
# within which it leaves nodes out (0.2 times the unit square's extent).
EIKONAL_TOL = 0.15
EIKONAL_RADIUS = 0.2
# The comparison suite raises the boundary data by this much.
RAISE = 0.1
RAISE_TOL = 1e-9


def frame_entries(x: np.ndarray, y: np.ndarray):
    """(a11, a12, a21, a22) of the configs' frame at the given points."""
    zero = np.zeros(np.broadcast(x, y).shape)
    return zero + 1.0, zero, zero, zero + 1.0 + x / 2.0


def frame_grad_ln_p(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic D_X ln p = A grad ln p for p = 2 + x^2/4."""
    a11, a12, a21, a22 = frame_entries(x, y)
    dx = (x / 2.0) / (2.0 + x * x / 4.0)
    dy = np.zeros_like(dx)
    return np.stack([a11 * dx + a12 * dy, a21 * dx + a22 * dy], axis=-1)


def _central(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central difference along ``axis``; the result loses one node each side."""
    hi = [slice(1, -1)] * v.ndim
    lo = [slice(1, -1)] * v.ndim
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    other = 1 - axis
    hi[other] = lo[other] = slice(1, -1)
    return (v[tuple(hi)] - v[tuple(lo)]) / (2.0 * h)


def infinity_x_residual(u: np.ndarray, xs: np.ndarray, ys: np.ndarray
                        ) -> np.ndarray:
    """-(<M g, g> + |g|^2 <g, D_X ln p> ln|g|) on nodes two rings in.

    g = A grad u and M the symmetrized matrix X_i(g_j), both by nested
    central differences.  Returns the array for nodes [2:-2, 2:-2].
    """
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    X, Y = np.meshgrid(xs, ys)
    a = frame_entries(X, Y)
    ux, uy = _central(u, hx, 1), _central(u, hy, 0)
    inner = (slice(1, -1), slice(1, -1))
    a1 = [c[inner] for c in a]
    g0 = a1[0] * ux + a1[1] * uy
    g1 = a1[2] * ux + a1[3] * uy
    a2 = [c[2:-2, 2:-2] for c in a]
    m = {}
    for j, gj in enumerate((g0, g1)):
        dx, dy = _central(gj, hx, 1), _central(gj, hy, 0)
        m[0, j] = a2[0] * dx + a2[1] * dy
        m[1, j] = a2[2] * dx + a2[3] * dy
    m01 = 0.5 * (m[0, 1] + m[1, 0])
    g0, g1 = g0[1:-1, 1:-1], g1[1:-1, 1:-1]
    quad = m[0, 0] * g0 * g0 + 2.0 * m01 * g0 * g1 + m[1, 1] * g1 * g1
    glp = frame_grad_ln_p(X, Y)[2:-2, 2:-2]
    n2 = g0 * g0 + g1 * g1
    dot = g0 * glp[..., 0] + g1 * glp[..., 1]
    return -(quad + n2 * dot * 0.5 * np.log(n2))


def check_residual(u: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                   label: str) -> list[str]:
    """sup |residual| beyond the fourth ring stays within criterion 5."""
    res = infinity_x_residual(u, xs, ys)
    cut = RESIDUAL_RING + 1 - 2
    sup = float(np.max(np.abs(res[cut:-cut, cut:-cut])))
    if not sup <= RESIDUAL_BOUND:
        return [f"{label}: residual sup {sup:.3e} beyond ring "
                f"{RESIDUAL_RING} exceeds {RESIDUAL_BOUND:g}"]
    return []


def boundary_values(f: np.ndarray) -> np.ndarray:
    return np.concatenate([f[0, :], f[-1, :], f[1:-1, 0], f[1:-1, -1]])


def check_range(u: np.ndarray, f: np.ndarray, label: str) -> list[str]:
    """Constants solve the equation, so u stays within its boundary range."""
    fb = boundary_values(f)
    lo, hi = float(np.min(fb)), float(np.max(fb))
    umin, umax = float(np.min(u)), float(np.max(u))
    if not (lo <= umin and umax <= hi):
        return [f"{label}: solution range [{umin:.17g}, {umax:.17g}] leaves "
                f"the boundary range [{lo:.17g}, {hi:.17g}]"]
    return []


def check_gaps_decrease(gaps: list[float]) -> list[str]:
    if len(gaps) < 2 or not all(b < a for a, b in zip(gaps, gaps[1:])):
        return [f"k-gaps not strictly decreasing: {gaps}"]
    return []


def check_raised(u: np.ndarray, v: np.ndarray) -> list[str]:
    """The raised-data solve is u + 0.1: the energies and the operator see
    u only through its derivatives."""
    dev = float(np.max(np.abs(v - (u + RAISE))))
    if not dev <= RAISE_TOL:
        return [f"raised solve deviates from u + {RAISE:g} by {dev:.3e}"]
    return []


def read_field_csv(path, nx: int, ny: int):
    """Parse an x,y,value CSV; returns (header, x, y, value) arrays."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in fh]
    if len(rows) != nx * ny or any(len(r) != 3 for r in rows):
        raise ValueError(f"{path}: expected {nx * ny} rows of three columns")
    cols = np.array([[float(t) for t in r] for r in rows]).T
    return header, cols[0].reshape(ny, nx), cols[1].reshape(ny, nx), \
        cols[2].reshape(ny, nx)


def check_csv(path, u: np.ndarray, xs: np.ndarray, ys: np.ndarray
              ) -> list[str]:
    """The exported CSV reads back as the field, bit for bit."""
    ny, nx = u.shape
    try:
        header, x, y, val = read_field_csv(path, nx, ny)
    except ValueError as exc:
        return [str(exc)]
    out = []
    if header != "x,y,value":
        out.append(f"CSV header {header!r}")
    X, Y = np.meshgrid(xs, ys)
    if not (np.allclose(x, X, rtol=0, atol=1e-12)
            and np.allclose(y, Y, rtol=0, atol=1e-12)):
        out.append("CSV coordinates are not the grid's, row-major y outer")
    differ = int(np.count_nonzero(val.view(np.uint64) != u.view(np.uint64)))
    if differ:
        out.append(f"CSV values differ from the field at {differ} nodes")
    return out


def check_lipschitz(lip: float) -> list[str]:
    """Bounds on L: the right edge's quotient below, sup ||A grad f|| above."""
    lo = LIPSCHITZ_LOWER * (1.0 - ROUNDING)
    hi = LIPSCHITZ_UPPER * (1.0 + ROUNDING)
    if not lo <= lip <= hi:
        return [f"Lipschitz constant {lip:.17g} outside "
                f"[{LIPSCHITZ_LOWER:g}, {LIPSCHITZ_UPPER:.6f}]"]
    return []


def check_symmetric(pairs, fields_a, fields_b) -> list[str]:
    """d(a, b) = d(b, a) to summation rounding."""
    out = []
    for (a, b), da, db in zip(pairs, fields_a, fields_b):
        ab, ba = float(da[b[1], b[0]]), float(db[a[1], a[0]])
        if not abs(ab - ba) <= ROUNDING * max(ab, ba):
            out.append(f"d{a}->{b} = {ab:.17g} but d{b}->{a} = {ba:.17g}")
    return out


def check_halved(fields, fields_doubled) -> list[str]:
    """Scaling the frame by 2 is exact in binary: distances halve exactly."""
    out = []
    for k, (d, d2) in enumerate(zip(fields, fields_doubled)):
        differ = int(np.count_nonzero(d2 != 0.5 * d))
        if differ:
            out.append(f"source {k}: doubled frame does not halve the "
                       f"distance at {differ} nodes")
    return out


def eikonal_deviation(d: np.ndarray, xs: np.ndarray, ys: np.ndarray
                      ) -> float:
    """sup | ||A grad d|| - 1 | over interior nodes farther than
    EIKONAL_RADIUS from the source, by central differences."""
    X, Y = np.meshgrid(xs, ys)
    a = [c[1:-1, 1:-1] for c in frame_entries(X, Y)]
    dx, dy = _central(d, xs[1] - xs[0], 1), _central(d, ys[1] - ys[0], 0)
    norm = np.hypot(a[0] * dx + a[1] * dy, a[2] * dx + a[3] * dy)
    far = d[1:-1, 1:-1] > EIKONAL_RADIUS
    return float(np.max(np.abs(norm[far] - 1.0)))


def check_eikonal(d: np.ndarray, xs: np.ndarray, ys: np.ndarray
                  ) -> list[str]:
    """A distance field solves the eikonal equation ||A grad d|| = 1 away
    from its source, to the CLI's tolerance for the graph metric."""
    dev = eikonal_deviation(d, xs, ys)
    if not dev <= EIKONAL_TOL:
        return [f"eikonal deviation {dev:.3e} above {EIKONAL_TOL:g}"]
    return []


def check_suite(report) -> list[str]:
    """The CLI's own verdict: a failed suite makes `infxlap verify` exit 1."""
    if not report.passed:
        return [f"suite {report.name} failed: worst value "
                f"{report.worst_value:.3e}, tol {report.tol:g}"]
    return []
