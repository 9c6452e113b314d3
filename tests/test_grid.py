"""Grid, frame, differential operator, and distance tests."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from infxlap.config import load_problem
from infxlap.expressions import parse
from infxlap.grid import (FrameSingular, GridError, build_grid,
                          euclidean_gradient, grad_ln_p, identity_frame,
                          make_frame, riemannian_distance,
                          riemannian_gradient, sample_frame,
                          symmetrized_hessian)
from infxlap.verify import lipschitz_constant

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def unit_grid(n=9):
    return build_grid(0.0, 1.0, 0.0, 1.0, n, n)


class TestBuildGrid:
    def test_counts_4x4(self):
        g = unit_grid(4)
        assert g.n_nodes == 16
        assert int(g.interior_mask().sum()) == 4

    def test_counts_5x5(self):
        g = unit_grid(5)
        assert g.n_nodes == 25
        assert int(g.interior_mask().sum()) == 9

    def test_too_small(self):
        # the edge stencils read four nodes along each axis
        for nx, ny in [(2, 5), (3, 5), (5, 3)]:
            with pytest.raises(GridError):
                build_grid(0, 1, 0, 1, nx, ny)

    def test_bad_extent(self):
        with pytest.raises(GridError):
            build_grid(1, 0, 0, 1, 5, 5)

    def test_spacings(self):
        g = build_grid(0, 2, 0, 1.5, 5, 4)
        assert g.hx == 0.5
        assert g.hy == 0.5
        assert g.xs[-1] == 2.0
        assert g.ys[-1] == 1.5


class TestFrames:
    def test_identity(self):
        g = unit_grid()
        fr = identity_frame(g)
        assert np.all(fr.det == 1.0)

    def test_diag_det(self):
        g = unit_grid()
        fr = sample_frame(parse("2"), parse("0"), parse("0"), parse("1"), g)
        assert np.all(fr.det == 2.0)

    def test_singular_names_node(self):
        g = unit_grid()
        with pytest.raises(FrameSingular) as exc:
            sample_frame(parse("x"), parse("0"), parse("0"), parse("1"), g)
        assert exc.value.node == (0, 0)  # det = x vanishes on the x=0 edge

    def test_bad_shape(self):
        g = unit_grid()
        with pytest.raises(ValueError):
            make_frame(g, np.ones((2, 2)))

    def test_frame_array_is_a_read_only_copy(self):
        # the cached distance graph depends on a, so a must not change
        g = unit_grid()
        a = np.tile(np.eye(2), g.shape + (1, 1))
        fr = make_frame(g, a)
        a[0, 0, 0, 0] = 5.0
        assert fr.a[0, 0, 0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            fr.a[0, 0, 0, 0] = 5.0
        frames = [fr.scaled(2.0), identity_frame(g),
                  sample_frame(parse("1"), parse("x"), parse("0"),
                               parse("2"), g)]
        for other in frames:
            assert not other.a.flags.writeable
        assert np.all(frames[0].det == 4.0)
        assert np.all(frames[2].det == 2.0)


class TestGradient:
    def test_linear_exact(self):
        g = unit_grid()
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        out = riemannian_gradient(X, fr)
        assert np.allclose(out[..., 0], 1.0, atol=1e-13)
        assert np.allclose(out[..., 1], 0.0, atol=1e-13)

    def test_scaled_frame(self):
        g = unit_grid()
        fr = sample_frame(parse("2"), parse("0"), parse("0"), parse("1"), g)
        X, _ = g.meshgrid()
        out = riemannian_gradient(X, fr)
        assert np.allclose(out[..., 0], 2.0, atol=1e-13)

    def test_quadratic_exact_at_center(self):
        # central differences are exact on quadratics; at (0.5, 0.5) the
        # analytic gradient of x^2 + y^2 is (1, 1)
        g = unit_grid(9)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        out = riemannian_gradient(X ** 2 + Y ** 2, fr)
        j = i = 4  # node (0.5, 0.5)
        assert out[j, i, 0] == pytest.approx(1.0, abs=1e-13)
        assert out[j, i, 1] == pytest.approx(1.0, abs=1e-13)

    def test_frame_scaling_rule(self):
        g = unit_grid()
        rng = np.random.default_rng(1)
        u = rng.normal(size=g.shape)
        fr = identity_frame(g)
        fr3 = fr.scaled(3.0)
        assert np.array_equal(3.0 * riemannian_gradient(u, fr),
                              riemannian_gradient(u, fr3))


class TestHessian:
    def test_x_squared(self):
        g = unit_grid()
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        h = symmetrized_hessian(X ** 2, fr)
        inner = h[1:-1, 1:-1]
        assert np.allclose(inner[..., 0], 2.0, atol=1e-11)
        assert np.allclose(inner[..., 1], 0.0, atol=1e-11)
        assert np.allclose(inner[..., 2], 0.0, atol=1e-11)

    def test_xy(self):
        g = unit_grid()
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        h = symmetrized_hessian(X * Y, fr)
        inner = h[1:-1, 1:-1]
        assert np.allclose(inner[..., 0], 0.0, atol=1e-11)
        assert np.allclose(inner[..., 1], 1.0, atol=1e-11)
        assert np.allclose(inner[..., 2], 0.0, atol=1e-11)

    def test_noncommuting_frame(self):
        # A = [[1,0],[0,1+x]], u = y: X1(X2 u) = d/dx (1+x) = 1 while
        # X2(X1 u) = 0, so the symmetrized off-diagonal entry is 1/2
        g = build_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
        fr = sample_frame(parse("1"), parse("0"), parse("0"), parse("1 + x"), g)
        _, Y = g.meshgrid()
        h = symmetrized_hessian(Y, fr)
        assert np.allclose(h[1:-1, 1:-1, 1], 0.5, atol=1e-11)
        assert np.allclose(h[1:-1, 1:-1, 0], 0.0, atol=1e-11)

    def test_symmetry_by_storage(self):
        g = unit_grid()
        fr = identity_frame(g)
        rng = np.random.default_rng(2)
        h = symmetrized_hessian(rng.normal(size=g.shape), fr)
        assert h.shape == g.shape + (3,)  # packed (M11, M12, M22)


def _one_way_graph(frame):
    """Reference graph: each forward 8-neighbor edge once, built from COO
    triples with the same weights, for an undirected search."""
    from scipy.sparse import csr_matrix

    g = frame.grid
    ny, nx = g.shape
    flat = np.arange(g.n_nodes).reshape(ny, nx)
    rows, cols, weights = [], [], []
    for dj, di in ((0, 1), (1, -1), (1, 0), (1, 1)):
        js, jd = slice(0, ny - dj), slice(dj, ny)
        is_ = slice(max(0, -di), nx - max(0, di))
        id_ = slice(max(0, di), nx - max(0, -di))
        mid = 0.5 * (frame.a[js, is_] + frame.a[jd, id_])
        det = (mid[..., 0, 0] * mid[..., 1, 1]
               - mid[..., 0, 1] * mid[..., 1, 0])
        dx, dy = di * g.hx, dj * g.hy
        v0 = (mid[..., 1, 1] * dx - mid[..., 1, 0] * dy) / det
        v1 = (-mid[..., 0, 1] * dx + mid[..., 0, 0] * dy) / det
        rows.append(flat[js, is_].ravel())
        cols.append(flat[jd, id_].ravel())
        weights.append(np.sqrt(v0 * v0 + v1 * v1).ravel())
    return csr_matrix((np.concatenate(weights),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(g.n_nodes, g.n_nodes))


class TestDistance:
    def test_axis_and_diagonal_exact(self):
        g = unit_grid(5)
        fr = identity_frame(g)
        d = riemannian_distance(fr, g, (0, 0))
        assert d[0, 0] == 0.0
        assert d[0, 4] == pytest.approx(1.0, abs=1e-15)
        assert d[4, 4] == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_doubling_frame_halves_exactly(self):
        g = unit_grid(17)
        fr = identity_frame(g)
        d1 = riemannian_distance(fr, g, (3, 5))
        d2 = riemannian_distance(fr.scaled(2.0), g, (3, 5))
        assert np.array_equal(d1, 2.0 * d2)

    def test_source_validation(self):
        g = unit_grid(5)
        with pytest.raises(ValueError):
            riemannian_distance(identity_frame(g), g, (9, 0))

    def test_non_integer_source_rejected(self):
        # a fractional index must not be truncated to a node
        g = unit_grid(5)
        fr = identity_frame(g)
        with pytest.raises(ValueError, match=r"\(1\.5, 2\)"):
            riemannian_distance(fr, g, (1.5, 2))
        with pytest.raises(ValueError, match=r"\(2, 2\.5\)"):
            riemannian_distance(fr, g, [(0, 0), (2, 2.5), (1, 1)])

    def test_batch_names_first_bad_source(self):
        g = unit_grid(5)
        with pytest.raises(ValueError, match=r"\(9, 0\)"):
            riemannian_distance(identity_frame(g), g,
                                np.array([(0, 0), (9, 0), (0, 9)]))

    def test_shape_contract(self):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 6, 5)
        fr = identity_frame(g)
        assert riemannian_distance(fr, g, (1, 2)).shape == (5, 6)
        assert riemannian_distance(fr, g, [(1, 2)]).shape == (1, 5, 6)
        assert riemannian_distance(fr, g, np.zeros((3, 2), int)).shape \
            == (3, 5, 6)
        with pytest.raises(ValueError, match="shape"):
            riemannian_distance(fr, g, (1, 2, 3))

    @pytest.mark.parametrize("nx, ny", [(13, 7), (7, 13)])
    def test_multi_source_matches_single_calls(self, nx, ny):
        g = build_grid(0.0, 1.2, 0.0, 0.8, nx, ny)
        rng = np.random.default_rng(10 * nx + ny)
        fr = make_frame(g, 0.5 * rng.normal(size=(ny, nx, 2, 2))
                        + 1.5 * np.eye(2))
        # corners, edges, interior, and a repeated source
        sources = [(0, 0), (nx - 1, ny - 1), (nx // 2, 0), (0, ny // 2),
                   (nx // 2, ny // 2), (2, 3), (0, 0)]
        multi = riemannian_distance(fr, g, sources)
        single = np.stack([riemannian_distance(fr, g, s) for s in sources])
        assert np.array_equal(multi, single)

    def test_overestimate_bound(self):
        # 8-neighbor graph metric: within 8.3% of Euclidean, never below
        g = unit_grid(33)
        fr = identity_frame(g)
        d = riemannian_distance(fr, g, (0, 0))
        X, Y = g.meshgrid()
        eu = np.hypot(X, Y)
        mask = eu > 0
        ratio = d[mask] / eu[mask]
        assert float(ratio.min()) >= 1.0 - 1e-12
        assert float(ratio.max()) <= 1.083

    def test_singular_edge_named(self):
        # a11 alternates +1/-1 from x = 1/2 on, so the midpoints of the
        # edges there are singular while every node has det +-1; a failed
        # graph build caches nothing, so the second call raises too
        g = unit_grid(17)
        fr = sample_frame(parse("cos(16*pi*max(x, 0.5))"), parse("0"),
                          parse("0"), parse("1"), g)
        for _ in range(2):
            with pytest.raises(FrameSingular) as exc:
                riemannian_distance(fr, g, (8, 8))
            i, j = exc.value.node
            assert (i, j) != (0, 0)
            assert i in (8, 9)
            assert exc.value.det == 0.0

    def test_vertical_singular_edge_named(self):
        # a22 alternates in sign from y = 1/2 on, scaled by 1 + x, so only
        # the vertical edges there have a singular midpoint: horizontal
        # neighbors share a22 and diagonal ones differ in |a22|
        g = unit_grid(17)
        fr = sample_frame(parse("1"), parse("0"), parse("0"),
                          parse("cos(16*pi*max(y, 0.5)) * (1 + x)"), g)
        a22 = fr.a[..., 1, 1]
        assert np.all(a22[8:-1] + a22[9:] == 0.0)
        assert np.all(a22[:, :-1] + a22[:, 1:] != 0.0)
        assert np.all(a22[8:-1, :-1] + a22[9:, 1:] != 0.0)
        assert np.all(a22[8:-1, 1:] + a22[9:, :-1] != 0.0)
        for _ in range(2):
            with pytest.raises(FrameSingular) as exc:
                riemannian_distance(fr, g, (3, 3))
            # the first singular forward edge in row-major order runs
            # from (i=0, j=8) up to (0, 9)
            assert exc.value.node == (0, 8)
            assert exc.value.det == 0.0

    @pytest.mark.parametrize("nx, ny", [(21, 17), (33, 33), (129, 97)])
    def test_bit_identical_to_one_way_graph(self, nx, ny):
        g = build_grid(0.0, 1.2, 0.0, 0.8, nx, ny)
        rng = np.random.default_rng(nx * ny)
        fr = make_frame(g, 0.5 * rng.normal(size=(ny, nx, 2, 2))
                        + 1.5 * np.eye(2))
        corners = [(0, 0), (nx - 1, 0), (0, ny - 1), (nx - 1, ny - 1)]
        sources = np.vstack([corners, np.column_stack(
            [rng.integers(0, nx, 16), rng.integers(0, ny, 16)])])
        ref = dijkstra(_one_way_graph(fr), directed=False,
                       indices=sources[:, 1] * nx + sources[:, 0])
        multi = riemannian_distance(fr, g, sources)
        assert np.array_equal(multi, ref.reshape(multi.shape))
        assert np.array_equal(riemannian_distance(fr, g, sources[-1]),
                              multi[-1])

    @pytest.mark.parametrize("nx, ny", [(21, 17), (33, 33), (129, 97)])
    def test_graph_stored_both_ways_on_the_8_neighborhood(self, nx, ny):
        g = build_grid(0.0, 1.2, 0.0, 0.8, nx, ny)
        rng = np.random.default_rng(nx + ny)
        fr = make_frame(g, 0.5 * rng.normal(size=(ny, nx, 2, 2))
                        + 1.5 * np.eye(2))
        graph = fr.distance_graph
        assert graph.shape == (g.n_nodes, g.n_nodes)
        assert (graph != graph.T).nnz == 0
        rows = np.repeat(np.arange(g.n_nodes), np.diff(graph.indptr))
        cols = graph.indices
        assert np.all(np.abs(rows // nx - cols // nx) <= 1)
        assert np.all(np.abs(rows % nx - cols % nx) <= 1)
        # every edge once each way; the other slots hold zero self-loops
        edges = 4 * nx * ny - 3 * nx - 3 * ny + 2
        assert np.count_nonzero(graph.data) == 2 * edges
        assert np.all(rows[graph.data == 0.0] == cols[graph.data == 0.0])

    @pytest.mark.parametrize("name", ["aronsson", "jensen_min",
                                      "variable_frame"])
    def test_shipped_configs_bit_identical(self, name):
        spec = load_problem(CONFIGS / f"{name}.ini")
        ny, nx = spec.grid.shape
        sources = np.array([(0, 0), (nx - 1, 0), (nx // 2, ny // 3),
                            (0, ny - 1), (nx - 1, ny - 1)])
        ref = dijkstra(_one_way_graph(spec.frame), directed=False,
                       indices=sources[:, 1] * nx + sources[:, 0])
        d = riemannian_distance(spec.frame, spec.grid, sources)
        assert np.array_equal(d, ref.reshape(d.shape))

    def test_lipschitz_constant_of_shipped_varframe(self):
        spec = load_problem(CONFIGS / "variable_frame.ini")
        assert lipschitz_constant(spec.f, spec.grid, spec.frame) \
            == 0.7500000000000003

    @pytest.mark.parametrize("nx, ny", [(13, 7), (7, 13)])
    def test_matches_bellman_ford(self, nx, ny):
        # independent oracle: relax all 8 shifts until nothing changes,
        # with edge lengths from np.linalg.solve on the midpoint frame
        g = build_grid(0.0, 1.2, 0.0, 0.8, nx, ny)
        rng = np.random.default_rng(nx)
        a = 0.3 * rng.normal(size=(ny, nx, 2, 2)) + 2.0 * np.eye(2)
        fr = make_frame(g, a)
        si, sj = 2, ny - 3
        ref = np.full((ny, nx), np.inf)
        ref[sj, si] = 0.0
        edges = []
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                if dj == di == 0:
                    continue
                js = slice(max(0, -dj), ny - max(0, dj))
                is_ = slice(max(0, -di), nx - max(0, di))
                jd = slice(max(0, dj), ny - max(0, -dj))
                id_ = slice(max(0, di), nx - max(0, -di))
                mt = np.swapaxes(0.5 * (a[js, is_] + a[jd, id_]), -1, -2)
                step = np.broadcast_to([di * g.hx, dj * g.hy],
                                       mt.shape[:-1])[..., None]
                w = np.linalg.norm(np.linalg.solve(mt, step)[..., 0], axis=-1)
                edges.append(((js, is_), (jd, id_), w))
        changed = True
        while changed:
            changed = False
            for src, dst, w in edges:
                cand = ref[src] + w
                better = cand < ref[dst]
                if np.any(better):
                    ref[dst] = np.where(better, cand, ref[dst])
                    changed = True
        d = riemannian_distance(fr, g, (si, sj))
        assert np.all(np.isfinite(ref))
        assert np.allclose(d, ref, rtol=1e-12, atol=0.0)

    def test_grid_must_be_the_frames(self):
        g = unit_grid(9)
        other = build_grid(0.0, 2.0, 0.0, 1.0, 9, 9)
        with pytest.raises(ValueError, match=r"xmax=2\.0.*xmax=1\.0"):
            riemannian_distance(identity_frame(g), other, (0, 0))

    def test_graph_built_once_per_frame(self, graph_builds):
        g = unit_grid(9)
        fr = sample_frame(parse("1"), parse("0"), parse("0"),
                          parse("1 + x/2"), g)
        single = riemannian_distance(fr, g, (3, 4))
        multi = riemannian_distance(fr, g, [(3, 4), (0, 8)])
        assert len(graph_builds) == 1 and graph_builds[0] is fr
        assert np.array_equal(multi[0], single)
        riemannian_distance(fr.scaled(2.0), g, (3, 4))
        assert len(graph_builds) == 2

    def test_triangle_inequality_sampled(self):
        g = unit_grid(9)
        fr = sample_frame(parse("1"), parse("0"), parse("0"),
                          parse("1 + x/2"), g)
        nodes = [(0, 0), (4, 4), (8, 2), (2, 7)]
        dists = {n: riemannian_distance(fr, g, n) for n in nodes}
        for a in nodes:
            assert dists[a][a[1], a[0]] == 0.0
            for b in nodes:
                for c in nodes:
                    dab = dists[a][b[1], b[0]]
                    dac = dists[a][c[1], c[0]]
                    dcb = dists[c][b[1], b[0]]
                    assert dab <= dac + dcb + 1e-12


class TestGradLnP:
    def test_constant_p(self):
        g = unit_grid()
        fr = identity_frame(g)
        out = grad_ln_p(np.full(g.shape, 2.0), fr)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_exponential_p(self):
        # ln p = x is linear, so the stencil is exact; domain keeps p > 1
        g = build_grid(0.5, 1.5, 0.0, 1.0, 9, 9)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        out = grad_ln_p(np.exp(X), fr)
        assert np.allclose(out[1:-1, 1:-1, 0], 1.0, atol=1e-12)
        assert np.allclose(out[1:-1, 1:-1, 1], 0.0, atol=1e-12)

    def test_quadratic_p_value(self):
        # p = 2 + x^2: d/dx ln p = 2x/(2+x^2) = 0.4444... at x = 0.5
        g = unit_grid(17)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        out = grad_ln_p(2.0 + X ** 2, fr)
        assert out[8, 8, 0] == pytest.approx(2 * 0.5 / 2.25, abs=1e-3)

    def test_rejects_small_p(self):
        g = unit_grid()
        fr = identity_frame(g)
        with pytest.raises(ValueError):
            grad_ln_p(np.full(g.shape, 1.0), fr)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=0.25, max_value=4.0), seed=st.integers(0, 100))
def test_frame_scaling_property(c, seed):
    """A -> cA multiplies gradients by c and divides distances by c."""
    g = build_grid(0.0, 1.0, 0.0, 1.0, 7, 7)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=g.shape)
    fr = identity_frame(g)
    frc = fr.scaled(c)
    assert np.allclose(riemannian_gradient(u, frc),
                       c * riemannian_gradient(u, fr), rtol=1e-12, atol=1e-12)
    d1 = riemannian_distance(fr, g, (2, 3))
    dc = riemannian_distance(frc, g, (2, 3))
    assert np.allclose(dc, d1 / c, rtol=1e-12, atol=1e-12)


def test_stencil_order_on_trig():
    """Gradient error drops by >= 3.5x per halving for u = sin x cos y."""
    errs = []
    for n in (17, 33, 65):
        g = build_grid(0.0, 1.0, 0.0, 1.0, n, n)
        fr = identity_frame(g)
        X, Y = g.meshgrid()
        got = riemannian_gradient(np.sin(X) * np.cos(Y), fr)
        exact = np.stack([np.cos(X) * np.cos(Y), -np.sin(X) * np.sin(Y)],
                         axis=-1)
        errs.append(float(np.max(np.abs(got - exact))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5
