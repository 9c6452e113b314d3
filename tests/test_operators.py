"""Jet-level operator formulas and field residual/functional tests.

The jet-level expected values are hand evaluations of the residual
formulas, frozen here to machine precision; field-level checks allow
stencil error where the input is not polynomial.
"""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from infxlap import operators
from infxlap.expressions import parse
from infxlap.grid import (_d_axis, build_grid, grad_ln_p, identity_frame,
                          riemannian_gradient, sample_frame,
                          symmetrized_hessian)
from infxlap.operators import (DELTA_LOG, ExponentData, PointJet,
                               ResidualKernel,
                               infinity_residual_at, infinity_x_residual_at,
                               infinity_x_residual_field, max_form_residual,
                               min_form_residual, pk_residual_at)


def unit_grid(n=9):
    return build_grid(0.0, 1.0, 0.0, 1.0, n, n)


def _jet(eta, h11, h12, h22):
    return PointJet(eta=eta, H=((h11, h12), (h12, h22)))


class TestInfinityResidual:
    def test_picks_h11(self):
        assert infinity_residual_at(_jet((1, 0), 2, 0, 7)) == 2.0

    def test_zero_eta(self):
        assert infinity_residual_at(_jet((0, 0), 5, 1, 3)) == 0.0

    def test_cross_term(self):
        # <H eta, eta> with eta = (1,1), H = [[0,1],[1,0]] is 2
        assert infinity_residual_at(_jet((1, 1), 0, 1, 0)) == 2.0

    def test_asymmetric_jet_rejected(self):
        with pytest.raises(ValueError):
            PointJet(eta=(1, 0), H=((0, 1), (2, 0)))


class TestInfinityXResidual:
    def test_unit_gradient_kills_log(self):
        e = ExponentData(p=3.0, grad_ln_p=(4.0, -7.0))
        j = _jet((0.6, 0.8), 1, 2, 3)
        # ln 1 = 0, so only -<H eta, eta> survives
        quad = 1 * 0.36 + 2 * 2 * 0.6 * 0.8 + 3 * 0.64
        assert infinity_x_residual_at(j, e) == pytest.approx(-quad, abs=1e-15)

    def test_zero_eta_convention(self):
        e = ExponentData(p=2.0, grad_ln_p=(1.0, 1.0))
        assert infinity_x_residual_at(_jet((0, 0), 1, 0, 1), e) == 0.0

    def test_hand_value(self):
        # eta=(2,0), H=diag(3,5), grad_ln_p=(1,0):
        # -(<H eta,eta> + |eta|^2 <eta, glnp> ln|eta|) = -(12 + 8 ln 2)
        e = ExponentData(p=2.0, grad_ln_p=(1.0, 0.0))
        got = infinity_x_residual_at(_jet((2, 0), 3, 0, 5), e)
        assert got == pytest.approx(-(12.0 + 8.0 * math.log(2.0)), abs=1e-12)

    def test_constant_p_reduces_to_negated_plain(self):
        rng = np.random.default_rng(0)
        e = ExponentData(p=2.5)  # grad_ln_p = 0
        for _ in range(50):
            eta = tuple(rng.normal(size=2))
            h11, h12, h22 = rng.normal(size=3)
            j = _jet(eta, h11, h12, h22)
            assert infinity_x_residual_at(j, e) == -infinity_residual_at(j)

    def test_quadratic_scaling_of_plain_but_not_variable(self):
        j = _jet((1.0, 2.0), 1, -1, 2)
        j3 = _jet((3.0, 6.0), 1, -1, 2)
        assert infinity_residual_at(j3) == pytest.approx(
            9 * infinity_residual_at(j), rel=1e-13)
        # witness: the log term breaks the scaling once grad_ln_p != 0
        e = ExponentData(p=2.0, grad_ln_p=(1.0, 0.0))
        assert infinity_x_residual_at(j3, e) != pytest.approx(
            9 * infinity_x_residual_at(j, e), rel=1e-6)


class TestPkResidual:
    def test_kp2_laplacian(self):
        # |eta| = 1, H = I, kp = 2: residual is -tr H = -2
        e = ExponentData(p=2.0, k=1.0)
        assert pk_residual_at(_jet((1, 0), 1, 0, 1), e) == -2.0

    def test_zero_eta_convention(self):
        e = ExponentData(p=3.0, k=2.0)
        assert pk_residual_at(_jet((0, 0), 1, 0, 1), e) == 0.0

    def test_hand_value_kp4(self):
        # eta=(1,0), H=diag(1,0), kp=4: -(1*1 + 2*1 + 0) = -3
        e = ExponentData(p=4.0, k=1.0)
        assert pk_residual_at(_jet((1, 0), 1, 0, 0), e) == pytest.approx(
            -3.0, abs=1e-15)

    def test_kp2_reduces_to_trace(self):
        rng = np.random.default_rng(1)
        e = ExponentData(p=2.0, k=1.0)
        for _ in range(50):
            eta = tuple(rng.normal(size=2))
            if eta[0] == 0 and eta[1] == 0:
                continue
            h11, h12, h22 = rng.normal(size=3)
            got = pk_residual_at(_jet(eta, h11, h12, h22), e)
            assert got == pytest.approx(-(h11 + h22), rel=1e-12, abs=1e-12)

    def test_exponent_data_validation(self):
        with pytest.raises(ValueError):
            ExponentData(p=1.0)
        with pytest.raises(ValueError):
            ExponentData(p=2.0, k=0.5)


class TestResidualField:
    def test_unit_slope_plane_harmonic(self):
        g = unit_grid()
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        p = 2.0 + 0.3 * X
        res = infinity_x_residual_field(X, fr, p)
        assert np.max(np.abs(res)) < 1e-11

    def test_plane_with_nonunit_gradient(self):
        # A=I, p=e^x, u=2x: residual -(0 + 4*2*1*ln 2) = -8 ln 2 everywhere
        g = build_grid(0.5, 1.5, 0.0, 1.0, 9, 9)
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        res = infinity_x_residual_field(2.0 * X, fr, np.exp(X))
        expect = -8.0 * math.log(2.0)
        assert np.allclose(res[1:-1, 1:-1], expect, atol=1e-11)

    def test_boundary_rows_zero(self):
        g = unit_grid()
        fr = identity_frame(g)
        rng = np.random.default_rng(3)
        res = infinity_x_residual_field(rng.normal(size=g.shape), fr,
                                        np.full(g.shape, 2.0))
        assert np.all(res[0] == 0) and np.all(res[-1] == 0)
        assert np.all(res[:, 0] == 0) and np.all(res[:, -1] == 0)


def _variable_problem(nx=13, ny=11):
    """Grid with hx != hy, a full variable frame and exponent, and a
    smooth field with no flat spots."""
    g = build_grid(0.0, 1.0, 0.0, 1.5, nx, ny)
    fr = sample_frame(parse("1 + x/3"), parse("x*y/4"), parse("sin(y)/5"),
                      parse("1 + x/2"), g)
    X, Y = g.meshgrid()
    p = 2.0 + X ** 2 / 4.0 + Y / 3.0
    u = np.sin(2.0 * X) * np.cos(Y) + 0.7 * X + 0.4 * Y * Y
    return g, fr, p, u


def _stencil_parts(frame, p, u):
    """The kernel's interior jet parts from nested ``_d_axis`` stencils and
    pointwise frame products: the reference for the sparse products."""
    grid = frame.grid
    a11, a12, a21, a22 = (frame.a[..., i, k] for i in (0, 1) for k in (0, 1))
    ux = _d_axis(u, grid.hx, axis=1)
    uy = _d_axis(u, grid.hy, axis=0)
    g = (a11 * ux + a12 * uy, a21 * ux + a22 * uy)
    gx = [_d_axis(c, grid.hx, axis=1)[1:-1, 1:-1] for c in g]
    gy = [_d_axis(c, grid.hy, axis=0)[1:-1, 1:-1] for c in g]
    b11, b12, b21, b22 = (c[1:-1, 1:-1] for c in (a11, a12, a21, a22))
    g1, g2 = g[0][1:-1, 1:-1], g[1][1:-1, 1:-1]
    h11 = b11 * gx[0] + b12 * gy[0]
    h12 = 0.5 * ((b11 * gx[1] + b12 * gy[1]) + (b21 * gx[0] + b22 * gy[0]))
    h22 = b21 * gx[1] + b22 * gy[1]
    lnp = riemannian_gradient(np.log(p), frame)[1:-1, 1:-1]
    n2 = g1 * g1 + g2 * g2
    dot = g1 * lnp[..., 0] + g2 * lnp[..., 1]
    log_n = np.log(np.maximum(np.sqrt(n2), DELTA_LOG))
    return g1, g2, h11, h12, h22, n2, dot, log_n


class TestResidualKernel:
    def test_matches_jets_node_by_node(self):
        g, fr, p, u = _variable_problem()
        res = ResidualKernel(fr, p)(u)
        eta = riemannian_gradient(u, fr)
        h = symmetrized_hessian(u, fr)
        glp = grad_ln_p(p, fr)
        scale = float(np.max(np.abs(res)))
        for j in range(1, g.ny - 1):
            for i in range(1, g.nx - 1):
                jet = _jet(tuple(eta[j, i]), *h[j, i])
                e = ExponentData(p=p[j, i], grad_ln_p=tuple(glp[j, i]))
                assert res[j, i] == pytest.approx(
                    infinity_x_residual_at(jet, e), rel=1e-13,
                    abs=1e-13 * scale)
        assert np.all(res[[0, -1], :] == 0) and np.all(res[:, [0, -1]] == 0)

    def test_jacobian_matches_central_difference(self):
        # along a random interior direction, ring 1 included; the residual
        # is smooth in u here, so the difference error is O(eps^2)
        g, fr, p, u = _variable_problem()
        kernel = ResidualKernel(fr, p)
        v = np.zeros(g.shape)
        v[1:-1, 1:-1] = np.random.default_rng(3).normal(size=(g.ny - 2,
                                                              g.nx - 2))
        eps = 1e-6
        fd = (kernel.jets(u + eps * v)[0]
              - kernel.jets(u - eps * v)[0]) / (2.0 * eps)
        jac = kernel.jacobian(u)
        assert jac.shape == (fd.size, fd.size)
        jv = (jac @ v[1:-1, 1:-1].ravel()).reshape(fd.shape)
        assert np.max(np.abs(jv - fd)) <= 1e-9 * np.max(np.abs(fd))

    @pytest.mark.parametrize("diagonal, n", [(False, None), (True, None),
                                             (False, 219)],
                             ids=["full", "diag", "full-219"])
    def test_jacobian_matches_sparse_product_reference(self, diagonal, n):
        # the blocks G_a G_b from scipy products of the whole-lattice
        # operators, weighted by diagonal matrices: the fixed pattern must
        # give the same matrix with the same entries, no more (a diagonal
        # frame has a sparser pattern than a full one).  At 219^2 there
        # are 47,089 interior nodes, so a flat index col * n + row of the
        # pattern passes 2**31
        g, fr, p, u = _variable_problem(*(n, n) if n else ())
        if diagonal:
            fr = sample_frame(parse("1"), parse("0"), parse("0"),
                              parse("1 + x/2"), g)
        kernel = ResidualKernel(fr, p)
        ny, nx = g.shape
        dx = sp.kron(sp.eye(ny), _d_axis(np.eye(nx), g.hx, 0), "csr")
        dy = sp.kron(_d_axis(np.eye(ny), g.hy, 0), sp.eye(nx), "csr")
        a = [sp.diags(fr.a[..., i, k].ravel()) for i in (0, 1) for k in (0, 1)]
        G1, G2 = a[0] @ dx + a[1] @ dy, a[2] @ dx + a[3] @ dy
        inner = np.flatnonzero(g.interior_mask())
        blocks = [m.tocsr()[inner][:, inner] for m in
                  (G1 @ G1, 0.5 * (G1 @ G2 + G2 @ G1), G2 @ G2, G1, G2)]
        g1, g2, h11, h12, h22, n2, dot, log_n = kernel._parts(u)
        lnp = grad_ln_p(p, fr)[1:-1, 1:-1]
        s = 2.0 * dot * log_n + dot
        c = [2.0 * (ha * g1 + hb * g2) + s * ga + n2 * lnp[..., i] * log_n
             for i, (ha, hb, ga) in enumerate(((h11, h12, g1),
                                               (h12, h22, g2)))]
        weights = (g1 * g1, 2.0 * g1 * g2, g2 * g2, c[0], c[1])
        ref = -sum(sp.diags(w.ravel()) @ m for w, m in zip(weights, blocks))
        jac = kernel.jacobian(u)
        assert jac.nnz == ref.nnz
        assert (abs(jac - ref).max() <= 1e-13 * abs(ref).max())

    def test_symmetrized_hessian_is_the_kernels_bit_for_bit(self):
        # both apply frame.jet_operator to the components of G u, on a full
        # frame and a grid with hx != hy and nx != ny
        g, fr, p, u = _variable_problem()
        assert g.nx != g.ny
        h = symmetrized_hessian(u, fr)[1:-1, 1:-1]
        _, _, h11, h12, h22, *_ = ResidualKernel(fr, p)._parts(u)
        for k, want in enumerate((h11, h12, h22)):
            assert np.array_equal(h[..., k], want), k

    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diag"])
    def test_sparse_jet_matches_stencil_reference(self, diagonal):
        # the same stencils summed in another order: D_X u and the Hessian
        # differ from the nested stencils by rounding of u's differences,
        # of order eps max|u| / h and eps max|u| / h^2
        g, fr, p, u = _variable_problem()
        if diagonal:
            fr = sample_frame(parse("1"), parse("0"), parse("0"),
                              parse("1 + x/2"), g)
        kernel = ResidualKernel(fr, p)
        got, ref = kernel._parts(u), _stencil_parts(fr, p, u)
        eps, umax = np.finfo(float).eps, float(np.max(np.abs(u)))
        for k, tol in enumerate([16 * eps * umax / min(g.hx, g.hy)] * 2
                                + [16 * eps * umax / (g.hx * g.hy)] * 3):
            assert got[k].shape == ref[k].shape == (g.ny - 2, g.nx - 2)
            assert np.max(np.abs(got[k] - ref[k])) <= tol, k
        g1, g2, h11, h12, h22, n2, dot, log_n = ref
        r = -(h11 * g1 * g1 + 2.0 * h12 * g1 * g2 + h22 * g2 * g2
              + n2 * dot * log_n)
        assert np.max(np.abs(kernel.jets(u)[0] - r)) <= 1e-13 * np.max(
            np.abs(r))

    def test_jacobian_blocks_built_once_per_frame(self, monkeypatch):
        # p enters only through the per-step weights, so kernels of any
        # exponent on one frame share the blocks; a new frame builds anew
        g, fr, p, u = _variable_problem()
        built, real = [], operators._jacobian_blocks
        monkeypatch.setattr(operators, "_jacobian_blocks",
                            lambda frame: built.append(frame) or real(frame))
        for kernel in (ResidualKernel(fr, p), ResidualKernel(fr, p + 1.0)):
            kernel.jacobian(u)
            kernel.jacobian(u + 0.1)
        assert built == [fr]
        scaled = fr.scaled(2.0)
        ResidualKernel(scaled, p).jacobian(u)
        assert built == [fr, scaled]

    def test_residual_and_jacobian_share_one_operator(self, monkeypatch):
        # G is built once for the frame, by its first kernel: the Jacobian
        # blocks are products of that G, not of a second copy
        g, fr, p, u = _variable_problem()
        krons, real = [], sp.kron
        monkeypatch.setattr(sp, "kron",
                            lambda *a, **k: krons.append(a) or real(*a, **k))
        kernel = ResidualKernel(fr, p)
        kernel(u)
        kernel.jacobian(u)
        ResidualKernel(fr, p + 1.0).jacobian(u)
        assert len(krons) == 2          # Dx and Dy of the one G
        assert kernel._g is fr.jet_operator
        n = g.n_nodes
        inner = np.flatnonzero(g.interior_mask())
        g1 = fr.jet_operator[:n][inner][:, inner].toarray()
        data, rows, indptr = fr.jacobian_blocks
        block = sp.csc_matrix((data[:, 3], rows, indptr), shape=g1.shape)
        assert np.array_equal(block.toarray(), g1)

    def test_frame_freed_with_its_operators(self):
        # G and the Jacobian blocks live on the frame: nothing in operators
        # keeps a frame alive once its kernels are gone
        g, fr, p, u = _variable_problem()
        kernel = ResidualKernel(fr, p)
        kernel.jacobian(u)
        assert "jacobian_blocks" in vars(fr) and "jet_operator" in vars(fr)
        ref = weakref.ref(fr)
        del kernel, fr
        gc.collect()
        assert ref() is None

    def test_exponent_at_most_one_rejected(self):
        g, fr, p, u = _variable_problem()
        p = p.copy()
        p[4, 6] = 1.0
        with pytest.raises(ValueError, match=r"p = 1 <= 1 at node \(i=6, j=4\)"):
            ResidualKernel(fr, p)
        with pytest.raises(ValueError, match="<= 1"):
            infinity_x_residual_field(u, fr, p)


class TestForms:
    def test_min_form_constant_field(self):
        g = unit_grid()
        fr = identity_frame(g)
        u = np.full(g.shape, 4.0)
        p = np.full(g.shape, 2.0)
        out = min_form_residual(u, fr, p, 1.0)
        assert np.allclose(out[1:-1, 1:-1], -1.0, atol=1e-15)

    def test_both_branches_zero_on_unit_plane(self):
        g = unit_grid()
        fr = identity_frame(g)
        X, _ = g.meshgrid()
        p = np.full(g.shape, 2.0)
        out = min_form_residual(X, fr, p, 1.0)
        assert np.max(np.abs(out)) < 1e-11

    def test_max_form_constant_field(self):
        g = unit_grid()
        fr = identity_frame(g)
        u = np.full(g.shape, 4.0)
        p = np.full(g.shape, 2.0)
        out = max_form_residual(u, fr, p, 1.0)
        assert np.allclose(out[1:-1, 1:-1], 1.0, atol=1e-15)

    def test_eps_validation(self):
        g = unit_grid()
        fr = identity_frame(g)
        u = np.zeros(g.shape)
        p = np.full(g.shape, 2.0)
        with pytest.raises(ValueError):
            min_form_residual(u, fr, p, 0.0)
        with pytest.raises(ValueError):
            max_form_residual(u, fr, p, -1.0)


@settings(max_examples=100, deadline=None)
@given(
    eta=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    h=st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
    c=st.floats(min_value=0.1, max_value=5.0),
)
def test_plain_residual_quadratic_scaling(eta, h, c):
    j = _jet(eta, *h)
    jc = _jet((c * eta[0], c * eta[1]), *h)
    assert infinity_residual_at(jc) == pytest.approx(
        c * c * infinity_residual_at(j), rel=1e-10, abs=1e-10)
