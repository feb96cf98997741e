"""Mode-operator identities on the cylinder, under both grid schemes."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wpneck.cylinder import CylinderMetric
from wpneck.grids import uniform_grid
from wpneck.modefields import (ModeField, Rank, Variant, mode_inner_product,
                               mode_norm)
from wpneck import operators as ops

from conftest import smooth_bump


def _oneform(grid, k, seed=0, compact=False):
    x = grid.nodes
    if compact:
        env = smooth_bump(-0.9, 0.9)(x)
    else:
        env = np.ones_like(x)
    rng = np.random.default_rng(seed)
    data = np.zeros((2, x.size))
    for c in range(2):
        for j in range(1, 4):
            data[c] += rng.normal() * np.sin(np.pi * j * (x + 1) / 2.0)
    return ModeField(k, Rank.ONE_FORM, grid, data * env)


def _tracefree(grid, k, seed=1, compact=False):
    f = _oneform(grid, k, seed, compact)
    return ModeField(k, Rank.SYM2_TRACEFREE, grid, f.data)


# -- frame bookkeeping ---------------------------------------------------------

def test_rho_sigma_involution(grid_1025):
    f = _oneform(grid_1025, 3)
    w = f.rho()
    back = ModeField.one_form_rho(3, grid_1025, w[0], w[1])
    assert np.max(np.abs(back.data - f.data)) < 1e-15
    h = _tracefree(grid_1025, 3)
    t = h.rho()
    hb = ModeField.tracefree_rho(3, grid_1025, t[0], t[1])
    assert np.max(np.abs(hb.data - h.data)) < 1e-15


def test_rho_change_preserves_norm_up_to_constant(grid_1025):
    # |a|^2+|b|^2 = 2(|w1|^2+|w2|^2) nodewise
    f = _oneform(grid_1025, 2)
    w = f.rho()
    assert np.allclose(f.data[0] ** 2 + f.data[1] ** 2,
                       2.0 * (w[0] ** 2 + w[1] ** 2))


def test_trace_split_reassembles(grid_1025):
    x = grid_1025.nodes
    h = ModeField(2, Rank.SYM2_FULL, grid_1025,
                  np.vstack([np.cos(x), np.sin(x), 0.3 * np.cos(2 * x)]))
    h0, f = h.trace_split()
    re = h0.as_full(f.data[0])
    assert np.max(np.abs(re.data - h.data)) == 0.0


def test_k0_requires_cos_variant(grid_1025):
    with pytest.raises(ValueError):
        ModeField(0, Rank.SCALAR, grid_1025,
                  np.zeros((1, grid_1025.n)), Variant.SIN)


@given(k1=st.integers(0, 5), k2=st.integers(0, 5),
       v1=st.sampled_from([Variant.COS, Variant.SIN]),
       v2=st.sampled_from([Variant.COS, Variant.SIN]))
@settings(max_examples=20, deadline=None)
def test_distinct_modes_orthogonal(k1, k2, v1, v2):
    grid = uniform_grid(-1, 1, 129)
    if k1 == 0:
        v1 = Variant.COS
    if k2 == 0:
        v2 = Variant.COS
    f1 = _oneform(grid, k1, 5)
    f2 = _oneform(grid, k2, 6)
    f1 = ModeField(k1, Rank.ONE_FORM, grid, f1.data, v1)
    f2 = ModeField(k2, Rank.ONE_FORM, grid, f2.data, v2)
    ip = mode_inner_product(f1, f2)
    if (k1, v1) != (k2, v2):
        assert ip == 0.0
    else:
        assert ip != 0.0


# -- gauge Laplacian -------------------------------------------------------------

def test_gauge_laplacian_kernel_homogeneous_solution(cyl_half, grid_2049):
    # k = 0 homogeneous solution sqrt(tau^2 + ell^2)/ell, FD residual is O(h^2)
    x = grid_2049.nodes
    u = np.sqrt(x**2 + 0.25) / 0.5
    f = ModeField.one_form_rho(0, grid_2049, u, np.zeros_like(u))
    res = ops.apply_gauge_laplacian(cyl_half, f)
    assert np.max(np.abs(res.data[:, 4:-4])) < 5e-6


def test_gauge_laplacian_constant_input(cyl_half, grid_1025):
    # derivative terms vanish: channel i gets (1 + (tau +- k)^2/F)/2
    k = 3
    x = grid_1025.nodes
    F = cyl_half.F(x)
    ones = np.ones_like(x)
    f = ModeField.one_form_rho(k, grid_1025, ones, ones)
    out = ops.apply_gauge_laplacian(cyl_half, f).rho()
    assert np.allclose(out[0][2:-2], 0.5 * (1 + (x + k) ** 2 / F)[2:-2],
                       atol=1e-10)
    assert np.allclose(out[1][2:-2], 0.5 * (1 + (x - k) ** 2 / F)[2:-2],
                       atol=1e-10)


def test_gauge_laplacian_symbolic_derivative_oracle(cyl_half, grid_2049):
    # u(tau) = tau in one channel: P+ u = (-2 tau + tau + tau (tau+k)^2/F)/2
    k, ell = 1, 0.5
    x = grid_2049.nodes
    F = x**2 + ell**2
    f = ModeField.one_form_rho(k, grid_2049, x, np.zeros_like(x))
    out = ops.apply_gauge_laplacian(cyl_half, f).rho()
    expect = 0.5 * (-2.0 * x + x + x * (x + k) ** 2 / F)
    assert np.max(np.abs((out[0] - expect)[4:-4])) < 1e-8


def test_positivity_and_self_adjointness(cyl_half, grid_2049):
    f = _oneform(grid_2049, 2, compact=True)
    g = _oneform(grid_2049, 2, seed=9, compact=True)
    Pf = ops.apply_gauge_laplacian(cyl_half, f)
    Pg = ops.apply_gauge_laplacian(cyl_half, g)
    assert mode_inner_product(Pf, f) >= mode_inner_product(f, f)  # P >= 1
    lhs = mode_inner_product(Pf, g)
    rhs = mode_inner_product(f, Pg)
    assert lhs == pytest.approx(rhs, rel=1e-5)


# -- divergence / div-star / Bianchi ---------------------------------------------

def test_divergence_kernel_elements(cyl_half, grid_2049):
    k, ell = 3, 0.5
    x = grid_2049.nodes
    eta = np.arctan(x / ell) / ell
    F = x**2 + ell**2
    lam = np.exp(k * (eta - eta.max())) / F
    mu = np.exp(-k * (eta - eta.min())) / F
    h = ModeField.tracefree_rho(k, grid_2049, lam, mu)
    out = ops.apply_divergence(cyl_half, h)
    scale = max(np.max(np.abs(lam)), np.max(np.abs(mu)))
    assert np.max(np.abs(out.data[:, 4:-4])) / scale < 1e-5


def test_divergence_constant_channel(cyl_half, grid_1025):
    # documented convention: (t1, t2) = (1, 0) -> (w1, w2) = (0, -(2 tau - k)/sqrt(F))
    k = 2
    x = grid_1025.nodes
    h = ModeField.tracefree_rho(k, grid_1025, np.ones_like(x), np.zeros_like(x))
    out = ops.apply_divergence(cyl_half, h).rho()
    expect = -(2.0 * x - k) / np.sqrt(cyl_half.F(x))
    assert np.max(np.abs(out[0][2:-2])) < 1e-10
    assert np.allclose(out[1][2:-2], expect[2:-2], atol=1e-10)


def _gentle_pair(grid, k):
    x = grid.nodes
    env = np.cos(np.pi * x / 2.0) ** 4
    w = ModeField(k, Rank.ONE_FORM, grid,
                  env * np.vstack([np.sin(2 * x) + 0.3 * np.cos(x),
                                   np.cos(3 * x)]))
    h = ModeField(k, Rank.SYM2_TRACEFREE, grid,
                  env * np.vstack([np.cos(2 * x), np.sin(x)]))
    return w, h


def test_adjoint_pairing(cyl_half):
    rels = []
    for n in (2049, 4097):
        grid = uniform_grid(-1, 1, n)
        w, h = _gentle_pair(grid, 2)
        full = ops.apply_div_star(cyl_half, w)
        lhs = mode_inner_product(full.trace_split()[0], h)
        rhs = mode_inner_product(w, ops.apply_divergence(cyl_half, h))
        rels.append(abs(lhs - rhs) / abs(rhs))
    assert rels[1] < 1e-7
    assert rels[0] / rels[1] > 3.5  # quadrature/stencil mismatch is O(h^2)


def test_trace_identity(cyl_half, grid_1025):
    w = _oneform(grid_1025, 4)
    tr = ops.apply_trace(cyl_half, ops.apply_div_star(cyl_half, w))
    cd = ops.apply_codifferential(cyl_half, w)
    # exact cancellation of the assembled stencils: roundoff-level only
    assert np.max(np.abs(tr.data + cd.data)) < 1e-11


def test_bianchi_annihilates_pure_trace(cyl_half, grid_1025):
    x = grid_1025.nodes
    f = np.cos(np.pi * x) * np.exp(np.sin(x))
    h = ModeField(2, Rank.SYM2_FULL, grid_1025,
                  np.vstack([np.zeros_like(f), np.zeros_like(f), f]))
    out = ops.apply_bianchi(cyl_half, h)
    assert np.max(np.abs(out.data[:, 4:-4])) < 1e-9


def test_bianchi_equals_divergence_on_tracefree(cyl_half, grid_1025):
    h = _tracefree(grid_1025, 3)
    b = ops.apply_bianchi(cyl_half, h)
    d = ops.apply_divergence(cyl_half, h)
    assert np.max(np.abs(b.data - d.data)) == 0.0


def test_bianchi_of_mixed_is_divergence_of_tracefree_part(cyl_half, grid_1025):
    x = grid_1025.nodes
    h0 = _tracefree(grid_1025, 2)
    h = h0.as_full(0.4 * np.cos(np.pi * x))
    b = ops.apply_bianchi(cyl_half, h)
    d = ops.apply_divergence(cyl_half, h0)
    assert np.max(np.abs((b.data - d.data)[:, 4:-4])) < 1e-10


def test_project_tracefree_kills_pure_trace(cyl_half, grid_1025):
    x = grid_1025.nodes
    h = ModeField(1, Rank.SYM2_FULL, grid_1025,
                  np.vstack([np.zeros_like(x), np.zeros_like(x), np.cos(x)]))
    assert np.max(np.abs(ops.project_tracefree(cyl_half, h).data)) == 0.0


# -- conformal Killing operator ---------------------------------------------------

def test_conformal_killing_output_tracefree_by_construction(cyl_half, grid_1025):
    w = _oneform(grid_1025, 2)
    out = ops.apply_conformal_killing(cyl_half, w)
    assert out.rank is Rank.SYM2_TRACEFREE


def test_conformal_killing_adjoint_to_divergence(cyl_half, grid_2049):
    w, h = _gentle_pair(grid_2049, 3)
    lhs = mode_inner_product(ops.apply_conformal_killing(cyl_half, w), h)
    rhs = mode_inner_product(w, ops.apply_divergence(cyl_half, h))
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_rotational_killing_annihilated(cyl_half):
    # omega = sqrt(F) sigma2 is dual to the rotation field; D omega = 0
    # analytically, discretely at order 2
    errs = []
    for n in (1025, 2049):
        grid = uniform_grid(-1, 1, n)
        x = grid.nodes
        sqF = np.sqrt(cyl_half.F(x))
        w = ModeField(0, Rank.ONE_FORM, grid, np.vstack([np.zeros_like(x), sqF]))
        out = ops.apply_conformal_killing(cyl_half, w)
        w2 = ModeField(0, Rank.ONE_FORM, grid, np.vstack([sqF, np.zeros_like(x)]))
        out2 = ops.apply_conformal_killing(cyl_half, w2)
        errs.append(max(np.max(np.abs(out.data[:, 2:-2])),
                        np.max(np.abs(out2.data[:, 2:-2]))))
    assert errs[1] < 5e-7
    assert errs[0] / errs[1] > 3.5


# -- Weitzenboeck / Hodge ---------------------------------------------------------

@pytest.mark.parametrize("k", [0, 2, 5])
def test_weitzenboeck_second_order(cyl_half, k):
    res = []
    for n in (1025, 2049):
        grid = uniform_grid(-1, 1, n)
        res.append(ops.weitzenboeck_residual(cyl_half, _oneform(grid, k)))
    assert res[0] / res[1] > 3.5
    assert res[1] < 2e-5


def test_weitzenboeck_chebyshev(cyl_half, cheb_96):
    assert ops.weitzenboeck_residual(cyl_half, _oneform(cheb_96, 2)) < 1e-10


def test_chebyshev_operators_are_sparse_and_match_dense_assembly(cyl_half, cheb_96):
    # oracle: the defining formulas multiplied out as dense matrices
    D1 = cheb_96.d1.toarray()
    D2 = D1 @ D1
    tau = cheb_96.nodes
    F, Fp, Fpp = cyl_half.F(tau), cyl_half.Fp(tau), cyl_half.Fpp(tau)
    sqF = np.sqrt(F)
    beta = Fp / (2.0 * sqF)
    dg = np.diag
    Z = np.zeros_like(D1)
    sqD = dg(sqF) @ D1
    for k in (0, 2):
        kF = dg(k / sqF)
        Pp, Pm = (0.5 * (dg(-F) @ D2 + dg(-Fp) @ D1
                         + dg(ops.channel_potential(F, Fp, Fpp, k, s)))
                  for s in (+1, -1))
        gauge = 0.5 * np.block([[Pp + Pm, Pp - Pm], [Pp - Pm, Pp + Pm]])
        div = -(sqD + dg(2.0 * beta))
        bianchi = np.block([[div, -kF, Z], [-kF, div, Z]])  # tr h cancels
        S = np.block([[sqD + dg(beta), kF]])
        C = np.block([[kF, sqD + dg(beta)]])
        hodge = np.block([[-sqD], [kF]]) @ S + np.block([[kF], [-sqD]]) @ C
        mo = ops.mode_operators(cyl_half, cheb_96, k)
        for name, dense in (("gauge_laplacian", gauge), ("bianchi", bianchi),
                            ("hodge_laplacian", hodge)):
            mat = getattr(mo, name)
            assert sp.issparse(mat), (k, name)
            err = np.max(np.abs(mat.toarray() - dense)) / np.max(np.abs(dense))
            assert err <= 1e-12, (k, name, err)


def test_weitzenboeck_zero_field(cyl_half, grid_1025):
    z = ModeField.zero(2, Rank.ONE_FORM, grid_1025)
    assert ops.weitzenboeck_residual(cyl_half, z) == 0.0


def test_weitzenboeck_residual_refuses_a_grid_with_no_interior_node(cyl_half):
    # with the default 4-node margin, 9 nodes leave one node to compare, 7 none
    # (a uniform grid has an odd node count)
    assert np.isfinite(ops.weitzenboeck_residual(cyl_half, _oneform(uniform_grid(-1, 1, 9), 2)))
    for n in (3, 5, 7):
        grid = uniform_grid(-1, 1, n)
        with pytest.raises(ValueError, match=f"the {grid.n}-node grid has no node past"):
            ops.weitzenboeck_residual(cyl_half, _oneform(grid, 2))


# -- linearized operators --------------------------------------------------------

def test_linearized_einstein_kernel_is_tt(cyl_half, grid_2049):
    from wpneck.ttbasis import tt_element

    kap = tt_element("kappa", 2, 0.5).as_mode_field(grid_2049)
    h = kap.as_full()
    out = ops.apply_linearized_einstein(cyl_half, h)
    scale = np.max(np.abs(kap.data))
    assert np.max(np.abs(out.data[:, 4:-4])) / scale < 1e-5


def test_linearized_einstein_pure_trace_branch(cyl_half, grid_1025):
    x = grid_1025.nodes
    f = np.cos(np.pi * x / 2.0)
    h = ModeField(1, Rank.SYM2_FULL, grid_1025,
                  np.vstack([np.zeros_like(f), np.zeros_like(f), f]))
    out = ops.apply_linearized_einstein(cyl_half, h)
    assert np.max(np.abs(out.data[:2])) < 1e-12  # output stays pure trace
    lap = ops.apply_scalar_laplacian(
        cyl_half, ModeField(1, Rank.SCALAR, grid_1025, f[None, :]))
    expect = 0.5 * (lap.data[0] + 2.0 * f)
    assert np.allclose(out.data[2][2:-2], expect[2:-2], atol=1e-12)


def test_linearized_einstein_needs_hyperbolic_base(grid_1025):
    from wpneck.surface import ModelSurfaceMetric

    surf = ModelSurfaceMetric(ell=0.3)
    grid = uniform_grid(-1.9, 1.9, 257)  # includes non-hyperbolic cap
    h = ModeField.zero(1, Rank.SYM2_FULL, grid)
    with pytest.raises(ValueError):
        ops.apply_linearized_einstein(surf, h)


def test_intertwining_bianchi_L_equals_P_bianchi(cyl_half):
    # B(L(h)) = P(B(h)) at discretization order: composed first-order route
    # vs direct channel stencils
    res = []
    for n in (1025, 2049):
        grid = uniform_grid(-1, 1, n)
        x = grid.nodes
        h0 = _tracefree(grid, 2, seed=3)
        h = h0.as_full(0.3 * np.cos(np.pi * x))
        BL = ops.apply_bianchi(cyl_half, ops.apply_linearized_einstein(cyl_half, h))
        PB = ops.apply_gauge_laplacian(cyl_half, ops.apply_bianchi(cyl_half, h))
        num = np.max(np.abs((BL.data - PB.data)[:, 6:-6]))
        den = np.max(np.abs(PB.data[:, 6:-6]))
        res.append(num / den)
    assert res[0] / res[1] > 3.5


def test_linearized_curvature_pure_trace(cyl_half, grid_1025):
    x = grid_1025.nodes
    f = np.sin(np.pi * x)
    h = ModeField(2, Rank.SYM2_FULL, grid_1025,
                  np.vstack([np.zeros_like(f), np.zeros_like(f), f]))
    out = ops.apply_linearized_curvature(cyl_half, h)
    lap = ops.apply_scalar_laplacian(
        cyl_half, ModeField(2, Rank.SCALAR, grid_1025, f[None, :]))
    expect = 0.5 * lap.data[0] + f
    assert np.allclose(out.data[0][2:-2], expect[2:-2], atol=1e-12)


# -- conformal divergence ----------------------------------------------------------

def test_conformal_divergence_trivial_factor(cyl_half, grid_1025):
    h = _tracefree(grid_1025, 2)
    u = np.zeros(grid_1025.n)
    assert ops.conformal_divergence_check(cyl_half, u, h) < 1e-13


def test_conformal_divergence_tt_stays_divergence_free(cyl_half, grid_2049):
    from wpneck.ttbasis import tt_element

    kap = tt_element("kappa", 2, 0.5).as_mode_field(grid_2049)
    x = grid_2049.nodes
    u = 0.3 * np.cos(np.pi * x / 2.0)
    # identity route: e^{-2u} delta h = 0 for TT h; direct route agrees
    assert ops.conformal_divergence_check(cyl_half, u, kap) < 1e-6


def test_conformal_divergence_second_order(cyl_half):
    res = []
    for n in (1025, 2049):
        grid = uniform_grid(-1, 1, n)
        x = grid.nodes
        u = 0.3 * np.cos(np.pi * x / 2.0)
        res.append(ops.conformal_divergence_check(cyl_half, u,
                                                  _tracefree(grid, 2, seed=4)))
    assert res[0] / res[1] > 3.5


# -- diagonalization and kernel dimension ------------------------------------------

def test_diagonalization_matches_channel_forms(cyl_half, grid_1025):
    # sigma-assembled divergence conjugated to rho channels equals
    # (-D+ t2, -D- t1) with the scalar first-order operators
    k = 3
    x = grid_1025.nodes
    F = cyl_half.F(x)
    sqF = np.sqrt(F)
    h = _tracefree(grid_1025, k, seed=8)
    t1, t2 = h.rho()
    out = ops.apply_divergence(cyl_half, h).rho()
    d1 = grid_1025.d1
    Dm = sqF * (d1 @ t1) + (2.0 * x - k) / sqF * t1
    Dp = sqF * (d1 @ t2) + (2.0 * x + k) / sqF * t2
    scale = np.max(np.abs(out))
    assert np.max(np.abs(out[0] + Dp)) / scale < 1e-10
    assert np.max(np.abs(out[1] + Dm)) / scale < 1e-10

    # gauge Laplacian conjugation is exactly diag(P+/2, P-/2)
    w = _oneform(grid_1025, k, seed=9)
    w1, w2 = w.rho()
    mo = ops.mode_operators(cyl_half, grid_1025, k)
    direct = ops.apply_gauge_laplacian(cyl_half, w).rho()
    assert np.max(np.abs(direct[0] - mo.channel_matrix(+1, 0.5) @ w1)) < 1e-10
    assert np.max(np.abs(direct[1] - mo.channel_matrix(-1, 0.5) @ w2)) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 4])
def test_divergence_kernel_two_directions_per_mode(cyl_half, k):
    # per (k, variant) exactly the kappa/nu pair is annihilated: the two
    # channel kernels are hit by the explicit exponential solutions, while
    # generic trace-free fields are not in the kernel
    grid = uniform_grid(-1, 1, 2049)
    x = grid.nodes
    ell = cyl_half.ell
    eta = np.arctan(x / ell) / ell
    F = cyl_half.F(x)
    lam = np.exp(k * (eta - eta.max())) / F
    mu = np.exp(-k * (eta - eta.min())) / F
    for t1, t2 in ((lam, np.zeros_like(x)), (np.zeros_like(x), mu)):
        h = ModeField.tracefree_rho(k, grid, t1, t2)
        out = ops.apply_divergence(cyl_half, h)
        scale = max(np.max(np.abs(t1)), np.max(np.abs(t2)))
        assert np.max(np.abs(out.data[:, 4:-4])) / scale < 1e-5
    rnd = _tracefree(grid, k, seed=12)
    out = ops.apply_divergence(cyl_half, rnd)
    assert mode_norm(out) > 0.1 * mode_norm(rnd)


def test_apply_rank_guards(cyl_half, grid_1025):
    s = ModeField.zero(1, Rank.SCALAR, grid_1025)
    with pytest.raises(ValueError):
        ops.apply_gauge_laplacian(cyl_half, s)
    with pytest.raises(ValueError):
        ops.apply_divergence(cyl_half, s)
    with pytest.raises(ValueError):
        ops.apply_trace(cyl_half, s)
