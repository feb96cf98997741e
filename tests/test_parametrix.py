import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wpneck import parametrix, surface
from wpneck.grids import periodic_grid
from wpneck.modefields import ModeField, Rank, mode_inner_product, mode_norm
from wpneck.operators import (ModeOperators, apply_div_star, apply_divergence,
                              apply_bianchi, mode_operators)
from wpneck.parametrix import (ModeParametrix, ParametrixFamily, SolverBank,
                               assemble_tt_frame, build_cutoff_tensors,
                               mu_cutoff, mu_cutoff_d1, project_tt)
from wpneck.surface import (CutoffPair, GlobalModeSolver, ModelSurfaceMetric,
                            SubdomainSolver, thick_indices, thin_indices)
from wpneck.ttbasis import tt_element
from wpneck.wp import length_variation, twist_variation

from conftest import channel_matrices, cyclic_diagonals


@pytest.fixture(scope="module")
def grid():
    return periodic_grid(-2.0, 2.0, 1024)


@pytest.fixture(scope="module")
def family(grid):
    return ParametrixFamily(grid, ks=[0, 1, 3])


def test_parametrix_identity(family, grid):
    # P Gtilde = Id - R exactly on the discrete level
    blk = family.block(0.1, 1)
    x = grid.nodes
    v = np.vstack([np.cos(np.pi * x / 2.0), np.sin(np.pi * x)])
    lhs = blk.apply_P(blk.apply_Gtilde(v))
    rhs = v - blk.apply_R(v)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(v) < 1e-10


def test_error_operator_support(family, grid):
    # R outputs live in the widener transition bands inside 1/2<=|tau|<=3/4
    blk = family.block(0.1, 1)
    x = grid.nodes
    rng = np.random.default_rng(0)
    v = rng.standard_normal((2, grid.n))
    out = blk.apply_R(v)
    r = np.abs(np.mod(x + 2.0, 4.0) - 2.0)
    outside = (r < 0.5) | (r > 0.75)
    assert np.max(np.abs(out[:, outside])) < 1e-12 * np.max(np.abs(out))


def test_error_vanishes_on_neck(family, grid):
    # in particular R(h) = 0 on |tau| <= c = 1/2 for any h
    blk = family.block(0.2, 0)
    x = grid.nodes
    v = np.vstack([np.exp(-x**2), np.cos(np.pi * x)])
    out = blk.apply_R(v)
    r = np.abs(np.mod(x + 2.0, 4.0) - 2.0)
    assert np.max(np.abs(out[:, r <= 0.5])) == 0.0


def test_S_adjoint_consistency(family, grid):
    blk = family.block(0.2, 1)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, grid.n))
    b = rng.standard_normal((2, grid.n))
    lhs = float(np.sum(blk.apply_S(a) * b))
    rhs = float(np.sum(a * blk.apply_S_T(b)))
    # S is a small difference of large adjoint-consistent pieces; measure
    # the pairing mismatch against the piece scale
    scale = abs(float(np.sum(blk.apply_R(a) * b))) + 1.0
    assert abs(lhs - rhs) / scale < 1e-10


def test_S_vanishes_at_reference_nodes(family, grid):
    for ell_ref in family.ell_refs[:2]:
        blk = family.block(ell_ref, 1)
        assert blk.operator_norm("S", iters=8) < 1e-9


def test_S_norm_decreasing_and_small(family):
    prev = np.inf
    for ell in (0.4, 0.2, 0.1, 0.05):
        rep = family.report(ell)
        assert rep.norm_S < 1.0
        assert rep.norm_S < prev
        assert rep.residual < 1e-8
        prev = rep.norm_S


def test_neumann_matches_direct(family, grid):
    from wpneck.surface import GlobalModeSolver

    surf = ModelSurfaceMetric(ell=0.1)
    x = grid.nodes
    for k in (0, 3):
        blk = family.block(0.1, k)
        rhs = np.vstack([np.exp(np.cos(np.pi * x / 2.0)),
                         np.sin(np.pi * x / 2.0) * np.cos(np.pi * x)])
        rhs = blk._project(rhs)
        sol_n, _ = blk.neumann_solve(rhs, tol=1e-14)
        gs = GlobalModeSolver(surf, grid, k)
        sol_d = blk._project(gs.solve_channels(gs.project_out_kernel(rhs)))
        rel = np.linalg.norm(sol_n - sol_d) / np.linalg.norm(sol_d)
        assert rel < 1e-6


def test_trivial_series_when_error_zero(family, grid):
    # at a reference node S ~ 0 and the series truncates immediately
    blk = family.block(family.ell_refs[0], 0)
    x = grid.nodes
    rhs = blk._project(np.vstack([np.cos(np.pi * x / 2.0), 0 * x]))
    sol, terms = blk.neumann_solve(rhs)
    assert terms <= 3
    gbar = blk._project(blk.apply_Gbar(rhs))
    assert np.linalg.norm(sol - gbar) < 1e-9 * np.linalg.norm(gbar)


def test_block_builds_its_channel_matrices_once(family, monkeypatch):
    # a block forms its channel diagonals once, from the stencils, and its
    # subdomain band (and at k = 0 its kernel) reuse them; no block builds
    # mode operators
    calls = []
    real = parametrix.channel_diagonals

    def counting(surf, grid, k):
        calls.append(k)
        return real(surf, grid, k)

    def refuse(*args, **kwargs):
        raise AssertionError("a parametrix block built mode operators")

    for module in (parametrix, surface):
        monkeypatch.setattr(module, "channel_diagonals", counting)
    monkeypatch.setattr(ModeOperators, "__init__", refuse)
    family.block(0.123, 3)
    family.block(0.123, 0)
    assert calls == [3, 0]


def test_parametrix_and_global_solver_build_no_sparse_matrix(monkeypatch):
    # the blocks, their references and the direct global solve are bands:
    # no mode operators, no SuperLU, no scipy.sparse matrix
    def refuse(*args, **kwargs):
        raise AssertionError("the parametrix built a sparse matrix")

    monkeypatch.setattr(ModeOperators, "__init__", refuse)
    for name in ("splu", "spsolve"):
        monkeypatch.setattr(spla, name, refuse)
    for name in ("csc_matrix", "csr_matrix", "coo_matrix", "bmat", "diags",
                 "block_diag", "eye"):
        monkeypatch.setattr(sp, name, refuse)
    grid = periodic_grid(-2.0, 2.0, 512)
    rep = ParametrixFamily(grid, ks=[0, 2]).report(0.1)
    assert rep.norm_S < 1.0 and rep.residual < 1e-8
    x = grid.nodes
    for k in (0, 2):
        gs = GlobalModeSolver(ModelSurfaceMetric(ell=0.1), grid, k)
        rhs = gs.project_out_kernel(np.vstack([np.cos(np.pi * x / 2.0), 0 * x]))
        assert np.all(np.isfinite(gs.solve_channels(rhs, trans="T")))


def test_tt_projection_at_k_ge_1_builds_no_sparse_matrix(monkeypatch):
    # the k >= 1 projection is two rho-channel bands: no mode operators, no
    # SuperLU, no scipy.sparse matrix.  The torus surrogate has no TT tensor
    # at k >= 1, so a tensor and a gauge direction both project to zero
    grid = periodic_grid(-2.0, 2.0, 512)
    surf = ModelSurfaceMetric(ell=0.1)
    x = grid.nodes
    inputs = {}
    for k in (1, 3):
        w = ModeField(k, Rank.ONE_FORM, grid,
                      np.vstack([np.sin(np.pi * x / 2.0), np.cos(np.pi * x)]))
        inputs[k] = (apply_div_star(surf, w),
                     ModeField(k, Rank.SYM2_FULL, grid,
                               np.vstack([np.exp(-x**2), 0.3 * np.cos(np.pi * x / 2.0),
                                          0.1 * np.sin(np.pi * x / 2.0)])))

    def refuse(*args, **kwargs):
        raise AssertionError("the projection built a sparse matrix")

    monkeypatch.setattr(ModeOperators, "__init__", refuse)
    for name in ("splu", "spsolve"):
        monkeypatch.setattr(spla, name, refuse)
    for name in ("csc_matrix", "csr_matrix", "coo_matrix", "bmat", "diags",
                 "block_diag", "eye"):
        monkeypatch.setattr(sp, name, refuse)
    bank = SolverBank(surf, grid)
    for k, fields in inputs.items():
        for h in fields:
            T = project_tt(surf, grid, h, solvers=bank)
            assert mode_norm(T) / mode_norm(h) < 1e-9, (k, h.rank)


def test_family_keeps_only_the_current_lengths_blocks(grid, monkeypatch):
    family = ParametrixFamily(grid, ks=[1])
    built = []
    real = ModeParametrix.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0].ell)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ModeParametrix, "__init__", counting)
    first = weakref.ref(family.block(0.1, 1))
    # a report and then its blocks again, as parametrix_norms asks for them
    family.report(0.2)
    family.block(0.2, 1)
    assert built == [0.1, 0.2]
    gc.collect()
    assert first() is None


def test_block_diagonal_apply_P_matches_per_channel_matvecs():
    # oracle: the per-channel sparse matvecs of the two rho channels
    grid = periodic_grid(-2.0, 2.0, 2048)
    surf = ModelSurfaceMetric(ell=0.1)
    x = grid.nodes
    w = np.vstack([np.cos(np.pi * x / 2.0), np.exp(np.sin(np.pi * x))])
    for k in (0, 3):
        blk = ModeParametrix(surf, grid, k, CutoffPair())
        ops = mode_operators(surf, grid, k)
        pair = [sp.csc_matrix(ops.channel_matrix(sign, 0.5)) for sign in (+1, -1)]
        assert np.array_equal(blk.apply_P(w),
                              np.vstack([mat @ wi for mat, wi in zip(pair, w)]))
        assert np.array_equal(blk.apply_P(w, trans="T"),
                              np.vstack([mat.T @ wi for mat, wi in zip(pair, w)]))


def test_band_commutators_match_the_commutator_formula():
    # oracle: [P, chi~_j] v formed as P(chi~ v) - chi~ P v with the sparse
    # channel matrix, as the blocks computed it before the commutators
    # became precomputed bands
    grid = periodic_grid(-2.0, 2.0, 2048)
    surf = ModelSurfaceMetric(ell=0.1)
    cut = CutoffPair()
    chiw = [cut.chi0_widened(grid.nodes), cut.chi1_widened(grid.nodes)]
    rng = np.random.default_rng(7)
    for k in (0, 3):
        blk = ModeParametrix(surf, grid, k, cut)
        P, _ = channel_matrices(surf, grid, k)

        def apply(v, trans="N"):
            mat = P.T if trans == "T" else P
            return (mat @ v.reshape(-1)).reshape(v.shape)

        def commutator(j, v):
            return apply(chiw[j] * v) - chiw[j] * apply(v)

        def commutator_T(j, v):
            return chiw[j] * apply(v, "T") - apply(chiw[j] * v, "T")

        scale = spla.norm(P, np.inf)
        x = rng.standard_normal(blk.G.flat.size)
        # the stacked unknowns of the thick run come first, then the thin run's
        split = 2 * thick_indices(grid).size
        flats = [blk.G.flat[:split], blk.G.flat[split:]]
        pads = [np.zeros(2 * grid.n), np.zeros(2 * grid.n)]
        for pad, flat, xj in zip(pads, flats, (x[:split], x[split:])):
            pad[flat] = xj
        ref = -sum(commutator(j, v.reshape(2, -1)) for j, v in enumerate(pads))
        got = blk._commute(x)
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale * np.max(np.abs(x)), k

        w = rng.standard_normal((2, grid.n))
        ref_T = np.concatenate([-commutator_T(j, w).reshape(-1)[flat]
                                for j, flat in enumerate(flats)])
        got_T = blk._commute_T(w)
        assert np.max(np.abs(got_T - ref_T)) <= 1e-12 * scale * np.max(np.abs(w)), k


def test_stacked_gtilde_matches_per_subdomain_solves():
    # oracle: one band per subdomain (both channels stacked), taken from the
    # sparse channel matrix, as each block solved before the two subdomains
    # shared one band.  The symmetrizing scaling restarts on each piece, so
    # stacking changes no bit; test_surface.py holds the factor itself
    # against pivoted dgttrf
    grid = periodic_grid(-2.0, 2.0, 2048)
    cut = CutoffPair()
    x = grid.nodes
    n = grid.n
    w = np.vstack([np.exp(np.cos(np.pi * x / 2.0)), 0.4 * np.sin(np.pi * x)])
    pairs = [(thick_indices(grid), cut.chi0(x), cut.chi0_widened(x)),
             (thin_indices(grid), cut.chi1(x), cut.chi1_widened(x))]
    for ell in (0.035, 0.1, 0.4):
        surf = ModelSurfaceMetric(ell=ell)
        for k in (0, 3, 8):
            blk = ModeParametrix(surf, grid, k, cut)
            diags = cyclic_diagonals(channel_matrices(surf, grid, k)[0])
            ref = np.zeros_like(w)
            for idx, chi, chiw in pairs:
                sub = SubdomainSolver(diags, [idx])
                pad = np.zeros(2 * n)
                pad[sub.flat] = sub.solve_channels((chi * w).reshape(-1)[sub.flat])
                ref += chiw * pad.reshape(2, n)
            assert np.array_equal(blk.apply_Gtilde(w), ref), (ell, k)


def test_error_operator_is_zero_off_the_transition_layers(family, grid):
    # R = -sum_j [P, chi~_j] G_j chi_j lives on the rows of the commutators,
    # the nodes where chi~_j differs from a neighbour; elsewhere it is 0.0
    cut = CutoffPair()
    layers = np.zeros(grid.n, bool)
    for cw in (cut.chi0_widened(grid.nodes), cut.chi1_widened(grid.nodes)):
        layers |= (np.roll(cw, 1) != cw) | (np.roll(cw, -1) != cw)
    assert layers.sum() < 0.15 * grid.n
    rng = np.random.default_rng(3)
    for k in (0, 1, 3):
        out = family.block(0.15, k).apply_R(rng.standard_normal((2, grid.n)))
        assert np.all(out[:, ~layers] == 0.0), k
        assert np.any(out[:, layers] != 0.0), k


def test_reference_block_has_no_correction(family):
    ref = family._ref[0][0]
    w = np.ones((2, family.grid.n))
    for name in ("apply_F", "apply_F_T", "apply_S", "apply_S_T"):
        with pytest.raises(ValueError, match="built as a reference"):
            getattr(ref, name)(w)


def test_refuses_outside_working_range(grid):
    fam = ParametrixFamily(grid, ks=[1], ell_refs=(0.05, 0.07))
    with pytest.raises(ArithmeticError):
        fam.report(0.4)


# ParametrixFamily(periodic_grid(-2, 2, 1024), ks=[0, 1, 3]).report(ell) as
# (ell, norm_S, norm_R, per_mode_S, neumann_terms), recorded while the
# channel bands were still factored by pivoting dgttrf
_PINNED_REPORTS = (
    (0.4, 0.6509548161483935, 12.94921642070522,
     {0: 0.6509548161483935, 1: 0.13260911874755982, 3: 0.0006843121510233071}, 9),
    (0.1, 0.04053021079256405, 13.17939280198013,
     {0: 0.04053021079256405, 1: 0.00964185160812592, 3: 5.651711555807075e-05}, 6),
    (0.05, 0.00269014006014048, 13.184012374232369,
     {0: 0.00269014006014048, 1: 0.000740742069701531, 3: 2.9176034959433756e-06}, 5),
)


def test_report_values_are_pinned(family):
    # the norms move only by the round-off of the band factor; the Neumann
    # term counts not at all
    for ell, norm_S, norm_R, per_mode, terms in _PINNED_REPORTS:
        rep = family.report(ell)
        assert rep.norm_S == pytest.approx(norm_S, rel=1e-7, abs=0.0), ell
        assert rep.norm_R == pytest.approx(norm_R, rel=1e-7, abs=0.0), ell
        assert rep.per_mode_S.keys() == per_mode.keys(), ell
        for k, v in per_mode.items():
            assert rep.per_mode_S[k] == pytest.approx(v, rel=1e-7, abs=0.0), (ell, k)
        assert rep.neumann_terms == terms, ell


# -- projection ------------------------------------------------------------------

@pytest.fixture(scope="module")
def proj_setup():
    grid = periodic_grid(-2.0, 2.0, 2048)
    surf = ModelSurfaceMetric(ell=0.1)
    return grid, surf, SolverBank(surf, grid)


def test_projection_idempotent_and_divergence_free(proj_setup):
    grid, surf, bank = proj_setup
    x = grid.nodes
    h = ModeField(0, Rank.SYM2_FULL, grid,
                  np.vstack([np.exp(-x**2), 0.3 * np.cos(np.pi * x / 2.0),
                             0.1 * np.sin(np.pi * x / 2.0)]))
    T1 = project_tt(surf, grid, h, solvers=bank)
    T2 = project_tt(surf, grid, T1, solvers=bank)
    assert mode_norm(T2 - T1) / mode_norm(T1) < 1e-10
    assert mode_norm(apply_divergence(surf, T1)) / mode_norm(T1) < 1e-9


def test_projection_annihilates_gauge_directions(proj_setup):
    grid, surf, bank = proj_setup
    x = grid.nodes
    for k in (0, 1, 3):
        w = ModeField(k, Rank.ONE_FORM, grid,
                      np.vstack([np.sin(np.pi * x / 2.0), np.cos(np.pi * x)]))
        gauge = apply_div_star(surf, w)
        Tg = project_tt(surf, grid, gauge, solvers=bank)
        assert mode_norm(Tg) / mode_norm(gauge) < 1e-9


def test_projection_fixes_global_tt_pair(proj_setup):
    grid, surf, bank = proj_setup
    F = surf.F(grid.nodes)
    for data in (np.vstack([1.0 / F, 0.0 * F]), np.vstack([0.0 * F, 1.0 / F])):
        tt = ModeField(0, Rank.SYM2_TRACEFREE, grid, data)
        out = project_tt(surf, grid, tt, solvers=bank)
        assert mode_norm(out - tt) / mode_norm(tt) < 1e-4


# measured worst cases over both variations and ell in {0.1, 0.05}: relative
# tensor difference 4.99e-4 and 1.25e-4, relative self-pairing difference
# 1.47e-7 and 9.2e-9; each bound is at least 5x above its measurement
FAMILY_ROUTE_BOUNDS = {2048: (2.5e-3, 1e-6), 4096: (7e-4, 6e-8)}


def test_parametrix_route_agrees_with_the_factored_projection():
    # the Neumann-series G on the direct channel stencils against the exact
    # discrete projector: the two agree to discretization order
    diffs = {}
    for n, (tensor_tol, pairing_tol) in FAMILY_ROUTE_BOUNDS.items():
        grid = periodic_grid(-2.0, 2.0, n)
        family = ParametrixFamily(grid, ks=[0])
        for ell in (0.1, 0.05):
            surf = ModelSurfaceMetric(ell=ell)
            bank = SolverBank(surf, grid)
            for variation in (length_variation, twist_variation):
                h = variation(surf, grid)
                exact = project_tt(surf, grid, h, solvers=bank)
                glued = project_tt(surf, grid, h, family=family)
                assert glued.key == exact.key and glued.rank is exact.rank
                rel = mode_norm(glued - exact) / mode_norm(exact)
                self_exact = mode_inner_product(exact, exact)
                self_glued = mode_inner_product(glued, glued)
                assert rel < tensor_tol, (n, ell, variation.__name__)
                assert abs(self_glued - self_exact) / self_exact < pairing_tol, \
                    (n, ell, variation.__name__)
                diffs[n, ell, variation] = rel
    # second order: the difference falls about 4x per doubling of n
    for (n, ell, variation), rel in diffs.items():
        if n == 2048:
            assert diffs[4096, ell, variation] < rel / 2.0, (ell, variation.__name__)


def test_projection_self_adjoint(proj_setup):
    grid, surf, bank = proj_setup
    x = grid.nodes
    h1 = ModeField(2, Rank.SYM2_TRACEFREE, grid,
                   np.vstack([np.cos(np.pi * x / 2.0), np.sin(np.pi * x)]))
    h2 = ModeField(2, Rank.SYM2_TRACEFREE, grid,
                   np.vstack([np.sin(np.pi * x), 0.2 * np.cos(np.pi * x)]))
    T1 = project_tt(surf, grid, h1, solvers=bank)
    T2 = project_tt(surf, grid, h2, solvers=bank)
    lhs = mode_inner_product(T1, h2)
    rhs = mode_inner_product(h1, T2)
    scale = mode_norm(h1) * mode_norm(h2)
    assert abs(lhs - rhs) / scale < 1e-8


def test_bianchi_image_orthogonal_to_conformal_killing(proj_setup):
    # the solvability condition behind the k = 0 deflation
    grid, surf, bank = proj_setup
    x = grid.nodes
    F = surf.F(x)
    h = ModeField(0, Rank.SYM2_FULL, grid,
                  np.vstack([np.exp(-x**2), np.cos(np.pi * x / 2.0),
                             0.3 * np.sin(np.pi * x / 2.0)]))
    b = apply_bianchi(surf, h)
    for kernel in (np.vstack([np.sqrt(F), 0 * F]), np.vstack([0 * F, np.sqrt(F)])):
        kf = ModeField(0, Rank.ONE_FORM, grid, kernel)
        ip = mode_inner_product(b, kf)
        assert abs(ip) < 1e-8 * mode_norm(b) * mode_norm(kf)


# -- cutoff tensors and frame -------------------------------------------------------

def test_mu_cutoff_profile(grid):
    x = grid.nodes
    chi = mu_cutoff(x)
    r = np.abs(np.mod(x + 2.0, 4.0) - 2.0)
    assert np.all(chi[r <= 0.5] == 1.0)
    assert np.all(chi[r >= 0.75] == 0.0)
    # derivative consistency
    d_fd = np.gradient(chi, x)
    assert np.max(np.abs(d_fd - mu_cutoff_d1(x))) < 1e-2


def test_cutoff_tensor_divergence_formula(proj_setup):
    # delta(chi kappa) = -(d chi) sqrt(F) amp/F sigma1 pointwise, and the
    # discrete route matches the analytic one
    grid, surf, bank = proj_setup
    ct = build_cutoff_tensors(surf, grid, solvers=bank)
    assert ct.div_norm == pytest.approx(ct.div_norm_discrete, rel=1e-3)
    x = grid.nodes
    F = surf.F(x)
    amp = 0.1**1.5 / np.sqrt(np.arctan(1.0 / 0.1))
    expect_a = -mu_cutoff_d1(x) * np.sqrt(F) * amp / F
    div1 = mode_operators(surf, grid, 0).divergence_tf @ ct.mu_hat[0].data.reshape(-1)
    div1 = div1.reshape(2, -1)
    band = (np.abs(x) > 0.52) & (np.abs(x) < 0.73)
    assert np.max(np.abs(div1[0][band] - expect_a[band])) < 2e-3 * np.max(
        np.abs(expect_a))
    assert np.max(np.abs(div1[1][band])) < 1e-10


def test_cutoff_divergence_support(proj_setup):
    grid, surf, bank = proj_setup
    ct = build_cutoff_tensors(surf, grid, solvers=bank)
    x = grid.nodes
    div1 = mode_operators(surf, grid, 0).divergence_tf @ ct.mu_hat[0].data.reshape(-1)
    div1 = div1.reshape(2, -1)
    r = np.abs(np.mod(x + 2.0, 4.0) - 2.0)
    outside = (r < 0.49) | (r > 0.76)
    # analytically zero outside the band; discretely O(h^2) stencil noise
    # where the kappa profile varies at scale ell
    assert np.max(np.abs(div1[:, outside])) < 1e-2 * np.max(np.abs(div1))


def test_arctan_band_limit():
    # the constant in the divergence decay law
    ell = 1e-4
    val = (np.arctan(0.75 / ell) - np.arctan(0.5 / ell)) / ell
    assert val == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_divergence_three_halves_slope():
    from wpneck.wp import loglog_slope

    grid = periodic_grid(-2.0, 2.0, 4096)
    ells = np.geomspace(1e-3, 1e-1, 9)
    norms = [build_cutoff_tensors(ModelSurfaceMetric(ell=float(e)), grid).div_norm
             for e in ells]
    slope = loglog_slope(ells, norms, trim=1)
    assert slope == pytest.approx(1.5, abs=0.05)


def test_frame_structure(proj_setup):
    grid, surf, bank = proj_setup
    fr = assemble_tt_frame(surf, grid, 4, solvers=bank)
    assert len(fr.members) == 6
    # cross-mode inner products vanish exactly on the rotational surrogate
    assert fr.max_cross == 0.0
    diag = np.diag(fr.gram)
    # the two concentrating zero modes carry the frame ...
    assert diag[0] > 1.0 and diag[1] > 1.0
    # ... while the k >= 1 members project to ~0: the torus has no decaying
    # TT directions (dim S_tt(T^2) = 2, Riemann-Roch)
    inputs = [tt_element("kappa", 1, 0.1).as_mode_field(grid)]
    scale = mode_norm(ModeField(1, Rank.SYM2_TRACEFREE, grid,
                                inputs[0].data * mu_cutoff(grid.nodes)))
    assert np.all(np.sqrt(diag[2:]) < 1e-6 * scale)


def test_zero_mode_cutoffs_orthogonal_to_decaying_inputs(proj_setup):
    grid, surf, bank = proj_setup
    ct = build_cutoff_tensors(surf, grid, solvers=bank)
    chi = mu_cutoff(grid.nodes)
    lim = tt_element("kappa", 2, 0.1).as_mode_field(grid)
    muj = ModeField(2, Rank.SYM2_TRACEFREE, grid, lim.data * chi)
    assert mode_inner_product(ct.mu_hat[0], muj) == 0.0


def test_projection_inequality_for_cutoffs(proj_setup):
    # ||T mu - mu|| <= C ||delta mu|| with a modest C
    grid, surf, bank = proj_setup
    ct = build_cutoff_tensors(surf, grid, solvers=bank)
    for corr in ct.correction_norms:
        assert corr <= 10.0 * ct.div_norm
