import gc
import weakref
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import wpneck.surface as surface_module
from wpneck.grids import periodic_grid, tridiagonal_lu, tridiagonal_solve
from wpneck.modefields import ModeField, Rank
from wpneck.operators import mode_operators
from wpneck.parametrix import SolverBank, project_tt
from wpneck.surface import (_C4, _C5, CutoffPair, FactoredGlobalSolver,
                            _cut_band, _cyclic_corners, _reflect,
                            _sector_diagonals,
                            GlobalModeSolver, ModelSurfaceMetric,
                            SubdomainSolver, band_matvec, channel_diagonals,
                            thick_indices, thin_indices, transposed_diagonals)
from wpneck.wp import length_variation, twist_variation

from conftest import channel_matrices, cyclic_diagonals


def test_profile_regions():
    for ell in (0.4, 0.1, 0.01):
        surf = ModelSurfaceMetric(ell=ell)
        t = np.linspace(-0.75, 0.75, 101)
        assert np.allclose(surf.F(t), t**2 + ell**2, atol=1e-15)
        assert np.allclose(surf.curvature(t), -1.0, atol=1e-13)
    # ell-independent beyond 7/8, pointwise
    t = np.linspace(0.875, 2.0, 101)
    assert np.array_equal(ModelSurfaceMetric(ell=0.1).F(t),
                          ModelSurfaceMetric(ell=0.01).F(t))


def test_profile_positive_periodic_even():
    surf = ModelSurfaceMetric(ell=0.05)
    t = np.linspace(-6, 6, 2001)
    F = surf.F(t)
    assert np.all(F > 0)
    assert np.allclose(surf.F(t + 4.0), F, atol=1e-14)
    assert np.allclose(surf.F(-t), F, atol=1e-14)


def test_profile_c2_seams():
    surf = ModelSurfaceMetric(ell=0.3)
    eps = 1e-9
    for r0 in (0.75, 0.875, 2.0):
        for fn, scale in ((surf.F, 1.0), (surf.Fp, 1.0), (surf.Fpp, 100.0)):
            jump = abs(float(fn(r0 + eps)) - float(fn(r0 - eps)))
            assert jump < scale * 1e-5


def test_derivatives_consistent():
    surf = ModelSurfaceMetric(ell=0.2)
    t = np.linspace(-1.99, 1.99, 4001)
    h = t[1] - t[0]
    Fp_fd = np.gradient(surf.F(t), t, edge_order=2)
    # the ell^2 blend has a large third derivative; np.gradient is O(h^2)
    assert np.max(np.abs(Fp_fd[5:-5] - surf.Fp(t)[5:-5])) < 5e-4
    dF = surf.dF_dell(t)
    assert np.allclose(dF[np.abs(t) <= 0.75], 2.0 * 0.2)
    assert np.allclose(dF[np.abs(t) >= 0.875], 0.0)


def _base_unclamped(r):
    """The cap profile as written before its argument was clamped at 0."""
    r = np.asarray(r, float)
    x = r - 0.875
    inside = r <= 0.875
    Q = np.where(inside, r * r,
                 49.0 / 64.0 + 1.75 * x + x * x + _C4 * x**4 + _C5 * x**5)
    Qp = np.where(inside, 2.0 * r,
                  1.75 + 2.0 * x + 4.0 * _C4 * x**3 + 5.0 * _C5 * x**4)
    Qpp = np.where(inside, 2.0, 2.0 + 12.0 * _C4 * x**2 + 20.0 * _C5 * x**3)
    return Q, Qp, Qpp


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_base_clamp_is_bit_identical():
    surf = ModelSurfaceMetric(ell=0.1)
    seam = 0.875 + np.array([-1e-9, -1e-16, 0.0, 1e-16, 1e-9])
    r = np.concatenate([np.linspace(0.0, 2.0, 4097), seam,
                        np.nextafter(0.875, [0.0, 2.0])])
    for got, want in zip(surf._base(r), _base_unclamped(r)):
        assert _same_bits(got, want)
    # 0-d scalars, as a seam check passes them
    for r0 in (0.0, 0.5, 0.875, 0.8750001, 1.3, 2.0):
        for got, want in zip(surf._base(r0), _base_unclamped(r0)):
            assert np.ndim(got) == 0 and _same_bits(got, want)
    assert np.ndim(surf.F(0.875 + 1e-7)) == 0


def test_grid_profile_pieces_are_shared_and_bit_identical():
    grid = periodic_grid(-2.0, 2.0, 512)
    pieces = ModelSurfaceMetric.grid_pieces(grid)
    for ell in (0.3, 0.01, 0.0):
        surf = ModelSurfaceMetric(ell=ell)
        assert surf.grid_pieces(grid) is pieces  # computed once per grid
        for got, want in zip(surf.grid_jet(grid), surf.jet(grid.nodes)):
            assert _same_bits(got, want)
        assert _same_bits(surf.grid_dF_dell(grid), surf.dF_dell(grid.nodes))
    # the pieces hold nothing of any ell
    fresh = ModelSurfaceMetric.pieces(grid.nodes)
    assert _same_bits(pieces[0], fresh[0])
    for got, want in zip(pieces[1] + pieces[2], fresh[1] + fresh[2]):
        assert _same_bits(got, want)


def test_cutoff_partition_properties(surface_grid):
    cp = CutoffPair()
    cp.validate(surface_grid)
    t = surface_grid.nodes
    assert np.allclose(cp.chi0(t) + cp.chi1(t), 1.0)
    r = np.abs(np.mod(t + 2.0, 4.0) - 2.0)
    assert np.all(cp.chi1(t)[r <= 0.5] == 1.0)      # plateau covers |tau| <= 1/2
    assert np.all(cp.chi1(t)[r >= 0.75] == 0.0)     # support inside 3/4
    assert np.all(cp.chi0_widened(t)[r <= 0.5] == 0.0)
    assert np.all(cp.chi1_widened(t)[r >= 0.75] == 0.0)


def test_cutoff_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CutoffPair(chi1_plateau=0.45)  # plateau below the thick boundary
    with pytest.raises(ValueError):
        CutoffPair(chi0w_one=0.70)     # widener reaches 1 after chi0 turns on


def test_subdomain_solver_is_dirichlet(surface_grid):
    # thick (a run that wraps across tau = +-2) and thin subdomains, forward
    # and transposed solves: zero off the run, backward stable on it
    surf = ModelSurfaceMetric(ell=0.1)
    n = surface_grid.n
    x = surface_grid.nodes
    rhs = np.vstack([np.cos(np.pi * x / 2.0), np.sin(np.pi * x)])
    for k in (0, 2):
        P, _ = channel_matrices(surf, surface_grid, k)
        ops = mode_operators(surf, surface_grid, k)
        pair = [sp.csr_matrix(ops.channel_matrix(sign, 0.5)) for sign in (+1, -1)]
        for idx in (thick_indices(surface_grid), thin_indices(surface_grid)):
            sub = SubdomainSolver(cyclic_diagonals(P), [idx])
            mask = np.zeros(n)
            mask[idx] = 1.0
            off = np.setdiff1d(np.arange(n), idx)
            A = sp.block_diag([mat[idx][:, idx] for mat in pair], format="csr")
            for trans in ("N", "T"):
                sol = np.zeros(2 * n)
                sol[sub.flat] = sub.solve_channels(
                    (rhs * mask).reshape(-1)[sub.flat], trans=trans)
                sol = sol.reshape(2, n)
                assert np.max(np.abs(sol[:, off])) == 0.0
                xs, b = sol[:, idx].reshape(-1), rhs[:, idx].reshape(-1)
                At = A.T if trans == "T" else A
                berr = (np.max(np.abs(At @ xs - b))
                        / (spla.norm(At, np.inf) * np.max(np.abs(xs))))
                assert berr <= 1e-14, (k, idx.size, trans, berr)


def test_subdomain_solver_needs_one_run(surface_grid):
    P, _ = channel_matrices(ModelSurfaceMetric(ell=0.1), surface_grid, 2)
    n = surface_grid.n
    for idx in (np.r_[10:20, 30:40],            # two runs
                np.r_[0:5, 100:200, n - 5:n],   # wraps, but with a gap
                np.arange(20, 10, -1),          # not in period order
                np.arange(n),                   # the whole circle: cyclic
                np.arange(0)):
        with pytest.raises(ValueError):
            SubdomainSolver(cyclic_diagonals(P), [idx])


def test_parametrix_channel_bands_are_symmetric_definite():
    # every band a parametrix block factors, the Dirichlet pieces on the
    # thick and thin runs and the global band with its corners cut, is a
    # diagonal similarity away from a positive definite band, which the
    # symmetrized factor accepts (measured over n in {64, ..., 16384}, ell in
    # [1e-3, 0.9] and k in 0 ... 32; a trimmed set here)
    for n in (64, 1023, 2048, 16384):
        grid = periodic_grid(-2.0, 2.0, n)
        runs = (thick_indices(grid), thin_indices(grid))
        for ell in (1e-3, 0.1, 0.9):
            surf = ModelSurfaceMetric(ell=ell)
            for k in (0, 1, 8, 32):
                SubdomainSolver(channel_diagonals(surf, grid, k), runs)
                GlobalModeSolver(surf, grid, k)


def test_symmetrized_band_refuses_what_it_cannot_factor():
    # no pivoting fallback: a band with l_{i+1} u_i < 0 has no symmetric
    # form, and a symmetric indefinite one has no LDL^T without pivots
    n = 8
    ones = np.ones((2, n))
    run = [np.arange(1, n - 1)]
    SubdomainSolver((-ones, 2.0 * ones, -ones), run)
    flipped = -ones
    flipped[1, 4] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="symmetrizable"):
        SubdomainSolver((-ones, 2.0 * ones, flipped), run)
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        SubdomainSolver((-ones, 0.5 * ones, -ones), run)


def _dgttrf_stacked_band(diags, runs):
    """Oracle: the stacked band of :func:`surface._stacked_band`, factored by
    pivoting ``dgttrf``, as both channel solvers factored it before."""
    L, D, U = diags
    n = D.shape[1]
    flat, lower, main, upper = [], [], [], []
    for idx in runs:
        for c in (0, 1):
            flat.append(c * n + idx)
            main.append(D[c, idx])
            lower.append(np.r_[0.0, L[c, idx[1:]]])
            upper.append(np.r_[U[c, idx[:-1]], 0.0])
    lu = tridiagonal_lu(np.concatenate(lower), np.concatenate(main),
                        np.concatenate(upper))
    return np.concatenate(flat), SimpleNamespace(solve=partial(tridiagonal_solve, lu))


def test_channel_solvers_match_pivoted_dgttrf(monkeypatch):
    # oracle: both solvers as built on the pivoted factor, the global one
    # under the same Schur closure.  Measured worst: 1.5e-11 for the
    # subdomain pieces (k = 0, ell = 0.1, n = 2048, where the thick
    # Dirichlet band is least well conditioned) and 4.3e-13 for the global
    # solve, relative to the largest entry
    for n in (1023, 2048):
        grid = periodic_grid(-2.0, 2.0, n)
        x = grid.nodes
        w = np.vstack([np.exp(np.cos(np.pi * x / 2.0)), 0.4 * np.sin(np.pi * x)])
        runs = (thick_indices(grid), thin_indices(grid))
        for ell in (1e-3, 0.1, 0.4):
            surf = ModelSurfaceMetric(ell=ell)
            for k in (0, 3, 8):
                diags = channel_diagonals(surf, grid, k)
                got = (SubdomainSolver(diags, runs),
                       GlobalModeSolver(surf, grid, k))
                with monkeypatch.context() as m:
                    m.setattr(surface_module, "_stacked_band", _dgttrf_stacked_band)
                    ref = (SubdomainSolver(diags, runs),
                           GlobalModeSolver(surf, grid, k))
                assert np.array_equal(got[0].flat, ref[0].flat)
                b = w.reshape(-1)[got[0].flat]
                for trans in ("N", "T"):
                    for name, bound, a, r in (
                            ("sub", 5e-11, got[0].solve_channels(b, trans),
                             ref[0].solve_channels(b, trans)),
                            ("glob", 2e-12, got[1].solve_channels(w, trans),
                             ref[1].solve_channels(w, trans))):
                        rel = np.max(np.abs(a - r)) / np.max(np.abs(r))
                        assert rel <= bound, (name, n, ell, k, trans, rel)


def test_band_matvec_sums_like_the_sparse_matvecs():
    # random inputs of mixed magnitude make any change in the order of a
    # row's three terms, periodic corners included, show in the last bits
    grid = periodic_grid(-2.0, 2.0, 64)
    rng = np.random.default_rng(11)
    for k in (0, 3):
        P, _ = channel_matrices(ModelSurfaceMetric(ell=0.1), grid, k)
        diags = cyclic_diagonals(P)
        for _ in range(20):
            w = rng.standard_normal((2, grid.n)) * 10.0 ** rng.integers(-3, 4, (2, grid.n))
            for d, mat in ((diags, P), (transposed_diagonals(diags), P.T)):
                assert np.array_equal(band_matvec(d, w),
                                      (mat @ w.reshape(-1)).reshape(2, -1)), k


def test_channel_diagonals_match_the_sparse_channel_matrices():
    # oracle: the diagonals read back out of the mode operators' sparse
    # channel matrices, as the program formed them before
    for n in (64, 2048, 2049):
        grid = periodic_grid(-2.0, 2.0, n)
        for ell in (1e-3, 0.1, 0.4):
            surf = ModelSurfaceMetric(ell=ell)
            for k in (0, 3):
                got = channel_diagonals(surf, grid, k)
                ref = cyclic_diagonals(channel_matrices(surf, grid, k)[0])
                assert all(np.array_equal(a, b) for a, b in zip(got, ref)), (n, ell, k)


def test_stacked_global_solve_matches_per_channel_lus():
    # oracle: one SuperLU per rho channel, bordered at k = 0, as solved
    # before the band.  Off the kernel the two agree to round-off; along it
    # the oracle leaks up to ~1e-9 of the solution at small ell (its
    # constraint c^T x = 0 holds only that well), so there the band is held
    # to the constraint instead
    grid = periodic_grid(-2.0, 2.0, 2048)
    x = grid.nodes
    w = np.vstack([np.exp(np.cos(np.pi * x / 2.0)), 0.4 * np.sin(np.pi * x)])
    for ell in (1e-3, 0.1, 0.4):
        surf = ModelSurfaceMetric(ell=ell)
        for k in (0, 3):
            gs = GlobalModeSolver(surf, grid, k)
            ops = mode_operators(surf, grid, k)
            pair = [sp.csc_matrix(ops.channel_matrix(sign, 0.5)) for sign in (+1, -1)]
            if k == 0:
                c = sp.csc_matrix((grid.weights * gs.kernel)[:, None])
                lus = [spla.splu(sp.bmat([[mat, c], [c.T, None]], format="csc"))
                       for mat in pair]
            else:
                lus = [spla.splu(mat) for mat in pair]
            for trans in ("N", "T"):
                ref = np.vstack([lu.solve(np.append(w[i], 0.0) if k == 0 else w[i],
                                          trans=trans)[:grid.n]
                                 for i, lu in enumerate(lus)])
                got = gs.solve_channels(w, trans=trans)
                diff = gs.project_out_kernel(got) - gs.project_out_kernel(ref)
                rel = np.max(np.abs(diff)) / np.max(np.abs(ref))
                assert rel <= 2e-12, (ell, k, trans, rel)
                if k == 0:
                    cw = grid.weights * gs.kernel
                    lead = np.max(np.abs(got @ cw)) / (np.linalg.norm(cw)
                                                       * np.max(np.abs(got)))
                    assert lead <= 1e-13, (ell, trans, lead)


def test_bordered_cyclic_solve_residual():
    # the band with its corner update (and the borders at k = 0) against the
    # sparse channel matrix: backward stable for P x = w and P^T x = w, up
    # to the multiplier's c component at k = 0
    for n in (2048, 1023):
        grid = periodic_grid(-2.0, 2.0, n)
        x = grid.nodes
        w = np.vstack([np.cos(np.pi * x / 2.0) + 0.3, np.exp(np.sin(np.pi * x))])
        for ell in (1e-3, 0.1, 0.4):
            surf = ModelSurfaceMetric(ell=ell)
            for k in (0, 3):
                gs = GlobalModeSolver(surf, grid, k)
                P, _ = channel_matrices(surf, grid, k)
                for trans in ("N", "T"):
                    A = P.T if trans == "T" else P
                    sol = gs.solve_channels(w, trans=trans)
                    r = (A @ sol.reshape(-1)).reshape(2, -1) - w
                    if k == 0:
                        cw = grid.weights * gs.kernel
                        r -= np.outer(r @ cw / (cw @ cw), cw)
                    scale = spla.norm(A, np.inf) * np.max(np.abs(sol))
                    berr = np.max(np.abs(r)) / scale
                    assert berr <= 1e-14, (n, ell, k, trans, berr)


def test_global_solver_residual_and_kernel(surface_grid):
    surf = ModelSurfaceMetric(ell=0.1)
    x = surface_grid.nodes
    for k in (0, 3):
        gs = GlobalModeSolver(surf, surface_grid, k)
        rhs = np.vstack([np.exp(np.cos(np.pi * x / 2.0)),
                         0.4 * np.sin(np.pi * x)])
        rhs = gs.project_out_kernel(rhs)
        sol = gs.solve_channels(rhs)
        ops = mode_operators(surf, surface_grid, k)
        for i, sign in enumerate((+1, -1)):
            r = ops.channel_matrix(sign, 0.5) @ sol[i] - rhs[i]
            r = gs.project_out_kernel(np.vstack([r, r]))[0]
            assert np.max(np.abs(r)) < 1e-9 * np.max(np.abs(rhs))
        if k == 0:
            # the sharpened kernel is a genuinely better null vector than
            # the sampled analytic one
            q = gs.kernel
            raw = np.sqrt(surf.F(x))
            raw /= np.sqrt(surface_grid.weights @ raw**2)
            mat = ops.channel_matrix(+1, 0.5)
            assert (np.linalg.norm(mat @ q) <
                    0.1 * np.linalg.norm(mat @ raw))


def test_global_solvers_are_freed_without_the_collector(surface_grid):
    # a solver that referred to itself (say, through a bound method kept by
    # its Schur closure) would live until the garbage collector ran, and a
    # sweep that builds one per row would grow in memory meanwhile
    surf = ModelSurfaceMetric(ell=0.1)
    gc.disable()
    try:
        for cls in (FactoredGlobalSolver, GlobalModeSolver):
            for k in (0, 2):
                ref = weakref.ref(cls(surf, surface_grid, k))
                assert ref() is None, (cls.__name__, k)
        # a k = 0 solver builds its even sector on the first solve that needs it
        fs = FactoredGlobalSolver(surf, surface_grid, 0)
        fs.solve_sigma(np.ones((2, surface_grid.n)))
        assert fs._even is not None
        ref = weakref.ref(fs)
        del fs
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("c, p", [(2, 1), (1, 2), (2, 2)])
def test_cut_band_and_corners_rebuild_the_cyclic_matrix(c, p):
    # both global solvers stack their channels as one band with the wrapped
    # entries cut and put the corners back in their Schur closure: band plus
    # corners must be the block-diagonal cyclic matrix, entry for entry
    n = 12
    diags = np.random.default_rng(c + 10 * p).standard_normal((c, 2 * p + 1, n))
    want = np.zeros((c * n, c * n))
    i = np.arange(n)
    for ch in range(c):
        for j in range(2 * p + 1):
            want[ch * n + i, ch * n + (i + j - p) % n] = diags[ch, j]
    ab = _cut_band(diags)
    assert ab.shape == (3 * p + 1, c * n) and ab.flags.f_contiguous
    got = np.zeros_like(want)
    for r in range(c * n):
        for col in range(max(r - p, 0), min(r + p + 1, c * n)):
            got[r, col] = ab[2 * p + r - col, col]
    assert not ab[:p].any()  # LAPACK's fill rows
    rows, (cols, vals) = _cyclic_corners(diags)
    assert rows.size == c * p * (p + 1)
    # a corner listed twice, or left in the band as well, would add up
    np.add.at(got, (rows, cols), vals)
    assert np.array_equal(got, want)


def test_factored_solver_telescopes(surface_grid):
    # at k = 0 the operator is singular, so the right-hand side is taken in
    # its range: at ell = 1e-3 the sampled kernel is far from the discrete
    # left null vectors on this grid, and a kernel-deflated right-hand side
    # leaves a residual of 0.68 whatever the solver
    x = surface_grid.nodes
    smooth = np.vstack([np.cos(np.pi * x / 2.0), 0.3 * np.sin(np.pi * x)])
    for ell in (1e-3, 0.1, 0.365):
        surf = ModelSurfaceMetric(ell=ell)
        for k in (0, 1, 4):
            fs = FactoredGlobalSolver(surf, surface_grid, k)
            opk = mode_operators(surf, surface_grid, k)
            mat = opk.divergence_tf @ opk.conformal_killing
            rhs = smooth if k else (mat @ smooth.reshape(-1)).reshape(2, -1)
            sol = fs.solve_sigma(rhs)
            res = (mat @ sol.reshape(-1)).reshape(2, -1) - rhs
            assert np.max(np.abs(res)) < 2e-7 * np.max(np.abs(rhs)), (ell, k)


def _factored_k0(ell, grid):
    ops = mode_operators(ModelSurfaceMetric(ell=ell), grid, 0)
    return sp.csc_matrix(ops.divergence_tf @ ops.conformal_killing)


def test_factored_k0_operator_is_two_equal_channels(surface_grid):
    n = surface_grid.n
    for ell in (0.01, 0.1, 0.365):
        mat = _factored_k0(ell, surface_grid)
        assert mat[:n, n:].count_nonzero() == 0
        assert mat[n:, :n].count_nonzero() == 0
        assert (mat[:n, :n] != mat[n:, n:]).nnz == 0


def _coupled_k0_solve(ell, grid, kernel, rhs):
    """The (2n+2) bordered solve that one channel LU replaced."""
    mat = _factored_k0(ell, grid)
    wei = np.concatenate([grid.weights, grid.weights])
    B = wei[:, None] * kernel.T
    lu = spla.splu(sp.bmat([[mat, B], [B.T, None]], format="csc"))
    return lu.solve(np.concatenate([rhs.reshape(-1), [0.0, 0.0]]))[:-2].reshape(2, -1)


def test_factored_k0_channel_solve_matches_coupled(surface_grid):
    # On an even grid the coupled oracle is singular: its one border per
    # component leaves the checkerboard null direction free, and SuperLU's
    # solution carries an arbitrary multiple of it.  What both define is the
    # image D G (B h) that the projection uses (D, the conformal Killing
    # operator, nearly annihilates that direction), so compare that, with
    # the sparse B and D, for both WP variations and a random tensor.
    # Bounds: measured worst 1.7e-12 (smooth) and 1.6e-10 (random), x3.
    # Odd grids are refused: their exact null direction is a checkerboard
    # remnant that neither border removes.
    rng = np.random.default_rng(7)
    grid = surface_grid
    for ell in (1e-3, 0.05, 0.1, 0.365):
        surf = ModelSurfaceMetric(ell=ell)
        fs = FactoredGlobalSolver(surf, grid, 0)
        ops = mode_operators(surf, grid, 0)
        noise = ModeField(0, Rank.SYM2_FULL, grid, rng.standard_normal((3, grid.n)))
        for h, bound in ((length_variation(surf, grid), 5e-12),
                         (twist_variation(surf, grid), 5e-12), (noise, 5e-10)):
            b = (ops.bianchi @ h.data.reshape(-1)).reshape(2, -1)
            want = _coupled_k0_solve(ell, grid, fs.kernel, b)
            got, want = (ops.conformal_killing @ x.reshape(-1)
                         for x in (fs.solve_sigma(b), want))
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= bound, (grid.n, ell, err)
    with pytest.raises(ValueError, match="even grid"):
        FactoredGlobalSolver(ModelSurfaceMetric(ell=0.1),
                             periodic_grid(-2.0, 2.0, 2049), 0)


def test_factored_k0_band_is_the_matmat(surface_grid):
    # the five diagonals come from sqrt(F), beta and k / sqrt(F), not from the
    # product divergence_tf @ conformal_killing that they replace: at k = 0
    # its equal diagonal blocks P, at k >= 1 its rho channels P +- Q, with
    # [[P, Q], [Q, P]] the product in sigma components
    n = surface_grid.n
    i = np.arange(n)
    cols = (i + np.arange(-2, 3)[:, None]).reshape(-1) % n
    for ell in (1e-3, 0.1, 0.365):
        surf = ModelSurfaceMetric(ell=ell)
        for k in (0, 1, 4):
            fs = FactoredGlobalSolver(surf, surface_grid, k)
            ops = mode_operators(surf, surface_grid, k)
            mat = sp.csr_matrix(ops.divergence_tf @ ops.conformal_killing)
            P, Q = mat[:n, :n], mat[:n, n:]
            wants = [P] if k == 0 else [P + Q, P - Q]
            assert len(fs.diagonals) == len(wants)
            for diags, want in zip(fs.diagonals, wants):
                band = sp.csr_matrix((diags.reshape(-1), (np.tile(i, 5), cols)),
                                     shape=(n, n))
                # measured <= 3.6e-16
                assert abs(band - want).max() <= 1e-15 * abs(want).max(), (ell, k)
    for k in (0, 1):
        with pytest.raises(ValueError, match="even grid"):
            FactoredGlobalSolver(ModelSurfaceMetric(ell=0.1),
                                 periodic_grid(-2.0, 2.0, 2049), k)


@pytest.mark.parametrize("ell", [0.05, 0.1, 0.365])
def test_factored_k0_solver_telescopes_across_ell(surface_grid, ell):
    # as test_factored_solver_telescopes, at the ends of the sampled lengths
    x = surface_grid.nodes
    fs = FactoredGlobalSolver(ModelSurfaceMetric(ell=ell), surface_grid, 0)
    mat = _factored_k0(ell, surface_grid)

    def deflate(v):
        v = v.reshape(-1)
        for kv in fs.kernel:
            v = v - (kv @ v) * kv
        return v.reshape(2, -1)

    rhs = deflate(np.vstack([np.cos(np.pi * x / 2.0), 0.3 * np.sin(np.pi * x)]))
    res = deflate((mat @ fs.solve_sigma(rhs).reshape(-1)).reshape(2, -1) - rhs)
    assert np.max(np.abs(res)) < 2e-7 * np.max(np.abs(rhs))


def test_gauge_laplacian_consistent_on_surface(surface_grid):
    # the surface profile plugs into the same mode machinery
    surf = ModelSurfaceMetric(ell=0.2)
    x = surface_grid.nodes
    w = ModeField(2, Rank.ONE_FORM, surface_grid,
                  np.vstack([np.cos(np.pi * x / 2.0), np.sin(np.pi * x / 2.0)]))
    from wpneck.operators import weitzenboeck_residual

    # C^2 seams (third-derivative jumps) degrade the local constant
    assert weitzenboeck_residual(surf, w, interior=0) < 1e-2


def test_build_rejects_bad_profile():
    with pytest.raises(ValueError):
        ModelSurfaceMetric(ell=-0.1)


def _dense(diags):
    """The dense (n, n) matrix of (5, n) cyclic diagonals."""
    n = diags.shape[1]
    out = np.zeros((n, n))
    i = np.arange(n)
    for j in range(5):
        out[i, (i + j - 2) % n] = diags[j]
    return out


def test_sector_bands_are_the_operator_on_mirror_vectors(monkeypatch):
    # M maps the odd (even) vectors of R: i -> n - i to themselves; on the
    # sector's nodes, with the mirror columns folded in, it is the band that
    # the sector factors (the wrapped entries cut)
    n = 16
    grid = periodic_grid(-2.0, 2.0, n)
    fs = FactoredGlobalSolver(ModelSurfaceMetric(ell=0.1), grid, 0)
    M = _dense(fs.diagonals[0])
    for odd, lo, hi in ((True, 1, n // 2 - 1), (False, 0, n // 2)):
        nodes = np.arange(lo, hi + 1)
        basis = np.zeros((n, nodes.size))
        basis[nodes, np.arange(nodes.size)] = 1.0
        mirrored = nodes[(nodes != 0) & (nodes != n // 2)]
        basis[n - mirrored, mirrored - lo] = -1.0 if odd else 1.0
        want = (M @ basis)[lo:hi + 1]
        ab = _cut_band(_sector_diagonals(fs.diagonals, n, odd))
        got = np.zeros_like(want)
        for r in range(nodes.size):
            for c in range(max(r - 2, 0), min(r + 3, nodes.size)):
                got[r, c] = ab[4 + r - c, c]
        assert np.abs(got - want).max() <= 1e-15 * np.abs(M).max(), odd
    # the solver folds the odd band from the coefficients of the nodes
    # 0 ... n/2 alone; it is the band folded from the whole of M, bit for bit
    factored = []
    real_band_solve = surface_module._band_solve
    monkeypatch.setattr(surface_module, "_band_solve",
                        lambda diags: factored.append(diags) or real_band_solve(diags))
    for n in (12, 2048):
        grid = periodic_grid(-2.0, 2.0, n)
        for ell in (1e-3, 0.1, 0.365):
            factored.clear()
            fs = FactoredGlobalSolver(ModelSurfaceMetric(ell=ell), grid, 0)
            assert "diagonals" not in vars(fs)  # not built for the odd sector
            want = _cut_band(_sector_diagonals(fs.diagonals, n, odd=True))
            assert len(factored) == 1
            assert np.array_equal(_cut_band(factored[0]), want), (n, ell)


def test_factored_channels_are_mirror_images(surface_grid):
    # M- = R M+ R, so the solver factors M+ alone: entry for entry,
    # M-[i, i + d] = M+[n - i, n - i - d]
    for ell in (1e-3, 0.1, 0.365):
        surf = ModelSurfaceMetric(ell=ell)
        for k in (1, 4):
            plus, minus = FactoredGlobalSolver(surf, surface_grid, k).diagonals
            err = np.abs(minus - _reflect(plus[::-1])).max() / np.abs(minus).max()
            assert err <= 1e-15, (ell, k, err)  # measured <= 1.9e-16


@pytest.mark.parametrize("n", [2048, 16384])
def test_wp_bianchi_images_are_odd(n):
    # the length and twist variations are even in tau, so their Bianchi
    # images are odd: the WP projection solves the odd sector alone.  The
    # length's even part is exactly 0; the twist's, from the rounding of its
    # step at mirror nodes, is <= 3.5e-14 at n = 2048 and 3.1e-13 at 16384
    grid = periodic_grid(-2.0, 2.0, n)
    for ell in (1e-3, 0.05, 0.1, 0.365):
        surf = ModelSurfaceMetric(ell=ell)
        fs = FactoredGlobalSolver(surf, grid, 0)
        for variation in (length_variation, twist_variation):
            b = fs.bianchi(variation(surf, grid).data)
            even = 0.5 * (b + _reflect(b))
            assert np.abs(even).max() <= 1e-11 * np.abs(b).max(), (ell, variation)


def test_odd_sector_solve_refuses_what_is_not_odd(surface_grid):
    surf = ModelSurfaceMetric(ell=0.05)
    grid = surface_grid
    x = grid.nodes
    fs = FactoredGlobalSolver(surf, grid, 0)
    odd = np.vstack([np.sin(np.pi * x / 2.0), 0.3 * np.sin(np.pi * x)])
    # on an odd right-hand side the odd sector alone is the whole solve
    got, want = fs.solve_sigma(odd, odd=True), fs.solve_sigma(odd)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError, match="not odd"):
        fs.solve_sigma(odd + 1e-6 * np.cos(np.pi * x / 2.0), odd=True)
    noise = ModeField(0, Rank.SYM2_FULL, grid,
                      np.random.default_rng(3).standard_normal((3, grid.n)))
    bank = SolverBank(surf, grid)
    with pytest.raises(ValueError, match="not odd"):
        project_tt(surf, grid, noise, solvers=bank, even=True)
    # no sector at k >= 1
    with pytest.raises(ValueError, match="k = 0"):
        FactoredGlobalSolver(surf, grid, 1).solve_sigma(odd, odd=True)
    mode1 = ModeField(1, Rank.SYM2_FULL, grid, np.vstack([odd, odd[:1]]))
    with pytest.raises(ValueError, match="k = 0"):
        project_tt(surf, grid, mode1, solvers=bank, even=True)
