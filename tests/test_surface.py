import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

import wpneck.surface as surface_module
from wpneck.grids import _symmetric_form, _symmetrized, periodic_grid
from wpneck.modefields import ModeField, Rank
from wpneck.operators import mode_operators
from wpneck.parametrix import SolverBank, project_tt
from wpneck.surface import (_C4, _C5, CutoffPair, FactoredGlobalSolver,
                            _coefficients, _cyclic_corners, _factored_band,
                            _margins, _reflect, _sector_band,
                            GlobalModeSolver, ModelSurfaceMetric,
                            SubdomainSolver, band_matvec, channel_diagonals,
                            thick_indices, thin_indices)
from wpneck.wp import length_variation, sweep_wp_coefficients, twist_variation

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


def test_ell_below_the_floor_is_refused_by_the_surface():
    # below the floor the conformal Newton band is not symmetrizable; the
    # surface refuses such an ell before any solve, and ell = 0 (the cap's
    # own profile) and the floor itself still build
    with pytest.raises(ValueError, match="ell floor"):
        sweep_wp_coefficients([1e-12, 1e-11], grid_n=2048)
    with pytest.raises(ValueError, match=f"at least {surface_module.ELL_FLOOR:g}"):
        ModelSurfaceMetric(ell=1e-11)
    for ell in (0.0, 1e-10):
        assert ModelSurfaceMetric(ell=ell).ell == ell


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


def test_cutoff_radii_are_in_order():
    cp = CutoffPair
    # the transitions lie in the overlap (1/2, 3/4), chi1's inside its widener's
    assert (0.5 < cp.chi1_plateau < cp.chi1_support < cp.chi1w_plateau
            < cp.chi1w_support < 0.75)
    # the thick widener reaches 1 before chi0 turns on
    assert 0.5 < cp.chi0w_zero < cp.chi0w_one <= cp.chi1_plateau


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


def test_symmetrized_band_takes_a_coupling_pair_below_the_smallest_float():
    # a coupling pair of 1e-200 has a product (1e-400) that underflows to 0;
    # it is symmetrized without forming that product.  Opposite signs, or a
    # zero beside a nonzero, are still refused; a pair of zeros is a cut
    n = 8
    main, off = np.full(n, 2.0), np.full(n - 1, -1.0)
    off[3] = -1e-200
    A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    b = np.arange(1.0, n + 1)
    sym, scale = _symmetric_form(off.copy(), off.copy(), [n])
    assert sym[3] == -1e-200 and np.all(scale == 1.0)
    for trans in ("N", "T"):
        band = _symmetrized(main.copy(), off.copy(), off.copy(), [n])
        assert np.allclose(band.solve(b, trans), np.linalg.solve(A, b), rtol=1e-15)
    for lower, upper in ((-1e-200, 1e-200), (0.0, -1.0), (-1e-200, 0.0)):
        lo, up = off.copy(), off.copy()
        lo[3], up[3] = lower, upper
        with pytest.raises(np.linalg.LinAlgError, match="symmetrizable"):
            _symmetrized(main.copy(), lo, up, [n])
    lo, up = off.copy(), off.copy()
    lo[3] = up[3] = 0.0
    cut = _symmetrized(main.copy(), lo, up, [n])
    A[3, 4] = A[4, 3] = 0.0
    assert np.allclose(cut.solve(b), np.linalg.solve(A, b), rtol=1e-15)


def test_condensed_band_eliminates_a_run_whose_coupling_underflows():
    # rows 0 and m + 1 are kept and the run between them is so strongly
    # diagonal that the coupling its elimination leaves between them is
    # about 1e-220 each way: their product underflows, yet the kept band is
    # factored and solves as the dense matrix does.  A deeper run leaves a
    # coupling below the smallest normal float, which is cut.  A band with
    # l/u = 4 has scales 2^i, whose ratio across the run enters the new
    # coupling
    for big, m, ratio in ((1e10, 22, 1.0), (1e16, 22, 1.0), (4.0, 6, 4.0)):
        M = m + 2
        main = np.full(M, big)
        main[[0, -1]] = 2.0
        lower, upper = np.full(M - 1, -np.sqrt(ratio)), np.full(M - 1, -1.0 / np.sqrt(ratio))
        A = np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)
        keep = np.zeros(M, bool)
        keep[[0, -1]] = True
        cond = surface_module._Condensed(main[None], lower[None], upper[None], [M], keep)
        b = np.linspace(1.0, 2.0, M)
        got = cond.band.solve(cond.restrict(b[keep], b[~keep])[0])
        assert np.allclose(got, np.linalg.solve(A, b)[keep], rtol=1e-14), big
        # the extension of a kept right-hand side through the transpose
        r = np.array([1.0, -3.0])
        x = np.zeros(M)
        x[keep] = cond.band.solve(r, "T")
        x[~keep] = cond.extend(x[keep][None], np.ones(1))
        rhs = np.zeros(M)
        rhs[keep] = r
        assert np.allclose(x, np.linalg.solve(A.T, rhs), rtol=1e-14, atol=1e-300), big


def test_zero_mode_kernel_is_the_global_solvers():
    # oracle: the inverse iteration as GlobalModeSolver ran it when the
    # parametrix blocks read their kernel from a whole solver
    for n in (512, 2048):
        grid = periodic_grid(-2.0, 2.0, n)
        for ell in (0.035, 0.1, 0.4):
            surf = ModelSurfaceMetric(ell=ell)
            diags = channel_diagonals(surf, grid, 0)
            solve = surface_module._stacked_band(diags, [np.arange(n)])[1].solve
            cut = _cyclic_corners(np.stack(diags, axis=1))
            seed = np.append(np.sqrt(surf.grid_jet(grid)[0]), np.zeros(n))
            closure = surface_module._cut_closure(solve, 2 * n, cut)
            q = surface_module.discrete_near_null(lambda r: closure(r)[0], seed)[:n]
            want = q / np.sqrt(float(grid.weights @ (q * q)))
            got_diags, got = surface_module.zero_mode(surf, grid)
            assert np.array_equal(got, want), (n, ell)
            assert np.array_equal(GlobalModeSolver(surf, grid, 0).kernel, want), (n, ell)
            assert all(np.array_equal(a, b) for a, b in zip(got_diags, diags))


def test_cut_closure_matches_the_bordered_dense_solve():
    rng = np.random.default_rng(11)
    m, nb = 9, 2
    # the corners of a half-width-2 cyclic band: rows 0 and m - 1 are cut twice
    rows = np.array([0, 0, 1, m - 2, m - 1, m - 1])
    cols = np.array([m - 2, m - 1, m - 1, 0, 0, 1])
    for J, q in ((1, 2), (3, None)):
        pieces = [np.diag(rng.uniform(4.0, 5.0, m)) + np.diag(rng.uniform(-1.0, 1.0, m - 1), 1)
                  + np.diag(rng.uniform(-1.0, 1.0, m - 1), -1) for _ in range(J)]
        A0 = np.zeros((J * m, J * m))
        for j, piece in enumerate(pieces):
            A0[j * m:(j + 1) * m, j * m:(j + 1) * m] = piece

        def solve(b, trans="N"):
            return np.linalg.solve(A0.T if trans == "T" else A0, b)

        vals = rng.uniform(-1.0, 1.0, (J, rows.size))
        b, d = rng.standard_normal((2, J, m, nb))
        gamma = rng.uniform(0.5, 1.0, (J, nb))
        r = rng.standard_normal((J * m,) if q is None else (J * m, q))
        s = rng.standard_normal((J, nb) if q is None else (J, nb, q))
        for border in (None, (b, d, gamma)):
            for trans in "NT":
                cut = (rows, cols, vals[0] if J == 1 else vals)
                x, K = surface_module._cut_closure(solve, m, cut, trans, border)(
                    r, None if border is None else s)
                for j, piece in enumerate(pieces):
                    A = piece.copy()
                    np.add.at(A, (rows, cols), vals[j])
                    rhs = r[j * m:(j + 1) * m]
                    if trans == "T":
                        A = A.T
                    if border is not None:
                        bj, dj = (b[j], d[j]) if trans == "N" else (d[j], b[j])
                        A = np.block([[A, bj], [dj.T, -np.diag(gamma[j])]])
                        rhs = np.concatenate([rhs, s[j]])
                    want = np.linalg.solve(A, rhs)
                    got = x[j * m:(j + 1) * m]
                    if border is not None:
                        got = np.concatenate([got, K[j, rows.size:].reshape(s[j].shape)])
                    np.testing.assert_allclose(got, want, rtol=0,
                                               atol=1e-13 * np.abs(want).max())


def test_closure_columns_hold_no_subnormal():
    # at k = 4, ell = 0.01 the corner columns decay through the neck below the
    # smallest normal float; kept, such entries tripled the set-up's time
    grid = periodic_grid(-2.0, 2.0, 16384)
    Y = np.abs(FactoredGlobalSolver(ModelSurfaceMetric(ell=0.01), grid, 4)._cycle._Y)
    assert not np.any((Y > 0.0) & (Y < np.finfo(float).tiny))


def test_global_solver_builds_each_orientation_on_first_use():
    n = 256
    grid = periodic_grid(-2.0, 2.0, n)
    w = np.random.default_rng(5).standard_normal((2, n))
    for k in (0, 2):
        solver = GlobalModeSolver(ModelSurfaceMetric(ell=0.1), grid, k)
        x = solver.solve_channels(w)
        assert set(solver._closures) == {"N"}, k
        solver.solve_channels(w, "T")
        assert set(solver._closures) == {"N", "T"}, k
        assert np.array_equal(solver.solve_channels(w), x), k


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
    *lu, info = lapack.dgttrf(np.concatenate(lower)[1:], np.concatenate(main),
                              np.concatenate(upper)[:-1])
    assert info == 0
    return np.concatenate(flat), SimpleNamespace(
        solve=lambda b, trans="N": lapack.dgttrs(*lu, b, trans=trans)[0])


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
            for trans, mat in (("N", P), ("T", P.T)):
                assert np.array_equal(band_matvec(diags, w, trans),
                                      (mat @ w.reshape(-1)).reshape(2, -1)), (k, trans)


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
        # a solver builds its whole-grid closure on the first solve that needs it
        for k in (0, 2):
            fs = FactoredGlobalSolver(surf, surface_grid, k)
            assert "_cycle" not in vars(fs)
            fs.solve_sigma(np.ones((2, surface_grid.n)))
            assert "_cycle" in vars(fs)
            ref = weakref.ref(fs)
            del fs
            assert ref() is None, k
    finally:
        gc.enable()


@pytest.mark.parametrize("c, p, k", [(2, 1, None), (1, 2, None), (2, 2, None),
                                     (1, 2, 1), (1, 2, 4)],
                         ids=["2-1", "1-2", "2-2", "k1", "k4"])
def test_cut_band_and_corners_rebuild_the_cyclic_matrix(c, p, k):
    # both global solvers factor their cyclic band with the wrapped entries
    # cut and put the corners back in their Schur closure: band plus corners
    # must be the block-diagonal cyclic matrix, entry for entry.  The channel
    # stencils (c channels, half-width p) list their corners with
    # _cyclic_corners; the factored solver's M+ = -(A + K)(B - K/2) (k = 1,
    # 4) is written with its corners in the margins, its diagonals here
    # summed in the writer's order from the same coefficients
    n = 12
    i = np.arange(n)
    if k is None:
        diags = np.random.default_rng(c + 10 * p).standard_normal((c, 2 * p + 1, n))
    else:
        fs = FactoredGlobalSolver(ModelSurfaceMetric(ell=0.1), periodic_grid(-2.0, 2.0, n), k)
        a = (-fs._c * fs.sqF, 2.0 * fs.beta + fs._K, fs._c * fs.sqF)
        b = (-0.5 * fs._c * fs.sqF, -0.5 * (fs.beta + fs._K), 0.5 * fs._c * fs.sqF)
        diags = np.zeros((1, 5, n))
        for s in (-1, 0, 1):
            for t in (-1, 0, 1):
                diags[0, s + t + 2] -= a[s + 1] * np.roll(b[t + 1], -s)
    want = np.zeros((c * n, c * n))
    for ch in range(c):
        for j in range(2 * p + 1):
            want[ch * n + i, ch * n + (i + j - p) % n] = diags[ch, j]
    got = np.zeros_like(want)
    if k is None:
        for ch in range(c):
            for j in range(2 * p + 1):
                inside = (i + j - p >= 0) & (i + j - p < n)
                got[ch * n + i[inside], ch * n + (i + j - p)[inside]] = diags[ch, j, inside]
        rows, cols, vals = _cyclic_corners(diags)
    else:
        ab = fs.band
        assert ab.shape == (7, n + 4) and ab.flags.f_contiguous
        assert not ab[:2].any()  # LAPACK's fill rows
        for r in range(n):
            for col in range(max(r - 2, 0), min(r + 3, n)):
                got[r, col] = ab[4 + r - col, col + 2]
        rows, cols, vals = _margins(ab)
        cols = cols % n
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


def _sqrt_F_pair(sqF):
    """sqrt(F) normalized in each sigma component, as (2, 2n)."""
    v = np.concatenate([sqF, np.zeros_like(sqF)])
    v /= np.linalg.norm(v)
    return np.vstack([v, np.roll(v, sqF.size)])


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
            want = _coupled_k0_solve(ell, grid, _sqrt_F_pair(fs.sqF), b)
            got, want = (ops.conformal_killing @ x.reshape(-1)
                         for x in (fs.solve_sigma(b), want))
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= bound, (grid.n, ell, err)
    with pytest.raises(ValueError, match="even grid"):
        FactoredGlobalSolver(ModelSurfaceMetric(ell=0.1),
                             periodic_grid(-2.0, 2.0, 2049), 0)


def _minus_band(fs):
    """M- = M+ of -K on the whole cycle, as the solver writes M+ (:attr:`band`)."""
    return _factored_band(*(np.pad(x, 1, mode="wrap") for x in (fs.sqF, fs.beta, -fs._K)),
                          fs._c)


def _diagonals(ab):
    """The (5, n) cyclic diagonals of a whole cycle's band with its margins:
    M[i, i + d (mod n)] at [d + 2, i]."""
    n = ab.shape[1] - 4
    return np.array([ab[4 - d, d + 2:d + 2 + n] for d in range(-2, 3)])


def test_factored_k0_band_is_the_matmat(surface_grid):
    # the band comes from sqrt(F), beta and k / sqrt(F), not from the
    # product divergence_tf @ conformal_killing that it replaces: at k = 0
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
            assert fs.band.shape == (7, n + 4)  # only M+ is built
            got = [_diagonals(fs.band)]
            if k:  # M- is M+ of -K
                got.append(_diagonals(_minus_band(fs)))
            for diags, want in zip(got, wants, strict=True):
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
        for kv in _sqrt_F_pair(fs.sqF):
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
    """The dense (n, n) matrix of (5, n) cyclic diagonals (on n = 4 nodes the
    diagonals -2 and 2 meet in one column, and add)."""
    n = diags.shape[1]
    out = np.zeros((n, n))
    i = np.arange(n)
    for j in range(5):
        np.add.at(out, (i, (i + j - 2) % n), diags[j])
    return out


def _cyclic_residual(fs, x, rhs):
    """||M x - rhs|| / (||M|| ||x||), max norms, for the sigma components x and
    rhs (2, n) and M the cyclic k = 0 operator, read from its five diagonals
    (on n = 4 nodes the diagonals -2 and 2 meet in one column, and add)."""
    diags = _diagonals(fs.band)
    Mx = sum(diags[d + 2] * np.roll(x, -d, axis=-1) for d in range(-2, 3))
    return np.abs(Mx - rhs).max() / (np.abs(diags).sum(axis=0).max() * np.abs(x).max())


def test_sector_bands_are_the_operator_on_mirror_vectors():
    # M maps the odd vectors of R: i -> n - i to themselves; on the odd
    # sector's nodes 1 ... n/2 - 1, with the mirror columns folded in, it is
    # the band that the sector factors (the wrapped entries cut)
    n = 16
    h = n // 2
    grid = periodic_grid(-2.0, 2.0, n)
    fs = FactoredGlobalSolver(ModelSurfaceMetric(ell=0.1), grid, 0)
    M = _dense(_diagonals(fs.band))
    nodes = np.arange(1, h)
    basis = np.zeros((n, nodes.size))
    basis[nodes, nodes - 1] = 1.0
    basis[n - nodes, nodes - 1] = -1.0
    want = (M @ basis)[1:h]
    # the rows 1 ... h - 1 read the nodes 0 ... h
    ab = _sector_band(_factored_band(fs.sqF[:h + 1], fs.beta[:h + 1], None, fs._c), 1, h)
    got = np.zeros_like(want)
    for r in range(nodes.size):
        for c in range(max(r - 2, 0), min(r + 3, nodes.size)):
            got[r, c] = ab[4 + r - c, c]
    assert np.abs(got - want).max() <= 1e-15 * np.abs(M).max()
    # for a WP row the solver condenses the odd band onto its neck rows
    # p + 1 ... n/2 - 1.  The cap block A11 (rows 1 ... p, written once per
    # grid from the coefficients at ell = 0), its update A21 Z (Z = A11^-1
    # A12, A12 and A21 the blocks that couple the cap to the rows p + 1,
    # p + 2), and the neck block before the update (written per row from the
    # window's coefficients) are the band folded from the whole of M, cut
    # between them, bit for bit.  A whole-grid solve of an odd rhs (nonzero
    # on the cap too) is backward stable against the cyclic M: its residual
    # at most 8 eps ||M|| ||x|| (measured at most 1.7 eps)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7)
    # the one- and three-node sectors last, so that the other grids keep their draws
    for n in (12, 64, 2048, 16384, 4, 8):
        grid = periodic_grid(-2.0, 2.0, n)
        h = n // 2
        rhs = np.zeros((2, n))
        rhs[:, 1:h] = rng.standard_normal((2, h - 1))
        rhs[:, h + 1:] = -rhs[:, h - 1:0:-1]
        for ell in (1e-3, 0.05, 0.365, 0.9):
            fs = FactoredGlobalSolver(ModelSurfaceMetric(ell=ell), grid, 0)
            assert "band" not in vars(fs)  # not built for the odd sector
            # the whole odd sector's band, the rows 1 ... h - 1
            want = _sector_band(_factored_band(fs.sqF[:h + 1], fs.beta[:h + 1], None, fs._c),
                                1, h)
            p = fs.cap.p
            cap, neck = want[:, :p].copy(), want[:, p:].copy()
            for j in range(max(p - 2, 0), p):
                cap[p - j + 4:, j] = 0.0  # entries in the rows p + 1, p + 2
            for j in range(min(2, neck.shape[1])):
                neck[:4 - j, j] = 0.0  # entries in the columns p - 1, p
            if p:
                half = grid.mirror_half
                still = ModelSurfaceMetric(ell=0.0).grid_jet(half.span(0, p + 2))
                got = _factored_band(*_coefficients(still), None, fs._c)
                assert np.array_equal(_sector_band(got, 1, h), cap), (n, ell)
                # A12, the cap's last rows in the columns p + 1, p + 2, and
                # A21, the rows p + 1, p + 2 in the cap's last columns
                q = min(p, 2)
                A12 = np.zeros((p, 2), order="F")
                A21 = np.zeros((2, 2))
                for i in range(p - q, p):
                    for j in (p, p + 1):
                        if j - i <= 2:
                            A12[i, j - p] = want[4 + i - j, j]
                            A21[j - p, i - p + 2] = want[4 + j - i, i]
                lu, piv, _ = lapack.dgbtrf(cap, 2, 2)
                Z = lapack.dgbtrs(lu, 2, 2, A12, piv)[0]
                assert np.array_equal(fs.cap.update, A21[:, 2 - q:] @ Z[p - q:]), (n, ell)
            got = _factored_band(*fs._window, None, fs._c)
            assert np.array_equal(_sector_band(got, p + 1, h), neck), (n, ell)
            backward = _cyclic_residual(fs, fs.solve_sigma(rhs), rhs)
            assert backward <= 8.0 * eps, (n, ell, backward)
        assert (p == 0) == (n <= 12)  # the cap is empty on a coarse grid


def test_factored_channels_are_mirror_images(surface_grid):
    # M- = R M+ R, so the solver builds and factors M+ alone: entry for
    # entry, M-[i, i + d] = M+[n - i, n - i - d]
    for ell in (1e-3, 0.1, 0.365):
        surf = ModelSurfaceMetric(ell=ell)
        for k in (1, 4):
            fs = FactoredGlobalSolver(surf, surface_grid, k)
            plus = _diagonals(fs.band)
            minus = _diagonals(_minus_band(fs))
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


def test_mirror_half_kernels_are_the_whole_grid_ones(surface_grid):
    # a WP row takes the k = 0 Bianchi image, the odd-sector solve and the
    # conformal Killing image on the neck window, the nodes p ... n/2 of the
    # mirror half.  There they are the whole grid's: the Bianchi image's odd
    # part to round-off (the profile is even only to round-off at mirror
    # nodes), and the solve and its conformal Killing image to the round-off
    # of the whole-grid solve, whose cut band is ill-conditioned (measured
    # at most 2.8e-13 and 1.6e-13 of the largest entry)
    grid = surface_grid
    m = grid.mirror_half.n
    for ell in (1e-3, 0.05, 0.365):
        surf = ModelSurfaceMetric(ell=ell)
        fs = FactoredGlobalSolver(surf, grid, 0)
        p = fs.cap.p
        h = np.vstack([length_variation(surf, grid).data[0],
                       twist_variation(surf, grid).data[1], np.zeros(grid.n)])
        b = fs.bianchi(h)
        b_win = fs.bianchi(h[:, p:m])
        odd = 0.5 * (b - _reflect(b))
        err = np.abs(b_win[:, :-1] - odd[:, p:m - 1]).max() / np.abs(b).max()
        assert err <= 1e-12, (ell, err)
        x_win = fs.solve_sigma(b_win)
        rhs = np.zeros_like(b)
        rhs[:, p:m - 1] = b_win[:, :-1]
        rhs[:, m:] = -rhs[:, m - 2:0:-1]
        x = fs.solve_sigma(rhs)
        err = np.abs(x_win - x[:, p:m]).max() / np.abs(x).max()
        assert err <= 2e-12, (ell, err)
        got, want = fs.conformal_killing(x_win), fs.conformal_killing(x)[:, p:m]
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= 2e-12, (ell, err)
        assert "_whole" in vars(fs)  # the whole grid's coefficients, read here
    # an rhs on the window is odd: its value at node n/2 is round-off.  The
    # window's solve reads the coefficients of the window alone
    fs = FactoredGlobalSolver(ModelSurfaceMetric(ell=0.05), grid, 0)
    rhs = np.zeros((2, fs.cap.window.n))
    rhs[:, 1:-1] = 1.0
    fs.solve_sigma(rhs)
    assert "_whole" not in vars(fs)
    rhs[1, -1] = 1e-6
    with pytest.raises(ValueError, match="not odd"):
        fs.solve_sigma(rhs)


def test_whole_grid_k0_solve_is_backward_stable_and_bordered():
    # at k = 0 a whole-grid solve is the cut cycle's band closed by its
    # corners and bordered by M's two null directions, sqrt(F) and the
    # checkerboard (-1)^i / sqrt(F).  For a Bianchi image, in M's range, it is
    # backward stable against the cyclic M, its residual at most
    # 8 eps ||M|| ||x|| (measured at most 1.1 eps), and weighted-orthogonal to
    # both, |b^T x| at most 1e-10 |b| |x| (measured at most 1.1e-11: the
    # closure's cancellation grows with the cut band's condition)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7)
    for n in (4, 6, 8, 12, 16, 64, 2048):
        grid = periodic_grid(-2.0, 2.0, n)
        checker = np.where(np.arange(n) % 2, -1.0, 1.0)
        for ell in (1e-3, 0.05, 0.365, 0.9):
            fs = FactoredGlobalSolver(ModelSurfaceMetric(ell=ell), grid, 0)
            rhs = fs.bianchi(rng.standard_normal((3, n)))
            x = fs.solve_sigma(rhs)
            backward = _cyclic_residual(fs, x, rhs)
            assert backward <= 8.0 * eps, (n, ell, backward)
            for u in (fs.sqF, checker / fs.sqF):
                b = grid.weights * u
                lead = np.abs(x @ b).max() / (np.linalg.norm(b) * np.linalg.norm(x, axis=1).max())
                assert lead <= 1e-10, (n, ell, lead)


def _arrays(value):
    """The arrays of ``value``, an array or a nested tuple of them, in order."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for v in value for a in _arrays(v)]


@pytest.mark.parametrize("n", [2048, 16384])
def test_half_span_and_window_pieces_are_the_whole_grids(n):
    # the mirror half, the odd cap's span and the neck window each compute
    # the profile pieces at their own nodes; at each node they are the whole
    # grid's, bit for bit, so the cap and a WP row read the profile that a
    # solve on the whole grid reads
    grid = periodic_grid(-2.0, 2.0, n)
    whole = _arrays(ModelSurfaceMetric.grid_pieces(grid))
    cap = FactoredGlobalSolver(ModelSurfaceMetric(ell=0.05), grid, 0).cap
    half = grid.mirror_half
    assert cap.p > 0
    for part, start in ((half, 0), (half.span(0, cap.p + 4), 0), (cap.window, cap.p)):
        got = _arrays(ModelSurfaceMetric.grid_pieces(part))
        assert len(got) == len(whole) == 7
        for a, b in zip(got, whole):
            assert np.array_equal(a, b[start:start + part.n]), (n, part.scheme, start)


def test_odd_sector_solve_refuses_what_is_not_odd(surface_grid):
    surf = ModelSurfaceMetric(ell=0.05)
    grid = surface_grid
    x = grid.nodes
    fs = FactoredGlobalSolver(surf, grid, 0)
    p, h = fs.cap.p, grid.n // 2
    # an odd right-hand side that vanishes on the cap (the nodes 0 ... p and
    # their mirrors): on it the odd sector alone is the whole solve
    neck = np.ones(grid.n)
    neck[:p + 1] = neck[grid.n - p:] = 0.0
    odd = neck * np.vstack([np.sin(np.pi * x / 2.0), 0.3 * np.sin(np.pi * x)])
    got, want = fs.solve_sigma(odd[:, p:h + 1]), fs.solve_sigma(odd)
    assert np.abs(got - want[:, p:h + 1]).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError, match="not odd"):
        fs.solve_sigma((neck * (odd + 1e-6 * np.cos(np.pi * x / 2.0)))[:, p:h + 1])
    # a tensor on the window is even by construction, and must vanish on the cap
    noise = np.random.default_rng(3).standard_normal((3, grid.n))
    bank = SolverBank(surf, grid)
    window = bank.get(0).cap.window
    on_window = ModeField(0, Rank.SYM2_FULL, window, noise[:, :window.n])
    with pytest.raises(ValueError, match="vanish on the cap"):
        project_tt(surf, grid, on_window, solvers=bank)
    rhs = noise[:2, :window.n].copy()
    rhs[:, -1] = 0.0  # odd
    with pytest.raises(ValueError, match="vanish on the cap"):
        fs.solve_sigma(rhs)


def test_a_field_lives_on_the_grid_or_the_window(surface_grid):
    # a field's column count chooses its route: all n nodes, or at k = 0 the
    # neck window.  The mirror half (n/2 + 1 nodes, more than the window's
    # on this grid) is neither, and a k >= 1 field lives on all n nodes alone
    grid = surface_grid
    surf = ModelSurfaceMetric(ell=0.05)
    bank = SolverBank(surf, grid)
    half, window = grid.mirror_half, bank.get(0).cap.window
    assert bank.get(0).cap.p > 0 and window.n < half.n
    for k, on, where in ((0, half, f"all {grid.n} nodes or the neck window's {window.n}"),
                         (1, window, f"all {grid.n} nodes")):
        fs = bank.get(k)
        refusal = f"^a k = {k} field lives on {where}, not on {on.n}$"
        for apply, rows in ((fs.bianchi, 3), (fs.solve_sigma, 2), (fs.conformal_killing, 2)):
            with pytest.raises(ValueError, match=refusal):
                apply(np.zeros((rows, on.n)))
        tensor = ModeField(k, Rank.SYM2_FULL, on, np.zeros((3, on.n)))
        with pytest.raises(ValueError, match=refusal):
            project_tt(surf, grid, tensor, solvers=bank)
