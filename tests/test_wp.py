import gc
import inspect
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import wpneck.uniformize as uniformize
import wpneck.wp as wp
from wpneck.grids import periodic_grid
from wpneck.modefields import ModeField, Rank, mode_inner_product, mode_norm
from wpneck.operators import apply_divergence, apply_trace
from wpneck.parametrix import SolverBank, project_tt
import wpneck.surface as surface_module
from wpneck.surface import FactoredGlobalSolver, ModelSurfaceMetric, OddCap, fold_tau
from wpneck.uniformize import solve_conformal_factor
from wpneck.wp import (length_variation, loglog_slope, sweep_wp_coefficients,
                       twist_step, twist_variation, wp_inner_product, wp_matrix)


@pytest.fixture(scope="module")
def setup():
    grid = periodic_grid(-2.0, 2.0, 4096)
    surf = ModelSurfaceMetric(ell=0.05)
    return grid, surf, SolverBank(surf, grid)


def test_length_variation_invariants(setup):
    grid, surf, _ = setup
    gl = length_variation(surf, grid)
    # trace-free in the unit-determinant gauge; dF/dell = 2 ell on the neck
    assert np.max(np.abs(apply_trace(surf, gl).data)) == 0.0
    x = grid.nodes
    r = np.abs(np.mod(x + 2.0, 4.0) - 2.0)
    F = surf.F(x)
    assert np.allclose(gl.data[0][r <= 0.75], (-2.0 * 0.05 / F)[r <= 0.75])
    assert np.all(gl.data[0][r >= 0.875] == 0.0)
    # divergence-free where the profile is exactly cylindrical
    # (analytically zero; discretely O(h^2) with ell-scale features)
    dv = apply_divergence(surf, gl.trace_split()[0])
    inner = r <= 0.7
    assert np.max(np.abs(dv.data[:, inner])) < 1e-3 * np.max(np.abs(gl.data))


def test_twist_variation_invariants(setup):
    grid, surf, _ = setup
    gw = twist_variation(surf, grid)
    assert np.max(np.abs(apply_trace(surf, gw).data)) == 0.0
    x = grid.nodes
    s = twist_step(np.mod(x + 2.0, 4.0) - 2.0)
    assert np.all(s[np.mod(x + 2.0, 4.0) - 2.0 <= -0.75] == 0.0)
    assert np.all(s[np.mod(x + 2.0, 4.0) - 2.0 >= 0.75] == 1.0)
    # psi = F s' supported in |tau| < 3/4
    r = np.abs(np.mod(x + 2.0, 4.0) - 2.0)
    assert np.all(gw.data[1][r >= 0.75] == 0.0)
    assert np.max(np.abs(gw.data[0])) == 0.0


def test_wp_product_gauge_directions_vanish(setup):
    grid, surf, bank = setup
    from wpneck.modefields import ModeField, Rank
    from wpneck.operators import apply_div_star

    x = grid.nodes
    w = ModeField(0, Rank.ONE_FORM, grid,
                  np.vstack([np.sin(np.pi * x / 2.0), np.cos(np.pi * x / 2.0)]))
    gauge = apply_div_star(surf, w)
    val = wp_inner_product(surf, grid, gauge, gauge, solvers=bank)
    scale = mode_norm(gauge.trace_split()[0]) ** 2
    assert val < 1e-12 * scale


def test_wp_product_symmetric_bilinear_cauchy_schwarz(setup):
    grid, surf, bank = setup
    gl = length_variation(surf, grid)
    gw = twist_variation(surf, grid)
    a = wp_inner_product(surf, grid, gl, gw, solvers=bank)
    b = wp_inner_product(surf, grid, gw, gl, solvers=bank)
    assert a == pytest.approx(b, abs=1e-12)
    ll = wp_inner_product(surf, grid, gl, gl, solvers=bank)
    ww = wp_inner_product(surf, grid, gw, gw, solvers=bank)
    assert ll > 0 and ww > 0
    assert a * a <= ll * ww * (1.0 + 1e-12)
    two = gl * 2.0
    assert wp_inner_product(surf, grid, two, gl, solvers=bank) == pytest.approx(
        2.0 * ll, rel=1e-12)


def test_weight_trivial_on_hyperbolic_region(setup):
    grid, surf, bank = setup
    # conformal factor solved on the exactly hyperbolic part is zero, so the
    # weighted and unweighted pairings coincide
    cf = solve_conformal_factor(surf, domain=0.7)
    assert np.max(np.abs(cf.u)) < 1e-12
    gl = length_variation(surf, grid)
    with_w = wp_inner_product(surf, grid, gl, gl, conformal=cf, solvers=bank)
    without = wp_inner_product(surf, grid, gl, gl, solvers=bank)
    assert with_w == pytest.approx(without, rel=1e-12)


def test_wp_matrix_cross_term_parity_zero(setup):
    grid, surf, bank = setup
    mat = wp_matrix(surf, grid, solvers=bank)
    assert mat["g_lw"] == 0.0  # phi/psi systems decouple at k = 0
    assert mat["g_ll"] > 0 and mat["g_ww"] > 0


def test_wp_row_never_builds_the_whole_cycle(setup):
    grid, surf, _ = setup
    bank = SolverBank(surf, grid)
    wp_matrix(surf, grid, solvers=bank)
    assert "_cycle" not in vars(bank.get(0))
    # nor the band of the whole k = 0 operator
    assert "band" not in vars(bank.get(0))


def test_wp_row_runs_on_the_mirror_half(monkeypatch):
    # after the grid's shared pieces and odd cap exist, a row combines the
    # profile on the neck grid and on the window of the periodic grid's
    # mirror half alone, and the solver never builds the coefficients of the
    # whole grid
    grid = periodic_grid(-2.0, 2.0, 2048)
    half = grid.mirror_half
    surf = ModelSurfaceMetric(ell=0.02)
    cf = solve_conformal_factor(surf)
    wp_matrix(surf, grid, conformal=cf)
    sizes = []
    real_combine = ModelSurfaceMetric._combine

    def combine(self, pieces):
        sizes.append(pieces[0].size)
        return real_combine(self, pieces)

    monkeypatch.setattr(ModelSurfaceMetric, "_combine", combine)
    surf = ModelSurfaceMetric(ell=0.05)
    cf = solve_conformal_factor(surf)
    bank = SolverBank(surf, grid)
    mat = wp_matrix(surf, grid, conformal=cf, solvers=bank)
    window = bank.get(0).cap.window
    assert sizes == [cf.grid.n // 2 + 1, window.n] and window.n < half.n
    assert "_whole" not in vars(bank.get(0))
    assert cf.weight(half).shape == (half.n,)
    assert mat["g_lw"] == 0.0


def test_one_projection_carries_both_variations(monkeypatch):
    # at k = 0 the phi and psi systems never meet, so projecting (phi_l,
    # psi_w) gives the length's phi row and the twist's psi row bit for bit,
    # on the odd sector alone (on the window) and on both sectors (on the
    # whole grid)
    grid = periodic_grid(-2.0, 2.0, 2048)
    for ell in (1e-3, 0.05, 0.365):
        surf = ModelSurfaceMetric(ell=ell)
        bank = SolverBank(surf, grid)
        for on in (bank.get(0).cap.window, grid):
            gl, gw = length_variation(surf, on), twist_variation(surf, on)
            both = ModeField(0, Rank.SYM2_FULL, on,
                             np.vstack([gl.data[0], gw.data[1], np.zeros(on.n)]))
            t, tl, tw = (project_tt(surf, grid, g, solvers=bank).data
                         for g in (both, gl, gw))
            assert np.array_equal(t[0], tl[0]) and np.array_equal(t[1], tw[1]), (ell, on)
            assert not tl[1].any() and not tw[0].any(), (ell, on)
    solves = _count_calls(monkeypatch, FactoredGlobalSolver, "solve_sigma")
    wp_matrix(ModelSurfaceMetric(ell=0.05), grid)
    assert len(solves) == 1


@pytest.mark.parametrize("n", [2048, 16384])
def test_wp_matrix_matches_the_unflagged_projection(n):
    # the odd sector on the window against the whole-grid solve (measured <= 6.5e-16,
    # apart from g_ww at ell = 1e-3, the small remainder of the twist's projection:
    # 2.6e-13 at n = 2048, 2.7e-15 at 16384)
    grid = periodic_grid(-2.0, 2.0, n)
    for ell in (1e-3, 0.05, 0.365):
        surf = ModelSurfaceMetric(ell=ell)
        cf = solve_conformal_factor(surf) if ell < 0.07 else None
        got = wp_matrix(surf, grid, conformal=cf)
        bank = SolverBank(surf, grid)
        tl, tw = (project_tt(surf, grid, f(surf, grid), solvers=bank)
                  for f in (length_variation, twist_variation))
        weight = None if cf is None else cf.weight(grid)
        want = {"g_ll": mode_inner_product(tl, tl, weight),
                "g_lw": mode_inner_product(tl, tw, weight),
                "g_ww": mode_inner_product(tw, tw, weight)}
        assert "_cycle" in vars(bank.get(0))
        for key in ("g_ll", "g_ww"):
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), (ell, key)
        scale = np.sqrt(want["g_ll"] * want["g_ww"])
        assert abs(got["g_lw"] - want["g_lw"]) <= 1e-12 * scale


def _closed_form_wp(surf, grid, cf=None):
    """The torus surrogate's WP metric from three grid sums, with no solve.

    Its k = 0 TT tensors are mu_1 = (1/F, 0) and mu_2 = (0, 1/F), and the
    unweighted pairings fix the TT part of each variation.  With W the
    grid's weights, F = Q + ell^2 w from the profile pieces and e the
    conformal weight (1 unweighted), I0 = sum W F^-2, I1 = sum W w F^-2 and
    I0w = sum W e F^-2: g_ll = 16 pi ell^2 I1^2 I0w / I0^2 and
    g_ww = 4 pi I0w / I0^2 (g_lw = 0).
    """
    _, (Q, _, _), (w, _, _) = ModelSurfaceMetric.pieces(grid.nodes)
    ell = surf.ell
    WF2 = grid.weights / (Q + ell**2 * w) ** 2
    e = 1.0 if cf is None else cf.weight(grid)
    I0, I1, I0w = np.sum(WF2), np.sum(WF2 * w), np.sum(WF2 * e)
    return {"g_ll": 16.0 * np.pi * ell**2 * I1**2 * I0w / I0**2,
            "g_ww": 4.0 * np.pi * I0w / I0**2}


@pytest.mark.parametrize("weighted", [False, True])
def test_wp_matrix_matches_the_torus_closed_form(weighted):
    # relative gaps to wp_matrix at n = 16384, weighted or not: g_ll at most
    # 1.4e-9 (ell = 0.01); g_ww 6.5e-7 at ell = 0.1 up to 2.7e-5 at 0.01, the
    # projector's O(h^2).  The bounds are 3.5x and 2.3-5.6x above them
    grids = {n: periodic_grid(-2.0, 2.0, n) for n in (2048, 16384)}
    # the conformal weight exists where the neck is negatively curved
    ells = (0.07, 0.05, 0.02, 0.01) if weighted else (0.1, 0.07, 0.05, 0.02, 0.01)
    for ell in ells:
        surf = ModelSurfaceMetric(ell=ell)
        cf = solve_conformal_factor(surf) if weighted else None
        gaps = {}
        for n, grid in grids.items():
            got = wp_matrix(surf, grid, conformal=cf)
            want = _closed_form_wp(surf, grid, cf)
            assert got["g_lw"] == 0.0, (n, ell)
            gaps[n] = {key: abs(got[key] / want[key] - 1.0) for key in want}
        assert gaps[16384]["g_ll"] < 5e-9, (ell, gaps)
        assert gaps[16384]["g_ww"] < 1.5e-6 * (0.1 / ell) ** 2, (ell, gaps)
        # second order: 8x the nodes, 64x smaller (measured 64.00 to 64.36)
        assert 63.0 < gaps[2048]["g_ww"] / gaps[16384]["g_ww"] < 66.0, (ell, gaps)


def test_conformal_weight_folds_each_grid_once(monkeypatch):
    grid = periodic_grid(-2.0, 2.0, 2048)
    cfs = [solve_conformal_factor(ModelSurfaceMetric(ell=ell)) for ell in (1e-3, 0.05)]
    folds = _count_calls(monkeypatch, uniformize, "fold_tau")
    for cf in cfs:
        t = fold_tau(grid.nodes)
        inside = np.abs(t) <= cf.grid.b
        want = np.ones(grid.n)
        want[inside] = np.exp(-2.0 * np.interp(t[inside], cf.grid.nodes, cf.u))
        assert np.array_equal(cf.weight(grid), want)  # bit for bit
    assert len(folds) == 1


def _rows_equal(r1, r2):
    for a, b in zip(r1, r2):
        for k in a:
            va, vb = a[k], b[k]
            if not (va == vb or (np.isnan(va) and np.isnan(vb))):
                return False
    return len(r1) == len(r2)


def test_wp_matrix_keeps_no_reference_to_the_surface():
    # operators live in the row's solver bank, which wp_matrix drops
    grid = periodic_grid(-2.0, 2.0, 1024)
    surf = ModelSurfaceMetric(ell=0.05)
    wp_matrix(surf, grid)
    ref = weakref.ref(surf)
    del surf
    gc.collect()
    assert ref() is None


def test_wp_row_builds_no_sparse_matrix(monkeypatch):
    # a row projects at k = 0 only, with stencils and one LAPACK band: no
    # mode operators, no SuperLU, no scipy.sparse matrix
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from wpneck.operators import ModeOperators

    def refuse(*args, **kwargs):
        raise AssertionError("a WP row built a sparse matrix")

    monkeypatch.setattr(ModeOperators, "__init__", refuse)
    for name in ("splu", "spsolve"):
        monkeypatch.setattr(spla, name, refuse)
    for name in ("csc_matrix", "csr_matrix", "coo_matrix", "bmat", "diags",
                 "block_diag", "eye"):
        monkeypatch.setattr(sp, name, refuse)
    rows = sweep_wp_coefficients([1e-3, 0.05, 0.1], grid_n=1024)
    assert all(r["g_ll"] > 0 and r["g_ww"] > 0 for r in rows)


def test_sweep_slopes_and_determinism():
    ells = np.geomspace(1e-3, 1e-1, 9)
    rows = sweep_wp_coefficients(ells, grid_n=8192, use_conformal=False)
    rows2 = sweep_wp_coefficients(ells, grid_n=8192, use_conformal=False)
    assert _rows_equal(rows, rows2)  # bit-stable
    assert [r["ell"] for r in rows] == sorted(r["ell"] for r in rows)
    sl = loglog_slope([r["ell"] for r in rows], [r["g_ll"] for r in rows])
    sw = loglog_slope([r["ell"] for r in rows], [r["g_ww"] for r in rows])
    assert sl == pytest.approx(-1.0, abs=0.1)
    assert sw == pytest.approx(3.0, abs=0.1)
    for r in rows:
        assert abs(r["g_lw"]) <= 1e-10 * np.sqrt(r["g_ll"] * r["g_ww"])


def test_sweep_jobs_agree():
    ells = np.geomspace(1e-2, 1e-1, 4)
    serial = sweep_wp_coefficients(ells, grid_n=4096, use_conformal=False)
    threaded = sweep_wp_coefficients(ells, grid_n=4096, use_conformal=False,
                                     jobs=3)
    assert _rows_equal(serial, threaded)


def test_slope_needs_enough_points():
    with pytest.raises(ValueError):
        loglog_slope([1e-3, 1e-2, 1e-1], [1.0, 2.0, 3.0], trim=2)


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name``, a plain or static method."""
    calls = []
    raw = inspect.getattr_static(owner, name)
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(counted) if static else counted)
    return calls


def test_sweep_evaluates_the_profile_once_per_node_array(monkeypatch):
    # the cap and plateau jets depend on the nodes alone: one evaluation per
    # grid that a sweep reads (the mirror half, the odd cap's span, the
    # window and the neck grid), never per row
    base = _count_calls(monkeypatch, ModelSurfaceMetric, "_base")
    weight = _count_calls(monkeypatch, ModelSurfaceMetric, "_weight")
    counts = []
    for ells in ([1e-3, 0.01, 0.05, 0.09],
                 [1e-3, 3e-3, 0.01, 0.02, 0.03, 0.05, 0.07, 0.09]):
        uniformize._neck_grid.cache_clear()
        base.clear()
        weight.clear()
        assert len(sweep_wp_coefficients(ells, grid_n=2048, use_conformal=True)) == len(ells)
        counts.append((len(base), len(weight)))
    assert counts[0] == counts[1], counts
    assert 1 <= counts[0][0] <= 4 and 1 <= counts[0][1] <= 4, counts


def _fresh_row(ell, grid_n):
    # a new surface, periodic grid and neck grid: nothing shared with a sweep
    uniformize._neck_grid.cache_clear()
    surface = ModelSurfaceMetric(ell=ell)
    try:
        cf = solve_conformal_factor(surface)
    except ValueError:
        cf = None
    row = {"ell": ell}
    row.update(wp_matrix(surface, periodic_grid(-2.0, 2.0, grid_n), conformal=cf))
    row["conformal_bound"] = float("nan") if cf is None else cf.bound
    row["conformal_max"] = float("nan") if cf is None else float(np.max(np.abs(cf.u)))
    return row


def test_shared_pieces_carry_nothing_from_row_to_row():
    ells = [1e-3, 0.01, 0.05, 0.09]
    fresh = [_fresh_row(ell, 2048) for ell in ells]
    for given in (ells, ells[::-1]):
        assert _rows_equal(sweep_wp_coefficients(given, grid_n=2048), fresh)
    # rows on one shared grid, in descending ell, against the fresh ones
    grid = periodic_grid(-2.0, 2.0, 2048)
    for ell, ref in zip(ells[::-1], fresh[::-1]):
        surface = ModelSurfaceMetric(ell=ell)
        try:
            cf = solve_conformal_factor(surface)
        except ValueError:
            cf = None
        mat = wp_matrix(surface, grid, conformal=cf)
        assert all(mat[key] == ref[key] for key in mat)


def test_sweep_jobs_agree_with_the_conformal_weight():
    # more threads than cores race to build the periodic grid's and the neck
    # grid's shared pieces, switching as often as the interpreter allows
    ells = [1e-3, 0.002, 0.005, 0.01, 0.02, 0.05, 0.07, 0.09]
    serial = sweep_wp_coefficients(ells, grid_n=2048, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        uniformize._neck_grid.cache_clear()
        threaded = sweep_wp_coefficients(ells, grid_n=2048, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert _rows_equal(serial, threaded)


def test_sweeps_leave_no_surface_and_few_grids_alive(monkeypatch):
    made = {"surface": [], "periodic": [], "neck": []}

    def recording(kind, make):
        def wrapper(*args, **kwargs):
            out = make(*args, **kwargs)
            made[kind].append(weakref.ref(out))
            return out
        return wrapper

    monkeypatch.setattr(wp, "ModelSurfaceMetric",
                        recording("surface", ModelSurfaceMetric))
    monkeypatch.setattr(wp, "periodic_grid", recording("periodic", periodic_grid))
    monkeypatch.setattr(uniformize, "uniform_grid",
                        recording("neck", uniformize.uniform_grid))
    uniformize._neck_grid.cache_clear()
    for n in (512, 1024, 2048):
        sweep_wp_coefficients([1e-3, 0.05], grid_n=n)
    gc.collect()
    alive = {kind: sum(ref() is not None for ref in refs)
             for kind, refs in made.items()}
    assert [len(made[kind]) for kind in ("surface", "periodic")] == [6, 3]
    # each periodic grid, with the pieces kept on it, dies with its sweep;
    # the one neck grid of the default (domain, n) is shared by all of them
    assert alive == {"surface": 0, "periodic": 0, "neck": 1}


def test_wp_matrix_weights_the_cap_where_the_conformal_domain_reaches_it():
    # a conformal factor solved on |tau| <= 1 is not 1 on part of the odd
    # sector's cap (|tau| >= 0.883 at n = 2048): there the cap's share of each
    # pairing is weighted, and the row is the explicit pairing of the whole
    # grid's projection on the mirror half (measured <= 2.3e-16).  Taking the
    # weight as 1 on the cap moves it by more than 1e-11
    grid = periodic_grid(-2.0, 2.0, 2048)
    half = grid.mirror_half
    surf = ModelSurfaceMetric(ell=0.02)
    cf = solve_conformal_factor(surf, domain=1.0)
    bank = SolverBank(surf, grid)
    got = wp_matrix(surf, grid, conformal=cf, solvers=bank)
    p = bank.get(0).cap.p
    weight = cf.weight(half)
    assert np.any(weight[:p] != 1.0)
    t = project_tt(surf, grid, wp._variations(surf, grid, length=True, twist=True),
                   solvers=bank).data[:, :half.n]
    tl = ModeField(0, Rank.SYM2_TRACEFREE, half, np.vstack([t[0], 0.0 * t[0]]))
    tw = ModeField(0, Rank.SYM2_TRACEFREE, half, np.vstack([0.0 * t[1], t[1]]))
    outside = weight.copy()
    outside[:p] = 1.0
    for key, f in (("g_ll", tl), ("g_ww", tw)):
        want = mode_inner_product(f, f, weight)
        assert abs(got[key] - want) <= 1e-12 * want, key
        assert abs(mode_inner_product(f, f, outside) - want) > 1e-11 * want, key
    assert got["g_lw"] == 0.0


def test_odd_cap_is_factored_once_per_grid_and_dies_with_it(monkeypatch):
    # the cap is kept with its grid: a sweep factors it once and each row its
    # neck alone, and it holds no reference that outlives the grid
    caps = _count_calls(monkeypatch, OddCap, "__init__")
    bands = _count_calls(monkeypatch, surface_module, "_band_solve")
    rows = sweep_wp_coefficients([1e-3, 0.01, 0.05, 0.09], grid_n=2048)
    assert len(rows) == 4 and len(caps) == 1 and len(bands) == 1 + 4
    grid = periodic_grid(-2.0, 2.0, 2048)
    surf = ModelSurfaceMetric(ell=0.05)
    cap = SolverBank(surf, grid).get(0).cap
    assert SolverBank(surf, grid).get(0).cap is cap and len(caps) == 2
    assert cap.window.n < grid.mirror_half.n
    ref = weakref.ref(cap)
    del cap, grid
    assert ref() is None


def test_wp_row_peak_memory():
    # "memory stays flat": the traced peak of one sweep row at n = 16384, its
    # conformal factor included, after a row on the same grid has built the
    # grid's shared pieces.  Measured 0.75 MB (1.58 MB on the whole mirror
    # half, 3.81 MB when the length and the twist were projected separately)
    grid = periodic_grid(-2.0, 2.0, 16384)

    def row(ell):
        surf = ModelSurfaceMetric(ell=ell)
        return wp_matrix(surf, grid, conformal=solve_conformal_factor(surf))

    row(0.01)
    tracemalloc.start()
    try:
        row(0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.9e6, peak


def _row_peaks(ells, grid_n=16384):
    """Traced peaks of sweep rows, after a first row on the same grid."""
    grid = periodic_grid(-2.0, 2.0, grid_n)

    def row(ell):
        surf = ModelSurfaceMetric(ell=ell)
        try:
            cf = solve_conformal_factor(surf)
        except ValueError:
            cf = None
        return wp_matrix(surf, grid, conformal=cf)

    row(0.01)
    peaks = []
    for ell in ells:
        tracemalloc.start()
        try:
            row(ell)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_wp_row_peak_memory_on_the_mirror_half():
    # a row's arrays span the nodes 0 ... n/2 alone.  Traced peaks of one row
    # at n = 16384, as in the sweep, on both sides of the zero-conformal-weight
    # fallback: measured 749,784 bytes (ell = 0.02) and 679,504 (0.09) on the
    # neck window, against 1,576,988 and 1,543,892 on the whole mirror half
    # and 2,365,228 and 2,332,052 when they spanned all n nodes
    for ell, peak in zip((0.02, 0.09), _row_peaks((0.02, 0.09))):
        assert peak <= 1.9e6, (ell, peak)


def test_wp_row_peak_memory_on_the_neck_window():
    # after the grid's odd cap exists, a row's arrays span the neck window,
    # 3588 of the half's 8193 nodes at n = 16384; the conformal Newton on its
    # own 4097-node grid is the rest.  Measured 749,784 and 679,504 bytes
    for ell, peak in zip((0.02, 0.09), _row_peaks((0.02, 0.09))):
        assert peak <= 1.0e6, (ell, peak)


# sweep_wp_coefficients(_PINNED_ELLS, grid_n=2048) as (g_ll, g_ww), recorded
# before the length and twist projections were merged into one
_PINNED_ELLS = (1e-3, 0.004, 0.015, 0.05, 0.0735, 0.2)
_PINNED_ROWS = (
    (109095.74295662179, 8.756373207553374e-09),
    (19747.98868949402, 5.072575996464518e-07),
    (5263.796475299596, 2.6976563247098366e-05),
    (1579.1503022428674, 0.0010000762951619866),
    (1074.2707320214133, 0.003178368490258247),
    (389.957890708361, 0.06396843113057746),
)


def test_sweep_values_are_pinned():
    # both sides of the zero-conformal-weight fallback (ell ~ 0.073)
    rows = sweep_wp_coefficients(_PINNED_ELLS, grid_n=2048)
    assert [r["ell"] for r in rows] == list(_PINNED_ELLS)
    for row, (g_ll, g_ww) in zip(rows, _PINNED_ROWS):
        assert row["g_ll"] == pytest.approx(g_ll, rel=1e-14, abs=0.0), row
        assert row["g_ww"] == pytest.approx(g_ww, rel=1e-14, abs=0.0), row
        assert row["g_lw"] == 0.0, row


# sweep_wp_coefficients(_BENCH_ELLS, grid_n=16384), the benchmark's grid, as
# (g_ll, g_ww), recorded before a row ran on the grid's mirror half
_BENCH_ELLS = (1e-3, 0.02, 0.0735, 0.09)
_BENCH_ROWS = (
    (78958.187215727, 7.984204677250531e-09),
    (3947.8440034899236, 6.400030340745592e-05),
    (1074.2707500123338, 0.0031785884515419375),
    (876.2859515716268, 0.005831919838551666),
)


def test_sweep_values_are_pinned_at_the_benchmark_grid():
    # both sides of the zero-conformal-weight fallback (ell ~ 0.073)
    rows = sweep_wp_coefficients(_BENCH_ELLS, grid_n=16384)
    assert [r["ell"] for r in rows] == list(_BENCH_ELLS)
    assert np.isnan(rows[-1]["conformal_bound"]) and rows[-2]["conformal_bound"] > 0
    for row, (g_ll, g_ww) in zip(rows, _BENCH_ROWS):
        assert row["g_ll"] == pytest.approx(g_ll, rel=1e-14, abs=0.0), row
        assert row["g_ww"] == pytest.approx(g_ww, rel=1e-14, abs=0.0), row
        assert row["g_lw"] == 0.0, row


def test_the_cap_spans_share_the_mirror_half_pieces():
    # the odd cap's window and cap span keep views of the mirror half's
    # profile pieces, and combine them to what fresh pieces at their nodes give
    grid = periodic_grid(-2.0, 2.0, 2048)
    half = grid.mirror_half
    cap = OddCap(grid)
    kept = ModelSurfaceMetric.grid_pieces(half)
    surf = ModelSurfaceMetric(ell=0.05)
    for span in (cap.window, ModelSurfaceMetric.span_pieces(half, 0, cap.p + 4)):
        pieces = ModelSurfaceMetric.grid_pieces(span)
        assert np.shares_memory(pieces[0], kept[0])
        assert all(np.shares_memory(x, y) for part, whole in zip(pieces[1:], kept[1:])
                   for x, y in zip(part, whole))
        fresh = surf._combine(ModelSurfaceMetric.pieces(span.nodes))
        assert all(np.array_equal(x, y) for x, y in zip(surf.grid_jet(span), fresh))
