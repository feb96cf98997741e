import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import wpneck.green
from wpneck.grids import (arcsinh_grid, chebyshev_grid, periodic_grid,
                          simpson_weights, uniform_grid)

from conftest import smooth_bump


def test_simpson_exact_on_cubics():
    g = uniform_grid(-1.0, 2.0, 9)
    x = g.nodes
    assert g.integrate(x**3 - 2 * x + 1) == pytest.approx(
        (2.0**4 - 1.0) / 4 - (2.0**2 - 1.0) + 3.0, abs=1e-13)


def test_simpson_weights_need_odd_count():
    with pytest.raises(ValueError):
        simpson_weights(4, 0.1)


def test_uniform_derivative_order():
    errs = []
    for n in (129, 257):
        g = uniform_grid(-1.0, 1.0, n)
        f = np.sin(2.0 * g.nodes)
        err = np.max(np.abs((g.d2 @ f + 4.0 * f)[4:-4]))
        errs.append(err)
    assert errs[0] / errs[1] > 3.5


def test_periodic_wraparound():
    g = periodic_grid(0.0, 2.0 * np.pi, 256)
    f = np.sin(g.nodes)
    assert np.max(np.abs(g.d1 @ f - np.cos(g.nodes))) < 1e-3
    # trapezoid on smooth periodic integrand is spectrally accurate
    assert g.integrate(np.cos(g.nodes) ** 2) == pytest.approx(np.pi, abs=1e-12)


def test_chebyshev_spectral_accuracy():
    g = chebyshev_grid(-1.0, 1.0, 48)
    f = np.exp(g.nodes)
    assert np.max(np.abs(g.d1 @ f - f)) < 1e-10
    assert g.integrate(f) == pytest.approx(np.e - 1.0 / np.e, abs=1e-12)


def test_chebyshev_mapped_interval():
    g = chebyshev_grid(0.5, 3.5, 40)
    f = g.nodes**4
    assert np.max(np.abs(g.d2 @ f - 12.0 * g.nodes**2)) < 1e-8


def test_grid_nodes_immutable():
    g = uniform_grid(-1, 1, 65)
    with pytest.raises(ValueError):
        g.nodes[0] = 7.0


def test_arcsinh_grid_spacing_tracks_scale():
    ag = arcsinh_grid(0.01, 1.0, 513)
    dt = np.diff(ag.tau)
    mid = np.searchsorted(ag.tau, 0.0)
    # spacing near tau = 0 is ~ ell * h_t, far out it is ~ |tau| * h_t
    assert dt[mid] < 2.0 * 0.01 * (ag.t[1] - ag.t[0])
    assert dt[-1] > 20.0 * dt[mid]
    # quadrature in the stretched variable
    f = 1.0 / np.sqrt(ag.tau**2 + 0.01**2)
    val = ag.t_grid.integrate(f * ag.jacobian)
    assert val == pytest.approx(2.0 * np.arcsinh(100.0), rel=1e-10)


def _lil_uniform_stencils(a, b, n):
    """Element-by-element construction of the uniform stencils (oracle)."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    h = x[1] - x[0]
    d1 = sp.lil_matrix((n, n))
    d2 = sp.lil_matrix((n, n))
    for i in range(1, n - 1):
        d1[i, i - 1], d1[i, i + 1] = -0.5 / h, 0.5 / h
        d2[i, i - 1], d2[i, i], d2[i, i + 1] = 1.0 / h**2, -2.0 / h**2, 1.0 / h**2
    d1[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    d1[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    d2[0, :4] = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
    d2[-1, -4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h**2
    return d1.tocsr(), d2.tocsr()


def _lil_periodic_stencils(a, b, n):
    """Banded construction with assigned wrap-around corners (oracle)."""
    h = (b - a) / n
    e = np.ones(n)
    d1 = sp.diags([e * 0.5 / h, -e * 0.5 / h], [1, -1], shape=(n, n)).tolil()
    d1[0, -1] = -0.5 / h
    d1[-1, 0] = 0.5 / h
    d2 = sp.diags([e / h**2, -2.0 * e / h**2, e / h**2], [-1, 0, 1],
                  shape=(n, n)).tolil()
    d2[0, -1] = 1.0 / h**2
    d2[-1, 0] = 1.0 / h**2
    return d1.tocsr(), d2.tocsr()


def _assert_same_csr(got, want):
    for attr in ("data", "indices", "indptr"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype and np.array_equal(g, w), attr


@pytest.mark.parametrize("n", [9, 64, 65, 2049, 4097])
def test_uniform_stencils_match_elementwise_construction(n):
    g = uniform_grid(-1.3, 2.0, n)  # an even n is promoted to n + 1
    d1, d2 = _lil_uniform_stencils(-1.3, 2.0, n)
    assert g.n == d1.shape[0]
    _assert_same_csr(g.d1, d1)
    _assert_same_csr(g.d2, d2)


@pytest.mark.parametrize("n", [64, 2048])
def test_periodic_stencils_match_banded_construction(n):
    g = periodic_grid(-2.0, 2.0, n)
    d1, d2 = _lil_periodic_stencils(-2.0, 2.0, n)
    _assert_same_csr(g.d1, d1)
    _assert_same_csr(g.d2, d2)


def test_stencils_built_on_first_read_and_kept():
    g = uniform_grid(-1.0, 1.0, 65)
    assert not any(sp.issparse(v) for v in vars(g).values())
    d1 = g.d1
    assert g.d1 is d1 and g.d2 is g.d2


def test_concurrent_first_reads_see_equal_stencils():
    g = periodic_grid(-2.0, 2.0, 2048)
    d1, d2 = _lil_periodic_stencils(-2.0, 2.0, 2048)
    seen, start = [], threading.Barrier(8)

    def read():
        start.wait(timeout=10)
        seen.append((g.d1, g.d2))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and len(seen) == 8
    for got1, got2 in seen:
        _assert_same_csr(got1, d1)
        _assert_same_csr(got2, d2)


def test_nonzero_mode_solve_builds_one_grid(monkeypatch):
    calls = []
    real = wpneck.green.arcsinh_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(wpneck.green, "arcsinh_grid", counting)
    wpneck.green.solve_nonzero_mode(0.01, 3, smooth_bump(0.5, 0.75), n=257)
    assert len(calls) == 1


def test_arcsinh_grids_are_kept_shared_and_read_only():
    arcsinh_grid.cache_clear()
    ag = arcsinh_grid(0.01, 1.0, 257)
    assert arcsinh_grid(0.01, 1.0, 257) is ag
    for ell in np.geomspace(1e-3, 0.1, 10):
        arcsinh_grid(float(ell), 1.0, 257)
    assert arcsinh_grid.cache_info().currsize <= 4
    for a in (ag.tau, ag.jacobian, *ag.channel_band):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_solves_share_the_grid_and_return_their_own_nodes(monkeypatch):
    bump = smooth_bump(0.5, 0.75)
    arcsinh_grid.cache_clear()
    tau, w = wpneck.green.solve_nonzero_mode(0.01, 3, bump, n=257)
    assert tau.flags.writeable
    tau[:] = 0.0
    builds = []
    real = wpneck.grids.uniform_grid

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(wpneck.grids, "uniform_grid", counting)
    tau2, w2 = wpneck.green.solve_nonzero_mode(0.01, 5, bump, sign=-1, n=257)
    assert not builds
    assert np.array_equal(tau2, arcsinh_grid(0.01, 1.0, 257).tau)
    assert np.array_equal(wpneck.green.solve_nonzero_mode(0.01, 3, bump, n=257)[1], w)
    arcsinh_grid.cache_clear()
    tau3, w3 = wpneck.green.solve_nonzero_mode(0.01, 5, bump, sign=-1, n=257)
    assert len(builds) == 1
    assert tau3.tobytes() == tau2.tobytes() and w3.tobytes() == w2.tobytes()


def test_grids_holds_the_one_tridiagonal_solver():
    # every other module solves its tridiagonal bands through
    # grids._SymmetrizedBand, and names no LAPACK tridiagonal routine
    routines = ("gttrf", "gttrs", "gtsv", "pttrf", "pttrs", "ptsv")
    modules = Path(wpneck.green.__file__).parent.glob("*.py")
    named = {p.name: [r for r in routines if r in p.read_text()] for p in modules}
    assert named.pop("grids.py")
    assert not any(named.values()), named


def test_mirror_half_integrates_even_fields():
    grid = periodic_grid(-2.0, 2.0, 64)
    half = grid.mirror_half
    assert half is grid.mirror_half  # kept with the grid
    assert half.n == 33 and np.shares_memory(half.nodes, grid.nodes)
    assert half.nodes[0] == -2.0 and half.nodes[-1] == 0.0
    # an even field pairs the same on the half as on the whole grid
    f = np.cos(np.pi * grid.nodes / 2.0) ** 2 + np.cos(np.pi * grid.nodes)
    assert half.integrate(f[:33]) == pytest.approx(grid.integrate(f), rel=1e-15)
    with pytest.raises(ValueError, match="mirror half"):
        periodic_grid(-2.0, 2.0, 63).mirror_half
    with pytest.raises(ValueError, match="mirror half"):
        uniform_grid(-1.0, 1.0, 65).mirror_half


def test_keep_builds_once_per_grid_and_a_half_or_span_keeps_its_own():
    grid = periodic_grid(-2.0, 2.0, 64)
    half = grid.mirror_half
    span = half.span(10, 30)
    assert span.n == 20 and span.scheme == "span"
    assert np.array_equal(span.weights, half.weights[10:30])
    builds = []

    def build(g):
        builds.append(g.n)
        return len(builds)

    for g in (grid, half, span, grid, half, span):
        assert g.keep("test", build) == (grid, half, span).index(g) + 1
    assert builds == [64, 33, 20]
    # a span of the same nodes is another grid, with its own store
    assert half.span(10, 30).keep("test", build) == 4


def test_keep_makes_arrays_in_nested_tuples_read_only():
    grid = periodic_grid(-2.0, 2.0, 64)
    s, (sq, ab) = grid.keep("test", lambda g: (np.sin(g.nodes), (g.nodes**2, np.abs(g.nodes))))
    for part in (s, sq, ab):
        assert part.shape == (64,) and not part.flags.writeable
    assert grid.keep("test", None)[1][0] is sq  # kept: no second build
    # anything else is kept as it is
    kept = grid.keep("a list", lambda g: [np.zeros(3)])
    assert kept[0].flags.writeable and grid.keep("a list", None) is kept
