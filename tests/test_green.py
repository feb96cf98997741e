import math

import numpy as np
import pytest

from wpneck.checks import barrier_excess
from wpneck.green import (BarrierProfile, HomogeneousSolutions,
                          certify_barrier, cylinder_dirichlet_inverse,
                          solve_nonzero_mode, solve_zero_mode,
                          solve_zero_mode_fd)
from wpneck.grids import arcsinh_grid, uniform_grid
from wpneck.modefields import ModeField, Rank, Variant
from wpneck.operators import apply_gauge_laplacian
from wpneck.wp import fit_polyhomogeneous

from conftest import homogeneous_residual, smooth_bump

BUMP = smooth_bump(0.5, 0.75)


def test_homogeneous_solutions_parity_and_ode():
    hom = HomogeneousSolutions(0.37)
    ts = np.linspace(-1, 1, 41)
    assert np.allclose(hom.u(ts), hom.u(-ts))
    assert np.allclose(hom.v(ts), -hom.v(-ts))
    assert hom.wronskian_check(ts) < 1e-13
    assert homogeneous_residual(0.37, ts) < 1e-12


def test_explicit_zero_mode_solves_and_hits_boundary():
    for ell in (0.5, 0.1, 0.01):
        rep = solve_zero_mode(ell, BUMP, 0.3, -0.2, n=8193)
        assert rep.residual < 1e-9
        assert rep.bc_error < 1e-10
        # determinant two ways
        hom = HomogeneousSolutions(ell)
        D_par = -2.0 * float(hom.u(1.0)) * float(hom.v(1.0))
        assert rep.D == pytest.approx(D_par, rel=1e-12)


def test_zero_rhs_homogeneous_data_gives_pure_homogeneous():
    ell = 0.2
    hom = HomogeneousSolutions(ell)
    rep = solve_zero_mode(ell, lambda x: 0.0 * x, float(hom.u(1.0)),
                          float(hom.u(-1.0)))
    assert rep.A == pytest.approx(1.0, abs=1e-12)
    assert rep.B == pytest.approx(0.0, abs=1e-12)
    assert rep.I1 == 0.0 and rep.I2 == 0.0


def test_explicit_matches_fd_oracle():
    for ell in (0.5, 0.1):
        rep = solve_zero_mode(ell, BUMP, 0.25, -0.15, n=8193)
        _, w_fd = solve_zero_mode_fd(ell, BUMP, 0.25, -0.15, n=8193)
        rel = np.max(np.abs(rep.solution - w_fd)) / np.max(np.abs(w_fd))
        assert rel < 1e-6


def test_parity_preserved():
    # even rhs, symmetric data -> even solution
    ell = 0.3
    even = smooth_bump(-0.75, 0.75)
    rep = solve_zero_mode(ell, lambda x: even(x) * (np.abs(x) > 0.5), 0.4, 0.4)
    w = rep.solution
    assert np.max(np.abs(w - w[::-1])) < 1e-7 * np.max(np.abs(w))


def test_support_gap_enforced():
    with pytest.raises(ValueError):
        solve_zero_mode(0.1, smooth_bump(-0.2, 0.2), 0.0, 0.0)
    with pytest.raises(ValueError):
        solve_nonzero_mode(0.1, 2, smooth_bump(0.1, 0.7), c=0.5)
    # the gap is closed: a sample at |tau| = c lies in it, on either side of 0
    tau = arcsinh_grid(0.1, 1.0, 4097).tau
    for j in (100, 3000):
        h = np.zeros_like(tau)
        h[j] = 1.0
        with pytest.raises(ValueError):
            solve_nonzero_mode(0.1, 2, h, c=abs(tau[j]))
        solve_nonzero_mode(0.1, 2, h, c=np.nextafter(abs(tau[j]), 0.0))


def test_band_solves_refuse_non_finite_data(cyl_half):
    def nan_tail(t):  # zero on the support gap, NaN near the ends
        return np.where(np.abs(t) > 0.9, np.nan, 0.0)

    with pytest.raises(ValueError):
        solve_nonzero_mode(0.1, 2, nan_tail)
    with pytest.raises(ValueError):
        solve_zero_mode_fd(0.1, BUMP, np.inf)
    grid = uniform_grid(-1, 1, 513)
    bad = ModeField(1, Rank.ONE_FORM, grid,
                    np.vstack([nan_tail(grid.nodes), np.zeros(grid.n)]))
    with pytest.raises(ValueError):
        cylinder_dirichlet_inverse(cyl_half, grid, bad)


def test_nonzero_mode_maximum_principle_and_trivial():
    ell = 0.1
    tau, w = solve_nonzero_mode(ell, 3, lambda x: 0.0 * x)
    assert np.max(np.abs(w)) == 0.0
    tau, w = solve_nonzero_mode(ell, 3, BUMP, n=4097)
    C = float(np.max(np.abs(BUMP(tau))))
    assert np.max(np.abs(w)) <= C * (1.0 + 1e-12)


def test_nonzero_mode_refuses_a_band_that_is_not_an_m_matrix():
    # at ell = 1e-3 on 7 nodes the t-spacing h is 2.53, so where
    # |tanh t| > 2/h one coupling of a pair turns positive: no maximum
    # principle and no symmetric form.  On 9 nodes h is 1.90, and the band
    # is an M-matrix.  The rhs vanishes on the support gap |tau| <= 1/2
    def outer(t):
        return (abs(t) > 0.5) * 1.0

    with pytest.raises(ValueError, match="symmetrizable"):
        solve_nonzero_mode(1e-3, 3, outer, n=7)
    solve_nonzero_mode(1e-3, 3, outer, n=9)


def test_nonzero_mode_even_node_count_is_promoted():
    tau, w = solve_nonzero_mode(0.05, 2, BUMP, n=512)
    assert tau.size == w.size == 513
    assert np.all(np.isfinite(w))


def test_barrier_certificate_structure():
    cert = certify_barrier([1e-3, 1e-2, 0.1], range(1, 33), alpha=0.3)
    assert not cert.full_pass  # positivity provably fails near tau = 0
    assert cert.min_margin_certified >= 0.0
    # inner radius tracks ell sqrt(alpha/(1-alpha))
    pred = 0.1 * math.sqrt(0.3 / 0.7)
    assert cert.inner_radius[0.1] == pytest.approx(pred, rel=0.35)
    with pytest.raises(ValueError):
        certify_barrier([0.1], [0], alpha=0.3)
    with pytest.raises(ValueError):
        certify_barrier([0.1], [1], alpha=1.5)


def _certify_reference(ells, ks, alpha):
    """certify_barrier's arithmetic, one ell and one (k, sign) at a time:
    (inner radii, certified margin, full margin)."""
    n = 2001
    tau = np.linspace(1.0 / n, 1.0, n)
    inner, cert_margin, full_margin = [], np.inf, np.inf
    for ell in ells:
        worst = np.full(n, np.inf)
        F = tau**2 + ell**2
        for k in ks:
            ak = alpha * abs(k)
            zp = ak / tau**2
            zpp = (ak / tau**2) ** 2 - 2.0 * ak / tau**3
            base = -F * zpp - 2.0 * tau * zp + 1.0 + tau**2 / F
            for sign in (+1, -1):
                g = base + (2.0 * sign * k * tau + k * k) / F
                worst = np.minimum(worst, g)
        ok = worst >= 0.0
        if ok.all():
            inner.append(float(tau[0]))
        else:
            last_bad = np.max(np.nonzero(~ok)[0])
            inner.append(np.inf if last_bad == n - 1 else float(tau[last_bad + 1]))
        region = tau >= inner[-1]
        if region.any():
            cert_margin = min(cert_margin, float(np.min(worst[region])))
        full_margin = min(full_margin, float(np.min(worst)))
    return inner, cert_margin, full_margin


@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.9, 0.99])
def test_barrier_certificate_matches_the_per_mode_loop(alpha):
    # every ell in one array per k, with the same arithmetic per element;
    # alpha = 0.99 certifies no radius at all (an infinite inner radius)
    for ells in ((1e-3, 1e-2, 0.1), (0.1,)):
        for ks in (range(1, 33), [4]):
            cert = certify_barrier(ells, ks, alpha)
            inner, cert_margin, full_margin = _certify_reference(ells, ks, alpha)
            assert np.array_equal([cert.inner_radius[e] for e in ells], inner)
            assert np.array_equal(cert.min_margin_certified, cert_margin)
            assert np.array_equal(cert.min_margin_full, full_margin)
            assert cert.full_pass == (full_margin >= 0.0)
    assert np.isinf(certify_barrier([0.1], range(1, 33), 0.99).inner_radius[0.1])


def test_barrier_profile_matches_the_masked_evaluation():
    tau = np.concatenate([np.linspace(-1.0, 1.0, 2049), [-0.0, 1e-300, 0.01]])
    for k in (1, -3, 32):
        zeta = BarrierProfile(0.3, 0.5, 0.7, k)(tau)
        want = np.zeros_like(tau)
        nz = tau != 0.0
        expo = 0.3 * abs(k) * (1.0 / 0.5 - 1.0 / np.abs(tau[nz]))
        want[nz] = 0.7 * np.exp(np.minimum(expo, 700.0))
        assert zeta.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        BarrierProfile(0.3, 0.5, 1.0, 0)


def test_barrier_failure_region_grows_with_alpha():
    lo = certify_barrier([0.1], [4], alpha=0.2)
    hi = certify_barrier([0.1], [4], alpha=0.9)
    assert hi.inner_radius[0.1] > lo.inner_radius[0.1]


def test_solution_below_barrier_on_certified_region():
    for ell in (1e-3, 1e-2, 0.05):
        cert = certify_barrier([ell], range(1, 9), alpha=0.3)
        assert barrier_excess(cert, ell, (1, 3, 8), (+1,), BUMP, 4097) <= 0.0


def test_summed_tail_bound():
    # sum over k of |omega_k| <= C e^{alpha(1/c - 1/|tau|)}/(1 - e^{...}) on
    # the certified region
    ell, alpha, c = 0.01, 0.3, 0.5
    K = 12
    cert = certify_barrier([ell], range(1, K + 1), alpha=alpha)
    r_in = cert.inner_radius[ell]
    tau0, _ = solve_nonzero_mode(ell, 1, BUMP, n=2049)
    total = np.zeros_like(tau0)
    for k in range(1, K + 1):
        _, w = solve_nonzero_mode(ell, k, BUMP, n=2049)
        total += np.abs(w)
    C = float(np.max(np.abs(BUMP(tau0))))
    mask = (np.abs(tau0) >= r_in) & (np.abs(tau0) <= 0.25)
    e = np.exp(alpha * (1.0 / c - 1.0 / np.abs(tau0[mask])))
    bound = C * e / (1.0 - e)
    assert np.all(total[mask] <= bound + 1e-300)


def test_rescaled_regularity_in_ell():
    # solutions restricted to |T| = |tau|/ell <= 10 converge as ell decreases
    T = np.linspace(-10, 10, 41)
    prev = None
    diffs = []
    for ell in (0.04, 0.02, 0.01):
        rep = solve_zero_mode(ell, BUMP, 0.0, 0.0, n=8193)
        vals = np.interp(T * ell, rep.tau, rep.solution)
        if prev is not None:
            diffs.append(np.max(np.abs(vals - prev)))
        prev = vals
    assert diffs[1] < diffs[0]


def test_green_family_polyhomogeneous_fit():
    # solution samples at fixed tau admit a half-integer/log fit with
    # decaying nested residuals
    ells = np.geomspace(1e-3, 1e-1, 40)
    vals = []
    for ell in ells:
        rep = solve_zero_mode(float(ell), BUMP, 0.0, 0.0, n=2049)
        vals.append(np.interp(0.9, rep.tau, rep.solution))
    fit = fit_polyhomogeneous(ells, vals, 4, 1)
    path = np.asarray(fit.residual_path)
    assert all(b <= a + 1e-15 for a, b in zip(path, path[1:]))
    assert path[-1] < 1e-4 * np.max(np.abs(vals))


def test_cylinder_dirichlet_inverse_inverts_gauge_laplacian(cyl_half):
    grid = uniform_grid(-1, 1, 2049)
    x = grid.nodes
    for k, variant in ((0, Variant.COS), (2, Variant.COS), (3, Variant.SIN)):
        rhs = ModeField(k, Rank.ONE_FORM, grid,
                        np.vstack([BUMP(x), 0.5 * BUMP(x)]), variant)
        w = cylinder_dirichlet_inverse(cyl_half, grid, rhs)
        assert w.key == rhs.key
        res = apply_gauge_laplacian(cyl_half, w)
        err = np.max(np.abs((res.data - rhs.data)[:, 1:-1]))
        assert err / np.max(np.abs(rhs.data)) < 1e-8
        assert abs(w.data[:, 0]).max() < 1e-10 and abs(w.data[:, -1]).max() < 1e-10


def test_cylinder_dirichlet_inverse_zero_mode_delegates_to_explicit(cyl_half):
    # the grid solve of the full operator equals the explicit channel
    # formula applied to the doubled rhs
    grid = uniform_grid(-1, 1, 4097)
    x = grid.nodes
    rhs = ModeField.one_form_rho(0, grid, BUMP(x), np.zeros_like(x))
    sol = cylinder_dirichlet_inverse(cyl_half, grid, rhs)
    rep = solve_zero_mode(0.5, lambda t: 2.0 * BUMP(t), 0.0, 0.0, n=8193)
    w1 = sol.rho()[0]
    expect = np.interp(x, rep.tau, rep.solution)
    assert np.max(np.abs(w1 - expect)) / np.max(np.abs(expect)) < 1e-5


def test_cylinder_dirichlet_inverse_support_rejection(cyl_half):
    grid = uniform_grid(-1, 1, 513)
    x = grid.nodes
    bad = ModeField(1, Rank.ONE_FORM, grid,
                    np.vstack([smooth_bump(-0.2, 0.2)(x), np.zeros_like(x)]))
    with pytest.raises(ValueError):
        cylinder_dirichlet_inverse(cyl_half, grid, bad)
