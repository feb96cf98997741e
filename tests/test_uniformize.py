from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

import wpneck.uniformize as uniformize
from wpneck.cylinder import CylinderMetric
from wpneck.surface import ModelSurfaceMetric
from wpneck.uniformize import curvature_after, solve_conformal_factor


def test_already_hyperbolic_gives_zero():
    # the collar profile F = tau^2 + ell^2 has K = -1 on the whole neck:
    # u = 0 solves at once
    cf = solve_conformal_factor(CylinderMetric(0.05))
    assert np.max(np.abs(cf.u)) < 1e-12
    assert cf.newton_iterations <= 2


def test_solve_residual_and_bound():
    for ell in (0.05, 0.02, 0.005):
        surf = ModelSurfaceMetric(ell=ell)
        cf = solve_conformal_factor(surf)
        assert cf.residual < 1e-10
        assert cf.bound_satisfied
        assert np.max(np.abs(cf.u)) <= cf.bound
        # quadratic convergence: a handful of iterations
        assert cf.newton_iterations <= 6


def test_an_even_grid_size_is_the_next_odd_one():
    # the neck grid promotes an even n to n + 1 nodes, and the solve sizes
    # its unknowns from the grid: n = 4096 is the n = 4097 solve, bit for bit
    surf = ModelSurfaceMetric(ell=0.05)
    even, odd = (solve_conformal_factor(surf, n=n) for n in (4096, 4097))
    assert even.grid.n == 4097
    assert np.array_equal(even.u, odd.u) and even.residual == odd.residual
    assert even.newton_iterations == odd.newton_iterations


def test_curvature_range_example():
    # blend-band curvature stays within the documented [-2, -0.5] band
    cf = solve_conformal_factor(ModelSurfaceMetric(ell=0.05))
    lo, hi = cf.curvature_range
    assert -2.0 < lo <= -1.0 and -1.0 <= hi < -0.5
    assert cf.bound <= 0.5 * np.log(2.0) + 1e-9


def test_curvature_after_solve():
    surf = ModelSurfaceMetric(ell=0.05)
    cf = solve_conformal_factor(surf, n=8193)
    K = curvature_after(surf, cf)
    assert np.max(np.abs(K + 1.0)) < 1e-3


def test_refusal_outside_hypotheses():
    with pytest.raises(ValueError):
        solve_conformal_factor(ModelSurfaceMetric(ell=0.3))
    # F = e^{10 tau} on 9 nodes (h = 0.22 > 1/5): -J is no M-matrix.  Its
    # refusal is an ArithmeticError, not the ValueError on which a sweep
    # falls back to phi = 0
    steep = SimpleNamespace(ell=0.1, F=lambda t: np.exp(10 * t),
                            Fp=lambda t: 10 * np.exp(10 * t),
                            curvature=lambda t: -50 * np.exp(10 * t))
    with pytest.raises(ArithmeticError, match="Newton Jacobian"):
        solve_conformal_factor(steep, n=9)
    assert solve_conformal_factor(steep, n=17).residual <= 1e-11


def test_monotone_dependence_on_curvature_scale():
    # scaling K_g toward zero pushes u downward monotonically (u solves
    # e^{2u} = K/(target) pointwise at leading order)
    surf = ModelSurfaceMetric(ell=0.05)

    class Scaled:
        def __init__(self, s):
            self.s = s
            self.ell = surf.ell

        def F(self, t):
            return surf.F(t)

        def Fp(self, t):
            return surf.Fp(t)

        def Fpp(self, t):
            return surf.Fpp(t)

        def curvature(self, t):
            return self.s * surf.curvature(t)

    sups = []
    for scale in (1.0, 0.8, 0.6):
        cf = solve_conformal_factor(Scaled(scale))
        sups.append(float(np.min(cf.u)))
    # weaker curvature needs a negative log-factor: u decreases with s
    assert sups[0] > sups[1] > sups[2]


def test_thick_point_family_converges_and_fits():
    from wpneck.wp import fit_polyhomogeneous

    ells = np.geomspace(6e-4, 6e-2, 36)
    vals = []
    for ell in ells:
        cf = solve_conformal_factor(ModelSurfaceMetric(ell=float(ell)), n=2049)
        vals.append(float(np.interp(0.8, cf.grid.nodes, cf.u)))
    # leading constant term detected, nested residuals decay
    fit = fit_polyhomogeneous(ells, vals, 4, 1)
    path = np.asarray(fit.residual_path)
    assert all(b <= a + 1e-18 for a, b in zip(path, path[1:]))
    assert path[-1] <= 1e-3 * max(np.max(np.abs(vals)), 1e-12)
    diffs = np.abs(np.diff(vals))
    assert vals[0] == pytest.approx(vals[5], abs=np.max(np.abs(vals)))


def test_newton_evaluates_the_residual_once_per_trial(monkeypatch):
    # the accepted trial's exp(2u) and residual are carried into the next
    # iteration, and the last residual is the reported one: the start and
    # each line-search trial are the only evaluations.  Every Newton step at
    # these lengths takes its full length, so there is one trial per step
    evaluated, steps = [], []
    apply_neg_lap, band = uniformize._apply_neg_lap, uniformize._SymmetrizedBand
    monkeypatch.setattr(uniformize, "_apply_neg_lap", lambda F, Fp, u, h: (
        evaluated.append(u.copy()) or apply_neg_lap(F, Fp, u, h)))
    monkeypatch.setattr(uniformize, "_SymmetrizedBand", lambda *args: (
        steps.append(1) or band(*args)))
    for ell in (1e-3, 0.05, 0.0735):
        evaluated.clear()
        steps.clear()
        cf = solve_conformal_factor(ModelSurfaceMetric(ell=ell))
        assert not evaluated[0].any()  # the start, u = 0
        assert len(evaluated) == 1 + len(steps), ell
        assert not any(np.array_equal(a, b) for a, b in combinations(evaluated, 2))
        assert np.array_equal(evaluated[-1], cf.u[cf.grid.n // 2:])


class _Even:
    """The model surface behind the generic interface: its Newton runs on the
    whole neck grid, with a Dirichlet row at each end."""

    def __init__(self, surf):
        self.surf, self.ell = surf, surf.ell

    def F(self, t):
        return self.surf.F(t)

    def Fp(self, t):
        return self.surf.Fp(t)

    def curvature(self, t):
        return self.surf.curvature(t)


def test_the_mirror_half_solves_as_the_whole_grid():
    # a model surface's Newton runs on the neck grid's mirror half; the same
    # profile through the generic interface runs on the whole grid.  u agrees
    # to round-off (measured <= 7.2e-17) in the same number of steps, and u
    # is exactly even on the half route
    for ell in (1e-3, 0.02, 0.062, 0.072, 0.0735):
        surf = ModelSurfaceMetric(ell=ell)
        half, whole = solve_conformal_factor(surf), solve_conformal_factor(_Even(surf))
        assert half.newton_iterations == whole.newton_iterations, ell
        assert np.max(np.abs(half.u - whole.u)) <= 1e-15, ell
        assert max(half.residual, whole.residual) <= uniformize._NEWTON_TOL, ell
        assert np.array_equal(half.u, half.u[::-1]) and half.u.size == half.grid.n


def test_the_top_of_the_negative_range_takes_three_steps():
    # the third step's residual sits just below _NEWTON_TOL at the top of the
    # negatively curved range, where a fourth step would move g_ll; above
    # ell ~ 0.07357 the curvature is not negative and the solve refuses
    steps = []
    for ell in np.linspace(0.072, 0.07368, 20):
        try:
            steps.append(solve_conformal_factor(ModelSurfaceMetric(ell=float(ell))).newton_iterations)
        except ValueError:
            assert ell > 0.07357
    assert steps == [3] * 18
