import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpneck.cylinder import CylinderMetric
from wpneck.grids import uniform_grid
from wpneck.modefields import ModeField, Rank, Variant, mode_inner_product, mode_norm
from wpneck.operators import apply_divergence
from wpneck.ttbasis import (growing_solutions, tt_element, tt_l2norm, tt_l2norm_error,
                            tt_limit, tt_rescaled_zero_mode)

from conftest import limit_sup_errors


def test_element_construction_guards():
    with pytest.raises(ValueError):
        tt_element("kappa", 2, 0.0)
    with pytest.raises(ValueError):
        tt_limit("kappa", 0)
    with pytest.raises(ValueError):
        tt_element("sigma", 1, 0.1)


def test_zero_mode_amplitude_example():
    # amplitude at tau = 0: ell^{-1/2} / arctan(1/ell)^{1/2}
    el = tt_element("kappa", 0, 0.3)
    phi, psi = el.profiles(np.array([0.0]))
    expect = 0.3 ** (-0.5) / math.sqrt(math.atan(1.0 / 0.3))
    assert phi[0] == pytest.approx(expect, rel=1e-13)
    assert psi[0] == 0.0


def test_nu_component_example():
    # nu_{l,1} first sigma-component amplitude at tau = 0 is C_{l,1}/ell^2
    ell, k = 0.5, 1
    el = tt_element("nu", k, ell)
    phi, psi = el.profiles(np.array([0.0]))
    C = math.sqrt(k) * math.exp(-k * math.atan(1.0 / ell) / ell)
    assert phi[0] == pytest.approx(C / ell**2, rel=1e-12)
    assert el.variant is Variant.SIN


def test_divergence_residual(grid_2049):
    m = CylinderMetric(0.3)
    for kind in ("kappa", "nu"):
        for k in (0, 2, 5):
            f = tt_element(kind, k, 0.3).as_mode_field(grid_2049)
            out = apply_divergence(m, f)
            scale = np.max(np.abs(f.data))
            assert np.max(np.abs(out.data[:, 4:-4])) / scale < 2e-5


def test_closed_norm_vs_quadrature():
    for ell in (0.5, 0.1, 0.02):
        for k in range(9):
            assert tt_l2norm_error("kappa", k, ell)[1] < 1e-8


def test_closed_norm_vs_quadrature_at_the_ell_floor():
    # formed as the difference of two numbers near pi / (2 ell), eta - eta1
    # loses digits at small ell (7.6e-6 at worst over these cases); the
    # quadrature takes it as one arctangent (measured 8.7e-16)
    for kind in ("kappa", "nu"):
        for ell in (1e-10, 1e-8, 1e-7):
            for k in range(1, 9):
                assert tt_l2norm_error(kind, k, ell)[1] <= 1e-13, (kind, ell, k)


def test_norms_finite_at_extreme_parameters():
    # k/ell ~ 2.5e5: naive cosh would overflow at ~700
    val = tt_l2norm("kappa", 256, 1e-3)
    assert np.isfinite(val) and 0.1 < val < 100.0


def test_import_leaves_the_quadrature_oracle_unloaded():
    # only the closed-form cross-check needs scipy.integrate (~0.3 s on an
    # import of ~0.45 s); the verification checks and the CLI are not loaded,
    # and sweep ttnorm writes closed forms without loading it either
    import wpneck

    src = Path(wpneck.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wpneck; print([m for m in ('scipy.integrate', 'wpneck.checks', "
         "'wpneck.cli') if m in sys.modules])\n"
         "import contextlib, io, wpneck.cli\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    assert wpneck.cli.main(['sweep', 'ttnorm']) == 0\n"
         "print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["[]", "False"]


def test_unchecked_norm_runs_no_quadrature(monkeypatch):
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("tt_l2norm ran the quadrature")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    # the values the closed form gave while the quadrature still ran
    for args, want in ((("kappa", 3, 0.2), 2.045390412398593),
                       (("nu", 0, 0.1), 3.662255187092959),
                       (("kappa", 256, 1e-3), 1.7759181609615966)):
        assert tt_l2norm(*args) == want
    with pytest.raises(ValueError):
        tt_l2norm("kappa", 3, 0.0)


def test_normalization_band():
    norms = [tt_l2norm("kappa", k, ell)
             for k in range(1, 65) for ell in (1e-3, 1e-2, 0.1, 1.0)]
    assert max(norms) / min(norms) < 10.0


def test_kappa_nu_share_norm():
    a = tt_l2norm("kappa", 3, 0.2)
    b = tt_l2norm("nu", 3, 0.2)
    assert a == b


def test_limit_value_example():
    # kappa_{0,1} at tau = 1: sqrt(1)/2 e^0 = 1/2 in the first component
    lim = tt_limit("kappa", 1)
    phi, psi = lim.profiles(np.array([1.0]))
    assert phi[0] == pytest.approx(0.5, abs=1e-15)
    assert psi[0] == pytest.approx(-0.5, abs=1e-15)


def test_limit_pointwise_convergence_monotone():
    sups = limit_sup_errors(np.linspace(0.25, 1.0, 200))
    assert sups[0] > sups[1] > sups[2]


def test_limit_rate_constant():
    # lim (arctan(tau/l) - arctan(1/l))/l = 1 - 1/tau drives the convergence
    tau = 0.5
    for ell in (1e-4, 1e-5):
        val = (math.atan(tau / ell) - math.atan(1.0 / ell)) / ell
        assert val == pytest.approx(1.0 - 1.0 / tau, abs=100 * ell)


def test_limit_divergence_free_away_from_node():
    grid = uniform_grid(0.1, 1.0, 1025)
    m = CylinderMetric(0.0)
    for kind in ("kappa", "nu"):
        f = tt_limit(kind, 2).as_mode_field(grid)
        out = apply_divergence(m, f)
        scale = np.max(np.abs(f.data))
        assert np.max(np.abs(out.data[:, 4:-4])) / scale < 1e-5


def test_rescaled_zero_mode_limits():
    T = np.array([0.0, 1.0, 3.0])
    co = tt_rescaled_zero_mode("kappa", 0.01, T)
    target = math.sqrt(2.0 / math.pi) / (1.0 + T**2) ** 2
    assert np.max(np.abs(co["dT2"] - target) / target) < 0.01
    nu = tt_rescaled_zero_mode("nu", 0.01, T)
    assert np.max(np.abs(nu["dTdtheta"])) < 0.01
    # the dtheta^2 coefficient dies like ell^2
    assert abs(co["dtheta2"][0]) < 1e-4


def test_zero_mode_norm_stable_under_rescaling_chart():
    # the L^2 norm is chart-independent: tau-chart quadrature vs the
    # closed form (which was derived in the T-chart)
    for ell in (0.2, 0.05, 0.01):
        closed, rel = tt_l2norm_error("kappa", 0, ell)
        assert rel < 1e-9
        assert closed == pytest.approx(4.0 * math.pi, rel=0.25)


def test_growing_solutions():
    tau = np.linspace(0.1, 1.0, 1025)
    k = 1
    phi, psi = growing_solutions(k, tau)
    assert phi[0] == pytest.approx(100.0 * math.exp(10.0), rel=1e-12)

    # divergence residual with analytic derivatives (the e^{k/|tau|} growth
    # makes finite differences useless at any practical resolution); the
    # field sits in the D+ channel: t2 = e^{k/tau}/tau^2 on tau > 0
    t2 = (phi + psi) / 2.0
    assert np.max(np.abs((phi - psi) / 2.0)) == 0.0
    dt2 = -np.exp(k / tau) * (k + 2.0 * tau) / tau**4
    Dp = np.abs(tau) * dt2 + (2.0 * tau + k) / np.abs(tau) * t2
    assert np.max(np.abs(Dp) / phi) < 1e-12

    # discrete path at order 2 on a region away from the blow-up
    errs = []
    for n in (2049, 4097):
        g = uniform_grid(0.3, 1.0, n)
        p, q = growing_solutions(k, g.nodes)
        f = ModeField(k, Rank.SYM2_TRACEFREE, g, np.vstack([p, q]))
        out = apply_divergence(CylinderMetric(0.0), f)
        errs.append(np.max(np.abs(out.data[:, 4:-4]) / np.max(np.abs(p))))
    assert errs[0] / errs[1] > 3.5

    with pytest.raises(ValueError):
        growing_solutions(1, np.array([0.0]))
    with pytest.raises(ValueError):
        growing_solutions(0, tau)


def test_mutual_orthogonality(grid_2049):
    m = CylinderMetric(0.3)
    k2 = tt_element("kappa", 2, 0.3).as_mode_field(grid_2049)
    k3 = tt_element("kappa", 3, 0.3).as_mode_field(grid_2049)
    n2 = tt_element("nu", 2, 0.3).as_mode_field(grid_2049)
    assert mode_inner_product(k2, k3) == 0.0  # distinct k
    assert mode_inner_product(k2, n2) == 0.0  # distinct variants
    assert mode_inner_product(k2, k2) > 0.0


def test_conformal_divergence_invariance_of_basis(grid_2049):
    from wpneck.operators import conformal_divergence_check

    m = CylinderMetric(0.5)
    kap = tt_element("kappa", 2, 0.5).as_mode_field(grid_2049)
    u = 0.3 * np.cos(np.pi * grid_2049.nodes / 2.0)
    assert conformal_divergence_check(m, u, kap) < 1e-6


@given(k=st.integers(1, 16), iell=st.integers(0, 3))
@settings(max_examples=16, deadline=None)
def test_norm_closed_form_property(k, iell):
    ell = (0.5, 0.1, 0.02, 0.004)[iell]
    closed, rel = tt_l2norm_error("kappa", k, ell)
    assert closed > 0
    assert rel < 1e-7
