import math

import numpy as np
import pytest
from scipy.integrate import quad

from wpneck.cylinder import (CylinderMetric, boundary_distance, make_chart,
                             metric_components, plumbing_substitution_check,
                             plumbing_parameter, profile_curvature)
from wpneck.grids import uniform_grid


def test_metric_components_examples():
    assert metric_components(CylinderMetric(1.0), 0.0) == (1.0, 1.0)
    assert metric_components(CylinderMetric(0.5), 0.0) == (4.0, 0.25)
    gtt, gqq = metric_components(CylinderMetric(0.1), 0.3)
    assert gtt * gqq == pytest.approx(1.0, abs=1e-15)
    assert gqq == pytest.approx(0.1, abs=1e-15)


def test_metric_degenerate_point():
    noded = CylinderMetric(0.0)
    with pytest.raises(ZeroDivisionError):
        metric_components(noded, 0.0)
    # fine away from the node
    gtt, gqq = metric_components(noded, 0.5)
    assert gqq == pytest.approx(0.25)


def test_unit_determinant_everywhere():
    m = CylinderMetric(0.37)
    for t in np.linspace(-1, 1, 11):
        gtt, gqq = metric_components(m, float(t))
        assert gtt * gqq == pytest.approx(1.0, rel=1e-15)


def test_profile_curvature_hyperbolic(grid_1025):
    m = CylinderMetric(0.2)
    K = profile_curvature(m.F(grid_1025.nodes), grid_1025)
    assert np.max(np.abs(K[2:-2] + 1.0)) < 1e-9  # exact for a quadratic


def test_profile_curvature_flat_and_oracle(grid_1025):
    x = grid_1025.nodes
    assert np.max(np.abs(profile_curvature(np.ones_like(x), grid_1025))) < 1e-12
    F = 2.0 + np.sin(np.pi * x / 2.0)
    K = profile_curvature(F, grid_1025)
    K_exact = (np.pi / 2.0) ** 2 * np.sin(np.pi * x / 2.0) / 2.0
    err = np.max(np.abs((K - K_exact)[2:-2]))
    # order-2 refinement
    g2 = uniform_grid(-1, 1, 2049)
    K2 = profile_curvature(2.0 + np.sin(np.pi * g2.nodes / 2.0), g2)
    K2_exact = (np.pi / 2.0) ** 2 * np.sin(np.pi * g2.nodes / 2.0) / 2.0
    err2 = np.max(np.abs((K2 - K2_exact)[2:-2]))
    assert err / err2 > 3.5


def test_profile_curvature_rejects_nonpositive(grid_1025):
    with pytest.raises(ValueError):
        profile_curvature(grid_1025.nodes, grid_1025)  # changes sign


def test_boundary_distance_quadrature_oracle():
    for ell in (1.0, 0.3, 0.05):
        oracle, _ = quad(lambda t: 1.0 / math.sqrt(t * t + ell * ell), 0.0, 1.0,
                         epsabs=1e-13, epsrel=1e-13)
        assert boundary_distance(CylinderMetric(ell)) == pytest.approx(
            oracle, abs=1e-10)
    assert boundary_distance(CylinderMetric(1.0)) == pytest.approx(
        0.881373587019543, abs=1e-12)


def test_boundary_distance_monotone_to_zero():
    vals = [boundary_distance(CylinderMetric(e)) for e in (1.0, 5.0, 50.0, 500.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 3e-3


def test_boundary_distance_log_asymptotics():
    ell = 0.01
    assert boundary_distance(CylinderMetric(ell)) == pytest.approx(
        abs(math.log(ell / 2.0)), rel=0.05)


def test_chart_roundtrips():
    m = CylinderMetric(0.3)
    for kind in ("tau", "arcsinh", "rescaled"):
        chart = make_chart(kind, m)
        assert chart.roundtrip_error(np.linspace(-0.99, 0.99, 57)) < 1e-12


def test_plumbing_chart_geometry():
    ell = math.pi / math.log(100.0)  # t = 0.01
    m = CylinderMetric(ell)
    chart = make_chart("plumbing", m)
    t = plumbing_parameter(ell)
    assert t == pytest.approx(0.01, rel=1e-12)
    # central geodesic: |z| = sqrt(t) maps to tau = 0
    assert float(chart.forward(np.array([math.sqrt(t)]))[0]) == pytest.approx(
        0.0, abs=1e-12)
    r = np.linspace(math.sqrt(t), 0.5, 41)
    assert chart.roundtrip_error(r) < 1e-12
    with pytest.raises(ValueError):
        chart.forward(np.array([0.6]))


def test_plumbing_parameter_range_enforced():
    with pytest.raises(ValueError):
        make_chart("plumbing", CylinderMetric(3.0))  # t > 1/4
    with pytest.raises(ValueError):
        make_chart("plumbing", CylinderMetric(1e-3))  # t underflows to 0
    for ell in (3.0, math.pi / math.log(4.0), 0.0, -0.1):
        with pytest.raises(ValueError, match="0 < ell < pi/log 4"):
            plumbing_substitution_check(ell)


def test_plumbing_substitution_identity():
    assert plumbing_substitution_check(math.pi / math.log(100.0), 50) < 1e-10
    assert plumbing_substitution_check(0.5, 80) < 1e-10
    # below ell ~ 0.0042, where t = exp(-pi/ell) underflows: the check forms
    # no r (measured 6.8e-16 at 1e-3 and 5.8e-16 at 1e-10)
    for ell in (1e-3, 1e-10):
        assert plumbing_substitution_check(ell) < 1e-10, ell
