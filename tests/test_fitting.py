import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpneck.wp import FitConditionError, fit_polyhomogeneous

ELLS = np.geomspace(1e-3, 1e-1, 48)


def test_planted_series_recovered():
    f = 2.0 + 3.0 * np.sqrt(ELLS) - 0.5 * ELLS * np.log(ELLS)
    fit = fit_polyhomogeneous(ELLS, f, 2, 1)
    assert fit.coefficient(0, 0) == pytest.approx(2.0, abs=1e-6)
    assert fit.coefficient(1, 0) == pytest.approx(3.0, abs=1e-6)
    assert fit.coefficient(2, 1) == pytest.approx(-0.5, abs=1e-6)
    assert fit.coefficient(2, 0) == pytest.approx(0.0, abs=1e-6)
    assert fit.residual < 1e-12


def test_constant_gives_single_coefficient():
    fit = fit_polyhomogeneous(ELLS, np.full_like(ELLS, 7.25), 3, 1)
    assert fit.coefficient(0, 0) == pytest.approx(7.25, abs=1e-10)
    for k, j, a in fit.terms:
        if (k, j) != (0, 0):
            assert abs(a) < 1e-8


def test_off_grading_exponent_leaves_residual_plateau():
    g = ELLS**0.33
    member = fit_polyhomogeneous(ELLS, 2.0 + 3.0 * np.sqrt(ELLS), 3, 1)
    nonmember = fit_polyhomogeneous(ELLS, g, 3, 1)
    # the plateau sits far above the in-grading fit's machine-level floor
    assert nonmember.residual > 1e4 * member.residual
    assert nonmember.residual > 1e-10 * np.max(np.abs(g))


def test_residual_path_monotone_and_ordered():
    f = 1.0 - 0.3 * ELLS + 0.1 * ELLS * np.log(ELLS) ** 2
    fit = fit_polyhomogeneous(ELLS, f, 3, 2)
    path = np.asarray(fit.residual_path)
    assert path.size == 4 * 3
    # weakly decreasing up to the roundoff floor of the least-squares solves
    floor = 1e-12 * path[0]
    assert all(b <= a + floor for a, b in zip(path, path[1:]))


def test_sample_requirements():
    with pytest.raises(ValueError):
        fit_polyhomogeneous(ELLS[:5], np.ones(5), 2, 1)
    short = np.geomspace(1e-2, 5e-2, 48)
    with pytest.raises(ValueError):
        fit_polyhomogeneous(short, np.ones(48), 2, 1)
    with pytest.raises(ValueError):
        fit_polyhomogeneous(-ELLS, np.ones_like(ELLS), 1, 0)


def test_condition_refusal():
    ells = np.geomspace(1e-3, 1e-1, 200)
    with pytest.raises(FitConditionError) as info:
        fit_polyhomogeneous(ells, np.ones(200), 14, 3)
    assert info.value.condition_number > 1e12


@given(a0=st.floats(-5, 5), a1=st.floats(-5, 5), a2=st.floats(-5, 5))
@settings(max_examples=25, deadline=None)
def test_random_planted_coefficients(a0, a1, a2):
    f = a0 + a1 * np.sqrt(ELLS) + a2 * ELLS * np.log(ELLS)
    fit = fit_polyhomogeneous(ELLS, f, 2, 1)
    scale = max(abs(a0), abs(a1), abs(a2), 1.0)
    assert fit.coefficient(0, 0) == pytest.approx(a0, abs=1e-6 * scale)
    assert fit.coefficient(1, 0) == pytest.approx(a1, abs=1e-6 * scale)
    assert fit.coefficient(2, 1) == pytest.approx(a2, abs=1e-6 * scale)
