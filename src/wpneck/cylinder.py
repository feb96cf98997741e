"""The degenerating hyperbolic cylinder and its coordinate charts.

The model metric on the collar C = (-1, 1) x S^1 (|tau| <= TAU_BOUND = 1,
the charts' domain and that of the channel solves in :mod:`wpneck.green`) is

    g_ell = d tau^2 / F + F d theta^2,      F(tau) = tau^2 + ell^2,

which has constant Gauss curvature -1 for every ell > 0; ell = 0 denotes
the noded limit (complete, with a cusp at tau = 0).  For any rotationally
symmetric profile F > 0 in this unit-determinant form the curvature is

    K = -F'' / 2.

(Derivation, done once symbolically and frozen into the test suite: with
orthonormal coframe s1 = d tau / sqrt(F), s2 = sqrt(F) d theta the
connection form is w12 = -(F'/2) d theta, so d w12 = -(F''/2) d tau ^
d theta = -(F''/2) s1 ^ s2 = -K s1 ^ s2.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import RadialGrid
from .surface import ELL_CEILING

__all__ = [
    "CylinderMetric",
    "CoordinateChart",
    "metric_components",
    "profile_curvature",
    "boundary_distance",
    "make_chart",
    "plumbing_substitution_check",
    "plumbing_parameter",
]


TAU_BOUND = 1.0  # the collar is |tau| <= TAU_BOUND


@dataclass(frozen=True)
class CylinderMetric:
    """Profile description of g_ell on the collar; ell = 0 is the noded limit."""

    ell: float

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("ell must be >= 0")

    def F(self, tau) -> np.ndarray:
        return np.asarray(tau, dtype=float) ** 2 + self.ell**2

    def Fp(self, tau) -> np.ndarray:
        return 2.0 * np.asarray(tau, dtype=float)

    def Fpp(self, tau) -> np.ndarray:
        return np.full_like(np.asarray(tau, dtype=float), 2.0)

    def curvature(self, tau) -> np.ndarray:
        return np.full_like(np.asarray(tau, dtype=float), -1.0)


def metric_components(m: CylinderMetric, tau: float) -> tuple[float, float]:
    """(g_tau_tau, g_theta_theta) = (1/F, F) at a point; fails loudly at a node."""
    F = float(m.F(tau))
    if F == 0.0:
        raise ZeroDivisionError(
            "metric degenerates at tau = 0 on the noded cylinder (ell = 0)"
        )
    return 1.0 / F, F


def profile_curvature(fvals: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Gauss curvature K = -F''/2 of d tau^2/F + F d theta^2 from grid samples."""
    fvals = np.asarray(fvals, dtype=float)
    if fvals.shape != grid.nodes.shape:
        raise ValueError("profile samples do not match the grid")
    if np.any(fvals <= 0):
        raise ValueError("profile must be positive")
    return -0.5 * (grid.d2 @ fvals)


def boundary_distance(m: CylinderMetric) -> float:
    """Hyperbolic distance from the central geodesic to either boundary circle.

    Equals arcsinh(1/ell) = int_0^1 d tau / sqrt(tau^2 + ell^2); for small
    ell this grows like |log(ell/2)|.
    """
    if m.ell <= 0:
        raise ValueError("boundary distance needs ell > 0")
    return float(np.arcsinh(1.0 / m.ell))


@dataclass(frozen=True)
class CoordinateChart:
    """Forward/inverse map pair for one of the standard cylinder charts."""

    kind: str
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]

    def roundtrip_error(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.max(np.abs(self.inverse(self.forward(x)) - x)))


def plumbing_parameter(ell: float) -> float:
    """t with ell = pi/|log t|, refused outside (0, 1/4): for ell at or above
    :data:`~wpneck.surface.ELL_CEILING` = pi/log 4, and for ell below about
    pi/745 = 0.0042, where t underflows to 0."""
    t = math.exp(-math.pi / ell)
    if not 0.0 < t < 0.25:
        raise ValueError(f"plumbing parameter exp(-pi/ell) = {t:g} at ell = {ell:g} is "
                         f"outside (0, 1/4): ell must lie below pi/log 4 = "
                         f"{ELL_CEILING:.6g}, and above about 0.0042 for t not to underflow")
    return t


def make_chart(kind: str, m: CylinderMetric) -> CoordinateChart:
    """Charts: tau (identity), arcsinh t = arcsinh(tau/ell), rescaled T = tau/ell,
    plumbing |z| with tau/ell = cot(ell |log z|).

    The plumbing chart covers the half-annulus sqrt(t) <= |z| <= 1/2 and maps
    it to tau >= 0; the mirrored half of the annulus (the other branch of the
    quadric) is taken to be the odd reflection tau -> -tau.  The central
    geodesic is the circle |z| = sqrt(t).  Its domain is in r = |z|, so it
    is refused below ell ~ 0.0042, where t underflows (:func:`plumbing_parameter`).
    """
    ell = m.ell
    if kind == "tau":
        return CoordinateChart("tau", lambda x: np.asarray(x, float),
                               lambda x: np.asarray(x, float), (-TAU_BOUND, TAU_BOUND))
    if ell <= 0:
        raise ValueError(f"chart {kind!r} needs ell > 0")
    if kind == "arcsinh":
        return CoordinateChart(
            "arcsinh",
            lambda tau: np.arcsinh(np.asarray(tau, float) / ell),
            lambda t: ell * np.sinh(np.asarray(t, float)),
            (-TAU_BOUND, TAU_BOUND),
        )
    if kind == "rescaled":
        return CoordinateChart(
            "rescaled",
            lambda tau: np.asarray(tau, float) / ell,
            lambda T: ell * np.asarray(T, float),
            (-TAU_BOUND, TAU_BOUND),
        )
    if kind == "plumbing":
        t = plumbing_parameter(ell)

        def fwd(r):
            r = np.asarray(r, dtype=float)
            if np.any((r < math.sqrt(t) * (1 - 1e-12)) | (r > 0.5 * (1 + 1e-12))):
                raise ValueError("sample outside the annulus sqrt(t) <= |z| <= 1/2")
            return ell / np.tan(ell * np.abs(np.log(r)))

        def inv(tau):
            tau = np.asarray(tau, dtype=float)
            # tau/ell = cot(ell s), s = |log r|
            s = np.arctan2(ell, tau) / ell
            return np.exp(-s)

        return CoordinateChart("plumbing", fwd, inv, (math.sqrt(t), 0.5))
    raise ValueError(f"unknown chart kind {kind!r}")


def plumbing_substitution_check(ell: float, n_samples: int = 50) -> float:
    """Max relative discrepancy between the plumbing-annulus hyperbolic metric
    and the pullback of g_ell under the substitution tau/ell = cot(ell |log z|).

    The annulus metric density (coefficient of |dz|^2) is

        ((pi log|z| / log t) csc(pi log|z| / log t))^2 / (|z| log|z|)^2

    with ell = pi/|log t|.  Both the d r^2 and r^2 d phi^2 coefficients of the
    pullback are compared on log-spaced radii in [sqrt(t), 1/2], each times
    r^2 and at s = |log r| in [log 2, pi/(2 ell)], so that no r (nor t, which
    underflows below ell ~ 0.0042) is formed and every ell of the window holds.
    """
    if not 0.0 < ell < ELL_CEILING:
        raise ValueError(f"the plumbing substitution needs 0 < ell < pi/log 4 (got {ell:g})")
    s = np.linspace(math.pi / (2.0 * ell), math.log(2.0), n_samples)
    chi = ell * s  # = pi log|z| / log t, in (0, pi/2]
    density = (chi / np.sin(chi)) ** 2 / s**2  # times r^2
    # pullback of d tau^2/F + F d theta^2 under tau = ell cot(chi), theta = phi,
    # times r^2: r d tau/d r = ell^2 csc^2(chi)
    tau = ell / np.tan(chi)
    F = tau**2 + ell**2
    coeff_dr2 = (ell**2 / np.sin(chi) ** 2) ** 2 / F
    rel1 = np.abs(coeff_dr2 - density) / density
    rel2 = np.abs(F - density) / density
    return float(max(rel1.max(), rel2.max()))
