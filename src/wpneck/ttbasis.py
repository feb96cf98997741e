"""Explicit transverse-traceless tensors on the cylinder and their limits.

For ell > 0 and k >= 1 the divergence-free trace-free pairs are, in the
sigma tensor frame with eta(tau) = arctan(tau/ell)/ell,

    kappa : (phi, psi) = (C/F) (cosh(k eta), -sinh(k eta)),  COS variant,
    nu    : same radial profiles in the SIN variant,

normalized by C = sqrt(k) exp(-k eta(1)).  The rho channels are then
(C/2F) e^{+k (eta - eta(1))} and (C/2F) e^{-k(eta + eta(1))}, so every
evaluation is done in log space: cosh/sinh against the normalizing
exponential never overflow (naive evaluation dies near k/ell ~ 700).

The zero modes carry the amplitude ell^{3/2} / arctan(1/ell)^{1/2}
(:func:`zero_mode_amplitude`) on (1/F, 0) and (0, 1/F).  Limits at ell = 0
are separate closed forms (decay like e^{-k/|tau|} toward the node), never
evaluations of the ell > 0 formulas at ell = 0.

Squared L^2 norms use the tensor contraction |h|^2 = 2(phi^2 + psi^2); the
closed form for k >= 1 is

  ||kappa||^2 = 2 C^2 pi / (2k (k^2+ell^2)(1+ell^2)) *
                (2k cosh(2k eta(1)) + (2k^2+1+ell^2) sinh(2k eta(1))),

evaluated with the C^2 = k e^{-2k eta(1)} factor folded into the cosh/sinh.
For k = 0 the elementary antiderivative of 1/F^2 gives

    ||kappa_{ell,0}||^2 = 4 pi (1 + ell/((1+ell^2) arctan(1/ell))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import RadialGrid
from .modefields import ModeField, Rank, Variant

__all__ = [
    "TTBasisElement",
    "tt_element",
    "tt_limit",
    "tt_l2norm",
    "tt_l2norm_error",
    "tt_rescaled_zero_mode",
    "growing_solutions",
    "zero_mode_amplitude",
]

_VARIANT = {"kappa": Variant.COS, "nu": Variant.SIN}


def zero_mode_amplitude(ell: float) -> float:
    """The k = 0 tensors' amplitude ell^{3/2} / arctan(1/ell)^{1/2}."""
    return ell**1.5 / math.sqrt(math.atan(1.0 / ell))


@dataclass(frozen=True)
class TTBasisElement:
    """One explicit trace-free divergence-free tensor (or its ell = 0 limit)."""

    kind: str
    k: int
    ell: float

    def __post_init__(self):
        if self.kind not in _VARIANT:
            raise ValueError("kind must be 'kappa' or 'nu'")
        if self.k < 0 or self.ell < 0:
            raise ValueError("need k >= 0 and ell >= 0")
        if self.ell == 0.0 and self.k == 0:
            raise ValueError("the k = 0 limit lives on the rescaled chart; "
                             "see tt_rescaled_zero_mode")

    @property
    def variant(self) -> Variant:
        # k = 0 stores literal components; both kinds live in the COS slot
        return Variant.COS if self.k == 0 else _VARIANT[self.kind]

    def profiles(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi, psi) radial profiles in the sigma tensor frame."""
        tau = np.asarray(tau, float)
        k = self.k
        if self.ell == 0.0:
            amp = np.zeros_like(tau)
            nz = tau != 0.0
            amp[nz] = (math.sqrt(k) / (2.0 * tau[nz] ** 2)
                       * np.exp((1.0 - 1.0 / np.abs(tau[nz])) * k))
            return amp, -np.sign(tau) * amp
        ell = self.ell
        F = tau**2 + ell**2
        if k == 0:
            amp = zero_mode_amplitude(ell) / F
            if self.kind == "kappa":
                return amp, np.zeros_like(tau)
            return np.zeros_like(tau), amp
        eta = np.arctan(tau / ell) / ell
        eta1 = math.atan(1.0 / ell) / ell
        # C cosh(k eta) = sqrt(k)/2 (e^{k(eta-eta1)} + e^{-k(eta+eta1)})
        ep = np.exp(k * (eta - eta1))
        em = np.exp(-k * (eta + eta1))
        phi = math.sqrt(k) / 2.0 * (ep + em) / F
        psi = -math.sqrt(k) / 2.0 * (ep - em) / F
        return phi, psi

    def as_mode_field(self, grid: RadialGrid) -> ModeField:
        phi, psi = self.profiles(grid.nodes)
        return ModeField(self.k, Rank.SYM2_TRACEFREE, grid,
                         np.vstack([phi, psi]), self.variant)


def tt_element(kind: str, k: int, ell: float) -> TTBasisElement:
    """Divergence-free basis tensor for ell > 0 (ell = 0 is tt_limit's job)."""
    if ell <= 0:
        raise ValueError("tt_element needs ell > 0; use tt_limit for the "
                         "noded-surface tensors")
    return TTBasisElement(kind, k, ell)


def tt_limit(kind: str, k: int) -> TTBasisElement:
    """The ell -> 0 limit tensors, decaying like e^{-k/|tau|} at the node."""
    if k < 1:
        raise ValueError("limits exist for k >= 1; the k = 0 family "
                         "concentrates on the rescaled chart")
    return TTBasisElement(kind, k, 0.0)


def _closed_norm_sq(kind: str, k: int, ell: float) -> float:
    """||kappa_{ell,k}||^2 with C^2 folded in, evaluated in log space."""
    if ell <= 0:
        raise ValueError("norms of the ell = 0 tensors diverge toward the cusp "
                         "only in derivative norms; this routine needs ell > 0")
    if kind not in _VARIANT:
        raise ValueError("kind must be 'kappa' or 'nu'")
    # kappa and nu share radial profiles, hence norms
    if k == 0:
        at = math.atan(1.0 / ell)
        return 4.0 * math.pi * (1.0 + ell / ((1.0 + ell**2) * at))
    A1 = 2.0 * k * math.atan(1.0 / ell) / ell
    # C^2 cosh(A1) = k (1 + e^{-2 A1})/2 ; C^2 sinh(A1) = k (1 - e^{-2 A1})/2
    em = math.exp(-2.0 * A1)
    c2cosh = k * (1.0 + em) / 2.0
    c2sinh = k * (1.0 - em) / 2.0
    half = (math.pi / (2.0 * k * (k**2 + ell**2) * (1.0 + ell**2))
            * (2.0 * k * c2cosh + (2.0 * k**2 + 1.0 + ell**2) * c2sinh))
    # the closed form above integrates phi^2 + psi^2; the tensor contraction
    # carries an extra factor 2
    return 2.0 * half


def _quad_norm_sq(k: int, ell: float) -> float:
    """2D quadrature of the squared norm, log-shifted to avoid overflow."""
    from scipy.integrate import quad  # the oracle alone needs it

    if k == 0:
        val, _ = quad(lambda t: 1.0 / (t**2 + ell**2) ** 2, 0.0, 1.0,
                      epsabs=1e-14, epsrel=1e-12, limit=400)
        amp2 = ell**3 / math.atan(1.0 / ell)
        return 2.0 * math.pi * 2.0 * amp2 * 2.0 * val
    eta1 = math.atan(1.0 / ell) / ell

    # |kappa|^2 = 2 C^2 cosh(2 k eta)/F^2; C^2 cosh(2k eta) =
    #   k/2 (e^{2k(eta - eta1)} + e^{-2k(eta + eta1)}).  eta - eta1 is taken
    # as one arctangent, atan(t/ell) - atan(1/ell) = atan(ell (t - 1) / (ell^2 + t))
    # for t >= 0: the difference of two numbers near pi / (2 ell) loses digits
    # at small ell
    def integrand(t):
        F = t * t + ell * ell
        return (math.exp(2.0 * k * math.atan(ell * (t - 1.0) / (ell * ell + t)) / ell)
                + math.exp(-2.0 * k * (math.atan(t / ell) / ell + eta1))) / F**2

    val, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=400,
                  points=[ell] if ell < 0.5 else None)
    # theta integral pi, tensor factor 2, tau doubling 2, C^2 prefactor k/2
    return math.pi * 2.0 * 2.0 * (k / 2.0) * val


def tt_l2norm(kind: str, k: int, ell: float) -> float:
    """L^2 norm over the cylinder, in closed form (its quadrature cross-check
    is :func:`tt_l2norm_error`, which ``verify l2norms`` runs)."""
    return math.sqrt(_closed_norm_sq(kind, k, ell))


def tt_l2norm_error(kind: str, k: int, ell: float) -> tuple[float, float]:
    """(closed-form squared L^2 norm, its relative distance to the quadrature
    of the same norm): the cross-check of :func:`tt_l2norm`."""
    closed = _closed_norm_sq(kind, k, ell)
    return closed, abs(closed - _quad_norm_sq(k, ell)) / closed


def tt_rescaled_zero_mode(kind: str, ell: float, T: np.ndarray):
    """Coefficients of ell^{1/2} kappa_{ell,0} (resp. nu) on the T = tau/ell chart.

    Returns a dict with the dT^2, dtheta^2, and symmetrized dT dtheta
    coefficients; kappa concentrates as (2/pi)^{1/2} dT^2/(1+T^2)^2 while the
    nu family's coefficient decays like ell/arctan(1/ell)^{1/2}.
    """
    if ell <= 0:
        raise ValueError("needs ell > 0")
    T = np.asarray(T, float)
    at = math.atan(1.0 / ell)
    if kind == "kappa":
        return {
            "dT2": 1.0 / (math.sqrt(at) * (1.0 + T**2) ** 2),
            "dtheta2": -(ell**2) / math.sqrt(at) * np.ones_like(T),
            "dTdtheta": np.zeros_like(T),
        }
    if kind == "nu":
        return {
            "dT2": np.zeros_like(T),
            "dtheta2": np.zeros_like(T),
            "dTdtheta": ell / (math.sqrt(at) * (1.0 + T**2)),
        }
    raise ValueError("kind must be 'kappa' or 'nu'")


def growing_solutions(k: int, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exponentially growing divergence-free pair at ell = 0.

    Returns (phi, psi) profiles shared by both theta-variants; the fields
    blow up like e^{k/|tau|} at the node and are excluded from every frame
    assembly.  Evaluation at tau = 0 is rejected.
    """
    if k < 1:
        raise ValueError("growing solutions exist for k >= 1")
    tau = np.asarray(tau, float)
    if np.any(tau == 0.0):
        raise ValueError("growing solutions are singular at tau = 0")
    amp = np.exp(k / np.abs(tau)) / tau**2
    return amp, np.sign(tau) * amp
