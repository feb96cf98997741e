"""Dirichlet inversion of the mode operators on the finite cylinder.

The zero mode has an explicit inverse by variation of parameters built on
the homogeneous solutions

    u_*(T) = sqrt(T^2 + 1),
    v_*(T) = (T + arctan T + T^2 arctan T) / sqrt(T^2 + 1),

with u_ell(tau) = u_*(tau/ell), v_ell(tau) = v_*(tau/ell) and Wronskian
u_* v_*' - u_*' v_* = 2/(T^2+1), i.e. F (u_ell v_ell' - u_ell' v_ell) =
2 ell.  For a right-hand side h and boundary values eta at tau = +-b the
unique solution of the *unscaled* channel operator

    P0 w = -F w'' - 2 tau w' + (1 + tau^2/F) w = h

is w = A u + B v + u(tau) Iv(tau) - v(tau) Iu(tau) where

    Iv(tau) = (1/2 ell) int_{-b}^tau v h,   Iu(tau) = (1/2 ell) int_{-b}^tau u h,

and (A, B) solve the 2x2 boundary system with determinant
D = u(b) v(-b) - u(-b) v(b) = -2 u_*(b/ell) v_*(b/ell).

Nonzero modes have no closed form; they are solved by second-order finite
differences on a grid uniform in t = arcsinh(tau/ell) (node spacing
proportional to sqrt(tau^2 + ell^2), which resolves the ell-scale turning
region).  In the t variable the channel operator reads

    -w'' - tanh(t) w' + (1 + (ell sinh t + s k)^2 / (ell cosh t)^2) w,

an M-matrix discretization for moderate step sizes (a coarser grid is
refused), so discrete solutions inherit the maximum principle; it is solved
without pivoting (:class:`~wpneck.grids._SymmetrizedBand`).  Decay toward
tau = 0 is certified against the barrier zeta_k(tau) = C exp(alpha |k| (1/c
- 1/|tau|)): the positivity P zeta_k >= 0 is checked numerically and holds
outside an inner radius comparable to ell sqrt(alpha/(1-alpha)); inside it
the barrier comparison degenerates (zeta -> 0 faster than true solutions
saturate), so the certificate records the verified region per ell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cylinder import TAU_BOUND, CylinderMetric
from .grids import ArcsinhGrid, RadialGrid, _symmetrized, _SymmetrizedBand, arcsinh_grid
from .modefields import ModeField, Rank
from .operators import mode_operators

__all__ = [
    "HomogeneousSolutions",
    "GreenSolveReport",
    "BarrierProfile",
    "BarrierCertificate",
    "solve_zero_mode",
    "solve_zero_mode_fd",
    "solve_nonzero_mode",
    "certify_barrier",
    "cylinder_dirichlet_inverse",
]


@dataclass(frozen=True)
class HomogeneousSolutions:
    """u_ell, v_ell and their tau-derivatives; u is even, v odd.

    Second derivatives come from the ODE itself (w'' = (-2 tau w' +
    (1 + tau^2/F) w)/F), which is exact and avoids long closed forms.
    """

    ell: float

    def __post_init__(self):
        if self.ell <= 0:
            raise ValueError("homogeneous solutions need ell > 0")

    def u(self, tau):
        T = np.asarray(tau, float) / self.ell
        return np.sqrt(T * T + 1.0)

    def v(self, tau):
        T = np.asarray(tau, float) / self.ell
        return (T + np.arctan(T) + T * T * np.arctan(T)) / np.sqrt(T * T + 1.0)

    def du(self, tau):
        T = np.asarray(tau, float) / self.ell
        return (T / np.sqrt(T * T + 1.0)) / self.ell

    def dv(self, tau):
        T = np.asarray(tau, float) / self.ell
        q = np.sqrt(T * T + 1.0)
        return ((T * np.arctan(T) + 1.0) / q + 1.0 / q**3) / self.ell

    def d2u(self, tau):
        return self._d2(tau, self.u, self.du)

    def d2v(self, tau):
        return self._d2(tau, self.v, self.dv)

    def _d2(self, tau, w, dw):
        tau = np.asarray(tau, float)
        F = tau * tau + self.ell**2
        return (-2.0 * tau * dw(tau) + (1.0 + tau * tau / F) * w(tau)) / F

    def wronskian_check(self, tau) -> float:
        """max |F (u v' - u' v) - 2 ell|; zero analytically."""
        tau = np.asarray(tau, float)
        F = tau * tau + self.ell**2
        W = self.u(tau) * self.dv(tau) - self.du(tau) * self.v(tau)
        return float(np.max(np.abs(F * W - 2.0 * self.ell)))


@dataclass(frozen=True)
class GreenSolveReport:
    """Explicit zero-mode solve: coefficients, moments, and samples."""

    ell: float
    A: float
    B: float
    I1: float
    I2: float
    D: float
    tau: np.ndarray
    solution: np.ndarray
    residual: float
    bc_error: float

    def __post_init__(self):
        self.tau.setflags(write=False)
        self.solution.setflags(write=False)


def _enforce_support_gap(tau: np.ndarray, h: np.ndarray, c: float, what: str):
    """Refuse ``h`` unless it vanishes where |tau| <= c; ``tau`` ascends."""
    inner = h[tau.searchsorted(-c):tau.searchsorted(c, side="right")]
    if np.count_nonzero(inner):
        bad = np.max(np.abs(inner))
        raise ValueError(
            f"{what} must vanish on |tau| <= {c} (max inner value {bad:.3e})"
        )


def solve_zero_mode(
    ell: float,
    h,
    eta_plus: float = 0.0,
    eta_minus: float = 0.0,
    *,
    c: float = 0.5,
    n: int = 4097,
) -> GreenSolveReport:
    """Explicit inverse of the unscaled zero-mode operator on the collar [-b, b],
    b = :data:`~wpneck.cylinder.TAU_BOUND`.

    ``h`` is a callable or samples on the solver grid.  The full one-form
    gauge Laplacian is half the channel operator, so to invert it on a
    channel right-hand side r call with h = 2 r.

    Moment integrals use composite Simpson in the arcsinh variable.  The
    standing support hypothesis |tau| <= c => h = 0 is checked.
    """
    if ell <= 0:
        raise ValueError("explicit zero-mode inverse needs ell > 0")
    agrid = arcsinh_grid(ell, TAU_BOUND, n)
    tau = agrid.tau
    hv = np.asarray(h(tau), float) if callable(h) else np.asarray(h, float)
    if hv.shape != tau.shape:
        raise ValueError("rhs samples do not match the solver grid")
    _enforce_support_gap(tau, hv, c, "zero-mode rhs")

    hom = HomogeneousSolutions(ell)
    u, v = hom.u(tau), hom.v(tau)

    # cumulative Simpson of (v h, u h) d tau in the t variable
    jac = agrid.jacobian
    Iv = _cumulative_simpson(v * hv * jac, agrid.t_grid) / (2.0 * ell)
    Iu = _cumulative_simpson(u * hv * jac, agrid.t_grid) / (2.0 * ell)
    I1, I2 = float(Iv[-1]), float(Iu[-1])

    ub, umb, vb, vmb = u[-1], u[0], v[-1], v[0]
    D = ub * vmb - umb * vb
    if abs(D) < 1e-300:
        raise ArithmeticError("boundary determinant vanished; internal invariant broken")
    rhs_top = eta_plus - ub * I1 + vb * I2
    A = (vmb * rhs_top - vb * eta_minus) / D
    B = (-umb * rhs_top + ub * eta_minus) / D

    w = A * u + B * v + u * Iv - v * Iu

    # residual through analytic derivatives: P w - h = quadrature error only
    du, dv = hom.du(tau), hom.dv(tau)
    d2u, d2v = hom.d2u(tau), hom.d2v(tau)
    F = tau * tau + ell**2
    dw = A * du + B * dv + du * Iv - dv * Iu
    d2w = A * d2u + B * d2v + d2u * Iv - d2v * Iu - hv / F
    res = -F * d2w - 2.0 * tau * dw + (1.0 + tau * tau / F) * w - hv
    scale = max(np.max(np.abs(hv)), abs(eta_plus), abs(eta_minus), 1e-300)
    bc_err = max(abs(w[0] - eta_minus), abs(w[-1] - eta_plus))

    return GreenSolveReport(
        ell=ell, A=float(A), B=float(B), I1=I1, I2=I2, D=float(D),
        tau=tau.copy(), solution=w,
        residual=float(np.max(np.abs(res)) / scale),
        bc_error=float(bc_err / max(scale, 1.0)),
    )


def _cumulative_simpson(f: np.ndarray, tgrid: RadialGrid) -> np.ndarray:
    """Cumulative integral on a uniform grid; Simpson on even prefixes,
    trapezoid correction on odd ones."""
    h = tgrid.nodes[1] - tgrid.nodes[0]
    n = f.size
    out = np.zeros(n)
    # pairwise Simpson increments
    inc = h / 3.0 * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    out[2::2] = np.cumsum(inc)
    out[1::2] = out[0:-1:2] + 0.5 * h * (f[0:-1:2] + f[1::2])
    return out


def solve_zero_mode_fd(ell, h, eta_plus=0.0, eta_minus=0.0, *,
                       n: int = 4097) -> tuple[np.ndarray, np.ndarray]:
    """Independent finite-difference oracle for the zero-mode Dirichlet solve.

    Second-order FD in t = arcsinh(tau/ell); returns (tau nodes, solution).
    """
    return _channel_bvp_t(arcsinh_grid(ell, TAU_BOUND, n), 0, +1, h,
                          eta_plus, eta_minus)


def _channel_bvp_t(agrid: ArcsinhGrid, k, sign, h, eta_plus, eta_minus):
    """(tau, w) of the Dirichlet solve on the grid; only the potential, the
    diagonal, the rhs and the factor are built per call (the rest, the
    symmetric form of the off-diagonals too: ``agrid.channel_band``)."""
    t, tau = agrid.t, agrid.tau
    hv = np.asarray(h(tau), float) if callable(h) else np.asarray(h, float)
    ht = t[1] - t[0]
    cosh2, lower, upper, off, scale = agrid.channel_band
    V = 1.0 + (tau[1:-1] + sign * k) ** 2 / cosh2
    diag = 2.0 / ht**2 + V

    rhs = hv[1:-1].copy()
    rhs[0] -= lower[0] * eta_minus
    rhs[-1] -= upper[-1] * eta_plus
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs samples and boundary values must be finite")

    w = np.empty(tau.size)
    w[0], w[-1] = eta_minus, eta_plus
    w[1:-1] = _SymmetrizedBand(diag, off.copy(), scale).solve(rhs)
    return tau.copy(), w


def solve_nonzero_mode(
    ell: float,
    k: int,
    h,
    eta_plus: float = 0.0,
    eta_minus: float = 0.0,
    *,
    sign: int = +1,
    c: float = 0.5,
    n: int = 4097,
) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet solve of the unscaled channel operator P_k^sign w = h, k != 0.

    Returns (tau nodes, solution).  The discretization is an M-matrix, so
    the discrete solution obeys the maximum-principle bound
    |w| <= max(||h||_inf, |eta+-|).  A band that is not an M-matrix (n = 5
    or 7 at ell = 1e-3) is refused with a ``numpy.linalg.LinAlgError``, and
    so is an rhs that breaks the standing support hypothesis |tau| <= c =>
    h = 0, with a ValueError.
    """
    if k == 0:
        raise ValueError("use solve_zero_mode for k = 0")
    if ell <= 0:
        raise ValueError("nonzero-mode solve needs ell > 0")
    agrid = arcsinh_grid(ell, TAU_BOUND, n)
    tau = agrid.tau
    hv = np.asarray(h(tau), float) if callable(h) else np.asarray(h, float)
    _enforce_support_gap(tau, hv, c, "nonzero-mode rhs")
    return _channel_bvp_t(agrid, abs(k), sign, hv, eta_plus, eta_minus)


@dataclass(frozen=True)
class BarrierProfile:
    """zeta_k(tau) = C exp(alpha |k| (1/c - 1/|tau|)); decays toward tau=0."""

    alpha: float
    c: float
    C: float
    k: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("barrier exponent alpha must lie in (0, 1)")
        if self.k == 0:
            raise ValueError("the barrier bound concerns k != 0 only")

    def __call__(self, tau):
        tau = np.asarray(tau, float)
        # 1/|tau| = inf at tau = 0, where the exponent is -inf and zeta is 0
        with np.errstate(divide="ignore"):
            expo = self.alpha * abs(self.k) * (1.0 / self.c - 1.0 / np.abs(tau))
        return self.C * np.exp(np.minimum(expo, 700.0))


@dataclass(frozen=True)
class BarrierCertificate:
    """Outcome of the numerical barrier positivity check.

    ``inner_radius[ell]`` is the smallest grid radius r such that
    P_k^+- zeta_k >= 0 held at every sampled |tau| >= r for all requested k;
    ``full_pass`` records whether positivity held on the whole punctured
    interval (it cannot for ell > 0: the k^2 coefficient 1/F - alpha^2 F/tau^4
    turns negative once |tau| < ~ ell sqrt(alpha/(1-alpha))).
    """

    alpha: float
    c: float
    ells: tuple[float, ...]
    ks: tuple[int, ...]
    min_margin_certified: float
    inner_radius: dict[float, float] = field(repr=False)
    full_pass: bool = False
    min_margin_full: float = 0.0


_BARRIER_NODES = 2001  # radii the barrier check samples in (0, b]


def certify_barrier(ells, ks, alpha: float, c: float = 0.5) -> BarrierCertificate:
    """Evaluate P_k^+- zeta_k / zeta_k on fine grids and report positivity.

    Failure (negative margin near tau = 0, or everywhere for alpha too
    large) is a legitimate outcome prompting a smaller alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    ells = tuple(float(e) for e in ells)
    ks = tuple(int(k) for k in ks)
    if any(k == 0 for k in ks):
        raise ValueError("the barrier bound concerns k != 0 only")
    n = _BARRIER_NODES
    # symmetric grid avoiding tau = 0 exactly; one row per ell
    tau = np.linspace(TAU_BOUND / n, TAU_BOUND, n)
    F = tau**2 + np.array([ell**2 for ell in ells])[:, None]
    tau2_F = tau**2 / F
    worst = np.full(F.shape, np.inf)
    for k in ks:
        ak = alpha * abs(k)
        # zeta'/zeta = ak/tau^2, zeta''/zeta = ak^2.../ on tau>0
        zp = ak / tau**2
        zpp = (ak / tau**2) ** 2 - 2.0 * ak / tau**3
        base = -F * zpp - 2.0 * tau * zp + 1.0 + tau2_F
        for sign in (+1, -1):
            # +-k cross terms: (tau + s k)^2 = tau^2 + 2 s k tau + k^2
            np.minimum(worst, base + (2.0 * sign * k * tau + k * k) / F, out=worst)
            # tau < 0 mirror: P^s on tau<0 equals P^{-s} on tau>0 for even zeta
    inner_radius: dict[float, float] = {}
    min_marg_cert = np.inf
    min_marg_full = np.inf
    for ell, row in zip(ells, worst):
        ok = row >= 0.0
        if ok.all():
            inner_radius[ell] = float(tau[0])
        else:
            last_bad = np.max(np.nonzero(~ok)[0])
            if last_bad == n - 1:
                inner_radius[ell] = np.inf
            else:
                inner_radius[ell] = float(tau[last_bad + 1])
        region = tau >= inner_radius[ell]
        if region.any():
            min_marg_cert = min(min_marg_cert, float(np.min(row[region])))
        min_marg_full = min(min_marg_full, float(np.min(row)))
    full = min_marg_full >= 0.0
    return BarrierCertificate(
        alpha=alpha, c=c, ells=ells, ks=ks,
        min_margin_certified=float(min_marg_cert),
        inner_radius=inner_radius,
        full_pass=full,
        min_margin_full=float(min_marg_full),
    )


def cylinder_dirichlet_inverse(
    m: CylinderMetric,
    grid: RadialGrid,
    f: ModeField,
    *,
    c: float = 0.5,
) -> ModeField:
    """Dirichlet inverse of the one-form gauge Laplacian on an interval grid.

    Solves (1/2) P_k^+- per rho channel on the interior rows with zero
    boundary values, one tridiagonal band solve per channel, so the
    returned mode inverts ``apply_gauge_laplacian`` up to solver accuracy
    on the given finite-difference grid.  The rhs must meet the standing
    support hypothesis of the expansion statements, |tau| <= c => f = 0.
    """
    if grid.scheme == "chebyshev":
        raise ValueError("cylinder inverse needs a finite-difference grid")
    if f.rank is not Rank.ONE_FORM:
        raise ValueError("cylinder inverse expects one-form modes")
    if f.grid is not grid:
        raise ValueError("rhs mode lives on a different grid")
    if not np.all(np.isfinite(f.data)):
        raise ValueError(f"mode {f.key} rhs must be finite")
    _enforce_support_gap(grid.nodes, np.max(np.abs(f.data), axis=0), c,
                         f"mode {f.key} rhs")
    opk = mode_operators(m, grid, f.k)
    sols = []
    for sign, b in zip((+1, -1), f.rho()):
        mat = opk.channel_matrix(sign, 0.5)
        inner = _symmetrized(mat.diagonal()[1:-1], mat.diagonal(-1)[1:-1],
                             mat.diagonal(1)[1:-1], [grid.n - 2]).solve(b[1:-1])
        sols.append(np.pad(inner, 1))  # zero boundary values
    return ModeField.one_form_rho(f.k, grid, sols[0], sols[1], f.variant)
