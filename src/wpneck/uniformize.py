"""Conformal factor making the neck region exactly hyperbolic.

On the closed rotational surrogate the curvature cannot be negative
everywhere (Gauss-Bonnet on the torus forces total curvature zero), so the
hyperbolic-prescription problem is posed on the neck region |tau| <= 7/8,
where K < 0 holds for all small enough ell, with zero Dirichlet data at
the matching circles (exactly hyperbolic for |tau| <= 3/4, so u = 0 there
is consistent at leading order).

With the sign conventions here (Delta_neg = negative-semidefinite scalar
Laplacian, (F u')' for rotational u), the factor u with K_{e^{2u} g} = -1
solves

    Delta_neg u - K_g - e^{2u} = 0,

by the 2-D conformal change K_{e^{2u}g} = e^{-2u}(K_g - Delta_neg u).
Constants +-c with c = max |log|K_g|| / 2 are super/subsolutions, so
-c <= u <= c; the Newton iteration (Jacobian J = Delta_neg - 2 e^{2u},
negative definite) converges quadratically from u = 0 and the bound is
checked on the result.  Each step solves with -J, an M-matrix, without
pivoting (:class:`~wpneck.grids._SymmetrizedBand`).  The model surface's
profile, and so u, is even in tau: its Newton runs on the mirror half of
the neck grid (2049 of 4097 nodes), with a mirror row at tau = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import RadialGrid, _symmetric_form, _SymmetrizedBand, uniform_grid
from .surface import ModelSurfaceMetric, _abs_max, fold_tau

__all__ = ["ConformalFactor", "solve_conformal_factor", "curvature_after"]


@dataclass(frozen=True)
class ConformalFactor:
    """Rotational conformal factor on the neck with solve diagnostics."""

    ell: float
    grid: RadialGrid
    u: np.ndarray
    residual: float
    bound: float
    bound_satisfied: bool
    curvature_range: tuple[float, float]
    newton_iterations: int

    def __post_init__(self):
        self.u.setflags(write=False)

    def weight(self, grid: RadialGrid) -> np.ndarray:
        """exp(-2 u) at the nodes of ``grid``, extended by 1 outside the solve domain.

        The folded nodes and the mask of those inside the domain depend on
        ``grid`` alone and are kept with it
        (:meth:`~wpneck.grids.RadialGrid.keep`), so a sweep folds the nodes
        of its window once.
        """
        b = self.grid.b
        inside, t = grid.keep(f"nodes inside |tau| <= {b!r}", lambda g: _inside(g.nodes, b))
        out = np.ones(grid.n)
        out[inside] = np.exp(-2.0 * np.interp(t[inside], self.grid.nodes, self.u))
        return out


def _inside(tau: np.ndarray, b: float):
    """(mask, t): t = fold_tau(tau) and the mask of the nodes with |t| <= b."""
    t = fold_tau(tau)
    return np.abs(t) <= b, t


# The sup-norm residual that ends the Newton iteration.  It sits just above
# the residual of the third step for ell in [0.072, 0.0736], the top of the
# negatively curved range: on the mirror half, at ell = 0.072 and 0.0735
# that step stops at 7.8e-12 and 9.0e-12 (the largest over 288 ells in
# [0.068, 0.0736] is 9.0e-12), with u about 1.7e-12 short of the converged
# discrete solution.  A new linear solver, or the mirror half, moves that
# residual by round-off (on the whole grid it read 7.7e-12 and 8.9e-12), but
# a change to the residual's own arithmetic can add a fourth step there and
# move g_ll by up to 1.8e-12 relative, above the 1e-12 drift that a
# refactor may cause; elsewhere it moves by round-off.
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 50


@lru_cache(maxsize=4)
def _neck_grid(domain: float, n: int) -> RadialGrid:
    """The grid of the solve on |tau| <= domain, built once per (domain, n).

    At most four are kept; a model surface's profile pieces at its nodes
    are kept with it (:meth:`~wpneck.surface.ModelSurfaceMetric.grid_pieces`).
    """
    return uniform_grid(-domain, domain, n)


def _neck_profile(surface, grid: RadialGrid):
    """(F, F', K) at the nodes of ``grid``.

    A :class:`~wpneck.surface.ModelSurfaceMetric` combines the grid's shared
    profile pieces; any other surface is asked for ``F``, ``Fp`` and
    ``curvature`` at the nodes.
    """
    if isinstance(surface, ModelSurfaceMetric):
        F, Fp, Fpp = surface.grid_jet(grid)
        return F, Fp, -0.5 * Fpp
    tau = grid.nodes
    return (np.asarray(surface.F(tau), float), np.asarray(surface.Fp(tau), float),
            np.asarray(surface.curvature(tau), float))


def _mirror_half(grid: RadialGrid) -> RadialGrid:
    """The nodes n // 2 ... n - 1 of the neck grid, tau >= 0, kept with it."""
    return grid.keep("mirror half", lambda g: g.span(g.n // 2, g.n))


def solve_conformal_factor(
    surface: ModelSurfaceMetric,
    *,
    domain: float = 0.875,
    n: int = 4097,
) -> ConformalFactor:
    """Damped Newton solve of the curvature prescription on the neck.

    Refuses when K_g >= 0 somewhere on the domain (the maximum-principle
    setup needs strictly negative curvature, which for this profile family
    means ell below roughly sqrt(2 / max|w''|) ~ 0.073).

    ``surface`` needs ``F``, ``Fp``, ``curvature`` and ``ell``.  The grid
    is shared by every solve with the same (domain, n), and a model
    surface reads its profile there from the grid's shared pieces, so a
    sweep builds neither per row.  An even ``n`` gets n + 1 nodes, as
    :func:`~wpneck.grids.uniform_grid` gives it.

    A model surface's profile is even in tau, and so is u: its Newton runs
    on the grid's mirror half, the nodes n // 2 ... n - 1, whose first row,
    at tau = 0, reads u_{-1} = u_1.  Any other surface runs on the whole
    grid, through the same loop with a Dirichlet row at each end.  The
    factor keeps u on the whole grid, the half's mirrored.
    """
    grid = _neck_grid(domain, n)
    mirror = isinstance(surface, ModelSurfaceMetric)
    on = _mirror_half(grid) if mirror else grid
    F, Fp, Kg = _neck_profile(surface, on)
    if np.any(Kg >= 0.0):
        raise ValueError(
            f"curvature is not negative on |tau| <= {domain} at ell = "
            f"{surface.ell}; the prescription problem is outside its hypotheses"
        )
    h = grid.nodes[1] - grid.nodes[0]
    # the unknowns: all but the Dirichlet nodes, and the mirror row on a half
    rows = slice(0 if mirror else 1, -1)

    # interior tridiagonal of Delta_neg = F d^2 + F' d; the off-diagonals of
    # -J = -Delta_neg + 2 e^{2u}, and their symmetric form, fit every step
    a, b = F[rows] / h**2, Fp[rows] / (2.0 * h)
    lower, upper, diag_lap = a - b, a + b, -2.0 * a
    if mirror:
        upper[0] += lower[0]
    try:
        off, scale = _symmetric_form(-lower[1:], -upper[:-1], [lower.size])
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"Newton Jacobian: {exc}") from None
    # the RMS of the line search over the whole grid's interior, where each
    # node of the half but the mirror row stands for two
    share = np.full(lower.size, 2.0 if mirror else 1.0)
    share[0] = 1.0
    share /= share.sum()

    # u, exp(2u) and the residual at u; an accepted trial carries its own
    u, e2u = np.zeros(on.n), np.ones(on.n)
    resid = _apply_neg_lap(F, Fp, u, h) - Kg - e2u
    iterations = 0
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        if _abs_max(resid[rows]) <= _NEWTON_TOL:
            break
        rnorm = float(np.sqrt(share @ resid[rows] ** 2))
        try:
            band = _SymmetrizedBand(2.0 * e2u[rows] - diag_lap, off.copy(), scale)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"Newton Jacobian: {exc}") from None
        step = band.solve(resid[rows])
        # damped step accepted on an Armijo-style RMS decrease (the sup norm
        # is too brittle for the boundary layers of shifted problems)
        lam = 1.0
        for _ in range(30):
            trial = u.copy()
            trial[rows] += lam * step
            etrial = np.exp(2.0 * trial)
            rtrial = _apply_neg_lap(F, Fp, trial, h) - Kg - etrial
            if np.sqrt(share @ rtrial[rows] ** 2) <= rnorm * (1.0 - 0.25 * lam):
                u, e2u, resid = trial, etrial, rtrial
                break
            lam *= 0.5
        else:
            # no improvement possible: accept iff already at the rounding
            # floor of the discrete residual, else it is a real failure
            if _abs_max(resid[rows]) <= 1e4 * _NEWTON_TOL:
                break
            raise ArithmeticError("Newton line search stalled")
    else:
        raise ArithmeticError("conformal factor Newton did not converge")

    c = 0.5 * float(np.max(np.abs(np.log(np.abs(Kg)))))
    return ConformalFactor(
        ell=surface.ell,
        grid=grid,
        u=np.concatenate((u[:0:-1], u)) if mirror else u,
        residual=float(_abs_max(resid[rows])),
        bound=c,
        bound_satisfied=bool(_abs_max(u) <= c + 1e-12),
        curvature_range=(float(np.min(Kg)), float(np.max(Kg))),
        newton_iterations=iterations,
    )


def _apply_neg_lap(F, Fp, u, h):
    """Delta_neg u at the nodes 1 ... n - 2, and at node 0 as a mirror row
    (u_{-1} = u_1); 0 at node n - 1."""
    out = np.empty_like(u)
    out[1:-1] = (F[1:-1] * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
                 + Fp[1:-1] * (u[2:] - u[:-2]) / (2.0 * h))
    out[0] = (F[0] * (u[1] - 2.0 * u[0] + u[1]) / h**2
              + Fp[0] * (u[1] - u[1]) / (2.0 * h))
    out[-1] = 0.0
    return out


def curvature_after(surface: ModelSurfaceMetric, cf: ConformalFactor) -> np.ndarray:
    """Recompute K of e^{2u} g by the conformal-change identity with an
    independent (fourth-order) difference of u; deviation from -1 is the
    discretization-level verification of the solve."""
    tau = cf.grid.nodes
    F, Fp, Kg = _neck_profile(surface, cf.grid)
    h = tau[1] - tau[0]
    u = cf.u
    lap = np.zeros_like(u)
    # 5-point fourth-order interior stencils
    lap[2:-2] = (F[2:-2] * (-u[4:] + 16 * u[3:-1] - 30 * u[2:-2]
                            + 16 * u[1:-3] - u[:-4]) / (12 * h**2)
                 + Fp[2:-2] * (-u[4:] + 8 * u[3:-1] - 8 * u[1:-3] + u[:-4])
                 / (12 * h))
    K_after = np.exp(-2.0 * u) * (Kg - lap)
    return K_after[2:-2]
