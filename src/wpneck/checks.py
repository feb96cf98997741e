"""Measurements shared by the ``wpneck verify`` suites, the acceptance criteria
and the unit tests: each function returns one check's measured numbers from
its parameters, and the caller keeps its check names, bounds and aggregation.
``import wpneck`` does not load this module.
"""

from __future__ import annotations

import numpy as np

from .green import BarrierProfile, solve_nonzero_mode
from .modefields import ModeField, Rank, mode_norm
from .operators import apply_div_star, apply_divergence
from .parametrix import build_cutoff_tensors, project_tt
from .surface import GlobalModeSolver, ModelSurfaceMetric

__all__ = ["smooth_bump", "barrier_excess", "gauge_defect", "projection_defects",
           "parametrix_reports", "neumann_vs_direct"]


def smooth_bump(a: float, b: float):
    """exp(-1/(z (1 - z))), z = (x - a)/(b - a), on (a, b) and 0 outside; peak e^-4."""

    def f(x):
        x = np.asarray(x, float)
        y = np.zeros_like(x)
        inside = (x > a) & (x < b)
        z = (x[inside] - a) / (b - a)
        y[inside] = np.exp(-1.0 / np.maximum(z * (1.0 - z), 1e-300))
        return y

    return f


def barrier_excess(cert, ell: float, ks, signs, source, n: int) -> float:
    """The largest (|w| - zeta_k)/C on inner_radius[ell] <= |tau| <= c of ``cert``:
    w is the mode-k Dirichlet solution of each sign on ``n`` nodes for the
    ``source`` h, C = max |h| on its grid, zeta_k the certificate's barrier."""
    r_in = cert.inner_radius[ell]
    worst = -np.inf
    for k in ks:
        for sign in signs:
            tau, w = solve_nonzero_mode(ell, k, source, sign=sign, n=n, c=cert.c)
            C = float(np.max(np.abs(source(tau))))
            zeta = BarrierProfile(cert.alpha, cert.c, C, k)(tau)
            mask = (np.abs(tau) >= r_in) & (np.abs(tau) <= cert.c)
            worst = max(worst, float(np.max((np.abs(w) - zeta)[mask]) / C))
    return worst


def gauge_defect(bank, k: int) -> float:
    """|T div* w| / |div* w|, w = (sin(pi x/2), cos(pi x)) in mode ``k``, T the TT
    projection with the :class:`~wpneck.parametrix.SolverBank` ``bank``."""
    surf, grid = bank.surface, bank.grid
    x = grid.nodes
    w = ModeField(k, Rank.ONE_FORM, grid, np.vstack([np.sin(np.pi * x / 2), np.cos(np.pi * x)]))
    gauge = apply_div_star(surf, w)
    return mode_norm(project_tt(surf, grid, gauge, solvers=bank)) / mode_norm(gauge)


def projection_defects(bank) -> dict[str, float]:
    """The TT projection T's defects with ``bank``, by name.

    For h = (e^-x^2, 0.3 cos(pi x/2), 0.1 sin(pi x/2)) at k = 0, ``idempotency``
    is |T^2 h - T h| / |T h| and ``divergence`` |div T h| / |T h|; ``gauge`` is
    the k = 1 :func:`gauge_defect`, and ``constant`` the cutoff projection
    constant, the largest |T mu - mu| / |delta mu| over the cutoff tensors.
    """
    surf, grid = bank.surface, bank.grid
    x = grid.nodes
    h = ModeField(0, Rank.SYM2_FULL, grid,
                  np.vstack([np.exp(-x**2), 0.3 * np.cos(np.pi * x / 2),
                             0.1 * np.sin(np.pi * x / 2)]))
    T1 = project_tt(surf, grid, h, solvers=bank)
    T2 = project_tt(surf, grid, T1, solvers=bank)
    ct = build_cutoff_tensors(surf, grid, solvers=bank)
    return {"idempotency": mode_norm(T2 - T1) / mode_norm(T1),
            "divergence": mode_norm(apply_divergence(surf, T1)) / mode_norm(T1),
            "gauge": gauge_defect(bank, 1),
            "constant": max(c / ct.div_norm for c in ct.correction_norms)}


def parametrix_reports(family, seed: int) -> list:
    """``[(ell, family.report(ell, norm_seed=seed), prev)]`` for ell = 0.4, 0.2,
    0.1, 0.05; ||S|| must fall below ``prev``, the last one's (None at first)."""
    out, prev = [], None
    for ell in (0.4, 0.2, 0.1, 0.05):
        rep = family.report(ell, norm_seed=seed)
        out.append((ell, rep, prev))
        prev = rep.norm_S
    return out



def neumann_vs_direct(family, ell: float, ks, rhs: np.ndarray) -> float:
    """The largest relative gap over ``ks`` of the Neumann-series solve (to
    1e-14) of ``family``'s block at ``ell`` to the direct
    :class:`~wpneck.surface.GlobalModeSolver` solve, for the (2, n) ``rhs``
    projected off the block's kernel."""
    surf = ModelSurfaceMetric(ell=ell)
    worst = 0.0
    for k in ks:
        blk = family.block(ell, k)
        r = blk._project(rhs)
        sol_n, _ = blk.neumann_solve(r, tol=1e-14)
        gs = GlobalModeSolver(surf, family.grid, k)
        sol_d = blk._project(gs.solve_channels(gs.project_out_kernel(r)))
        worst = max(worst, float(np.linalg.norm(sol_n - sol_d) / np.linalg.norm(sol_d)))
    return worst
