"""Weil-Petersson pairings of metric variations and the expansion fitter.

The two Fenchel-Nielsen directions at the neck are realized as explicit
k = 0 variation fields of the model family:

* length: d/d ell of the profile metric, with frame components
  (phi, psi, f) = (-dF/dell / F, 0, 0); trace-free by the unit-determinant
  gauge, supported where the profile depends on ell (|tau| < 7/8), and
  divergence-free wherever the profile is exactly tau^2 + ell^2.
* twist: d/d omega of the pullback family theta -> theta + omega s(tau)
  with a smooth step s (0 below tau = -3/4, 1 above 3/4), giving
  (0, F s'(tau), 0).

Pairings are <T g1., T g2.> integrated against exp(-2 phi) dA with T the
TT projection and phi the neck conformal factor.  On the rotational
surrogate the phi- and psi-systems decouple at k = 0, so one projection of
(phi_l, psi_w, 0) projects both variations, and the cross coefficient g_lw
is zero.
Both variations are even under tau -> -tau, so a row lives on the nodes
0 ... n/2 of the periodic grid (its mirror half).  They vanish on the
ell-independent cap of the projection's odd sector
(:class:`~wpneck.surface.OddCap`, condensed once per grid), so a row is
computed on the neck window p ... n/2 alone: the variations, the
projection and the weight there, the pairings with the half's weights plus
the cap's share, a 2 x 2 Gram matrix in the interface values of the
projection's potential, the same for every row (the conformal weight is 1
on the cap).

Normalization.  The pairing integrates |h|^2 = 2 (phi^2 + psi^2) over
dA = dtau dtheta, in the frame s1 = dtau / sqrt(F), s2 = sqrt(F) dtheta of
:mod:`wpneck.modefields`.  With dx = dtau / F the metric is F |dz|^2 in
z = x + i theta, and s1 = sqrt(F) dx, s2 = sqrt(F) dtheta.  A Beltrami
differential mu = a + i b moves it by

    g. = F (conj(mu) dz^2 + mu conj(dz)^2) = 2 Re(conj(mu) F dz^2)
       = 2a (s1^2 - s2^2) + 2b (s1 s2 + s2 s1),

so phi = 2a, psi = 2b and |g.|^2 = 8 |mu|^2: the pairings here are 8 times
int |mu|^2 dA, the WP metric in the normalization taken for Wolpert's
expansion below.  On the collar, F = tau^2 + ell^2, the length variation
phi = -2 ell / F is TT, and g_ll = 2 pi int 2 phi^2 dtau
-> 16 pi ell^2 * pi / (2 ell^3) = 8 pi^2 / ell.  Wolpert's
<grad L, grad L> = 2 L / pi + O(L^4) (J. Differential Geom. 79, 2008), for
the core length L = 2 pi ell, gives to leading order g_LL = pi / (2 L),
which is pi^2 / ell in ell: the factor 8.  The ratio
g_ww / (g_ll ell^4) -> 1 / pi^2 does not depend on it.

The fitter performs least squares in the half-integer/log design
{ell^{k/2} (log ell)^j}; columns are sup-normalized before solving and the
condition number of the normalized design is reported.  Nested residuals
(terms added in the canonical order k, then j) are monotone by
construction; a residual plateau flags a family outside the grading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import RadialGrid, periodic_grid
from .modefields import ModeField, Rank, mode_inner_product
from .parametrix import SolverBank, project_tt
from .surface import ModelSurfaceMetric, fold_tau, smoothstep_d1
from .uniformize import ConformalFactor, solve_conformal_factor

__all__ = [
    "length_variation",
    "twist_variation",
    "wp_inner_product",
    "wp_matrix",
    "sweep_wp_coefficients",
    "ExpansionFit",
    "fit_polyhomogeneous",
    "loglog_slope",
]


def _variations(surface: ModelSurfaceMetric, grid: RadialGrid, length: bool,
                twist: bool) -> ModeField:
    """(phi_l, psi_w, 0) at k = 0, phi_l = -dF/dell / F and psi_w = F s'(tau),
    each 0 unless asked; s' at the grid's nodes is built once per grid and
    kept with it (:meth:`~wpneck.grids.RadialGrid.keep`)."""
    F = surface.grid_jet(grid)[0]
    s1 = grid.keep("twist step d1", lambda g: twist_step_d1(fold_tau(g.nodes)))
    data = np.zeros((3, grid.n))
    data[0] = -surface.grid_dF_dell(grid) / F if length else 0.0
    data[1] = F * s1 if twist else 0.0
    return ModeField(0, Rank.SYM2_FULL, grid, data)


def length_variation(surface: ModelSurfaceMetric, grid: RadialGrid) -> ModeField:
    """d g / d ell as a k = 0 full tensor mode (trace-free in this gauge)."""
    return _variations(surface, grid, length=True, twist=False)


def twist_step_d1(tau):
    """s'(tau) of the smooth twist step s: 0 for tau <= -3/4, 1 for tau >= 3/4."""
    return smoothstep_d1((np.asarray(tau, float) + 0.75) / 1.5) / 1.5


def twist_variation(surface: ModelSurfaceMetric, grid: RadialGrid) -> ModeField:
    """d g / d omega of theta -> theta + omega s(tau): F s'(tau) dtau dtheta (sym)."""
    return _variations(surface, grid, length=False, twist=True)


def wp_inner_product(
    surface: ModelSurfaceMetric,
    grid: RadialGrid,
    g1: ModeField,
    g2: ModeField,
    conformal: ConformalFactor | None = None,
    solvers: SolverBank | None = None,
) -> float:
    """<T g1, T g2> with weight exp(-2 phi) dA (phi = 0 when no factor given)."""
    bank = solvers if solvers is not None else SolverBank(surface, grid)
    t1 = project_tt(surface, grid, g1, solvers=bank)
    t2 = t1 if g2 is g1 else project_tt(surface, grid, g2, solvers=bank)
    weight = None if conformal is None else conformal.weight(grid)
    return mode_inner_product(t1, t2, weight)


def wp_matrix(surface: ModelSurfaceMetric, grid: RadialGrid,
              conformal: ConformalFactor | None = None,
              solvers: SolverBank | None = None) -> dict[str, float]:
    """Length/twist WP coefficients (g_ll, g_lw, g_ww) at one ell.

    The phi and psi systems never meet at k = 0, so one projection of
    (phi_l, psi_w, 0) gives the rows of both variations' projections, bit
    for bit, and the two projections pair to zero: g_lw = 0.  g_ll and g_ww
    are the weighted squares of the two rows plus the cap's share.
    """
    bank = solvers if solvers is not None else SolverBank(surface, grid)
    # both variations are even in tau and vanish on the odd sector's cap:
    # they, their projections and the pairings live on the neck window, and
    # the cap's share of a pairing is a^T G a in the potential's interface
    # values a, where the conformal weight is 1
    cap = bank.get(0).cap
    window = cap.window
    t, w = project_tt(surface, grid,
                      _variations(surface, window, length=True, twist=True),
                      solvers=bank, potential=True)
    weights = window.weights
    if conformal is not None:
        weights = weights * conformal.weight(window)
    # |h|^2 = 2 (phi^2 + psi^2) and the k = 0 theta factor 2 pi, as
    # mode_inner_product takes them
    c = 4.0 * np.pi
    g_ll, g_ww = (c * float(np.sum(weights * t.data[i] ** 2))
                  + c * float(np.sum(w[i, 1:3] * (w[i, 1:3] @ cap.gram))) for i in (0, 1))
    return {"g_ll": g_ll, "g_lw": 0.0, "g_ww": g_ww}


def sweep_wp_coefficients(
    ells,
    *,
    grid_n: int = 16384,
    use_conformal: bool = True,
    jobs: int = 1,
) -> list[dict[str, float]]:
    """WP coefficients over an ell grid; rows sorted by ell ascending.

    The conformal weight is solved per ell where the neck curvature is
    strictly negative, else phi = 0 is used (recorded in the row).
    """
    ells = sorted(float(e) for e in ells)
    grid = periodic_grid(-2.0, 2.0, grid_n)

    def one(ell: float) -> dict[str, float]:
        surface = ModelSurfaceMetric(ell=ell)
        cf = None
        if use_conformal:
            try:
                cf = solve_conformal_factor(surface)
            except ValueError:
                cf = None
        row = {"ell": ell}
        row.update(wp_matrix(surface, grid, conformal=cf))
        row["conformal_bound"] = float("nan") if cf is None else cf.bound
        row["conformal_max"] = (float("nan") if cf is None
                                else float(np.max(np.abs(cf.u))))
        return row

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(one, ells))
    else:
        rows = [one(e) for e in ells]
    return sorted(rows, key=lambda r: r["ell"])


def loglog_slope(ells, values, trim: int = 2) -> float:
    """Least-squares slope of log(value) vs log(ell), dropping ``trim``
    points at each end to suppress boundary-of-sweep contamination."""
    x = np.log(np.asarray(ells, float))
    y = np.log(np.asarray(values, float))
    if trim > 0:
        if x.size <= 2 * trim + 1:
            raise ValueError("not enough sweep points for the trimmed slope")
        x, y = x[trim:-trim], y[trim:-trim]
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


# -- polyhomogeneous expansion fitting ----------------------------------------

@dataclass(frozen=True)
class ExpansionFit:
    """Least-squares fit against sum a_{k,j} ell^{k/2} (log ell)^j."""

    terms: tuple[tuple[int, int, float], ...]
    residual: float
    condition_number: float
    residual_path: tuple[float, ...]
    sample_count: int

    def coefficient(self, half_power: int, log_power: int) -> float:
        for k, j, a in self.terms:
            if (k, j) == (half_power, log_power):
                return a
        raise KeyError((half_power, log_power))


class FitConditionError(RuntimeError):
    """Design matrix too ill-conditioned for a trustworthy fit."""

    def __init__(self, cond: float, limit: float, detail: str):
        super().__init__(
            f"design matrix condition number {cond:.3e} exceeds {limit:.1e} "
            f"({detail})"
        )
        self.condition_number = cond


_COND_LIMIT = 1e12  # of the normalized design, in fit_polyhomogeneous


def fit_polyhomogeneous(
    ells,
    values,
    max_half_power: int,
    max_log_power: int,
) -> ExpansionFit:
    """Fit samples (ell_i, f_i) against the half-integer/log grading.

    Requires at least 3 (K+1)(J+1) samples log-spaced over >= 2 decades.
    Columns are sup-normalized before solving; the condition number of the
    normalized design is reported and enforced.  ``residual_path[m]`` is
    the root-mean-square residual of the nested fit using the first m+1
    terms in the canonical order (half powers ascending, then log powers);
    nested least squares makes the path weakly decreasing.
    """
    ell = np.asarray(ells, float)
    val = np.asarray(values, float)
    if ell.ndim != 1 or ell.shape != val.shape:
        raise ValueError("need matching 1-D sample arrays")
    if np.any(ell <= 0):
        raise ValueError("lengths must be positive")
    if not (np.all(np.isfinite(ell)) and np.all(np.isfinite(val))):
        raise ValueError("samples must be finite")
    K, J = int(max_half_power), int(max_log_power)
    if K < 0 or J < 0:
        raise ValueError(f"max_half_power and max_log_power must be non-negative "
                         f"(got {K} and {J})")
    n_terms = (K + 1) * (J + 1)
    if ell.size < 3 * n_terms:
        raise ValueError(
            f"need at least {3 * n_terms} samples for {n_terms} terms, "
            f"got {ell.size}"
        )
    if np.log10(ell.max() / ell.min()) < 2.0 - 1e-9:
        raise ValueError("samples must span at least two decades of ell")

    pairs = [(k, j) for k in range(K + 1) for j in range(J + 1)]
    cols = [ell ** (k / 2.0) * np.log(ell) ** j for k, j in pairs]
    A = np.stack(cols, axis=1)
    scale = np.max(np.abs(A), axis=0)
    scale[scale == 0.0] = 1.0
    An = A / scale
    cond = float(np.linalg.cond(An))
    if cond > _COND_LIMIT:
        raise FitConditionError(
            cond, _COND_LIMIT,
            f"K={K}, J={J}, {ell.size} samples over "
            f"{np.log10(ell.max() / ell.min()):.2f} decades",
        )

    coef_n, *_ = np.linalg.lstsq(An, val, rcond=None)
    coef = coef_n / scale
    resid = val - An @ coef_n
    rms = float(np.sqrt(np.mean(resid**2)))

    path = []
    for m in range(1, len(pairs) + 1):
        cm, *_ = np.linalg.lstsq(An[:, :m], val, rcond=None)
        rm = val - An[:, :m] @ cm
        path.append(float(np.sqrt(np.mean(rm**2))))

    return ExpansionFit(
        terms=tuple((k, j, float(a)) for (k, j), a in zip(pairs, coef)),
        residual=rms,
        condition_number=cond,
        residual_path=tuple(path),
        sample_count=int(ell.size),
    )
