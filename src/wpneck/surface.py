"""Closed rotational model surface containing the degenerating cylinder.

A torus of revolution in unit-determinant gauge: tau is periodic with
period 4 and the profile is

    F_ell(tau) = Q(tau) + ell^2 w(tau),

where w is a C^2 quintic plateau (w = 1 on |tau| <= 3/4, w = 0 on
|tau| >= 7/8) and Q is an even C^2 periodic base profile with Q = tau^2 on
|tau| <= 7/8 and a fixed quintic cap on 7/8 <= |tau| <= 2.  Hence the
metric is exactly the hyperbolic cylinder on |tau| <= 3/4, depends on ell
only through the ell^2 w term supported in |tau| < 7/8, and is entirely
ell-independent on |tau| >= 7/8.  (Matching the exact cylinder on
|tau| <= 7/8 *and* keeping the complement ell-independent is impossible:
the boundary value tau^2 + ell^2 moves with ell.  The blend band
(3/4, 7/8) reconciles the two requirements.)

Since any profile torus admits the rotation and the conformal translation,
the one-forms F d theta and d tau are global conformal Killing fields, so
the gauge Laplacian on the closed surface has a two-dimensional kernel in
the k = 0 mode (one vector sqrt(F) per rho channel).  Global solves
deflate it with a bordered system; the downstream projection is unaffected
because the symmetrized derivative annihilates both directions.  This is a
genuine departure from a genus >= 2 surface, where no (conformal) Killing
fields exist and the operator is invertible outright.

Two banded solvers invert the gauge Laplacian on the closed surface, from
the stencil coefficients with no sparse matrix.  :class:`GlobalModeSolver`
solves the direct rho-channel stencils, a tridiagonal band: the channels are
stacked in natural node order with their cyclic corners cut
(:func:`_cyclic_corners`), and a Schur :class:`_Closure` puts the corners
back.  Its band, and the Dirichlet pieces of the parametrix's
:class:`SubdomainSolver`, are the nonconservative stencil of -(F u')' + V:
each piece is S T S^-1 with S diagonal and T symmetric positive definite,
and is factored as T by LAPACK's ``dpttrf``, without pivoting
(:func:`_stacked_band`).  A band that has no such form is refused.
:class:`FactoredGlobalSolver` solves the factored operator divergence o D
that the TT projection inverts: five cyclic diagonals per channel, a band
of half-width 2.  It uses the grid reflection R: i -> n - i
(tau -> -tau), under which the even profile is symmetric.  At k >= 1, R
swaps the two channels, so only one is factored (cyclic, with the same
closure).  At k = 0, R commutes with the operator, which splits into an odd
and an even sector, each a plain band on half the nodes.  The odd sector is
invertible and is all that a Weil-Petersson row needs, since the Bianchi
images of even variations are odd.  The even sector holds both null
directions, sqrt(F) and, on an even grid, the checkerboard (-1)^i / sqrt(F)
of the central difference; a closure borders both.  The solver refuses odd
grids, where the exact null direction is a checkerboard remnant that no
border removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.linalg import lapack

from .grids import RadialGrid
from .operators import channel_potential

__all__ = [
    "smoothstep",
    "smoothstep_d1",
    "smoothstep_d2",
    "ModelSurfaceMetric",
    "CutoffPair",
    "fold_tau",
    "GlobalModeSolver",
    "SubdomainSolver",
    "band_matvec",
    "channel_diagonals",
    "transposed_diagonals",
    "kernel_complement",
    "thick_indices",
    "thin_indices",
]


def smoothstep(x):
    """Quintic step: 0 for x <= 0, 1 for x >= 1, C^2 at both ends."""
    x = np.clip(np.asarray(x, float), 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x * x)


def smoothstep_d1(x):
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    m = (x > 0.0) & (x < 1.0)
    xm = x[m]
    out[m] = 30.0 * xm**2 * (1.0 - xm) ** 2
    return out


def smoothstep_d2(x):
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    m = (x > 0.0) & (x < 1.0)
    xm = x[m]
    out[m] = 60.0 * xm * (1.0 - 3.0 * xm + 2.0 * xm**2)
    return out


def _plateau(r, lo, hi):
    """1 for r <= lo, 0 for r >= hi, quintic in between; with derivatives."""
    x = (np.asarray(r, float) - lo) / (hi - lo)
    return (1.0 - smoothstep(x), -smoothstep_d1(x) / (hi - lo),
            -smoothstep_d2(x) / (hi - lo) ** 2)


# fixed thick cap: p(x) = 49/64 + (7/4)x + x^2 + c4 x^4 + c5 x^5 on
# x = |tau| - 7/8 in [0, 9/8], with p'(9/8) = 0 and p''(9/8) = -2,
# so the far pole carries K = +1 (a torus cannot avoid positive curvature
# somewhere; Gauss-Bonnet forces the total to vanish).
_CAP_DELTA = 9.0 / 8.0
# the ell^2 plateau w: 1 on |tau| <= 3/4, 0 on |tau| >= 7/8 (the cap's join)
_THIN_PLATEAU = 0.75
_THIN_SUPPORT = 0.875


def _cap_coeffs() -> tuple[float, float]:
    d = _CAP_DELTA
    # solve [4 d^3, 5 d^4; 12 d^2, 20 d^3] (c4, c5) = (-(7/4 + 2 d), -4)
    a11, a12 = 4.0 * d**3, 5.0 * d**4
    a21, a22 = 12.0 * d**2, 20.0 * d**3
    b1, b2 = -(7.0 / 4.0 + 2.0 * d), -4.0
    det = a11 * a22 - a12 * a21
    c4 = (b1 * a22 - a12 * b2) / det
    c5 = (a11 * b2 - b1 * a21) / det
    return c4, c5


_C4, _C5 = _cap_coeffs()


def fold_tau(tau):
    """tau reduced by the period 4 to its representative in [-2, 2)."""
    return np.mod(np.asarray(tau, float) + 2.0, 4.0) - 2.0


@dataclass(frozen=True, eq=False)
class ModelSurfaceMetric:
    """Periodic profile metric d tau^2/F + F d theta^2 on the model torus.

    The profile is computed from ell-independent :meth:`pieces`, recombined
    with ell by the same arithmetic everywhere.  At the nodes of a grid the
    pieces are computed once and kept with that grid
    (:meth:`~wpneck.grids.RadialGrid.memo`), so every surface on the grid,
    every row of a sweep, only recombines them.
    """

    ell: float
    _grid_jet: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("ell must be >= 0")

    # -- profile pieces ------------------------------------------------------
    @staticmethod
    def _base(r):
        r = np.asarray(r, float)
        # clamped: the cap branch sees the same x, and the discarded branch
        # never raises a negative base to a power (slow in libm's pow)
        x = np.maximum(r - 0.875, 0.0)
        inside = r <= 0.875
        Q = np.where(inside, r * r,
                     49.0 / 64.0 + 1.75 * x + x * x + _C4 * x**4 + _C5 * x**5)
        Qp = np.where(inside, 2.0 * r,
                      1.75 + 2.0 * x + 4.0 * _C4 * x**3 + 5.0 * _C5 * x**4)
        Qpp = np.where(inside, 2.0, 2.0 + 12.0 * _C4 * x**2 + 20.0 * _C5 * x**3)
        return Q, Qp, Qpp

    @staticmethod
    def _weight(r):
        return _plateau(r, _THIN_PLATEAU, _THIN_SUPPORT)

    @staticmethod
    def pieces(tau):
        """The ell-independent pieces at tau: sign(t), (Q, Q', Q''), (w, w', w'').

        t is tau folded into [-2, 2), and F = Q + ell^2 w is even in t.
        """
        t = fold_tau(tau)
        r = np.abs(t)
        return np.sign(t), ModelSurfaceMetric._base(r), ModelSurfaceMetric._weight(r)

    @staticmethod
    def grid_pieces(grid: RadialGrid):
        """:meth:`pieces` at the nodes of ``grid``, computed once per grid."""
        return grid.memo("profile pieces", lambda: ModelSurfaceMetric.pieces(grid.nodes))

    def _combine(self, pieces):
        s, (Q, Qp, Qpp), (w, wp, wpp) = pieces
        e2 = self.ell**2
        return Q + e2 * w, s * (Qp + e2 * wp), Qpp + e2 * wpp

    def jet(self, tau):
        """(F, F', F'') at tau: the :meth:`pieces`, combined with ell."""
        return self._combine(self.pieces(tau))

    def grid_jet(self, grid: RadialGrid):
        """:meth:`jet` at the nodes of ``grid``, kept for the last grid asked.

        It combines the grid's shared :meth:`grid_pieces`.  A WP row reads
        it on two grids, the neck grid of the conformal solve and then the
        periodic grid of the variations and the k = 0 solver.
        """
        if not self._grid_jet or self._grid_jet[0] is not grid:
            self._grid_jet[:] = [grid, self._combine(self.grid_pieces(grid))]
        return self._grid_jet[1]

    def F(self, tau):
        return self.jet(tau)[0]

    def Fp(self, tau):
        return self.jet(tau)[1]

    def Fpp(self, tau):
        return self.jet(tau)[2]

    def dF_dell(self, tau):
        """ell-derivative of the profile: 2 ell w(tau)."""
        w, _, _ = self._weight(np.abs(fold_tau(tau)))
        return 2.0 * self.ell * w

    def grid_dF_dell(self, grid: RadialGrid):
        """:meth:`dF_dell` at the nodes of ``grid``, from its shared pieces."""
        return 2.0 * self.ell * self.grid_pieces(grid)[2][0]

    def curvature(self, tau):
        return -0.5 * self.Fpp(tau)


def thick_indices(grid: RadialGrid) -> np.ndarray:
    """Node indices of the thick subdomain |tau| > 1/2."""
    return np.nonzero(np.abs(fold_tau(grid.nodes)) > 0.5)[0]


def thin_indices(grid: RadialGrid) -> np.ndarray:
    """Node indices of the thin subdomain |tau| < 3/4."""
    return np.nonzero(np.abs(fold_tau(grid.nodes)) < 0.75)[0]


@dataclass(frozen=True)
class CutoffPair:
    """Partition of unity {chi0, chi1} subordinate to {thick, thin}, plus
    the wideners with chi~j chi_j = chi_j and supp(chi~j') disjoint from
    supp(chi_j).  All functions of |tau| on the fundamental domain.

    The default radii give chi0's widener and chi1's widener the widest
    transitions the overlap [1/2, 3/4] allows: the error operator R is
    built from [P, chi~j], and its norm scales with the wideners' first
    and second derivatives, not with chi1's own steepness.
    """

    chi1_plateau: float = 0.580
    chi1_support: float = 0.645
    chi1w_plateau: float = 0.650
    chi1w_support: float = 0.745
    chi0w_zero: float = 0.505
    chi0w_one: float = 0.575

    def __post_init__(self):
        if not (0.5 < self.chi1_plateau < self.chi1_support < self.chi1w_plateau
                < self.chi1w_support < 0.75):
            raise ValueError("cutoff radii out of order")
        if not (self.chi0w_zero < self.chi0w_one <= self.chi1_plateau):
            raise ValueError("thick widener must reach 1 before chi0 turns on")

    def _r(self, tau):
        return np.abs(fold_tau(tau))

    def chi1(self, tau):
        return _plateau(self._r(tau), self.chi1_plateau, self.chi1_support)[0]

    def chi0(self, tau):
        return 1.0 - self.chi1(tau)

    def chi1_widened(self, tau):
        return _plateau(self._r(tau), self.chi1w_plateau, self.chi1w_support)[0]

    def chi0_widened(self, tau):
        r = self._r(tau)
        return 1.0 - _plateau(r, self.chi0w_zero, self.chi0w_one)[0]

    def validate(self, grid: RadialGrid) -> None:
        """Support and partition identities on the given grid."""
        t = grid.nodes
        c0, c1 = self.chi0(t), self.chi1(t)
        w0, w1 = self.chi0_widened(t), self.chi1_widened(t)
        if not np.allclose(c0 + c1, 1.0, atol=1e-14):
            raise AssertionError("chi0 + chi1 != 1")
        for w, c, name in ((w0, c0, "0"), (w1, c1, "1")):
            if np.max(np.abs(w * c - c)) > 1e-14:
                raise AssertionError(f"widener {name} is not 1 on supp chi{name}")
        r = self._r(t)
        if np.any((r < self.chi0w_zero) & (w0 != 0.0)):
            raise AssertionError("thick widener leaks into the deep thin part")
        if np.any((r > self.chi1w_support) & (w1 != 0.0)):
            raise AssertionError("thin widener leaks outside the thin region")


def _period_run(idx: np.ndarray, n: int) -> np.ndarray:
    """``idx`` as one run of consecutive nodes in period order.

    A sorted run that wraps across tau = +-2 is rolled into that order; the
    whole circle is no run (its operator is cyclic, not Dirichlet).
    """
    idx = np.asarray(idx, dtype=int)
    breaks = np.nonzero(np.diff(idx) != 1)[0]
    if breaks.size == 1 and idx[0] == 0 and idx[-1] == n - 1:
        idx = np.roll(idx, -(breaks[0] + 1))
    elif breaks.size or idx.size == 0 or idx.size >= n:
        raise ValueError("subdomain nodes must form one run in period order")
    return idx


def _stacked_band(diags, runs):
    """``(flat, band)``: the tridiagonal pieces of ``diags`` on ``runs``, one band.

    Run by run, channel + then channel -, the pieces are stacked with zero
    coupling, as one :class:`_SymmetrizedBand`; ``flat[p]`` is the position
    of stacked unknown p in the flattened (2, n) channels.  A piece with
    sub- and superdiagonals l and u is S T S^-1: T symmetric, with the
    piece's diagonal and the off-diagonal sign(u_i) sqrt(l_{i+1} u_i), and
    S = diag(s), s_0 = 1 and s_{i+1} = s_i sqrt(l_{i+1} / u_i).  The scaling
    restarts at each piece, so each is factored and solved bit for bit as if
    alone.  A piece with some l_{i+1} u_i <= 0 has no such T and is refused.
    """
    n = diags[1].shape[1]
    L, D, U = (d.reshape(-1) for d in diags)
    pieces = [c * n + idx for idx in runs for c in (0, 1)]
    flat = np.concatenate(pieces)
    sizes = np.array([p.size for p in pieces])
    ends = np.cumsum(sizes)
    # row p + 1 couples back to row p through lower[p], row p to p + 1
    # through upper[p].  At a piece's last row p the coupling is cut: ones
    # stand in there for the check and the ratios, and T gets a zero
    lower, upper = L[flat[1:]], U[flat[:-1]]
    cut = ends[:-1] - 1
    lower[cut] = upper[cut] = 1.0
    prod = lower * upper
    if not np.all(prod > 0.0):
        raise np.linalg.LinAlgError("channel band is not symmetrizable")
    off = np.copysign(np.sqrt(prod), upper)
    off[cut] = 0.0
    ratio = np.sqrt(lower / upper)
    scale = np.empty(flat.size)
    for start, end in zip(ends - sizes, ends):
        scale[start] = 1.0
        np.cumprod(ratio[start:end - 1], out=scale[start + 1:end])
    return flat, _SymmetrizedBand(D[flat], off, scale)


class _SymmetrizedBand:
    """Solves with A = S T S^-1: T symmetric positive definite tridiagonal.

    T (diagonal ``main``, off-diagonal ``off``, both overwritten) is factored
    L D L^T by LAPACK ``dpttrf``, which does not pivot; a band it finds not
    positive definite is refused.  S = diag(``scale``).  A solve is b / s,
    ``dpttrs``, times s, and the transposed one b s, ``dpttrs``, over s,
    from the same factor.
    """

    def __init__(self, main, off, scale):
        self._d, self._e, info = lapack.dpttrf(main, off, overwrite_d=1, overwrite_e=1)
        if info:
            raise np.linalg.LinAlgError("channel band is not positive definite")
        self._scale = scale

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """A^-1 b (``trans="T"``: A^-T b) for b of shape (m,) or (m, k)."""
        s = self._scale if b.ndim == 1 else self._scale[:, None]
        if trans == "T":
            x = lapack.dpttrs(self._d, self._e, b * s, overwrite_b=1)[0]
            x /= s
        else:
            x = lapack.dpttrs(self._d, self._e, b / s, overwrite_b=1)[0]
            x *= s
        return x


def _cyclic_corners(diags):
    """``(rows, (cols, vals))``: the entries of cyclic diagonals that wrap around.

    ``diags`` is (c, 2p + 1, n), channel c reading M_c[i, i + j - p (mod n)]
    at [c, j, i].  The p (p + 1) corners per channel are listed channel by
    channel in row order, at the positions c n + i of the stacked channels;
    (cols, vals) is the gather that :class:`_Closure` takes.
    """
    c, w, n = diags.shape
    p = w // 2
    i = np.r_[:p, n - p:n]
    col = i[:, None] + np.arange(-p, p + 1)
    ri, j = np.nonzero((col < 0) | (col >= n))
    row = i[ri]
    off = n * np.arange(c)[:, None]
    return (row + off).ravel(), ((col[ri, j] % n + off).ravel(),
                                 diags[:, j, row].ravel())


class _Closure:
    """Solves with A = A0 + U W, bordered by C^T x = 0, from solves with A0.

    The Sherman–Morrison–Woodbury form (Numerical Recipes §2.7): with
    y = A0^-1 r, Y = A0^-1 [U, C] (``cols``) and T = [W; C^T], the solution
    is x = y - Y H^-1 T y for H = T Y + diag(I_m, 0), m the number of
    columns of U; H is LU-factored once and the multipliers are dropped.
    T's leading rows hold one nonzero each (a cyclic corner, or a one of
    E^T) and are gathered: ``rows`` = (idx, coef), row i holding coef[i] in
    column idx[i].  The rows after them are the array ``dense``.
    """

    def __init__(self, solve, cols, rows, dense, m: int):
        self._solve = solve
        self._idx, self._coef = rows
        self._dense = dense
        self._Y = solve(cols)
        H = self._T(self._Y)
        H[np.arange(m), np.arange(m)] += 1.0
        *self._H, info = lapack.dgetrf(H)
        if info:
            raise np.linalg.LinAlgError("Schur closure is exactly singular")

    def _T(self, y: np.ndarray) -> np.ndarray:
        t = y[self._idx]
        t *= self._coef if y.ndim == 1 else self._coef[:, None]
        return np.concatenate([t, self._dense @ y]) if len(self._dense) else t

    def __call__(self, r: np.ndarray) -> np.ndarray:
        y = self._solve(r)
        y -= self._Y @ lapack.dgetrs(*self._H, self._T(y))[0]
        return y


class SubdomainSolver:
    """Dirichlet inverses of the mode gauge Laplacian on runs of nodes, as one band.

    ``diags`` are the (L, D, U) diagonals of the two rho channels from
    :func:`channel_diagonals`.  Each of ``runs`` must be one run of
    consecutive nodes in period order (the thick run wraps across
    tau = +-2 and is rolled into that order); runs may overlap.  Each
    channel's Dirichlet submatrix on each run is a piece of one symmetrized
    band (:func:`_stacked_band`), so a solve is one ``dpttrs`` between two
    diagonal scalings, in the band's stacked order (a node in two
    overlapping runs appears there twice).
    """

    def __init__(self, diags, runs):
        n = diags[1].shape[1]
        self.flat, self._band = _stacked_band(diags,
                                              [_period_run(idx, n) for idx in runs])

    def solve_channels(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """One band solve; ``b`` and the solution are in stacked order."""
        return self._band.solve(b, trans)


def discrete_near_null(solve, seed: np.ndarray) -> np.ndarray:
    """Near-null vector of an almost-singular matrix by inverse iteration.

    The analytic kernel sampled on the grid only annihilates the discrete
    operator to O(h^2); three inverse-power steps (``solve`` applies the
    inverse) sharpen it to the actual smallest singular direction.  Falls
    back to the (normalized) seed if a solve breaks down.
    """
    q = seed / np.linalg.norm(seed)
    for _ in range(3):
        y = solve(q)
        ny = np.linalg.norm(y)
        if not np.isfinite(ny) or ny == 0.0:
            return q
        q = y / ny
    return q


def channel_diagonals(surface: ModelSurfaceMetric, grid: RadialGrid, k: int):
    """The diagonals (L, D, U) of blockdiag((1/2) P_k^+, (1/2) P_k^-).

    Each is a (2, n) array, one row per rho channel: row i of channel c
    reads L[c, i] x[i - 1] + D[c, i] x[i] + U[c, i] x[i + 1] with indices
    mod n, so the periodic corners sit in L[:, 0] and U[:, n - 1].  The
    stencil weights enter as in the sparse
    :meth:`~wpneck.operators.ModeOperators.channel_matrix`, bit for bit.
    """
    if grid.scheme != "periodic":
        raise ValueError("channel diagonals need a periodic finite-difference grid")
    F, Fp, Fpp = surface.grid_jet(grid)
    h = grid.weights[0]
    side, mid = -F * (1.0 / h**2), -F * (-2.0 / h**2)
    L = np.tile(0.5 * (side + (-Fp) * (-0.5 / h)), (2, 1))
    U = np.tile(0.5 * (side + (-Fp) * (0.5 / h)), (2, 1))
    D = np.array([0.5 * (mid + channel_potential(F, Fp, Fpp, k, sign))
                  for sign in (+1, -1)])
    return L, D, U


def transposed_diagonals(diags):
    """The diagonals of P^T from the diagonals (L, D, U) of P."""
    L, D, U = diags
    return np.roll(U, 1, axis=1), D, np.roll(L, -1, axis=1)


def band_matvec(diags, w: np.ndarray) -> np.ndarray:
    """``P @ w`` for w of shape (2, n), from the diagonals ``diags`` of P.

    Each row sums its three terms in column order, as scipy's CSC and CSR
    matvecs of the same matrix do, so the result matches them bit for bit.
    For ``P.T @ w`` pass :func:`transposed_diagonals`, built once.
    """
    L, D, U = (d.reshape(-1) for d in diags)
    x = w.reshape(-1)
    n = w.shape[-1]
    y = np.empty_like(x)
    # both channels as one flat band; the first and last row of each channel
    # (wrong here, and the only rows with a periodic corner) are redone below
    y[1:-1] = L[1:-1] * x[:-2] + D[1:-1] * x[1:-1] + U[1:-1] * x[2:]
    for a in (0, n):
        b = a + n - 1
        y[a] = D[a] * x[a] + U[a] * x[a + 1] + L[a] * x[b]
        y[b] = U[b] * x[a] + L[b] * x[b - 1] + D[b] * x[b]
    return y.reshape(w.shape)


def kernel_complement(w: np.ndarray, kernel, weights) -> np.ndarray:
    """w with each channel's weighted-L^2 component along ``kernel`` removed.

    Returns w itself when ``kernel`` is None (k != 0), otherwise a new array.
    """
    if kernel is None:
        return w
    out = np.array(w, dtype=float)
    for i in (0, 1):
        out[i] -= (weights @ (kernel * out[i])) * kernel
    return out


class GlobalModeSolver:
    """Direct solve of the mode-k gauge Laplacian on the closed surface.

    Both rho channels (:func:`channel_diagonals`) form one tridiagonal band
    A0 with their cyclic corners cut (:func:`_cyclic_corners`), A = A0 + E R
    (E the unit columns of the four corner rows, R their corner entries).
    A0 is factored once, each channel a piece of one symmetrized band
    (:func:`_stacked_band`), which serves both ``trans``.  At k = 0 each
    channel's kernel sqrt(F), sharpened to the discrete near-null vector by
    inverse iteration, borders it:
    [[P_0^+-, c], [c^T, 0]] with c the weighted kernel keeps the solution in
    the kernel's weighted complement, and the multiplier absorbs any kernel
    component of the right-hand side.  A solve is one band solve and a 4 x 4
    (k = 0: 6 x 6) Schur closure (:class:`_Closure`; for ``trans="T"``,
    A^T = A0^T + R^T E^T).  Each row of R holds one corner entry and each
    row of E^T a one, so the closure gathers them; only the k = 0 border rows
    are a dense product.  ``diags`` and ``kernel`` are kept for the
    parametrix blocks.
    """

    def __init__(self, surface: ModelSurfaceMetric, grid: RadialGrid, k: int):
        self.k = int(k)
        self.grid = grid
        self.diags = channel_diagonals(surface, grid, self.k)
        n = grid.n
        solve = _stacked_band(self.diags, [np.arange(n)])[1].solve
        # corner row rows[i] holds R's entry corners[1][i] in column corners[0][i]
        rows, corners = _cyclic_corners(np.stack(self.diags, axis=1))
        E, Rt = np.zeros((2 * n, 4)), np.zeros((2 * n, 4))
        E[rows, np.arange(4)] = 1.0
        Rt[corners[0], np.arange(4)] = corners[1]
        border = np.zeros((0, 2 * n))
        self.kernel = None
        if self.k == 0:
            # inverse iteration on channel +, with channel - kept at zero
            seed = np.append(np.sqrt(surface.grid_jet(grid)[0]), np.zeros(n))
            q = discrete_near_null(_Closure(solve, E, corners, border, 4), seed)[:n]
            self.kernel = q / math.sqrt(float(grid.weights @ (q * q)))
            border = np.zeros((2, 2 * n))
            border[0, :n] = border[1, n:] = grid.weights * self.kernel
        self._solvers = {
            trans: _Closure(partial(solve, trans=trans), np.hstack([cols, border.T]),
                            one, border, 4)
            for trans, cols, one in (("N", E, corners), ("T", Rt, (rows, np.ones(4))))}

    def project_out_kernel(self, w: np.ndarray) -> np.ndarray:
        return kernel_complement(w, self.kernel, self.grid.weights)

    def solve_channels(self, w: np.ndarray, trans: str = "N") -> np.ndarray:
        """w shape (2, n) channel pairs; one stacked band solve."""
        return self._solvers[trans](w.reshape(-1)).reshape(w.shape)


def _central(u: np.ndarray, c: float) -> np.ndarray:
    """The periodic d1 stencil c (u[i + 1] - u[i - 1]) along the last axis."""
    d = np.empty_like(u)
    d[..., 1:-1] = u[..., 2:] - u[..., :-2]
    d[..., 0] = u[..., 1] - u[..., -1]
    d[..., -1] = u[..., 0] - u[..., -2]
    return c * d


def _factored_diagonals(sqF, beta, K, c) -> np.ndarray:
    """The (2, 5, n) cyclic diagonals of M+- = -(A +- K)(B -+ K/2); K = None: M = -A B.

    A = sqrt(F) d1 + 2 beta and B = (sqrt(F) d1 - beta) / 2 are multiplied
    as bands, (A B)[i, i + s + t] = a_s[i] b_t[i + s], with the d1 weight
    ``c`` = 1 / (2h); ``out[ch, j, i] = M_ch[i, i + j - 2 (mod n)]`` (one
    channel at K = None).
    """
    mids = ([(2.0 * beta, -0.5 * beta)] if K is None else
            [(2.0 * beta + sign * K, -0.5 * (beta + sign * K)) for sign in (+1, -1)])
    out = np.zeros((len(mids), 5, sqF.size))
    for ch, (a_mid, b_mid) in enumerate(mids):
        a = (-c * sqF, a_mid, c * sqF)
        b = (-0.5 * c * sqF, b_mid, 0.5 * c * sqF)
        for s in (-1, 0, 1):
            for t in (-1, 0, 1):
                out[ch, s + t + 2] -= a[s + 1] * np.roll(b[t + 1], -s)
    return out


def _cut_band(diags) -> np.ndarray:
    """LAPACK ``dgbtrf`` storage of cyclic diagonals with the corners cut.

    ``diags`` is (c, 2p + 1, n) as in :func:`_cyclic_corners`; the channels
    are stacked in natural node order in a (3p + 1, c n) Fortran array (p
    rows of fill, then the band), which LAPACK's wrapper does not copy.
    """
    c, w, n = diags.shape
    p = w // 2
    buf = np.zeros((c, n, 3 * p + 1))
    for j in range(w):
        # M[i, i + d] sits in band row 2p - d, column i + d; a wrapping one is cut
        d = j - p
        lo, hi = max(d, 0), n + min(d, 0)
        buf[:, lo:hi, 2 * p - d] = diags[:, j, lo - d:hi - d]
    return buf.reshape(c * n, -1).T


def _band_solve(diags):
    """A solve with the ``dgbtrf`` factors of the band of ``diags``, corners cut.

    ``diags`` is (c, 5, n) as in :func:`_cyclic_corners`.  The returned
    solve holds the factors and nothing else, so a solver that keeps it
    forms no reference cycle and is freed without the garbage collector.
    """
    lu, piv, info = lapack.dgbtrf(_cut_band(diags), 2, 2, overwrite_ab=1)
    if info:
        raise RuntimeError("factored band is exactly singular")
    return lambda b: lapack.dgbtrs(lu, 2, 2, b, piv)[0]


def _sector_diagonals(diags, n: int, odd: bool) -> np.ndarray:
    """The (1, 5, m) diagonals of M on one sector of the reflection R: i -> n - i.

    ``diags`` is (1, 5, n) as in :func:`_cyclic_corners`, for an M that
    commutes with R on n nodes (only the sector's rows are read, so those of
    the nodes 0 ... n/2 do).  The odd sector has the nodes 1 ... n/2 - 1
    (u_0 = u_{n/2} = 0), the even one 0 ... n/2.  A column outside the
    sector is folded onto its mirror by u_{-j} = -+u_j, u_{n/2 + j} =
    -+u_{n/2 - j}; the entries left outside are the wrapped ones that
    :func:`_cut_band` cuts.
    """
    lo, hi = (1, n // 2 - 1) if odd else (0, n // 2)
    sign = -1.0 if odd else 1.0
    out = diags[:, :, lo:hi + 1].copy()
    for i in sorted({lo, lo + 1, hi - 1, hi}):
        for d in (-2, -1, 1, 2):
            j = i + d
            mirror = -j if j < lo else n - j
            if not lo <= j <= hi and lo <= mirror <= hi:
                out[:, 2 + mirror - i, i - lo] += sign * diags[:, 2 + d, i]
    return out


def _even_sector(diags, sqF, weights) -> _Closure:
    """The bordered solve of the k = 0 operator on its even sector, n/2 + 1 nodes.

    The sector keeps both of M's null directions, so the band
    (:func:`_sector_diagonals`) keeps only the diagonal entry of two rows,
    those of the pole (node 0) and of the neck (node n/2, where the
    checkerboard's left null vector lives).  At n = 2048 the pinned band has
    condition 0.9e6 to 2.7e6 over ell in [1e-3, 0.365]; with the neck pin
    alone it is singular (condition 1e16 or more), and unit rows for the
    pins (condition 7e6 to 8e6) cost four digits of the solve.  The closure
    puts the pinned rows' other entries back and borders the weighted pair
    sqrt(F) and the checkerboard: the multiplier column is its restriction
    to the sector and the constraint its sum over the whole grid, which for
    an even vector counts the nodes 1 ... n/2 - 1 twice.
    """
    n = sqF.size
    h = n // 2
    band = _sector_diagonals(diags, n, odd=False)
    dense = np.zeros((4, h + 1))
    # the band keeps the diagonal of the folded pole and neck rows, the
    # closure their other entries
    dense[0, 1:3] = band[0, 3:, 0]
    dense[1, h - 2:h] = band[0, :2, h]
    band[0, 3:, 0] = band[0, :2, h] = 0.0
    twice = np.full(h + 1, 2.0)
    twice[[0, h]] = 1.0
    cols = np.zeros((h + 1, 4), order="F")
    cols[[0, h], [0, 1]] = 1.0
    for j, u in enumerate((sqF, np.where(np.arange(n) % 2, -1.0, 1.0) / sqF), 2):
        cols[:, j] = (weights * u / np.linalg.norm(u))[:h + 1]
        dense[j] = twice * cols[:, j]
    return _Closure(_band_solve(band), cols, (np.zeros(0, int), np.zeros(0)), dense, 2)


def _abs_max(a: np.ndarray) -> float:
    """The largest |entry| of ``a``, by two reductions instead of an |a| copy."""
    return max(a.max(), -a.min())


def _reflect(v: np.ndarray) -> np.ndarray:
    """R v, (R v)_i = v_{n - i} (indices mod n), along the last axis."""
    return np.roll(v[..., ::-1], 1, axis=-1)


class FactoredGlobalSolver:
    """Global inverse of the *factored* gauge Laplacian divergence o D.

    Composing the discrete divergence with the discrete conformal Killing
    operator gives a matrix P_fact that telescopes exactly against the
    projection pipeline: with G = P_fact^{-1}, the projected tensor
    h0 - D G (divergence h0) is discretely divergence-free to solver
    precision, so the TT projection is an exact discrete projector.  The
    direct channel stencils remain the independent discretization used by
    the operator-identity checks.  :meth:`bianchi` and
    :meth:`conformal_killing` apply the two operators the projection needs.

    On sigma components P_fact = -[[A, K], [K, A]] [[B, -K/2], [-K/2, B]]
    with A = sqrt(F) d1 + 2 beta (minus the divergence), B = (sqrt(F) d1 -
    beta) / 2 (the conformal Killing operator), beta = F'/(2 sqrt F) and
    K = k / sqrt(F).  It splits into the rho channels a +- b,

        M+- = -(A +- K)(B -+ K/2),

    five cyclic diagonals each (:attr:`diagonals`, built on first read), from
    the stencil coefficients with no sparse matrix.  F is even and the grid
    reflection R: i -> n - i reverses the central difference, so M- = R M+ R.
    For k >= 1 only M+ is factored, a LAPACK ``dgbtrf`` band of half-width 2
    with the cyclic corners cut (:func:`_cut_band`) and put back by a
    six-column :class:`_Closure`; a solve is one ``dgbtrs`` with the channel
    + right-hand side and the reflected channel - one as its two columns.

    At k = 0 the channels are one matrix M = -A B, and M commutes with R.
    A solve splits each sigma component into its even and odd parts and
    solves each in its sector of R (:func:`_sector_diagonals`), both
    components as the columns of one ``dgbtrs`` per sector.  The odd sector
    is a plain band, factored here from the coefficients of the nodes
    0 ... n/2 alone.  The even sector holds M's two null directions, sqrt(F)
    and the checkerboard (-1)^i / sqrt(F); its bordered solve
    (:func:`_even_sector`, built on the first solve that needs it) keeps the
    solution in the complement of the weighted pair, as a bordered solve
    with the whole of M does.  ``solve_sigma(rhs, odd=True)`` solves the odd
    sector alone, for a right-hand side odd by construction (the Bianchi
    image of an even tensor), and refuses one whose even part is not
    round-off.  ``kernel`` gives sqrt(F) in each component, in the (2, 2n)
    layout.  Odd grids are refused: there the exact null direction is a
    checkerboard remnant that nothing borders.
    """

    def __init__(self, surface: ModelSurfaceMetric, grid: RadialGrid, k: int):
        self.k = int(k)
        self.grid = grid
        n = grid.n
        if n % 2:
            raise ValueError(f"the factored solver needs an even grid (got n = {n})")
        F, Fp, _ = surface.grid_jet(grid)
        self.sqF = sqF = np.sqrt(F)
        self.beta = Fp / (2.0 * sqF)
        self._c = 0.5 / grid.weights[0]  # the d1 weight 1 / (2h)
        self._K = self._even = None
        if self.k:
            self._K = self.k / sqF
            # M+ = band + E R: E the unit columns of the corner rows, R their
            # corner entries
            rows, corners = _cyclic_corners(self.diagonals[:1])
            cols = np.zeros((n, rows.size), order="F")
            cols[rows, np.arange(rows.size)] = 1.0
            self._solve = _Closure(_band_solve(self.diagonals[:1]), cols, corners,
                                   np.zeros((0, n)), rows.size)
        else:
            # the odd sector's rows 1 ... n/2 - 1 read the nodes 0 ... n/2 alone
            half = slice(0, n // 2 + 1)
            diags = _factored_diagonals(sqF[half], self.beta[half], None, self._c)
            self._solve = _band_solve(_sector_diagonals(diags, n, odd=True))

    @cached_property
    def diagonals(self) -> np.ndarray:
        """(c, 5, n): the cyclic diagonals of M+ and M- (at k = 0, of M once)."""
        return _factored_diagonals(self.sqF, self.beta, self._K, self._c)

    @property
    def kernel(self) -> np.ndarray | None:
        """At k = 0, sqrt(F) normalized in each sigma component, as (2, 2n)."""
        if self.k:
            return None
        v = np.concatenate([self.sqF, np.zeros_like(self.sqF)])
        v /= np.linalg.norm(v)
        return np.vstack([v, np.roll(v, self.sqF.size)])

    def solve_sigma(self, rhs: np.ndarray, odd: bool = False) -> np.ndarray:
        """rhs: one-form sigma components (2, n); returns sigma components.

        With ``odd`` (k = 0 only) the rhs must be odd under the grid
        reflection, and only the odd sector is solved: a ValueError is
        raised when its even part exceeds 1e-10 of its largest entry.
        """
        if self.k:
            if odd:
                raise ValueError("only the k = 0 solve has an odd sector")
            b = np.empty((rhs.shape[1], 2), order="F")
            b[:, 0] = rhs[0] + rhs[1]
            b[:, 1] = _reflect(rhs[0] - rhs[1])
            y = self._solve(b)
            p, m = y[:, 0], _reflect(y[:, 1])
            return 0.5 * np.array([p + m, p - m])
        n = rhs.shape[1]
        h = n // 2
        mirror = rhs[:, :h:-1]  # the nodes n - 1 ... h + 1, mirrors of 1 ... h - 1
        x = np.zeros((2, n))
        if odd:
            # twice the even part on the nodes 1 ... h - 1, in the solution's
            # buffer, which is zeroed again after the check
            twice = np.add(rhs[:, 1:h], mirror, out=x[:, 1:h])
            even_max = max(_abs_max(rhs[:, 0]), _abs_max(rhs[:, h]),
                           0.5 * _abs_max(twice))
            if even_max > 1e-10 * _abs_max(rhs):
                raise ValueError("the right-hand side is not odd under the grid "
                                 "reflection; solve it without odd=True")
            twice[...] = 0.0
        else:
            even = np.empty((2, h + 1))
            even[:, [0, h]] = rhs[:, [0, h]]
            even[:, 1:h] = 0.5 * (rhs[:, 1:h] + mirror)
            if self._even is None:
                self._even = _even_sector(self.diagonals, self.sqF, self.grid.weights)
            x[:, :h + 1] = self._even(even.T).T
            x[:, h + 1:] = x[:, h - 1:0:-1]
        y = self._solve((0.5 * (rhs[:, 1:h] - mirror)).T).T
        x[:, 1:h] += y
        x[:, h + 1:] -= y[:, ::-1]
        return x

    def bianchi(self, h: np.ndarray) -> np.ndarray:
        """The Bianchi operator: sym2_full data (3, n) -> sigma components.

        The trace column cancels exactly, so this is -(A phi + K psi,
        K phi + A psi).
        """
        u = h[:2]
        out = -(self.sqF * _central(u, self._c) + 2.0 * self.beta * u)
        if self.k:
            out -= self._K * u[::-1]
        return out

    def conformal_killing(self, w: np.ndarray) -> np.ndarray:
        """The conformal Killing operator: sigma components -> (phi, psi)."""
        out = 0.5 * (self.sqF * _central(w, self._c) - self.beta * w)
        if self.k:
            out -= 0.5 * self._K * w[::-1]
        return out
