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
(:func:`_cyclic_corners`), and a Woodbury closure puts the corners back as
cut entries (:func:`_cut_closure`, the one closure of every cut band).  Its
band, and the Dirichlet pieces of :class:`SubdomainSolver`, are the
nonconservative stencil of -(F u')' + V: each piece is S T S^-1
with S diagonal and T symmetric positive definite, and is factored as T
without pivoting (:func:`_stacked_band`, :class:`~wpneck.grids._SymmetrizedBand`).
A band without such a form is refused.  The parametrix's frozen
references eliminate every row off their transition layers once per family
(:class:`_Condensed`) and solve their layer rows together; the channel rows
on the cap |tau| >= 7/8 are the same at every ell (:func:`cap_indices`), so
there the references share one eliminated run, factored once per band in
its own symmetric form.  A cyclic band is condensed as its cut pieces,
each keeping its first and last rows, so the corners join kept rows and are
put back by the band's closure as they are.  A parametrix block joins its
references' subdomain condensation (:meth:`_Condensed.member`): it
eliminates its own runs only and takes the cap run, factor and end
columns, as it is.  No block solves its subdomains' whole band:
:class:`SubdomainSolver` does, and serves as the independent whole-band
route that the tests check the blocks' condensed one against.  The
channels' couplings L and U do not depend on k
(:func:`channel_couplings`), so every mode on one surface shares them.
:class:`FactoredGlobalSolver` solves the factored operator divergence o D
that the TT projection inverts: five cyclic diagonals per channel, a band
of half-width 2.  One writer (:func:`_factored_band`) gives every band of
it: the operator's rows on a run of nodes, with the entries that reach
outside the run in two margin columns on each side, which each caller
reads its own way.  A field on the whole grid is solved on the whole
cycle, its margins the corners that the same closure puts back, at every
k.  At k >= 1 the grid reflection R: i -> n - i (tau -> -tau), under which
the even profile is symmetric, swaps the two channels, so only one is
factored.  At k = 0 the operator is singular, with the null directions
sqrt(F) and, on an even grid, the checkerboard (-1)^i / sqrt(F) of the
central difference, and the closure borders both.  There R commutes with
the operator, whose odd sector, a plain band on half the nodes with its
margins folded onto their mirrors (:func:`_sector_band`), is invertible
and is all that a Weil-Petersson row needs, since the Bianchi images of
even variations are odd.  Its rows on the ell-independent thick part, the
cap, are condensed once per grid (:class:`OddCap`, whose coupling blocks
are margins too), so such a row runs on the rest of the grid's mirror
half, the neck window, alone.  The solver refuses odd grids, where the
exact null direction is a checkerboard remnant that no border removes.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.linalg import lapack

from .grids import RadialGrid, _symmetric_form, _symmetrized, _SymmetrizedBand
from .operators import channel_potential

__all__ = [
    "smoothstep",
    "smoothstep_d1",
    "smoothstep_d2",
    "ModelSurfaceMetric",
    "ELL_FLOOR",
    "CutoffPair",
    "fold_tau",
    "GlobalModeSolver",
    "SubdomainSolver",
    "cap_indices",
    "band_matvec",
    "channel_couplings",
    "channel_diagonals",
    "kernel_complement",
    "thick_indices",
    "thin_indices",
    "zero_mode",
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


# the smallest ell a run accepts: below it the conformal factor's Newton
# band stops being symmetrizable (it raises at ell = 1e-12 and 3e-12, on
# the default grid), and at ell = 1e-200 a WP row is NaN
ELL_FLOOR = 1e-10
# the largest ell a run accepts: pi / log 4, the largest length at which the
# collar is a plumbing annulus (:func:`~wpneck.cylinder.plumbing_parameter`)
ELL_CEILING = math.pi / math.log(4.0)


def fold_tau(tau):
    """tau reduced by the period 4 to its representative in [-2, 2)."""
    return np.mod(np.asarray(tau, float) + 2.0, 4.0) - 2.0


@dataclass(frozen=True, eq=False)
class ModelSurfaceMetric:
    """Periodic profile metric d tau^2/F + F d theta^2 on the model torus.

    The profile is computed from ell-independent :meth:`pieces`, recombined
    with ell by the same arithmetic everywhere.  At the nodes of a grid the
    pieces are computed once and kept with that grid
    (:meth:`~wpneck.grids.RadialGrid.keep`), so every surface on the grid,
    every row of a sweep, only recombines them.  A mirror half, a span and
    the whole grid compute them each at their own nodes, with the same
    elementwise arithmetic, so the same node gets the same bits on each; the
    spans of the odd cap take theirs as views of their half's
    (:meth:`span_pieces`).
    """

    ell: float
    _grid_jet: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("ell must be >= 0")
        if 0 < self.ell < ELL_FLOOR:  # ell = 0 is the cap's own profile
            raise ValueError(f"ell must be 0 or at least {ELL_FLOOR:g}, the model's ell "
                             f"floor (got {self.ell:g})")

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
        return grid.keep("profile pieces", lambda g: ModelSurfaceMetric.pieces(g.nodes))

    @staticmethod
    def span_pieces(grid: RadialGrid, start: int, stop: int) -> RadialGrid:
        """``grid.span(start, stop)``, whose :meth:`grid_pieces` are views of
        ``grid``'s: the pieces are elementwise in tau."""
        span = grid.span(start, stop)
        s, *parts = ModelSurfaceMetric.grid_pieces(grid)
        cut = slice(start, stop)
        span.keep("profile pieces", lambda g: (s[cut], *(tuple(x[cut] for x in part)
                                                         for part in parts)))
        return span

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
        neck window of the periodic grid's mirror half, for the variations
        and the k = 0 solver.  The channel bands' k-free diagonals are kept
        beside it (:func:`channel_couplings`).
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

    The radii are fixed, in the order 1/2 < chi1's plateau < its support <
    chi1~'s plateau < its support < 3/4, and chi0~ = 0 up to a radius past
    1/2 and 1 from one at or below chi1's plateau.  They give chi0's widener
    and chi1's widener the widest transitions the overlap [1/2, 3/4] allows:
    the error operator R is built from [P, chi~j], and its norm scales with
    the wideners' first and second derivatives, not with chi1's own
    steepness.  Frozen: an instance holds no radius of its own.
    """

    chi1_plateau = 0.580
    chi1_support = 0.645
    chi1w_plateau = 0.650
    chi1w_support = 0.745
    chi0w_zero = 0.505
    chi0w_one = 0.575

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

    A sorted run that wraps across tau = +-2 is rolled into that order, and
    one in that order already is kept; the whole circle is no run (its
    operator is cyclic, not Dirichlet).
    """
    idx = np.asarray(idx, dtype=int)
    breaks = np.nonzero(np.diff(idx) % n != 1)[0]
    if breaks.size == 1 and idx[0] == 0 and idx[-1] == n - 1:
        idx = np.roll(idx, -(breaks[0] + 1))
    elif breaks.size or idx.size == 0 or idx.size >= n:
        raise ValueError("subdomain nodes must form one run in period order")
    return idx


def _stacked_band(diags, runs):
    """``(flat, band)``: the tridiagonal pieces of ``diags`` on ``runs``, one band.

    Run by run, channel + then channel -, the pieces are stacked with zero
    coupling, as one :class:`_SymmetrizedBand` (:func:`_symmetrized`);
    ``flat[p]`` is the position of stacked unknown p in the flattened (2, n)
    channels.
    """
    flat, *band = _band_pieces(diags, runs)
    return flat, _symmetrized(*band)


def _band_pieces(diags, runs):
    """``(flat, main, lower, upper, sizes)``: the pieces of :func:`_stacked_band`.

    Row p + 1 couples back to row p through ``lower[p]``, row p to p + 1
    through ``upper[p]``; where p is the last row of a piece (``sizes``) the
    two are read across the cut and are never used.
    """
    n = diags[1].shape[1]
    L, D, U = (d.reshape(-1) for d in diags)
    pieces = [c * n + idx for idx in runs for c in (0, 1)]
    flat = np.concatenate(pieces)
    return flat, D[flat], L[flat[1:]], U[flat[:-1]], np.array([p.size for p in pieces])


def _cyclic_corners(diags):
    """``(rows, cols, vals)``: the entries of cyclic diagonals that wrap around.

    ``diags`` is (c, 2p + 1, n), channel c reading M_c[i, i + j - p (mod n)]
    at [c, j, i].  The p (p + 1) corners per channel are listed channel by
    channel in row order, at the positions c n + i of the stacked channels:
    the cut entries that :func:`_cut_closure` puts back.
    """
    c, w, n = diags.shape
    p = w // 2
    i = np.r_[:p, n - p:n]
    col = i[:, None] + np.arange(-p, p + 1)
    ri, j = np.nonzero((col < 0) | (col >= n))
    row = i[ri]
    off = n * np.arange(c)[:, None]
    return (row + off).ravel(), (col[ri, j] % n + off).ravel(), diags[:, j, row].ravel()


class _Closure:
    """Woodbury closures of the J equal pieces of one band, batched.

    Piece j (rows j m ... (j + 1) m - 1 of the band that ``solve`` inverts,
    A0_j) stands for A_j = A0_j + U_j W_j, bordered by rows D_j with the
    diagonal -gamma_j: the Sherman–Morrison–Woodbury form (Numerical
    Recipes §2.7) of [[A_j, B_j], [D_j, -gamma_j]] (x; mu) = (r; s).  With
    Y_j = A0_j^-1 [U_j, B_j] (``cols``, (J, m, c + b)) and T_j = [W_j; D_j],
    it is x = y - Y_j K, K = H_j^-1 (T_j y - (0; s)), y = A0_j^-1 r, and
    H_j = T_j Y_j + diag(I_c, gamma_j).  Each row of W_j holds one entry:
    ``coef[j, i]`` in column ``idx[i]``; ``rows`` is D_j, (J, b, m).  The
    inverses of the small H_j are formed once, so a solve of all pieces is
    one band solve, one gather and two batched products.
    Y, which can decay below the smallest normal float, is solved at 2^600
    times its size (exact while max |Y| < 2^424) and its would-be subnormals,
    slow in every later product, are zeroed before it is scaled back.
    """

    def __init__(self, solve, cols, idx, coef, rows, gamma):
        J, m, w = cols.shape
        self._solve, self._idx, self._coef = solve, idx, coef[..., None]
        self._rows = rows if rows.shape[1] else None
        Y = solve(cols.reshape(J * m, w) * 2.0**600)
        Y[np.abs(Y) < np.finfo(float).tiny * 2.0**600] = 0.0
        self._Y = np.multiply(Y, 2.0**-600, out=Y).reshape(J, m, w)
        H = self._T(self._Y)
        H[:, np.arange(w), np.arange(w)] += np.concatenate([np.ones((J, idx.size)), gamma],
                                                           axis=1)
        self._Hinv = np.linalg.inv(H)

    def _T(self, y: np.ndarray) -> np.ndarray:
        """T_j y_j for each piece, y of shape (J, m, q)."""
        t = y[:, self._idx] * self._coef
        return t if self._rows is None else np.concatenate([t, self._rows @ y], axis=1)

    def __call__(self, r: np.ndarray, s: np.ndarray | None = None):
        """``(x, K)`` for the right-hand sides ``r``, (J m,) or (J m, q) in the
        band's stacked order, and ``s``, (J, b) or (J, b, q); K is (J, c + b, q)."""
        J, m, _ = self._Y.shape
        y = self._solve(r)
        t = self._T(y.reshape(J, m, -1))
        if s is not None:
            t[:, self._idx.size:] -= s.reshape(t[:, self._idx.size:].shape)
        K = self._Hinv @ t
        y -= (self._Y @ K).reshape(y.shape)
        return y, K


def _cut_closure(solve, m: int, cut, trans: str = "N", border=None) -> _Closure:
    """The :class:`_Closure` of a band cut into J pieces of m rows, in ``trans``.

    ``solve`` inverts the cut band A0 (with ``trans="T"``, its transpose; a
    solve that takes no ``trans`` serves ``"N"`` alone).  ``cut`` = (rows,
    cols, vals) are the entries cut from each piece: A = A0 + E R with E the
    unit columns at ``rows`` and R the rows holding ``vals`` (c or (J, c))
    at ``cols``.  ``border`` = (b, d, gamma), b and d (J, m, nb) and gamma
    (J, nb), borders A as [[A, b], [d^T, -gamma]].  The transpose
    A^T = A0^T + R^T E^T swaps each entry's row and column, and the border's
    b and d; gamma is the caller's for that ``trans``.
    """
    rows, cols, vals = cut
    vals = np.atleast_2d(vals)
    J, c = vals.shape
    if border is None:
        border = (np.zeros((J, m, 0)), np.zeros((J, m, 0)), np.zeros((J, 0)))
    b, d, gamma = border
    U = np.zeros((J, m, c))
    if trans == "T":
        solve = partial(solve, trans="T")
        U[:, cols, np.arange(c)] = vals
        idx, coef, b, d = rows, np.ones_like(vals), d, b
    else:
        U[:, rows, np.arange(c)] = 1.0
        idx, coef = cols, vals
    return _Closure(solve, np.concatenate([U, b], axis=2), idx, coef, d.transpose(0, 2, 1),
                    gamma)


def _flush(a):
    """Zero every entry of ``a`` below the smallest normal float: subnormals
    are slow and carry no digits here."""
    a[np.abs(a) < np.finfo(float).tiny] = 0.0


def _chain(blocks: np.ndarray, cut: float = 1.0) -> np.ndarray:
    """(J, m) couplings of J blocks as one band's, ``cut`` between blocks."""
    return np.concatenate([blocks, np.full((blocks.shape[0], 1), cut)], axis=1).reshape(-1)[:-1]


class _Condensed:
    """A tridiagonal band with the runs of rows it does not keep eliminated once.

    The band is J blocks with the same pieces (``sizes``) and the same kept
    rows (``keep``, a mask over a block's M rows).  ``main`` is (J, M), and
    ``lower`` and ``upper`` are (J, M - 1): row p + 1 couples back to row p
    through ``lower[:, p]`` and row p to p + 1 through ``upper[:, p]``, as in
    :func:`_band_pieces`.  Every maximal run E of a piece's rows that ``keep``
    leaves out is eliminated (static condensation, Numerical Recipes §2.7),
    in the symmetric form A = S T S^-1 of the pieces
    (:func:`_symmetric_form`): the runs are factored as one band, T_EE, and
    one 2-column solve gives their end columns A_EE^-1 [e_f, e_l] (or
    A_EE^-T [e_f, e_l]).  A run whose rows, the diagonal and the couplings
    inside it, are the same in every block, bit for bit, is shared: the
    shared runs are a band of their own, each in its own symmetric form
    (:func:`_symmetrized`, which reads its rows alone), factored once, and
    one copy of their end columns, a block matrix, serves all blocks.
    Eliminating E changes the kept band only at E's neighbours kL and kR:
    their diagonals, and a new coupling -T[kL, f] (T_EE^-1)[f, l] T[l, kR]
    between them.  Each run's block is an M-matrix,
    whose inverse is positive, so the new couplings keep the signs of the
    old ones, and the kept band (``band``) is S_K T' S_K^-1 with T'
    symmetric: no product of two couplings is formed, which would underflow
    across a long run.  A coupling below the smallest normal float is a cut.
    A cyclic band is condensed as its cut pieces: when each piece keeps its
    first and last rows, its corners join kept rows, and the caller puts
    them back on the kept band as they are (:func:`_cut_closure`).

    Each run keeps its ties to its neighbours (with ``dense="N"``, A[kL, f]
    and A[kR, l]).  With its end columns they restrict A x = b to the kept
    rows (:meth:`restrict`), and extend a kept solution of A^T x = b, b zero
    on E, to E (:meth:`extend`); with ``dense="T"``, A and A^T swap roles.
    :attr:`gone` lists the eliminated rows, the blocks' own runs first.
    ``border`` = (b, d), each (J, M, c), borders A as [[A, b], [d^T, -gamma]];
    :attr:`border` is what is left of it on the kept rows: (b_K - A_KE u,
    d_K - A_EK^T A_EE^-T d_E, d_E^T u, u^T), u = A_EE^-1 b_E per block, on
    the rows of :attr:`gone`, so u^T is (J, c, rows).  gamma grows by the
    third; u enters the extension of A x = b as -u mu.

    A ``dense="N"`` band without a border keeps its shared runs' factor,
    and another block with the same shared rows joins it (:meth:`member`):
    only its own runs are eliminated, and the member solves A x = b on
    every row (:meth:`solve`).
    """

    def __init__(self, main, lower, upper, sizes, keep, dense: str = "N", border=None):
        J, M = main.shape
        ends = np.cumsum(sizes)
        heads = ends - sizes
        piece = np.repeat(np.arange(len(sizes)), sizes)
        gone = ~keep
        linked = gone[:-1] & gone[1:] & (piece[1:] == piece[:-1])
        first = np.flatnonzero(gone & ~np.r_[False, linked])
        last = np.flatnonzero(gone & ~np.r_[linked, False])
        lens = last - first + 1
        # a run is shared if its diagonal and inner couplings are the same in
        # every block, bit for bit; the blocks' own runs go first
        same = np.all(main == main[0], axis=0)
        same[:-1] &= ~linked | np.all((lower == lower[0]) & (upper == upper[0]), axis=0)
        shared = np.logical_and.reduceat(same[gone], np.cumsum(lens) - lens)
        order = np.argsort(shared, kind="stable")
        first, last, lens = first[order], last[order], lens[order]
        has_l = first > heads[piece[first]]
        has_r = last < ends[piece[last]] - 1
        K = np.flatnonzero(keep)
        at = np.zeros(M, dtype=int)
        at[K] = np.arange(K.size)
        own = np.count_nonzero(~shared)
        self.kept, self._dense, self._runs, self._sizes = K, dense, (first, lens), sizes
        self._split = (int(lens[:own].sum()), own)
        kl = np.where(has_l, first - 1, 0)
        kr = np.where(has_r, last + 1, 0)
        # per run: whether it has a left and a right neighbour, and its
        # neighbours' rows, in the band and kept
        self._layout = (has_l, has_r, kl, at[kl], at[kr])
        self._nbr = np.stack(self._layout[3:])
        E = self.gone
        rows = self._split[0]
        c = 0 if border is None else border[0].shape[2]
        ends_all = np.empty((3, J, first.size))
        # the border's u (J, c, rows), from no run at all too, and u and v at
        # the runs' first and last rows
        u_T, uv_ends = [np.zeros((J, c, 0))], np.empty((4, J, first.size, c))
        grow = np.zeros((J, c))

        def bordered(band, a, z, B, rows):
            # u = A_EE^-1 b_E and v = A_EE^-T d_E of every block; a shared
            # run solves the blocks' columns side by side
            m = rows.size
            u, v = (band.solve(x[:, rows].reshape(B, J // B, m, c).transpose(0, 2, 1, 3)
                               .reshape(B * m, -1), t).reshape(B, m, J // B, c)
                    .transpose(0, 2, 1, 3).reshape(J, m, c) for x, t in zip(border, "NT"))
            le = np.cumsum(lens[a:z]) - 1
            fe = le - lens[a:z] + 1
            uv_ends[:, :, a:z] = u[:, fe], u[:, le], v[:, fe], v[:, le]
            u_T.append(u.transpose(0, 2, 1))
            return np.einsum("jmc,jmc->jc", border[1][:, rows], u)

        # the blocks' own runs, factored as one band
        coupled = self.coupled(lower, upper)
        self._own = (np.zeros((J, 2, 0)), lens[:0], lens[:0])
        if own:
            band = _SymmetrizedBand(main[:, E[:rows]].reshape(-1), *coupled[1])
            ends_all[:, :, :own], y = self._ends(band, 0, own, J)
            self._own = (y, np.cumsum(lens[:own]) - lens[:own], lens[:own])
            if c:
                grow += bordered(band, 0, own, J, E[:rows])

        # the shared runs: one copy of their rows, factored once
        self._shared, self._shared_band = np.zeros((0, 0)), None
        sh = E[rows:]
        if sh.size:
            band = _symmetrized(main[0, sh], lower[0, sh[:-1]], upper[0, sh[:-1]], lens[own:])
            ends_all[:, :, own:], y = self._ends(band, own, first.size, 1)
            # one block matrix: row (side, run) holds the run's end column
            D = np.zeros((2, first.size - own, sh.size))
            D[:, np.repeat(np.arange(first.size - own), lens[own:]), np.arange(sh.size)] = y[0]
            self._shared = D.reshape(-1, sh.size)
            if c:
                grow += bordered(band, own, first.size, 1, sh)
            if dense == "N" and border is None:
                self._shared_band = band
        self._close(main[:, K], coupled, ends_all)
        self._shared_ends = ends_all[:, :1, own:]

        self.border = None
        if c:
            has_l, has_r, _, at_l, at_r = self._layout
            into_l, from_l, into_r, from_r = coupled[0]
            b_k, d_k = (x[:, K] for x in border)
            uf, ul, vf, vl = uv_ends
            for x_k, xf, xl, tie_l, tie_r in ((b_k, uf, ul, into_l, into_r),
                                              (d_k, vf, vl, from_l, from_r)):
                x_k[:, at_l[has_l]] -= (tie_l[..., None] * xf)[:, has_l]
                x_k[:, at_r[has_r]] -= (tie_r[..., None] * xl)[:, has_r]
            self.border = (b_k, d_k, grow, np.concatenate(u_T, axis=-1))

    def coupled(self, lower, upper):
        """What the condensation reads of the blocks' couplings alone.

        From ``lower`` and ``upper`` (J, M - 1), whose symmetric form A =
        S T S^-1 it forms (:func:`_symmetric_form`): each run's ties, A[kL, f],
        A[f, kL], A[kR, l] and A[l, kR] (J, runs each; zero where a run has
        no neighbour); T's off-diagonal (chained) and S on the own runs'
        rows; T's off-diagonal (J, kept rows - 1) and S on the kept rows; and
        each run's T[kL, f] s_l / s_f T[l, kR].
        """
        J = lower.shape[0]
        off, s = _symmetric_form(_chain(lower), _chain(upper), np.tile(self._sizes, J))
        off, s = np.append(off, 0.0).reshape(J, -1), s.reshape(J, -1)
        first, lens = self._runs
        last = first + lens - 1
        has_l, has_r, kl = self._layout[:3]
        at_r = np.minimum(last, lower.shape[1] - 1)
        into_l = np.where(has_l, upper[:, kl], 0.0)
        from_l = np.where(has_l, lower[:, kl], 0.0)
        into_r = np.where(has_r, lower[:, at_r], 0.0)
        from_r = np.where(has_r, upper[:, at_r], 0.0)
        rows, K = self.gone[:self._split[0]], self.kept
        return ((into_l, from_l, into_r, from_r),
                (_chain(off[:, rows[:-1]] * (np.diff(rows) == 1), 0.0), s[:, rows].reshape(-1)),
                (off[:, K[:-1]] * (np.diff(K) == 1), s[:, K].reshape(-1)),
                off[:, kl] * s[:, last] / s[:, first] * off[:, last])

    def _ends(self, band, a: int, z: int, B: int):
        """``(ends, y)`` of the runs a ... z - 1, factored as ``band`` for B
        blocks: ends = (ff, ll, fl), (B, runs) each, the end entries of
        their end columns (dense N reads A_EE^-T [e_f, e_l], dense T reads
        A_EE^-1 [e_f, e_l]), and y = minus the end columns, (B, 2, rows)."""
        lens = self._runs[1][a:z]
        m = lens.sum()
        fe = np.cumsum(lens) - lens
        le = fe + lens - 1
        # both columns of all B blocks, (B m, 2) in Fortran order for LAPACK
        unit = np.zeros((2, B, m))
        unit[0][:, fe] = unit[1][:, le] = 1.0
        Y = band.solve(unit.reshape(2, -1).T, "T" if self._dense == "N" else "N")
        Y = Y.T.reshape(2, B, m)
        ends = (Y[0][:, fe], Y[1][:, le], Y[0][:, le] if self._dense == "N" else Y[1][:, fe])
        y = np.ascontiguousarray(-Y.transpose(1, 0, 2))
        _flush(y)
        return ends, y

    def _close(self, main_k, coupled, ends):
        """The kept band and each run's ties, from every block's diagonal on
        the kept rows (overwritten), its :meth:`coupled` and the runs' end
        entries (ff, ll, fl)."""
        J = main_k.shape[0]
        has_l, has_r, _, at_l, at_r = self._layout
        (into_l, from_l, into_r, from_r), _, (off_k, s_k), cross = coupled
        ff, ll, fl = ends
        main_k[:, at_l[has_l]] -= (into_l * ff * from_l)[:, has_l]
        main_k[:, at_r[has_r]] -= (into_r * ll * from_r)[:, has_r]
        # the new coupling kL - kR in T, -T[kL, f] (T_EE^-1)[f, l] T[l, kR]
        both = has_l & has_r
        new = -(cross * fl)[:, both]
        _flush(new)
        off_k = off_k.copy()
        off_k[:, at_l[both]] = new
        self.band = _SymmetrizedBand(main_k.reshape(-1), _chain(off_k, 0.0), s_k)
        # each run's ties, the other way round, and its kept neighbours
        pairs = ([into_l, into_r], [from_l, from_r])
        self._ties, self._back = (np.stack(p, axis=1)
                                  for p in (pairs if self._dense == "N" else pairs[::-1]))
        # where each block's run sums land in the kept rows of all blocks
        self._to = (self._nbr + self.kept.size * np.arange(J)[:, None, None]).reshape(-1)

    def member(self, main, coupled) -> "_Condensed":
        """This band's condensation of one more block.

        ``main`` is the block's diagonal on the kept rows and then on the
        rows of :attr:`gone` (its own runs' at least), and ``coupled`` is
        :meth:`coupled` of its couplings, one block.  Its rows on the shared
        runs must be this band's, bit for bit: their factor and end columns
        serve it as they are, and only its own runs are eliminated.  It
        keeps their factor for :meth:`solve`.
        """
        if self._dense != "N" or self.border is not None:
            raise ValueError("only a dense N band without a border takes a member")
        new = copy.copy(self)
        (rows, own), m = self._split, self.kept.size
        ends = np.empty((3, 1, self._runs[0].size))
        ends[:, :, own:] = self._shared_ends
        new._own_factor = band = _SymmetrizedBand(main[m:m + rows].copy(), coupled[1][0].copy(),
                                                  coupled[1][1])
        ends[:, :, :own], y = new._ends(band, 0, own, 1)
        new._own = (y,) + self._own[1:]
        new._close(main[None, :m].copy(), coupled, ends)
        return new

    @property
    def gone(self) -> np.ndarray:
        """The eliminated rows, the blocks' own runs first (built on each read)."""
        first, lens = self._runs
        return np.repeat(first - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())

    @cached_property
    def edges(self) -> np.ndarray:
        """Where each shared run's first and then its last row sits in the
        shared runs' rows (the columns of their end columns), run by run."""
        lens = self._runs[1][self._split[1]:]
        last = np.cumsum(lens) - 1
        return np.stack([last - lens + 1, last], axis=1).reshape(-1)

    def shared_sums(self, gone: np.ndarray) -> np.ndarray:
        """The products of the shared runs' end columns with the right-hand
        side ``gone`` on the rows of :attr:`gone`, (..., 2 x shared runs)."""
        return gone[..., self._split[0]:] @ self._shared.T

    def restrict(self, kept: np.ndarray, gone: np.ndarray,
                 shared: np.ndarray | None = None) -> np.ndarray:
        """The kept rows' right-hand sides, (J, kept rows), from a right-hand
        side given as its kept rows and its rows of :attr:`gone` (each per
        block, or one for all blocks): a shared run's end columns read one
        right-hand side once (or ``shared`` gives their :meth:`shared_sums`,
        and ``gone`` may stop at the shared runs), and each block scales the
        result by its ties."""
        rows, runs = self._split
        y, starts, _ = self._own
        sums = np.empty(self._ties.shape)
        sums[..., :runs] = np.add.reduceat(y * gone[..., None, :rows], starts, axis=-1)
        if shared is None:
            shared = self.shared_sums(gone)
        sums[..., runs:] = shared.reshape(*shared.shape[:-1], 2, -1)
        # a side without a neighbour has ties 0 and adds 0.0
        sums *= self._ties
        J = sums.shape[0]
        out = np.bincount(self._to, sums.reshape(-1), minlength=J * self.kept.size)
        out = out.reshape(J, -1)
        out += kept
        return out

    def tied(self, x: np.ndarray, weights: np.ndarray):
        """The two parts of :meth:`extend`: its values on the own runs' rows,
        and the weighted ties of the shared runs summed over the blocks,
        (2 x shared runs,), whose product with their end columns is the rest."""
        _, runs = self._split
        y, _, lens = self._own
        tied = weights[:, None, None] * self._ties * x.take(self._nbr, axis=1)
        own = np.einsum("jse,jse->e", y, np.repeat(tied[..., :runs], lens, axis=-1))
        return own, tied[..., runs:].sum(axis=0).reshape(-1)

    def extend(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_j weights_j x_j on the rows of :attr:`gone`, for the solutions
        x_j whose kept rows are ``x``, (J, kept rows); the weighted ties of a
        shared run are summed over the blocks before its one product."""
        own, tied = self.tied(x, weights)
        return np.concatenate([own, tied @ self._shared])

    def solve(self, kept: np.ndarray, gone: np.ndarray):
        """``(x_K, x_E)``: a :meth:`member`'s solution of A x = b on its kept
        rows and on the rows of :attr:`gone`, for b given on the same rows.
        The runs are solved after the kept rows, with the kept neighbours'
        terms moved to the right-hand side, so x_E costs one more solve of
        the runs' factors."""
        x = self.band.solve(self.restrict(kept, gone)[0])
        first, lens = self._runs
        fe = np.cumsum(lens) - lens
        r = gone.copy()
        nbr = x[self._nbr]
        r[fe] -= self._back[0, 0] * nbr[0]
        r[fe + lens - 1] -= self._back[0, 1] * nbr[1]
        rows = self._split[0]
        parts = [self._own_factor.solve(r[:rows])]
        if self._shared_band is not None:
            parts.append(self._shared_band.solve(r[rows:]))
        return x, np.concatenate(parts)


class SubdomainSolver:
    """Dirichlet inverses of the mode gauge Laplacian on runs of nodes, as one band.

    ``diags`` are the (L, D, U) diagonals of the two rho channels from
    :func:`channel_diagonals`.  Each of ``runs`` must be one run of
    consecutive nodes in period order (the thick run wraps across
    tau = +-2 and is rolled into that order); runs may overlap.  Each
    channel's Dirichlet submatrix on each run is a piece of one symmetrized
    band (:func:`_stacked_band`), so a solve is one L D L^T solve between two
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


def cap_indices(grid: RadialGrid) -> np.ndarray:
    """The nodes whose channel rows are the same at every ell, in period order.

    A row of :func:`channel_diagonals` reads F, F' and F'' at its own node
    only, and F = Q + ell^2 w with w, w' and w'' exactly 0 on |tau| >= 7/8
    (:meth:`ModelSurfaceMetric.grid_pieces`): the cap, one run that wraps
    across tau = +-2.
    """
    _, _, weight = ModelSurfaceMetric.grid_pieces(grid)
    still = np.logical_and.reduce([p == 0.0 for p in weight])
    return _period_run(np.flatnonzero(still), grid.n)


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
    L and U do not depend on k (:func:`channel_couplings`): every mode on
    one surface and grid shares them, read-only.
    """
    F, Fp, Fpp = surface.grid_jet(grid)
    L, U = channel_couplings(surface, grid)
    mid = -F * (-2.0 / grid.weights[0] ** 2)
    D = np.array([0.5 * (mid + channel_potential(F, Fp, Fpp, k, sign))
                  for sign in (+1, -1)])
    return L, D, U


def channel_couplings(surface: ModelSurfaceMetric, grid: RadialGrid):
    """The diagonals L and U of :func:`channel_diagonals`, which no k changes.

    They are kept, read-only, with the surface's jet for its last grid
    (:meth:`ModelSurfaceMetric.grid_jet`).
    """
    if grid.scheme != "periodic":
        raise ValueError("channel diagonals need a periodic finite-difference grid")
    F, Fp, _ = surface.grid_jet(grid)
    kept = surface._grid_jet
    if len(kept) < 3:
        h = grid.weights[0]
        side = -F * (1.0 / h**2)
        pair = (np.tile(0.5 * (side + (-Fp) * (-0.5 / h)), (2, 1)),
                np.tile(0.5 * (side + (-Fp) * (0.5 / h)), (2, 1)))
        for d in pair:
            d.flags.writeable = False
        kept.append(pair)
    return kept[2]


def band_matvec(diags, w: np.ndarray, trans: str = "N") -> np.ndarray:
    """``P @ w`` for w of shape (2, n), from the diagonals ``diags`` of P;
    ``P.T @ w`` with ``trans="T"``.

    Each row sums its three terms in column order, as scipy's CSC and CSR
    matvecs of the same matrix do, so the result matches them bit for bit.
    Row i of P^T holds U_{i-1}, D_i and L_{i+1} (cyclically in each channel),
    read from P's own diagonals.
    """
    L, D, U = (d.reshape(-1) for d in diags)
    x = w.reshape(-1)
    n = w.shape[-1]
    y = np.empty_like(x)
    # both channels as one flat band; the first and last row of each channel
    # (wrong here, and the only rows with a periodic corner) are redone below
    if trans == "T":
        y[1:-1] = U[:-2] * x[:-2] + D[1:-1] * x[1:-1] + L[2:] * x[2:]
    else:
        y[1:-1] = L[1:-1] * x[:-2] + D[1:-1] * x[1:-1] + U[1:-1] * x[2:]
    for a in (0, n):
        b = a + n - 1
        # the lower and upper entries of the rows a and b
        la, ua, lb, ub = ((U[b], L[a + 1], U[b - 1], L[a]) if trans == "T"
                          else (L[a], U[a], L[b], U[b]))
        y[a] = D[a] * x[a] + ua * x[a + 1] + la * x[b]
        y[b] = ub * x[a] + lb * x[b - 1] + D[b] * x[b]
    return y.reshape(w.shape)


def kernel_complement(w: np.ndarray, kernel, weights) -> np.ndarray:
    """w with each channel's weighted-L^2 component along ``kernel`` removed.

    Returns w itself when ``kernel`` is None (k != 0), otherwise a new array.
    """
    if kernel is None:
        return w
    w = np.asarray(w, dtype=float)
    return w - np.outer(w @ (weights * kernel), kernel)


def _cut_cycle(diags):
    """``(solve, cut)``: both channels' cyclic band with its corners cut,
    factored as one band, and the cut entries (:func:`_cyclic_corners`)."""
    n = diags[1].shape[1]
    return (_stacked_band(diags, [np.arange(n)])[1].solve,
            _cyclic_corners(np.stack(diags, axis=1)))


def zero_mode(surface: ModelSurfaceMetric, grid: RadialGrid):
    """``(diags, kernel)``: the k = 0 channel diagonals and the kernel.

    The kernel sqrt(F), the same in both channels, is sharpened to the
    discrete near-null vector of the cyclic band by inverse iteration
    (:func:`discrete_near_null`) and normalized in the weighted L^2 norm.
    Only the band and one closure are built, not a :class:`GlobalModeSolver`.
    """
    diags = channel_diagonals(surface, grid, 0)
    return diags, _sharpened_kernel(surface, grid, *_cut_cycle(diags))


def _sharpened_kernel(surface, grid, solve, cut) -> np.ndarray:
    """The kernel of :func:`zero_mode`, from the cut band's ``solve`` and ``cut``."""
    n = grid.n
    closure = _cut_closure(solve, 2 * n, cut)
    # inverse iteration on channel +, with channel - kept at zero
    seed = np.append(np.sqrt(surface.grid_jet(grid)[0]), np.zeros(n))
    q = discrete_near_null(lambda r: closure(r)[0], seed)[:n]
    return q / math.sqrt(float(grid.weights @ (q * q)))


class GlobalModeSolver:
    """Direct solve of the mode-k gauge Laplacian on the closed surface.

    Both rho channels (:func:`channel_diagonals`) form one tridiagonal band
    A0 with their cyclic corners cut (:func:`_cyclic_corners`), A = A0 + E R
    (E the unit columns of the four corner rows, R their corner entries).
    A0 is factored once, each channel a piece of one symmetrized band
    (:func:`_stacked_band`), which serves both ``trans``.  At k = 0 each
    channel's kernel sqrt(F), sharpened to the discrete near-null vector by
    inverse iteration as :func:`zero_mode` sharpens it, borders it:
    [[P_0^+-, c], [c^T, 0]] with c the weighted kernel keeps the solution in
    the kernel's weighted complement, and the multiplier absorbs any kernel
    component of the right-hand side.  A solve is one band solve and a 4 x 4
    (k = 0: 6 x 6) Woodbury closure (:func:`_cut_closure`), built for each
    ``trans`` on the first solve that asks for it.
    """

    def __init__(self, surface: ModelSurfaceMetric, grid: RadialGrid, k: int):
        self.k = int(k)
        self.grid = grid
        n = grid.n
        self.diags = channel_diagonals(surface, grid, self.k)
        self._solve, self._cut = _cut_cycle(self.diags)
        self.kernel = self._border = None
        if self.k == 0:
            self.kernel = _sharpened_kernel(surface, grid, self._solve, self._cut)
            c = np.zeros((1, 2 * n, 2))
            c[0, :n, 0] = c[0, n:, 1] = grid.weights * self.kernel
            self._border = (c, c, np.zeros((1, 2)))
        self._closures = {}

    def project_out_kernel(self, w: np.ndarray) -> np.ndarray:
        return kernel_complement(w, self.kernel, self.grid.weights)

    def solve_channels(self, w: np.ndarray, trans: str = "N") -> np.ndarray:
        """w shape (2, n) channel pairs; one stacked band solve."""
        if trans not in self._closures:
            self._closures[trans] = _cut_closure(self._solve, 2 * self.grid.n, self._cut,
                                                 trans, self._border)
        return self._closures[trans](w.reshape(-1))[0].reshape(w.shape)


def _central(u: np.ndarray, c: float, ends=None) -> np.ndarray:
    """The periodic d1 stencil c (u[i + 1] - u[i - 1]) along the last axis.

    With ``ends`` = (u_before, u_after), u is given on a run of a grid's
    nodes and continues past its first node with u_before and past its last
    with u_after.
    """
    d = np.empty_like(u)
    d[..., 1:-1] = u[..., 2:] - u[..., :-2]
    before, after = (u[..., -1], u[..., 0]) if ends is None else ends
    d[..., 0] = u[..., 1] - before
    d[..., -1] = after - u[..., -2]
    return c * d


def _factored_band(sqF, beta, K, c) -> np.ndarray:
    """M+ = -(A + K)(B - K/2) on a run of m rows, in ``dgbtrf`` storage with margins.

    A = sqrt(F) d1 + 2 beta and B = (sqrt(F) d1 - beta) / 2, d1 of weight
    ``c`` = 1 / (2h), multiply as bands: (A B)[i, i + s + t] = a_s[i] b_t[i + s].
    With q = c sqrt(F), a_-1 = -q, a_1 = q and b_+-1 = +-q / 2 exactly, so
    each of the five diagonals is written once, from the products q_i q_{i+1}
    / 2 and a_0 q, as the sum of its terms in the (s, t) order.  K = None
    gives M = -A B; M- = -(A - K)(B + K/2) is M+ of -K.  The coefficients
    are given on the m + 2 nodes around the run, all that its rows read.
    The (7, m + 4) Fortran array holds M[i, j] at [4 + i - j, j + 2], i and
    j counted from the run's first node: ``[:, 2:-2]`` is the run's band, and
    the two margin columns on each side hold the entries that reach outside
    it (:func:`_margins`).
    """
    a0, b0 = ((2.0 * beta, -0.5 * beta) if K is None else
              (2.0 * beta + K, -0.5 * (beta + K)))
    q = c * sqF
    qq = 0.5 * (q[:-1] * q[1:])  # -a_-1 b_1 on the left, -a_1 b_-1 on the right
    aq = 0.5 * (a0[1:-1] * q[1:-1])  # a_0 b_1, -a_0 b_-1
    m = sqF.size - 2
    ab = np.zeros((7, m + 4), order="F")
    ab[6, :m] = -qq[:-1]
    ab[5, 1:m + 1] = q[1:-1] * b0[:-2] + aq
    ab[4, 2:m + 2] = (qq[:-1] - a0[1:-1] * b0[1:-1]) + qq[1:]
    ab[3, 3:m + 3] = -(aq + q[1:-1] * b0[2:])
    ab[2, 4:] = -qq[1:]
    return ab


def _margin_cells(m: int) -> list:
    """``(i, j)`` of each margin entry of :func:`_factored_band` on m rows, row
    by row in column order: the column j is -2, -1, m or m + 1."""
    return [(i, j) for i in (*range(min(m, 2)), *range(max(m - 2, 2), m))
            for j in range(i - 2, i + 3) if not 0 <= j < m]


def _margins(ab):
    """``(rows, cols, vals)``: the entries in the margins of ``ab``
    (:func:`_margin_cells`)."""
    rows, cols = np.array(_margin_cells(ab.shape[1] - 4)).T
    return rows, cols, ab[4 + rows - cols, cols + 2]


def _band_solve(ab):
    """A solve with the ``dgbtrf`` factors of the half-width-2 band ``ab``.

    ``ab`` is LAPACK band storage, (7, m) in Fortran order, such as a run's
    band of :func:`_factored_band` (a view into its array), and is factored
    in place.  The returned solve holds the factors and nothing else, so a
    solver that keeps it forms no reference cycle and is freed without the
    garbage collector.
    """
    lu, piv, info = lapack.dgbtrf(ab, 2, 2, overwrite_ab=1)
    if info:
        raise RuntimeError("factored band is exactly singular")
    return lambda b: lapack.dgbtrs(lu, 2, 2, b, piv)[0]


def _sector_band(ab, lo: int, h: int) -> np.ndarray:
    """The band of ``ab``'s run, the nodes lo, lo + 1, ..., on the odd sector
    of R: i -> 2h - i, folded in place; a view of ``ab``.

    ``ab`` is :func:`_factored_band`'s, for an M that commutes with R on
    n = 2h nodes.  The odd sector has the nodes 1 ... h - 1.  A margin entry
    folds onto its mirror by u_{-j} = -u_j, u_{h + j} = -u_{h - j} when the
    mirror is in the run, and is dropped otherwise.
    """
    m = ab.shape[1] - 4
    # in margin order: on a one-node run both ends fold onto its diagonal
    for i, j in _margin_cells(m):
        to = -j - 2 * lo if j < 0 else 2 * (h - lo) - j  # the mirror, from lo
        if 0 <= to < m:
            ab[4 + i - to, to + 2] -= ab[4 + i - j, j + 2]
    return ab[:, 2:-2]


class OddCap:
    """The ell-independent cap of the k = 0 odd sector on one grid, condensed
    for the neck window, where a Weil-Petersson row solves.

    F = Q + ell^2 w, and w and w' vanish exactly on |tau| >= 7/8, so on the
    grid's mirror half the nodes before the first where they do not
    (:meth:`~ModelSurfaceMetric.grid_pieces`) carry the same sqrt(F) and
    beta, bit for bit, at every ell.  The cap is the sector's unknowns
    1 ... p whose rows, and the two coupling rows p + 1 and p + 2, read only
    such nodes; it is empty on coarse grids (n <= 14).  In blocks, with 1
    the cap and 2 the neck rows p + 1 ... n/2 - 1, M x = r for an r that
    vanishes on the cap is

        (A22 - A21 Z) x2 = r2,  x1 = -Z a,  a = (x_{p+1}, x_{p+2}),

    Z = A11^-1 A12, of shape (p, 2): the cap's values are linear in the two
    interface values.  The band writer (:func:`_factored_band`) gives the
    blocks: A11 is the cap run 1 ... p, its pole margin folded
    (:func:`_sector_band`), A12 that run's right margin, and A21 the left
    margin of the rows p + 1, p + 2.  The 2 x 2 :attr:`update` A21 Z is made
    once per grid and kept with it (:meth:`~wpneck.grids.RadialGrid.keep`),
    so a WP row factors and solves the neck rows alone (:meth:`condensed`).
    :attr:`edge` gives (x_{p-1}, x_p) from a (with p = 0, x_{-1} = -x_1 and
    x_0 = 0); the conformal Killing image of x on the cap nodes 0 ... p - 1,
    the only ones that read cap values alone, is Y a, and its pairing over
    them is a^T G a with G = Y^T W Y, W the mirror half's weights there
    (:attr:`gram`).  Every cap node lies at least four spacings beyond
    |tau| = 7/8, outside the neck where the conformal factor is solved
    (:func:`~wpneck.uniformize.solve_conformal_factor`), so the factor's
    weight is 1 there and G serves every row.
    :attr:`window` is the nodes p ... n/2, where a row's fields live.  The
    window and the cap span 0 ... p + 3 keep views of the mirror half's
    profile pieces (:meth:`~ModelSurfaceMetric.span_pieces`), so the pieces
    are computed once, on the half.
    """

    def __init__(self, grid: RadialGrid):
        half = grid.mirror_half
        h = half.n - 1
        _, _, (w, wp, _) = ModelSurfaceMetric.grid_pieces(half)
        moving = np.flatnonzero((w != 0.0) | (wp != 0.0))
        # row p + 2 reads the nodes p + 1 ... p + 3, all before the first moving one
        p = max((moving[0] if moving.size else h + 1) - 4, 0)
        self.p = p
        c = 0.5 / grid.weights[0]
        self._c = c
        self._h = h
        self.window = ModelSurfaceMetric.span_pieces(half, p, h + 1)
        self.update = np.zeros((2, 2))
        Z = np.zeros((0, 2))
        sqF = beta = np.zeros(0)
        if p:
            # the coefficients of the nodes 0 ... p + 3, the same at every ell
            still = ModelSurfaceMetric(ell=0.0).grid_jet(
                ModelSurfaceMetric.span_pieces(half, 0, p + 4))
            sqF, beta = _coefficients(still)
            cap = _factored_band(sqF[:p + 2], beta[:p + 2], None, c)
            A12 = np.zeros((p, 2), order="F")
            rows, cols, vals = _margins(cap)
            right = cols >= p
            A12[rows[right], cols[right] - p] = vals[right]
            A21 = np.zeros((2, 2))
            rows, cols, vals = _margins(_factored_band(sqF[p:], beta[p:], None, c))
            left = cols < 0
            A21[rows[left], cols[left] + 2] = vals[left]
            q = min(p, 2)
            Z = _band_solve(_sector_band(cap, 1, h))(A12)
            self.update = A21[:, 2 - q:] @ Z[p - q:]
        # x_j for j = -1 ... p + 2, one column per unit a
        X = np.zeros((p + 4, 2))
        X[p + 2, 0] = X[p + 3, 1] = 1.0
        X[2:p + 2] = -Z
        X[0] = -X[2]
        self.edge = X[p:p + 2].copy()
        sq, be = sqF[:p, None], beta[:p, None]
        Y = 0.5 * (sq * (c * (X[2:p + 2] - X[:p])) - be * X[1:p + 1])
        self.gram = Y.T @ (half.weights[:p, None] * Y)

    def condensed(self, sqF, beta) -> np.ndarray:
        """The ``dgbtrf`` storage of A22 - A21 Z, from the coefficients on the window."""
        ab = _sector_band(_factored_band(sqF, beta, None, self._c), self.p + 1, self._h)
        k = min(2, ab.shape[1])
        for i in range(k):
            for j in range(k):
                ab[4 + i - j, j] -= self.update[i, j]
        return ab


def _coefficients(jet) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(F), beta = F' / (2 sqrt(F))) from the jet (F, F', F'')."""
    F, Fp, _ = jet
    sqF = np.sqrt(F)
    return sqF, Fp / (2.0 * sqF)


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

    five cyclic diagonals each, from the stencil coefficients with no sparse
    matrix.  Every band here is written by :func:`_factored_band`, on a run
    of rows in LAPACK ``dgbtrf`` storage (half-width 2), with the entries
    that reach outside the run in its margins.  F is even and the grid
    reflection R: i -> n - i reverses the central difference, so
    M- = R M+ R, and only M+ is built (:attr:`band`, the whole cycle, on
    first read).  A whole-grid solve factors it, its margins the cyclic
    corners that :func:`_cut_closure` puts back (:attr:`_cycle`, built on
    the first such solve).  At k >= 1 the channel + right-hand side and the
    reflected channel - one are its two columns.  At k = 0 the channels are
    one matrix M = -A B, singular, and the closure borders its two null
    directions, sqrt(F) and the checkerboard (-1)^i / sqrt(F), so that the
    solution lies in the complement of the weighted pair; the two sigma
    components are its two columns.

    M commutes with R at k = 0, and its odd sector is a plain band
    (:func:`_sector_band` folds a run's margins onto their mirrors),
    condensed onto its neck rows (:class:`OddCap`, kept with the grid): here
    only those rows are written and factored, from the coefficients of the
    :attr:`OddCap.window` alone; those of the whole grid are built on first
    read.

    A field's column count says where it lives: on all n nodes, or at
    k = 0 on the window (``cap.window.n`` columns), where a WP row computes
    its fields; any other count is refused.  On the window a tensor is even
    and a one-form odd under R, and each stands for one that vanishes on
    the cap: a tensor on the nodes 0 ... p + 1, a right-hand side on
    0 ... p.  There :meth:`solve_sigma` solves the odd sector's neck rows
    alone and gives node p's value by :attr:`OddCap.edge`, and
    :meth:`bianchi` and :meth:`conformal_killing` give their images on the
    window.  Odd grids are refused: there the exact null direction is a
    checkerboard remnant that nothing borders.
    """

    def __init__(self, surface: ModelSurfaceMetric, grid: RadialGrid, k: int):
        self.k = int(k)
        self.grid = grid
        self.surface = surface
        n = grid.n
        if n % 2 or n < 4:
            raise ValueError(f"the factored solver needs an even grid of at least "
                             f"4 nodes (got n = {n})")
        self._c = 0.5 / grid.weights[0]  # the d1 weight 1 / (2h)
        self._K = self.cap = None
        if self.k:
            self._K = self.k / self.sqF
        else:
            self.cap = grid.keep("odd cap", OddCap)
            # the neck rows p + 1 ... n/2 - 1 read the window's nodes alone
            self._window = _coefficients(surface.grid_jet(self.cap.window))
            self._solve = _band_solve(self.cap.condensed(*self._window))

    @cached_property
    def _whole(self) -> tuple[np.ndarray, np.ndarray]:
        """(sqrt(F), beta) on the whole grid, built on first read at k = 0."""
        return _coefficients(self.surface.grid_jet(self.grid))

    @cached_property
    def _cycle(self) -> _Closure:
        """The whole-grid solve, built on the first one: :attr:`band`'s run
        factored, its margins the cut corners that :func:`_cut_closure` puts
        back.  At k = 0 it borders M's null directions, [[M, b], [b^T, 0]]
        with b the weighted pair sqrt(F) and (-1)^i / sqrt(F), each
        normalized, so the solution is weighted-orthogonal to both.  At
        n = 16384 the cut band's condition (``dgbcon``) runs from 1.9e8 at
        ell = 0.9 to 7.4e17 at ell = 1e-3, yet for the Bianchi image of a
        random tensor, in M's range, the residual of M x = r measured at most
        8.3e-16 ||M|| ||x|| (8.0e-14 ||r||) over ell in [1e-3, 0.9].
        """
        n, border = self.grid.n, None
        if not self.k:
            b = np.zeros((1, n, 2))
            for j, u in enumerate((self.sqF, np.where(np.arange(n) % 2, -1.0, 1.0) / self.sqF)):
                b[0, :, j] = self.grid.weights * u / np.linalg.norm(u)
            border = (b, b, np.zeros((1, 2)))
        rows, cols, vals = _margins(self.band)
        return _cut_closure(_band_solve(self.band[:, 2:-2].copy(order="F")), n,
                            (rows, cols % n, vals), border=border)

    @property
    def sqF(self) -> np.ndarray:
        return self._whole[0]

    @property
    def beta(self) -> np.ndarray:
        return self._whole[1]

    @cached_property
    def band(self) -> np.ndarray:
        """M+ (at k = 0, M) on the whole cycle, the run of all n nodes: its
        :func:`_factored_band` from the nodes -1 ... n, whose margins hold the
        cut corners."""
        wrap = partial(np.pad, pad_width=1, mode="wrap")
        return _factored_band(wrap(self.sqF), wrap(self.beta),
                              None if self._K is None else wrap(self._K), self._c)

    def _on_window(self, m: int) -> bool:
        """Whether a field of m columns lives on the window; False on all n nodes."""
        if m == self.grid.n:
            return False
        if self.cap is not None and m == self.cap.window.n:
            return True
        window = "" if self.cap is None else f" or the neck window's {self.cap.window.n}"
        raise ValueError(f"a k = {self.k} field lives on all {self.grid.n} nodes"
                         f"{window}, not on {m}")

    def solve_sigma(self, rhs: np.ndarray) -> np.ndarray:
        """rhs: one-form sigma components (2, m); returns them on its nodes.

        On the window (see the class docstring) only the odd sector is
        solved: a ValueError is raised when the rhs's value at node n/2 (with
        an empty cap, also at node 0) exceeds 1e-10 of its largest entry, or
        when it does not vanish on the cap.
        """
        if self._on_window(rhs.shape[1]):
            p = self.cap.p
            tol = 1e-10 * _abs_max(rhs)
            if _abs_max(rhs[:, -1]) > tol or (not p and _abs_max(rhs[:, 0]) > tol):
                raise ValueError("the right-hand side is not odd under the grid reflection")
            if p and rhs[:, 0].any():
                raise ValueError("a right-hand side on the window must vanish on the cap")
            # the neck rows, and node p's value from (x_{p+1}, x_{p+2}); 0 with no cap
            x = np.zeros(rhs.shape)
            x[:, 1:-1] = self._solve(rhs[:, 1:-1].T).T
            if p:
                x[:, 0] = x[:, 1:3] @ self.cap.edge[1]
            return x
        if not self.k:
            return self._cycle(rhs.T)[0].T
        b = np.empty((rhs.shape[1], 2), order="F")
        b[:, 0] = rhs[0] + rhs[1]
        b[:, 1] = _reflect(rhs[0] - rhs[1])
        y = self._cycle(b)[0]
        p, m = y[:, 0], _reflect(y[:, 1])
        return 0.5 * np.array([p + m, p - m])

    def _on(self, u: np.ndarray, parity: float):
        """(sqrt(F), beta, ends) for ``u`` on the grid (ends None) or the
        window, where u is an even tensor (``parity`` +1) or an odd one-form
        (-1): ends = (u_{p - 1}, u_{n/2 + 1})."""
        if not self._on_window(u.shape[1]):
            return self.sqF, self.beta, None
        if not self.cap.p:  # an empty cap: the window is the mirror half
            left = parity * u[..., 1]
        elif parity < 0:  # a one-form is -Z a on the cap
            left = u[..., 1:3] @ self.cap.edge[0]
        elif u[..., :2].any():
            raise ValueError("a tensor on the window must vanish on the cap and "
                             "at the window's first two nodes")
        else:
            left = 0.0
        return (*self._window, (left, parity * u[..., -2]))

    def bianchi(self, h: np.ndarray) -> np.ndarray:
        """The Bianchi operator: sym2_full data (3, n) -> sigma components.

        The trace column cancels exactly, so this is -(A phi + K psi,
        K phi + A psi).  Data on the window is an even tensor that vanishes
        at the window's first two nodes, and its odd image is given there.
        """
        u = h[:2]
        sqF, beta, ends = self._on(u, 1.0)
        out = -(sqF * _central(u, self._c, ends) + 2.0 * beta * u)
        if self.k:
            out -= self._K * u[::-1]
        return out

    def conformal_killing(self, w: np.ndarray) -> np.ndarray:
        """The conformal Killing operator: sigma components -> (phi, psi).

        Components on the window are an odd one-form, continued onto the cap
        by :attr:`OddCap.edge`, and its even image is given there.
        """
        sqF, beta, ends = self._on(w, -1.0)
        out = 0.5 * (sqF * _central(w, self._c, ends) - beta * w)
        if self.k:
            out -= 0.5 * self._K * w[::-1]
        return out
