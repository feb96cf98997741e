"""Cutoff-glued parametrix, Neumann-series inverse, and the TT projection.

Per mode k the approximate inverse is

    Gtilde = chi0~ G0 chi0 + chi1~ G1 chi1,

with G0/G1 the Dirichlet inverses of the gauge Laplacian on the thick and
thin subdomains, so P Gtilde = Id - R with R = -sum_j [P, chi_j~] G_j chi_j.
R outputs are supported in the widener transition bands (both inside
{1/2 <= |tau| <= 3/4}), which is what makes the correction work: error
terms fed back into the Neumann series vanish near the neck.

The correction term F must be an ell-frozen family with P_ell F ~ R_ell.
The metric family is polynomial in s = ell^2 and the exact correction
E(s) = G_glob(s) R(s) is a smooth (rational) operator family in s, so F is
taken to be its Lagrange interpolant in s through a handful of frozen
reference lengths:

    F_s = sum_j lambda_j(s) G_glob(ell_j) R(ell_j).

(Freezing at a single small reference is not enough at desk scale: the
error operator's band-local ell^2 sensitivity times ||R|| ~ 10 pushes
||S|| past 1 already at ell ~ 0.2.  Each added node cuts the interpolation
error by roughly the distance to the new node.)  With the default five
nodes ||S|| vanishes at the reference nodes, but it is not below 1 over
the whole span of the nodes: :data:`DEFAULT_ELL_REFS` says where
``report`` raises.  The nodes 0.06 and 0.25 lie inside [0.05, 0.4], so
||S_ell|| is not monotone in ell there.  With

    Gbar = Gtilde + F,    S = R - P F,

P Gbar = Id - S, and the exact inverse is Gbar (Id - S)^{-1} summed as a
Neumann series while ||S|| < 1.  At k = 0 everything runs in the
complement of the conformal Killing directions (see :mod:`wpneck.surface`);
right-hand sides produced by the Bianchi operator are orthogonal to them
analytically, which the tests verify.

Each block acts on both rho channels at once, stacked as the flattened
(2, n) array, and keeps band data only:

* P as the channels' cyclic tridiagonal diagonals (L, D, U), each (2, n),
  built from the stencils (:func:`~wpneck.surface.channel_diagonals`); P
  and P^T are band matvecs on them.  No block assembles a sparse matrix or
  :class:`~wpneck.operators.ModeOperators`.
* G_0 and G_1 as one band: the Dirichlet bands of thick x {rho+, rho-}
  and thin x {rho+, rho-} stacked with zero coupling, each a diagonal
  similarity of a symmetric positive definite band, solved by no-pivot
  L D L^T solves between two diagonal scalings.
* The commutators, with their places shared by every block of a family
  (:class:`_Layers`).  [P, chi~_j] has zero diagonal and the off-diagonals
  L_i (chi~_j(i-1) - chi~_j(i)) and U_i (chi~_j(i+1) - chi~_j(i)), which
  vanish outside the widener transition layers (~170 of 2048 nodes per
  channel).  So R reads the stacked Dirichlet solution at those nodes
  only, and R^T writes the band's right-hand side there only.

The frozen references of F are not blocks.  A family keeps one
:class:`ReferenceBank` per mode.  Each of F's reference solves starts from a
right-hand side on the commutators' transition layers or is read there
only, so the references' bands, subdomain and global, keep those layer rows
and the cap's two neighbours alone (:class:`~wpneck.surface._Condensed`, 360
rows per reference and band at n = 2048; the neck band keeps the node
before its first layer row too, 362) and are stacked into one band each.
The channel rows on the cap |tau| >= 7/8 are the same at every ell, so the
cap is one eliminated run that the references share, factored once per
band.  An application of F or F^T is then four band solves over the
kept rows of all references together, whatever their number, and dense
right-hand sides and outputs pass through the eliminated runs' end columns.
:class:`~wpneck.surface.GlobalModeSolver` stays the independent direct
solve that the Neumann series is checked against.

A family's block condenses its Dirichlet band on its bank's subdomain
layout (:meth:`~wpneck.surface._Condensed.member`): it eliminates its own
runs, off the layer rows and off the cap, and takes the cap run, the same
bit for bit at every ell, with its factor and end columns from the bank,
so the cap is factored once per family.  R reads, and R^T writes, the
kept rows and the runs' end columns; G~ solves the runs after the kept
rows.  In S and S^T, R and F share one gather of chi w (one scatter for
S^T) and one product with the cap's end columns.  At k >= 1 S vanishes on
the cap: there P(ell) equals every P(ell_j), so P(ell) G_j r_j = r_j = 0.
S is written as exact zeros there, F and P are formed off the cap (and on
the cap's two end nodes, which P reads), and S^T reads no cap row.  The
blocks of one length share what no k changes: the surface and its jet, L
and U and their symmetric form, the commutators' entries and F's
Lagrange weights (:meth:`ReferenceBank.length`).  Every block is its
family's (:meth:`ParametrixFamily.block`), which computes these once per
length and hands them to each block of it.

Operator norms of R and S are estimated by Golub-Kahan-Lanczos
bidiagonalization (Golub & Kahan 1965, :func:`golub_kahan_norm`): each step
applies the operator and its transpose once (band matvecs on P's
diagonals, and banded solves), and the largest singular value of the
growing bidiagonal is the estimate.  On the uniform periodic grid the
Euclidean norm is the L^2 norm up to a constant, so the estimate is the
L^2 operator norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .grids import RadialGrid
from .modefields import ModeField, ModeKey, Rank, mode_inner_product, mode_norm
from .surface import (
    CutoffPair,
    FactoredGlobalSolver,
    ModelSurfaceMetric,
    _period_run,
    band_matvec,
    cap_indices,
    channel_couplings,
    channel_diagonals,
    fold_tau,
    kernel_complement,
    smoothstep,
    smoothstep_d1,
    thick_indices,
    thin_indices,
    _band_pieces,
    _Condensed,
    _cut_closure,
    zero_mode,
)
from .ttbasis import tt_element, tt_limit, zero_mode_amplitude

__all__ = [
    "ModeParametrix",
    "NormEstimate",
    "golub_kahan_norm",
    "ParametrixFamily",
    "ParametrixReport",
    "ReferenceBank",
    "project_tt",
    "SolverBank",
    "CutoffTensors",
    "build_cutoff_tensors",
    "cutoff_div_norm",
    "TTFrame",
    "assemble_tt_frame",
    "mu_cutoff",
    "mu_cutoff_d1",
]


# amplitude cutoff for the concentrating tensors: plateau |tau| <= 1/2,
# support |tau| <= 3/4 (distinct from the parametrix partition of unity)
def mu_cutoff(tau):
    r = np.abs(fold_tau(tau))
    return 1.0 - smoothstep((r - 0.5) * 4.0)


def mu_cutoff_d1(tau):
    t = fold_tau(tau)
    r = np.abs(t)
    return -np.sign(t) * smoothstep_d1((r - 0.5) * 4.0) * 4.0


# the relative step of sigma_max(B_j) that ends a bidiagonalization
# (golub_kahan_norm)
_NORM_RTOL = 1e-6
# an S estimate below this fraction of the same mode's ||R|| is round-off in
# S = R - PF, where no relative step rule holds (ParametrixFamily.report).
# At n = 2048 S/R is at most 3.9e-11 at the five default reference nodes and
# at least 3.8e-7 at criterion 7's lengths (ks 0-8, seeds 0 and 1)
_S_ROUNDOFF = 1e-9
_NEUMANN_MAX_TERMS = 400


@dataclass(frozen=True)
class NormEstimate:
    """An operator norm estimate: sigma, the steps taken, and whether the last
    step met the relative tolerance (or found an invariant subspace)."""

    sigma: float
    steps: int
    converged: bool


def golub_kahan_norm(fwd, bwd, start: np.ndarray, project,
                     iters: int = 20) -> NormEstimate:
    """Largest singular value of A by Golub-Kahan-Lanczos bidiagonalization.

    ``fwd`` applies A and ``bwd`` A^T; ``project`` is applied to the start
    and after each of them, so both sides stay in its range.  From
    v_1 = project(start) / |project(start)|, step j applies A once and A^T
    once:

        alpha_j u_j = A v_j - beta_{j-1} u_{j-1},
        beta_j v_{j+1} = A^T u_j - alpha_j v_j,

    so A^T U_j = V_{j+1} B_j with B_j the (j + 1) x j lower bidiagonal of
    the alphas (diagonal) and betas (below it), and the estimate is
    sigma_max(B_j), which never exceeds ||A||.  Only the last u and v are
    kept, with no reorthogonalization.  The estimate converges when a step
    moves it by at most :data:`_NORM_RTOL` relative or finds an invariant
    subspace (A = 0 included); after ``iters`` steps without that, the last
    estimate is returned, marked unconverged.
    """
    v = project(start)
    v = v / np.linalg.norm(v)
    u, beta = 0.0, 0.0
    alphas, betas = np.empty(iters), np.empty(iters)
    sigma = 0.0
    for step in range(1, iters + 1):
        u = project(fwd(v)) - beta * u
        alpha = np.linalg.norm(u)
        if alpha == 0.0:
            return NormEstimate(sigma, step, True)
        u /= alpha
        v = project(bwd(u)) - alpha * v
        beta = np.linalg.norm(v)
        alphas[step - 1], betas[step - 1] = alpha, beta
        a, b = alphas[:step], betas[:step]
        d = a * a + b * b  # B_j^T B_j: this diagonal, a[1:] * b[:-1] beside it
        # eigenvalues only, so no basis is kept; dsterf maps far less LAPACK than svd
        lam = lapack.dsterf(d, a[1:] * b[:-1])[0][-1] if step > 1 else d[0]
        new_sigma = math.sqrt(lam)
        if beta == 0.0 or abs(new_sigma - sigma) <= _NORM_RTOL * new_sigma:
            return NormEstimate(new_sigma, step, True)
        sigma = new_sigma
        v /= beta
    return NormEstimate(sigma, iters, False)


@functools.lru_cache(maxsize=4)
def _start(seed: int, n: int) -> np.ndarray:
    """The random start of :meth:`ModeParametrix.operator_norm` for ``seed``
    on (2, n) channels, drawn once and read-only."""
    v = np.random.default_rng(seed).standard_normal((2, n))
    v.flags.writeable = False
    return v


class _Layers:
    """Stacked Dirichlet runs and where their commutators act; no ell, no k.

    Every bank of a family reads the same layers.  ``runs`` are node runs
    stacked run by run, both channels of each (as
    :class:`~wpneck.surface.SubdomainSolver` stacks its period-ordered runs);
    ``tables`` are chi and chi~ at the grid's nodes, (2, n) each, one row per
    run.  ``flat`` places the stacked unknowns in the flattened (2, n)
    channels and ``chi``, ``chiw`` are the cutoffs there.

    -sum_j [P, chi~_j] has zero diagonal, so the unknown at node i of run j
    reaches only rows i +- 1, through L_{i+1} (chi~_j(i) - chi~_j(i+1)) and
    U_{i-1} (chi~_j(i) - chi~_j(i-1)), nonzero only where chi~_j changes, in
    the transition layers.  Those entries sit at (``rows``, ``cols``);
    :meth:`commutator` gives their values from a band's diagonals.
    """

    def __init__(self, runs, tables):
        chi, chiw = tables
        n = chi.shape[1]
        self.runs, self.tables = runs, tables
        self.flat = np.concatenate([c * n + idx for idx in runs for c in (0, 1)])
        run = np.repeat([0, 1], [2 * r.size for r in runs])
        chan, node = np.divmod(self.flat, n)
        self.chi, self.chiw = chi[run, node], chiw[run, node]
        rows, cols, neg = [], [], []
        for step in (1, -1):
            r = (node + step) % n
            diff = self.chiw - chiw[run, r]
            p = np.flatnonzero(diff)
            rows.append(chan[p] * n + r[p])
            cols.append(p)
            neg.append(-diff[p])
        self._split = rows[0].size
        self.rows, self.cols, self._neg = (np.concatenate(a) for a in (rows, cols, neg))

    @classmethod
    def of_blocks(cls, grid: RadialGrid, cutoffs: CutoffPair) -> "_Layers":
        """The layers of a block's thick and thin runs on ``grid``."""
        t = grid.nodes
        tables = (np.vstack([cutoffs.chi0(t), cutoffs.chi1(t)]),
                  np.vstack([cutoffs.chi0_widened(t), cutoffs.chi1_widened(t)]))
        return cls([_period_run(idx, grid.n) for idx in (thick_indices(grid),
                                                         thin_indices(grid))], tables)

    def commutator(self, L, U) -> np.ndarray:
        """The entries of -sum_j [P, chi~_j] for a band with off-diagonals L and U."""
        s = self._split
        return (np.concatenate([L.reshape(-1)[self.rows[:s]], U.reshape(-1)[self.rows[s:]]])
                * self._neg)


_ONE = np.ones(1)


class ReferenceBank:
    """The frozen references of one mode k, solved together on their layer rows.

    The correction F = sum_j lambda_j G_glob(ell_j) R(ell_j) and its
    transpose are applied for all references at once.  Each of their four
    solves starts from a right-hand side on the commutators' transition
    layers, or is read there only, so every other row is eliminated once per
    family (:class:`~wpneck.surface._Condensed`):

    * the subdomain band: each reference's thick and thin runs, both
      channels, keep their layer columns (restricting the dense right-hand
      side chi w);
    * the neck band: each reference's two channels on the whole circle, in
      period order from the first layer row, keep their layer rows and the
      circle's last row, the node before the first layer row.  So no
      eliminated run reaches the cyclic corner, the kept band's corners are
      the diagonals' own cyclic entries, and they are put back as the cut
      entries of one Woodbury closure, batched over the references
      (:func:`~wpneck.surface._cut_closure`).  At k = 0 each channel is
      bordered by the reference's weighted kernel c too, carried through
      the condensation: [[A, c], [c^T, 0]] becomes the kept band bordered by
      a column b, a row d and a diagonal -gamma, and the eliminated rows of
      the solution take -u mu as well.

    Both bands keep the two neighbours of the cap |tau| >= 7/8
    (:func:`~wpneck.surface.cap_indices`) besides, so that the cap, whose
    channel rows are the same at every ell, is a run of its own: shared by
    the references, it is factored once per band and its end columns are
    kept once.  A grid whose node before the first layer row lies on the
    cap would split that run, and is refused.  The kept pieces are stacked
    with zero coupling into one symmetrized band per kind, so each of the
    four solves in F and F^T is one band solve over the kept rows of all
    references.  Dense right-hand
    sides enter through the eliminated runs' end columns and dense outputs
    are rebuilt from them.  Two steps of the per-reference route change the
    result by round-off only and are not taken: at k = 0 the reference's
    kernel is not projected off R_j w before the bordered solve (on the
    uniform periodic grid the border is proportional to the kernel, so it
    would only move the multiplier), nor off the transposed solution (which
    the border already keeps in the kernel's complement).

    The blocks of the mode join the subdomain band's condensation
    (:class:`ModeParametrix`), and read their k-free parts from
    :meth:`length`.  At k >= 1 F is also given on the :attr:`window` alone,
    the nodes off the cap and the cap's two end nodes, and F^T takes a
    right-hand side there.
    """

    def __init__(self, grid: RadialGrid, k: int, layers: _Layers,
                 ell_refs: tuple[float, ...]):
        n = grid.n
        self.grid, self.layers = grid, layers
        self.s_nodes = tuple(e * e for e in ell_refs)
        surfaces = [ModelSurfaceMetric(ell=e) for e in ell_refs]
        kernels = None
        if k:
            diags = [channel_diagonals(s, grid, k) for s in surfaces]
        else:
            diags, kernels = zip(*(zero_mode(s, grid) for s in surfaces))
        J = len(diags)
        cap = cap_indices(grid)
        cap_ends = [(cap[0] - 1) % n, (cap[-1] + 1) % n]
        # the circle in period order from its first layer row, both channels
        neck = np.roll(np.arange(n), -np.min(layers.rows % n))
        if neck[-1] in cap:
            raise ValueError("the node before the first layer row lies on the cap")
        neck2 = np.r_[neck, neck + n]

        def stacked(runs):
            """Every reference's (main, lower, upper) on ``runs``, (J, rows) each."""
            return [np.array(x) for x in zip(*(_band_pieces(d, runs)[1:4] for d in diags))]

        flat = layers.flat
        keep = np.isin(flat % n, cap_ends)
        keep[layers.cols] = True
        self._sub = sub = _Condensed(*stacked(layers.runs),
                                     np.repeat([r.size for r in layers.runs], 2), keep)
        border = self._u = None
        if kernels is not None:
            b = np.zeros((J, 2 * n, 2))
            b[:, :n, 0] = b[:, n:, 1] = [(grid.weights * q)[neck] for q in kernels]
            border = (b, b)
        # the node before the first layer row too, so that no eliminated run
        # reaches the cyclic corner
        keep = np.isin(neck2 % n, np.r_[layers.rows % n, cap_ends, neck[-1]])
        self._glob = glob = _Condensed(*stacked([neck]), [n, n], keep, dense="T", border=border)
        if kernels is not None:
            # (reference, channel) by eliminated row
            self._u = glob.border[3].reshape(2 * J, -1)
        # the bands' rows, kept then eliminated, in the (2, n) channels
        sub_rows = np.concatenate([sub.kept, sub.gone])
        self._sub_flat = flat[sub_rows]
        self._sub_chi, self._sub_chiw = layers.chi[sub_rows], layers.chiw[sub_rows]
        self._neck_flat = neck2[np.concatenate([glob.kept, glob.gone])]
        self._neck_order = np.argsort(self._neck_flat)
        self._shape = (J, sub.kept.size, glob.kept.size)
        # the window: the nodes lo ... hi, off the cap and its two end nodes,
        # which are the neck band's kept rows, own runs and the cap run's ends
        lo, hi = cap[-1], cap[0]
        self.window = (lo, hi)
        at = self._neck_flat[np.r_[:glob.kept.size + glob._split[0],
                                   glob.kept.size + glob._split[0] + glob.edges]]
        chan, node = np.divmod(at, n)
        self._win = chan * (hi - lo + 1) + node - lo
        # the commutators' entries, from the subdomain band's kept columns to
        # the neck band's kept rows, for every reference
        rows = np.searchsorted(glob.kept, np.argsort(neck2)[layers.rows])
        self._cols = cols = np.searchsorted(sub.kept, layers.cols)
        self._R = tuple(np.concatenate(a) for a in zip(*(
            (rows + glob.kept.size * j, cols + sub.kept.size * j, layers.commutator(d[0], d[2]))
            for j, d in enumerate(diags))))
        self._closures = self._close(np.array([np.r_[U[:, neck[-1]], L[:, neck[0]]]
                                               for L, _, U in diags]))

    def _close(self, corners):
        """The kept neck band's batched closures, per ``trans``.

        Each channel's corners, (last, first) and (first, last) of its kept
        rows, are the cyclic entries of its diagonals, ``corners`` (J, 4):
        U at the last row of both channels, then L at the first
        (:func:`~wpneck.surface._cut_closure`).  At k = 0 the border's
        diagonal is the one the elimination grew from 0.
        """
        glob = self._glob
        h = self._shape[2] // 2
        last, first = [h - 1, 2 * h - 1], [0, h]
        cut = (np.array(last + first), np.array(first + last), corners)
        border = None if glob.border is None else glob.border[:3]
        return {trans: _cut_closure(glob.band.solve, 2 * h, cut, trans, border)
                for trans in "NT"}

    def length(self, surface: ModelSurfaceMetric):
        """``(lagrange, coupled, commutator)``: what the blocks at
        ``surface``'s length share whatever their k.

        These are F's Lagrange weights lambda_j(ell^2), what the subdomain
        band's condensation reads of the couplings L and U
        (:func:`~wpneck.surface.channel_couplings`) and their symmetric form
        (:meth:`~wpneck.surface._Condensed.coupled`), and the commutators'
        entries.  None depends on the bank's k, and every bank of a family
        has the same subdomain layout, so the family asks one bank once per
        length (:meth:`ParametrixFamily.block`); nothing is kept here.
        """
        s = surface.ell**2
        lagrange = np.array([
            math.prod((s - si) / (sj - si)
                      for i, si in enumerate(self.s_nodes) if i != j)
            for j, sj in enumerate(self.s_nodes)])
        L, U = channel_couplings(surface, self.grid)
        flat = self.layers.flat
        lower, upper = L.reshape(-1)[flat[1:]], U.reshape(-1)[flat[:-1]]
        coupled = self._sub.coupled(lower[None], upper[None])
        return lagrange, coupled, self.layers.commutator(L, U)

    def correct(self, lam: np.ndarray, rhs: np.ndarray, shared=None,
                window: bool = False) -> np.ndarray:
        """sum_j lam_j G_glob(ell_j) R(ell_j) w, from ``rhs``, chi w on the
        subdomain band's rows, kept then eliminated (and ``shared``, its
        :meth:`~wpneck.surface._Condensed.shared_sums`, if at hand).

        The output is (2, n), or with ``window`` (k >= 1) (2, hi - lo + 1)
        on the nodes of :attr:`window`.
        """
        sub, glob = self._sub, self._glob
        J, ms, mg = self._shape
        # the subdomain solves, every reference's rows restricted to its layers
        x = sub.band.solve(sub.restrict(rhs[:ms], rhs[ms:], shared).reshape(-1))
        rows, cols, vals = self._R
        r = np.bincount(rows, vals * x[cols], minlength=J * mg)
        # the global solves on the layer rows; R_j w vanishes elsewhere
        g, K = self._closures["N"](r)
        g = g.reshape(J, mg)
        if window:
            own, tied = glob.tied(g, lam)
            out = np.empty(self._win.size)
            out[self._win] = np.concatenate([lam @ g, own, tied @ glob._shared[:, glob.edges]])
            return out.reshape(2, -1)
        neck = np.concatenate([lam @ g, glob.extend(g, lam)])
        if self._u is not None:
            neck[mg:] -= (lam[:, None] * K[:, 4:, 0]).reshape(-1) @ self._u
        return neck[self._neck_order].reshape(2, -1)

    def kept_T(self, w: np.ndarray, window: bool = False) -> np.ndarray:
        """R(ell_j)^T G_glob(ell_j)^T w of each reference j on its kept
        subdomain rows, before the cutoff chi and the extension to the
        eliminated rows, (J, kept rows).  w is (2, n), or with ``window``
        (k >= 1) given on the nodes of :attr:`window`, zero elsewhere."""
        sub, glob = self._sub, self._glob
        J, ms, mg = self._shape
        s = None
        if window:
            # a right-hand side on the cap's two end rows alone meets the
            # cap run's end columns there
            rhs = w.reshape(-1)[self._win]
            e = glob.edges.size
            r = glob.restrict(rhs[:mg], rhs[mg:-e], rhs[-e:] @ glob._shared[:, glob.edges].T)
        else:
            # the global solves: one neck rhs for every reference
            rhs = w.reshape(-1)[self._neck_flat]
            r = glob.restrict(rhs[:mg], rhs[mg:])
            if self._u is not None:
                s = -(self._u @ rhs[mg:]).reshape(J, 2)
        z, _ = self._closures["T"](r.reshape(-1), s)
        rows, cols, vals = self._R
        q = np.bincount(cols, vals * z[rows], minlength=J * ms)
        return sub.band.solve(q, trans="T").reshape(J, ms)


class ModeParametrix:
    """Per-mode operator pieces at one (ell, k), a member of its mode's
    :class:`ReferenceBank`, which holds the frozen references of its
    correction F.  Built by :meth:`ParametrixFamily.block`, which hands it
    ``length``, what the blocks of its length share
    (:meth:`ReferenceBank.length`).

    The block joins the bank's subdomain condensation
    (:meth:`~wpneck.surface._Condensed.member`): it eliminates its own runs
    off the layer rows and the cap, and takes the cap run, the same at every
    ell, with its factor and end columns from the bank.  So R reads, and
    R^T writes, only the kept rows and the runs' end columns, and G~ solves
    the runs after the kept rows.  In S and S^T, R and F share one gather
    of chi w (one scatter) and one product with the cap's end columns.  At
    k >= 1, P(ell) equals every P(ell_j) on the cap, so there
    P(ell) G_glob(ell_j) r_j = r_j = 0 for r_j = R(ell_j) w, R w = 0 too,
    and S w = R w - P F w vanishes: S is written as exact zeros on the
    cap, F and P are formed on the bank's :attr:`~ReferenceBank.window`
    only, and S^T reads no cap row.
    """

    def __init__(self, surface: ModelSurfaceMetric, k: int, bank: ReferenceBank, length: tuple):
        self.surface = surface
        self.grid = bank.grid
        self.k = int(k)
        self.bank = bank
        if self.k == 0:
            self.diags, self.kernel = zero_mode(surface, self.grid)
        else:
            self.diags, self.kernel = channel_diagonals(surface, self.grid, self.k), None
        self._lagrange, coupled, self._R_vals = length
        self._sub = bank._sub.member(self.diags[1].reshape(-1)[bank._sub_flat], coupled)
        # the bank's order: the kept rows, then the eliminated ones
        self._flat, self._chi, self._chiw = bank._sub_flat, bank._sub_chi, bank._sub_chiw

    # -- channel-level applications (w has shape (2, n)) -------------------
    def apply_P(self, w, trans: str = "N"):
        return band_matvec(self.diags, w, trans)

    def _gather(self, w):
        """chi_j w on the rows of the block's band, in its stacked order."""
        return self._chi * w.reshape(-1)[self._flat]

    def _scatter(self, x):
        """A stacked vector summed onto the (2, n) channels."""
        return np.bincount(self._flat, x, minlength=2 * self.grid.n).reshape(2, -1)

    def _kept(self, rhs, shared=None):
        """G_j chi_j w on the kept rows, from ``rhs`` = chi w."""
        ms = self._sub.kept.size
        return self._sub.band.solve(self._sub.restrict(rhs[:ms], rhs[ms:], shared)[0])

    def _commute(self, x):
        """-sum_j [P, chi~_j] x_j for x on the kept rows; reads x on the
        layers only."""
        return np.bincount(self.bank.layers.rows, self._R_vals * x[self.bank._cols],
                           minlength=2 * self.grid.n).reshape(2, -1)

    def _commute_T(self, w):
        """The transpose of :meth:`_commute`: (2, n) in, kept rows out."""
        return np.bincount(self.bank._cols, self._R_vals * w.reshape(-1)[self.bank.layers.rows],
                           minlength=self._sub.kept.size)

    def _kept_T(self, w):
        """The kept rows of G_j^T [P, chi~_j]^T w, summed."""
        return self._sub.band.solve(self._commute_T(w), "T")

    def apply_Gtilde(self, w):
        rhs = self._gather(w)
        ms = self._sub.kept.size
        return self._scatter(self._chiw * np.concatenate(self._sub.solve(rhs[:ms], rhs[ms:])))

    def apply_R(self, w):
        return self._commute(self._kept(self._gather(w)))

    def apply_R_T(self, w):
        v = self._kept_T(w)
        return self._scatter(self._chi * np.concatenate([v, self._sub.extend(v[None], _ONE)]))

    def apply_F(self, w):
        """Lagrange-in-ell^2 correction through the frozen references.

        The output is projected off this block's conformal Killing
        directions: any kernel ride-along is harmless analytically but its
        O(h^2) discrete image under P would pollute the Neumann solution.
        """
        return self._project(self.bank.correct(self._lagrange, self._gather(np.asarray(w, float))))

    def apply_S(self, w):
        bank = self.bank
        rhs = self._gather(np.asarray(w, float))
        shared = bank._sub.shared_sums(rhs[self._sub.kept.size:])
        out = self._commute(self._kept(rhs, shared))
        if self.k == 0:
            return out - self.apply_P(self._project(bank.correct(self._lagrange, rhs, shared)))
        F = bank.correct(self._lagrange, rhs, shared, window=True)
        L, D, U = (d[:, bank.window[0] + 1:bank.window[1]] for d in self.diags)
        out[:, bank.window[0] + 1:bank.window[1]] -= L * F[:, :-2] + D * F[:, 1:-1] + U * F[:, 2:]
        return out

    def apply_S_T(self, w):
        bank = self.bank
        lam = self._lagrange
        w = np.asarray(w, float)
        v_b = self._kept_T(w)
        if self.k == 0:
            v = bank.kept_T(self._project(self.apply_P(w, trans="T")))
        else:
            # P^T of w off the cap, on the window
            lo, hi = bank.window
            x = np.zeros((2, hi - lo + 3))
            x[:, 2:-2] = w[:, lo + 1:hi]
            L, D, U = self.diags
            v = bank.kept_T(U[:, lo - 1:hi] * x[:, :-2] + D[:, lo:hi + 1] * x[:, 1:-1]
                            + L[:, lo + 1:hi + 2] * x[:, 2:], window=True)
        own_b, tied_b = self._sub.tied(v_b[None], _ONE)
        own, tied = bank._sub.tied(v, lam)
        gone = np.concatenate([own_b - own, (tied_b - tied) @ bank._sub._shared])
        return self._scatter(self._chi * np.concatenate([v_b - lam @ v, gone]))

    def apply_Gbar(self, w):
        return self.apply_Gtilde(w) + self.apply_F(w)

    def _project(self, w):
        return kernel_complement(w, self.kernel, self.grid.weights)

    def operator_norm(self, which: str = "S", iters: int = 20,
                      seed: int = 0) -> NormEstimate:
        """||S|| (or ||R||) by :func:`golub_kahan_norm` from a random start
        of ``seed``.  At k = 0 both sides stay in the complement of the
        conformal Killing directions."""
        fwd, bwd = ((self.apply_S, self.apply_S_T) if which == "S"
                    else (self.apply_R, self.apply_R_T))
        return golub_kahan_norm(fwd, bwd, _start(seed, self.grid.n), self._project, iters)

    def neumann_solve(self, w, tol: float = 1e-12):
        """Gbar sum_j S^j w; returns (solution, number of terms summed)."""
        w = self._project(np.asarray(w, float))
        acc = w.copy()
        term = w
        nrhs = np.linalg.norm(w)
        terms = 1
        for _ in range(_NEUMANN_MAX_TERMS):
            term = self._project(self.apply_S(term))
            acc += term
            terms += 1
            if np.linalg.norm(term) <= tol * max(nrhs, 1e-300):
                break
        else:
            raise ArithmeticError("Neumann series did not converge; is ||S|| < 1?")
        return self._project(self.apply_Gbar(acc)), terms


#: default interpolation nodes, none inside the standard ell sweep
#: {0.4, 0.2, 0.1, 0.05}.  They do not make (0, 0.52] a working window: on
#: the 2048-node grid with ks 0-4, ||S|| >= 1 at ell = 0.36, 0.37 and
#: 0.45-0.51 of 51 lengths evenly spaced over [0.02, 0.52] (3.25 at 0.49),
#: so ``report`` raises there; one global interpolant in ell^2 swings
#: between the sparse upper nodes
DEFAULT_ELL_REFS = (0.035, 0.06, 0.25, 0.42, 0.52)


@dataclass(frozen=True)
class ParametrixReport:
    ell: float
    ell_refs: tuple[float, ...]
    ks: tuple[int, ...]
    norm_R: float
    norm_S: float
    per_mode_S: dict[int, float]
    neumann_terms: int
    residual: float
    norm_steps: dict[int, int]
    #: per mode, whether the S bidiagonalization met its step tolerance
    #: within its step cap, or S is at round-off (below :data:`_S_ROUNDOFF`
    #: of the mode's ||R||, as at a reference node); an estimate that is
    #: neither may be low
    norm_converged: dict[int, bool]


class ParametrixFamily:
    """Parametrices over an ell-family sharing frozen references, one
    :class:`ReferenceBank` per mode."""

    def __init__(self, grid: RadialGrid, ks,
                 ell_refs: tuple[float, ...] = DEFAULT_ELL_REFS):
        if len(ell_refs) < 2 or any(b <= a for a, b in zip(ell_refs, ell_refs[1:])) \
                or ell_refs[0] <= 0:
            raise ValueError("ell_refs must be increasing positive lengths")
        self.grid = grid
        self.ks = tuple(int(k) for k in ks)
        self.ell_refs = tuple(float(e) for e in ell_refs)
        self.cutoffs = CutoffPair()
        self.cutoffs.validate(grid)
        layers = _Layers.of_blocks(grid, self.cutoffs)
        try:
            self._banks = {k: ReferenceBank(grid, k, layers, self.ell_refs) for k in self.ks}
        except ValueError as exc:  # a LinAlgError too: a band lost definiteness
            raise ValueError(f"the {grid.n}-node grid is too coarse for the parametrix: "
                             f"{exc}") from None
        self._ell: float | None = None
        self._surface: ModelSurfaceMetric | None = None
        self._length: tuple | None = None
        self._blocks: dict[int, ModeParametrix] = {}

    def block(self, ell: float, k: int) -> ModeParametrix:
        """The block at (ell, k).  Only the blocks of the last length asked
        for are kept, so a scan over ell does not grow memory."""
        ell, k = float(ell), int(k)
        if ell != self._ell:
            # one surface and one set of k-free parts for the blocks of a
            # length; every bank has the same subdomain layout, so any gives them
            surface = ModelSurfaceMetric(ell=ell)
            length = self._banks[k].length(surface)
            self._ell, self._surface, self._length, self._blocks = ell, surface, length, {}
        if k not in self._blocks:
            self._blocks[k] = ModeParametrix(self._surface, k, self._banks[k], self._length)
        return self._blocks[k]

    def report(self, ell: float, norm_seed: int = 0) -> ParametrixReport:
        """Norm estimates plus a Neumann-vs-identity residual on a test rhs."""
        per_mode, steps, converged = {}, {}, {}
        norm_R = 0.0
        for k in self.ks:
            blk = self.block(ell, k)
            est = blk.operator_norm("S", seed=norm_seed)
            mode_R = blk.operator_norm("R", seed=norm_seed).sigma
            per_mode[k], steps[k] = est.sigma, est.steps
            converged[k] = est.converged or est.sigma < _S_ROUNDOFF * mode_R
            norm_R = max(norm_R, mode_R)
        norm_S = max(per_mode.values())
        if norm_S >= 1.0:
            raise ArithmeticError(
                f"||S|| = {norm_S:.3f} >= 1 at ell = {ell}; "
                "ell outside the working range of this cutoff geometry"
            )
        k0 = self.ks[0]
        blk = self.block(ell, k0)
        x = self.grid.nodes
        rhs = np.vstack([np.cos(np.pi * x / 2.0), 0.3 * np.sin(np.pi * x / 2.0)])
        rhs = blk._project(rhs)
        sol, terms = blk.neumann_solve(rhs)
        res = blk._project(blk.apply_P(sol) - rhs)
        residual = float(np.linalg.norm(res) / np.linalg.norm(rhs))
        return ParametrixReport(
            ell=float(ell), ell_refs=self.ell_refs, ks=self.ks,
            norm_R=float(norm_R), norm_S=float(norm_S),
            per_mode_S={k: float(v) for k, v in per_mode.items()},
            neumann_terms=terms, residual=residual, norm_steps=steps,
            norm_converged=converged,
        )


# -- TT projection -------------------------------------------------------------

class SolverBank:
    """Per-(surface, grid) cache of factored global mode solvers.

    Each solver keeps the stencil coefficients of the operators the
    projection applies, so the bank is the only store of operators for one
    surface; they are freed together with the bank.
    """

    def __init__(self, surface: ModelSurfaceMetric, grid: RadialGrid):
        self.surface = surface
        self.grid = grid
        self._solvers: dict[int, FactoredGlobalSolver] = {}

    def get(self, k: int) -> FactoredGlobalSolver:
        if k not in self._solvers:
            self._solvers[k] = FactoredGlobalSolver(self.surface, self.grid, k)
        return self._solvers[k]


def project_tt(
    surface: ModelSurfaceMetric,
    grid: RadialGrid,
    h: ModeField,
    solvers: SolverBank | None = None,
    family: ParametrixFamily | None = None,
    potential: bool = False,
) -> ModeField | tuple[ModeField, np.ndarray]:
    """Projection of one mode onto transverse-traceless tensors.

    T(g.) = pi(g.) - D(G(B g.)) with B the Bianchi operator, G the global
    inverse of the gauge Laplacian, and D the conformal Killing operator
    (the trace-free part of the symmetrized derivative).  By default G
    inverts the factored discrete operator divergence o D, which makes T an
    exact discrete projector: outputs are divergence-free and T^2 = T to
    solver precision.  It is oblique, not orthogonal, in the grid's
    pairing: <T a, b> and <a, T b> differ at O(h^2).  B and D always come
    from the bank's :class:`~wpneck.surface.FactoredGlobalSolver`, as
    stencils with no sparse matrix, and by default so does G, as banded
    solves.  With ``family`` given, G is instead the Neumann-series
    parametrix built on the direct channel stencils; the two routes differ
    in G alone, and agree up to discretization order.

    ``h``'s column count says where it lives.  A k = 0 ``h`` on the odd
    sector's neck window (:attr:`~wpneck.surface.OddCap.window`) is an even
    tensor that vanishes on the cap, as the WP variations are by
    construction: its Bianchi image is odd, the factored solver solves only
    its odd sector, and ``h`` is projected on the window.  The parametrix
    route takes ``h`` on all n nodes.  With ``potential``, the one-form w
    with T(g.) = pi(g.) - D w is returned too, as (T(g.), w) with w's sigma
    components on ``h``'s nodes.
    """
    if h.rank is Rank.SYM2_TRACEFREE:
        h = h.as_full()
    fs = (solvers if solvers is not None else SolverBank(surface, grid)).get(h.k)
    b = fs.bianchi(h.data)
    if family is None:
        w = fs.solve_sigma(b)
    else:
        sol, _ = family.block(surface.ell, h.k).neumann_solve(
            ModeField(h.k, Rank.ONE_FORM, grid, b, h.variant).rho())
        w = ModeField.one_form_rho(h.k, grid, sol[0], sol[1], h.variant).data
    corr = fs.conformal_killing(w)
    t = ModeField(h.k, Rank.SYM2_TRACEFREE, h.grid, h.data[:2] - corr, h.variant)
    return (t, w) if potential else t


@dataclass(frozen=True)
class CutoffTensors:
    """chi kappa_{ell,0} and chi nu_{ell,0} with divergences and projections."""

    ell: float
    mu_hat: tuple[ModeField, ModeField]
    mu: tuple[ModeField, ModeField]
    div_norm: float
    div_norm_discrete: float
    correction_norms: tuple[float, float]


def cutoff_div_norm(surface: ModelSurfaceMetric, grid: RadialGrid) -> float:
    """The L^2 norm of the divergence of mu_hat^1 = chi kappa_{ell,0}, in closed form.

    The divergence is supported in the transition band 1/2 <= |tau| <= 3/4
    and equals -(d chi/d tau) sqrt(F) times the kappa amplitude (our
    divergence sign) along sigma1; its L^2 norm is 2 pi amp^2 int (chi')^2 /
    F d tau, evaluated here by quadrature of the analytic integrand on
    ``grid``.  A grid with no node strictly inside the band, where it reads
    0, is refused.
    """
    ell = surface.ell
    if ell <= 0:
        raise ValueError("cutoff tensors need ell > 0")
    chid = mu_cutoff_d1(grid.nodes)
    if not np.any(chid):
        raise ValueError(f"the {grid.n}-node grid has no node in 1/2 < |tau| < 3/4")
    F = surface.grid_jet(grid)[0]
    amp = zero_mode_amplitude(ell)
    return math.sqrt(2.0 * math.pi * amp**2 * float(grid.integrate(chid**2 / F)))


def build_cutoff_tensors(surface: ModelSurfaceMetric, grid: RadialGrid,
                         solvers: SolverBank | None = None) -> CutoffTensors:
    """Concentrating approximately-TT tensors and their projections.

    ``div_norm`` is the closed-form norm of mu_hat^1's divergence
    (:func:`cutoff_div_norm`, whose refusals come first); the
    discrete-operator route is reported alongside, and both kinds share the
    norm.
    """
    div_norm = cutoff_div_norm(surface, grid)
    ell = surface.ell
    tau = grid.nodes
    bank = solvers if solvers is not None else SolverBank(surface, grid)
    chi = mu_cutoff(tau)

    fields = []
    for kind in ("kappa", "nu"):
        el = tt_element(kind, 0, ell)
        phi, psi = el.profiles(tau)
        fields.append(ModeField(0, Rank.SYM2_TRACEFREE, grid,
                                np.vstack([chi * phi, chi * psi])))
    mu_hat = tuple(fields)

    # mu_hat is trace-free, so its Bianchi image is its divergence
    div1 = bank.get(0).bianchi(mu_hat[0].as_full().data)
    div_field = ModeField(0, Rank.ONE_FORM, grid, div1)
    div_norm_discrete = mode_norm(div_field)

    mu_proj = []
    corr = []
    for f in mu_hat:
        proj = project_tt(surface, grid, f, solvers=bank)
        mu_proj.append(proj)
        corr.append(mode_norm(proj - f))
    return CutoffTensors(
        ell=ell,
        mu_hat=mu_hat,
        mu=tuple(mu_proj),
        div_norm=div_norm,
        div_norm_discrete=float(div_norm_discrete),
        correction_norms=(float(corr[0]), float(corr[1])),
    )


@dataclass(frozen=True)
class TTFrame:
    """Projected frame {mu^1, mu^2, mu^3, ...} with its Gram matrix."""

    ell: float
    members: tuple[ModeField, ...]
    keys: tuple[ModeKey, ...]
    gram: np.ndarray
    min_eigenvalue: float
    max_cross: float


def assemble_tt_frame(surface: ModelSurfaceMetric, grid: RadialGrid, m: int,
                      solvers: SolverBank | None = None) -> TTFrame:
    """Frame of m + 2 projected TT tensors: the two concentrating zero modes
    plus cutoffs of the noded-limit decaying family (k = 1, 2, ..., both
    theta-variants).

    Distinct (k, variant) modes are exactly orthogonal on the rotational
    surrogate, so the Gram matrix is diagonal up to numerical noise; its
    smallest eigenvalue bounds frame independence.
    """
    bank = solvers if solvers is not None else SolverBank(surface, grid)
    tau = grid.nodes
    chi = mu_cutoff(tau)
    ct = build_cutoff_tensors(surface, grid, solvers=bank)
    members: list[ModeField] = list(ct.mu)

    k = 1
    while len(members) < m + 2:
        for kind in ("kappa", "nu"):
            lim = tt_limit(kind, k)
            phi, psi = lim.profiles(tau)
            f = ModeField(k, Rank.SYM2_TRACEFREE, grid,
                          np.vstack([chi * phi, chi * psi]), lim.variant)
            members.append(project_tt(surface, grid, f, solvers=bank))
            if len(members) >= m + 2:
                break
        k += 1

    gram = np.zeros((len(members), len(members)))
    for i, fi in enumerate(members):
        for j, fj in enumerate(members):
            gram[i, j] = mode_inner_product(fi, fj)
    eig = np.linalg.eigvalsh(gram)
    off = gram - np.diag(np.diag(gram))
    return TTFrame(
        ell=surface.ell,
        members=tuple(members),
        keys=tuple(f.key for f in members),
        gram=gram,
        min_eigenvalue=float(eig[0]),
        max_cross=float(np.max(np.abs(off))),
    )
