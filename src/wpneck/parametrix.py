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
  built from the stencils (:func:`~wpneck.surface.channel_diagonals`),
  and those of P^T, built once; P and P^T are band matvecs.  No block
  assembles a sparse matrix or :class:`~wpneck.operators.ModeOperators`.
* G_0 and G_1 as one :class:`~wpneck.surface.SubdomainSolver`: the
  Dirichlet bands of thick x {rho+, rho-} and thin x {rho+, rho-} stacked
  with zero coupling and factored once, each a diagonal similarity of a
  symmetric positive definite band, so each application of Gtilde, R or
  R^T is one no-pivot LAPACK ``dpttrs`` between two diagonal scalings.
* The commutators, precomputed.  [P, chi~_j] has zero diagonal and the
  off-diagonals L_i (chi~_j(i-1) - chi~_j(i)) and U_i (chi~_j(i+1) -
  chi~_j(i)), which vanish outside the widener transition layers (~170 of
  2048 nodes per channel).  So R reads the stacked Dirichlet solution at
  those nodes only, and R^T writes the band's right-hand side there only.
* A reference block's global inverse: a
  :class:`~wpneck.surface.GlobalModeSolver`, a band of the same kind with
  its cyclic corners put back by a small Schur closure.

Operator norms of R and S are estimated by power iteration on S^T S
(matvec/rmatvec through the transposed band, and banded solves); on the
uniform periodic grid the Euclidean norm is the L^2 norm up to a constant,
so the estimate is the L^2 operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import RadialGrid
from .modefields import ModeField, ModeKey, Rank, mode_inner_product, mode_norm
from .operators import mode_operators
from .surface import (
    CutoffPair,
    FactoredGlobalSolver,
    GlobalModeSolver,
    ModelSurfaceMetric,
    SubdomainSolver,
    band_matvec,
    channel_diagonals,
    fold_tau,
    kernel_complement,
    smoothstep,
    smoothstep_d1,
    thick_indices,
    thin_indices,
    transposed_diagonals,
)
from .ttbasis import tt_element, tt_limit

__all__ = [
    "ModeParametrix",
    "ParametrixFamily",
    "ParametrixReport",
    "project_tt",
    "SolverBank",
    "CutoffTensors",
    "build_cutoff_tensors",
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


_NORM_RTOL = 1e-6  # relative step that ends the operator_norm power iteration
_NEUMANN_MAX_TERMS = 400


class ModeParametrix:
    """Per-mode operator pieces at one (ell, k); references may be shared."""

    def __init__(self, surface: ModelSurfaceMetric, grid: RadialGrid, k: int,
                 cutoffs: CutoffPair,
                 refs: "tuple[ModeParametrix, ...] | None" = None):
        self.surface = surface
        self.grid = grid
        self.k = int(k)
        self.cutoffs = cutoffs
        self.refs = refs
        if refs is None or self.k == 0:
            # the global solver builds the channel diagonals and the kernel;
            # only a reference block keeps it
            glob = GlobalModeSolver(surface, grid, k)
            self.diags, self.kernel = glob.diags, glob.kernel
        else:
            self.diags, self.kernel = channel_diagonals(surface, grid, self.k), None
        self.glob = glob if refs is None else None
        if refs is not None:
            s = surface.ell**2
            s_nodes = [r.surface.ell**2 for r in refs]
            lagrange = [
                math.prod((s - si) / (sj - si)
                          for i, si in enumerate(s_nodes) if i != j)
                for j, sj in enumerate(s_nodes)
            ]
            self._terms = [(lam, ref) for lam, ref in zip(lagrange, refs)
                           if lam != 0.0]
        self._diags_T = transposed_diagonals(self.diags)
        runs = (thick_indices(grid), thin_indices(grid))
        self.G = SubdomainSolver(self.diags, runs)
        n = grid.n
        chan, node = np.divmod(self.G.flat, n)
        # the band's stacked order: run by run, both channels of each
        run = np.repeat([0, 1], [2 * r.size for r in runs])
        t = grid.nodes
        chi = np.vstack([cutoffs.chi0(t), cutoffs.chi1(t)])
        chiw = np.vstack([cutoffs.chi0_widened(t), cutoffs.chi1_widened(t)])
        self._chi = chi[run, node]
        self._chiw = chiw[run, node]
        # R = -sum_j [P, chi~_j] G_j chi_j as one (2n) x (stacked) matrix:
        # [P, chi~_j] has zero diagonal, so the solution at node i of run j
        # reaches only rows i +- 1, through L_{i+1} (chi~_j(i) - chi~_j(i+1))
        # and U_{i-1} (chi~_j(i) - chi~_j(i-1)); it is nonzero only where
        # chi~_j changes, in the transition layers.
        L, _, U = self.diags
        rows, cols, vals = [], [], []
        for step, coupling in ((1, L), (-1, U)):
            r = (node + step) % n
            coef = coupling[chan, r] * (self._chiw - chiw[run, r])
            p = np.flatnonzero(coef)
            rows.append(chan[p] * n + r[p])
            cols.append(p)
            vals.append(-coef[p])
        self._R_rows = np.concatenate(rows)
        self._R_cols = np.concatenate(cols)
        self._R_vals = np.concatenate(vals)

    # -- channel-level applications (w has shape (2, n)) -------------------
    def apply_P(self, w, trans: str = "N"):
        return band_matvec(self._diags_T if trans == "T" else self.diags, w)

    def _solve_pieces(self, w):
        """G_j chi_j w for both subdomains, in the band's stacked order."""
        return self.G.solve_channels(self._chi * w.reshape(-1)[self.G.flat])

    def _scatter(self, x):
        """A stacked vector summed onto the (2, n) channels."""
        return np.bincount(self.G.flat, x, minlength=2 * self.grid.n).reshape(2, -1)

    def _commute(self, x):
        """-sum_j [P, chi~_j] x_j for a stacked x; reads x on the layers only."""
        return np.bincount(self._R_rows, self._R_vals * x[self._R_cols],
                           minlength=2 * self.grid.n).reshape(2, -1)

    def _commute_T(self, w):
        """The transpose of :meth:`_commute`: (2, n) in, stacked out."""
        return np.bincount(self._R_cols, self._R_vals * w.reshape(-1)[self._R_rows],
                           minlength=self.G.flat.size)

    def apply_Gtilde(self, w):
        return self._scatter(self._chiw * self._solve_pieces(w))

    def apply_R(self, w):
        return self._commute(self._solve_pieces(w))

    def apply_R_T(self, w):
        return self._scatter(self._chi * self.G.solve_channels(self._commute_T(w),
                                                               trans="T"))

    def _ref_correct(self, ref: "ModeParametrix", w):
        r = ref.apply_R(w)
        return ref.glob.solve_channels(ref.glob.project_out_kernel(r))

    def _ref_correct_T(self, ref: "ModeParametrix", w):
        z = ref.glob.solve_channels(w, trans="T")
        z = ref.glob.project_out_kernel(z)
        return ref.apply_R_T(z)

    def apply_F(self, w):
        """Lagrange-in-ell^2 correction through the frozen references.

        The output is projected off this block's conformal Killing
        directions: any kernel ride-along is harmless analytically but its
        O(h^2) discrete image under P would pollute the Neumann solution.
        """
        terms = self._weighted_refs()
        out = np.zeros_like(np.asarray(w, float))
        for lam, ref in terms:
            out += lam * self._ref_correct(ref, w)
        return self._project(out)

    def apply_F_T(self, w):
        terms = self._weighted_refs()
        w = self._project(np.asarray(w, float))
        out = np.zeros_like(w)
        for lam, ref in terms:
            out += lam * self._ref_correct_T(ref, w)
        return out

    def _weighted_refs(self):
        """The (Lagrange weight, reference) pairs with a nonzero weight."""
        if self.refs is None:
            raise ValueError("this block was built as a reference; no correction")
        return self._terms

    def apply_S(self, w):
        return self.apply_R(w) - self.apply_P(self.apply_F(w))

    def apply_S_T(self, w):
        return self.apply_R_T(w) - self.apply_F_T(self.apply_P(w, trans="T"))

    def apply_Gbar(self, w):
        return self.apply_Gtilde(w) + self.apply_F(w)

    def _project(self, w):
        return kernel_complement(w, self.kernel, self.grid.weights)

    def operator_norm(self, which: str = "S", iters: int = 20,
                      seed: int = 0) -> float:
        """Largest singular value of S (or R) by power iteration on A^T A.

        At k = 0 the iteration runs in the complement of the conformal
        Killing directions.
        """
        fwd = self.apply_S if which == "S" else self.apply_R
        bwd = self.apply_S_T if which == "S" else self.apply_R_T
        rng = np.random.default_rng(seed)
        x = self._project(rng.standard_normal((2, self.grid.n)))
        x /= np.linalg.norm(x)
        sigma = 0.0
        for _ in range(iters):
            y = fwd(x)
            z = self._project(bwd(self._project(y)))
            nz = np.linalg.norm(z)
            if nz == 0.0:
                return 0.0
            new_sigma = math.sqrt(nz)
            x = z / nz
            if abs(new_sigma - sigma) <= _NORM_RTOL * max(new_sigma, 1e-30):
                return new_sigma
            sigma = new_sigma
        return sigma

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


class ParametrixFamily:
    """Parametrices over an ell-family sharing frozen reference blocks."""

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
        self._ref = {}
        for k in self.ks:
            self._ref[k] = tuple(
                ModeParametrix(ModelSurfaceMetric(ell=e), grid, k, self.cutoffs)
                for e in self.ell_refs
            )
        self._ell: float | None = None
        self._blocks: dict[int, ModeParametrix] = {}

    def block(self, ell: float, k: int) -> ModeParametrix:
        """The block at (ell, k).  Only the blocks of the last length asked
        for are kept, so a scan over ell does not grow memory."""
        ell, k = float(ell), int(k)
        if ell != self._ell:
            self._ell, self._blocks = ell, {}
        if k not in self._blocks:
            self._blocks[k] = ModeParametrix(ModelSurfaceMetric(ell=ell), self.grid,
                                             k, self.cutoffs, refs=self._ref[k])
        return self._blocks[k]

    def report(self, ell: float, norm_seed: int = 0) -> ParametrixReport:
        """Norm estimates plus a Neumann-vs-identity residual on a test rhs."""
        per_mode = {}
        norm_R = 0.0
        for k in self.ks:
            blk = self.block(ell, k)
            per_mode[k] = blk.operator_norm("S", seed=norm_seed)
            norm_R = max(norm_R, blk.operator_norm("R", seed=norm_seed))
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
            neumann_terms=terms, residual=residual,
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
    even: bool = False,
    potential: bool = False,
) -> ModeField | tuple[ModeField, np.ndarray]:
    """Projection of one mode onto transverse-traceless tensors.

    T(g.) = pi(g.) - D(G(B g.)) with B the Bianchi operator, G the global
    inverse of the gauge Laplacian, and D the conformal Killing operator
    (the trace-free part of the symmetrized derivative).  By default G
    inverts the factored discrete operator divergence o D, which makes T an
    exact discrete projector: outputs are divergence-free and T^2 = T to
    solver precision.  It is oblique, not orthogonal, in the grid's
    pairing: <T a, b> and <a, T b> differ at O(h^2).  B, G and D then come
    from the bank's :class:`~wpneck.surface.FactoredGlobalSolver`: at every
    k they are stencils and banded solves, with no sparse matrix.  With
    ``family`` given, G is instead the Neumann-series parametrix built on
    the direct channel stencils, and B and D are the sparse mode operators;
    the two agree up to discretization order.

    ``even`` says that ``h`` is a k = 0 tensor even in tau, given on the
    grid's mirror half (:attr:`~wpneck.grids.RadialGrid.mirror_half`) or on
    the odd sector's neck window (:attr:`~wpneck.surface.OddCap.window`),
    as the WP variations are by construction.  Its Bianchi image is then
    odd, and the factored solver solves only its odd sector
    (``solve_sigma(..., odd=True)``), which refuses an rhs that is not odd
    and any k >= 1; ``h`` is projected on its own nodes.  The parametrix
    route ignores ``even``.  With ``potential``, the one-form w with
    T(g.) = pi(g.) - D w is returned too, as (T(g.), w) with w's sigma
    components on ``h``'s nodes.
    """
    if h.rank is Rank.SYM2_TRACEFREE:
        h = h.as_full()
    if family is None:
        bank = solvers if solvers is not None else SolverBank(surface, grid)
        fs = bank.get(h.k)
        w = fs.solve_sigma(fs.bianchi(h.data), odd=even)
        corr = fs.conformal_killing(w)
    else:
        opk = mode_operators(surface, grid, h.k)
        b = (opk.bianchi @ h.data.reshape(-1)).reshape(2, -1)
        sol, _ = family.block(surface.ell, h.k).neumann_solve(
            ModeField(h.k, Rank.ONE_FORM, grid, b, h.variant).rho())
        w = ModeField.one_form_rho(h.k, grid, sol[0], sol[1], h.variant).data
        corr = (opk.conformal_killing @ w.reshape(-1)).reshape(2, -1)
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


def build_cutoff_tensors(surface: ModelSurfaceMetric, grid: RadialGrid,
                         solvers: SolverBank | None = None) -> CutoffTensors:
    """Concentrating approximately-TT tensors and their projections.

    The divergence of mu_hat^1 = chi kappa_{ell,0} is supported in the
    transition band 1/2 <= |tau| <= 3/4 and equals -(d chi/d tau) sqrt(F)
    times the kappa amplitude (our divergence sign) along sigma1; its L^2
    norm has the closed form 2 pi amp^2 int (chi')^2 / F d tau, evaluated
    here by quadrature of the analytic integrand (the discrete-operator
    route is reported alongside; both kinds share the norm).
    """
    ell = surface.ell
    if ell <= 0:
        raise ValueError("cutoff tensors need ell > 0")
    bank = solvers if solvers is not None else SolverBank(surface, grid)
    tau = grid.nodes
    chi = mu_cutoff(tau)
    chid = mu_cutoff_d1(tau)

    fields = []
    for kind in ("kappa", "nu"):
        el = tt_element(kind, 0, ell)
        phi, psi = el.profiles(tau)
        fields.append(ModeField(0, Rank.SYM2_TRACEFREE, grid,
                                np.vstack([chi * phi, chi * psi])))
    mu_hat = tuple(fields)

    F = surface.grid_jet(grid)[0]
    amp = ell**1.5 / math.sqrt(math.atan(1.0 / ell))
    div_norm = math.sqrt(2.0 * math.pi * amp**2
                         * float(grid.integrate(chid**2 / F)))

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
