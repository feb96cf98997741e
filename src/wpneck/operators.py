"""First- and second-order mode operators on a rotational profile metric.

All operators act on :class:`~wpneck.modefields.ModeField` samples over a
metric d tau^2/F + F d theta^2 described by a *profile* object exposing
``F``, ``Fp``, ``Fpp`` (the cylinder metric, or the closed model surface).
Radial formulas are identical on both theta-variants; see
:mod:`wpneck.modefields` for the frame conventions.

Sign conventions.  ``divergence`` is the negative covariant divergence,
the L^2 adjoint of the symmetrized covariant derivative ``div_star``:
<div_star(w), h> = <w, divergence(h)>.  Consequences wired into the
assembly and enforced by tests: trace(div_star w) = -codifferential(w);
bianchi(f g) = 0; the gauge Laplacian P = bianchi o div_star is
non-negative, equals (1/2)(Delta_Hodge - 2K), and is >= 1 when K = -1.

On a hyperbolic base (K = -1) the linearized gauged curvature operator is
assembled through the Weitzenboeck route,

    L(h0 + f g) = D(divergence h0) + ((1/2)(Delta + 2) f) g,

with D the conformal Killing operator; (1/2)(grad^* grad - 2) h0 =
D(divergence h0) when K = -1, so the kernel is {f = 0, divergence h0 = 0}.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .grids import RadialGrid
from .modefields import ModeField, Rank

__all__ = [
    "ModeOperators",
    "mode_operators",
    "channel_potential",
    "apply_gauge_laplacian",
    "apply_divergence",
    "apply_div_star",
    "apply_trace",
    "apply_bianchi",
    "apply_conformal_killing",
    "apply_codifferential",
    "apply_scalar_laplacian",
    "apply_hodge_laplacian",
    "weitzenboeck_residual",
    "apply_linearized_einstein",
    "apply_linearized_curvature",
    "conformal_divergence_check",
]


def channel_potential(F, Fp, Fpp, k: int, sign: int):
    """Zeroth-order coefficient of the unscaled channel operator
    P_k^s = -F d^2 - F' d + V with V = F''/2 + F'^2/(4F) + s k F'/F + k^2/F."""
    return Fpp / 2.0 + Fp**2 / (4.0 * F) + sign * k * Fp / F + k * k / F


class ModeOperators:
    """Assembled mode-k operator matrices for one profile on one grid.

    Matrices act on stacked sigma-frame component vectors.  Each is a
    :func:`~functools.cached_property`, assembled on its first read and kept
    in the instance's ``__dict__``; the instance is immutable in practice
    and safe to share.  There is no global cache: whoever builds an instance
    holds it for as long as its matrices are needed and passes it on.
    """

    def __init__(self, profile, grid: RadialGrid, k: int):
        self.profile = profile
        self.grid = grid
        self.k = int(k)
        tau = grid.nodes
        self.F = np.asarray(profile.F(tau), dtype=float)
        self.Fp = np.asarray(profile.Fp(tau), dtype=float)
        self.Fpp = np.asarray(profile.Fpp(tau), dtype=float)
        if np.any(self.F <= 0):
            raise ValueError("profile must be positive on the grid")
        self.sqF = np.sqrt(self.F)
        self.beta = self.Fp / (2.0 * self.sqF)

    # -- small assembly helpers --------------------------------------------
    def _diag(self, v):
        return sp.diags(np.broadcast_to(np.asarray(v, float), (self.grid.n,)))

    def _block(self, rows):
        return sp.bmat(rows, format="csr")

    def _d_plus(self, mult, add):
        """diag(mult) @ d/dtau + diag(add)."""
        return self._diag(mult) @ self.grid.d1 + self._diag(add)

    # -- first-order blocks --------------------------------------------------
    @cached_property
    def d_scalar(self):
        """Exterior derivative scalar -> one-form: (sqrt(F) s', -k s/sqrt(F))."""
        top = self._d_plus(self.sqF, 0.0)
        bot = self._diag(-self.k / self.sqF)
        return self._block([[top], [bot]])

    @cached_property
    def codifferential(self):
        """One-form -> scalar, delta w = -(sqrt(F) a' + beta a + k b/sqrt(F))."""
        left = -self._d_plus(self.sqF, self.beta)
        right = self._diag(-self.k / self.sqF)
        return self._block([[left, right]])

    @cached_property
    def div_star(self):
        """Symmetrized covariant derivative, one-form -> sym2_full (phi, psi, f)."""
        koverF = self.k / self.sqF
        phi_a = 0.5 * self._d_plus(self.sqF, -self.beta)
        phi_b = self._diag(-0.5 * koverF)
        psi_a = self._diag(-0.5 * koverF)
        psi_b = 0.5 * self._d_plus(self.sqF, -self.beta)
        f_a = 0.5 * self._d_plus(self.sqF, self.beta)
        f_b = self._diag(0.5 * koverF)
        return self._block([[phi_a, phi_b], [psi_a, psi_b], [f_a, f_b]])

    @cached_property
    def conformal_killing(self):
        """Trace-free part of div_star: one-form -> sym2_tracefree."""
        return self.div_star[: 2 * self.grid.n, :]

    @cached_property
    def divergence_full(self):
        """Negative divergence, sym2_full (phi, psi, f) -> one-form."""
        koverF = self.k / self.sqF
        a_phi = -self._d_plus(self.sqF, 2.0 * self.beta)
        a_psi = self._diag(-koverF)
        a_f = -self._d_plus(self.sqF, 0.0)
        b_phi = self._diag(-koverF)
        b_psi = -self._d_plus(self.sqF, 2.0 * self.beta)
        b_f = self._diag(koverF)
        return self._block([[a_phi, a_psi, a_f], [b_phi, b_psi, b_f]])

    @cached_property
    def divergence_tf(self):
        return self.divergence_full[:, : 2 * self.grid.n]

    @cached_property
    def bianchi(self):
        """B(h) = divergence(h) + (1/2) d tr h, sym2_full -> one-form.

        The trace contributions cancel analytically; keeping both computed
        paths makes B(f g) = 0 a measured identity, not a structural one.
        """
        n = self.grid.n
        z = sp.csr_matrix((n, n))
        d_tr = self._block([[z, z, self.d_scalar[:n, :]],
                            [z, z, self.d_scalar[n:, :]]])
        return self.divergence_full + d_tr

    # -- second-order operators ----------------------------------------------
    def channel_matrix(self, sign: int, scale: float = 1.0):
        """Scalar channel operator scale * (-F d^2 - F' d + V_sign)."""
        V = channel_potential(self.F, self.Fp, self.Fpp, self.k, sign)
        mat = (self._diag(-self.F) @ self.grid.d2
               + self._diag(-self.Fp) @ self.grid.d1 + self._diag(V))
        return scale * mat

    @cached_property
    def gauge_laplacian(self):
        """P = bianchi o div_star as the direct rho-diagonal stencil,
        conjugated to sigma components: acts as (1/2) P_k^+ on w1 = (a+b)/2
        and (1/2) P_k^- on w2 = (a-b)/2."""
        Pp = self.channel_matrix(+1, 0.5)
        Pm = self.channel_matrix(-1, 0.5)
        # sigma = T rho, T = [[1,1],[1,-1]] acting nodewise
        PaPa = 0.5 * (Pp + Pm)
        PaPb = 0.5 * (Pp - Pm)
        return self._block([[PaPa, PaPb], [PaPb, PaPa]])

    @cached_property
    def scalar_laplacian(self):
        """Positive scalar Laplacian: -F s'' - F' s' + k^2 s / F."""
        return (self._diag(-self.F) @ self.grid.d2
                + self._diag(-self.Fp) @ self.grid.d1
                + self._diag(self.k**2 / self.F))

    @cached_property
    def hodge_laplacian(self):
        """Hodge Laplacian on one-forms assembled as d delta + delta d.

        An independent discretization path from gauge_laplacian; the two are
        related by the Weitzenboeck identity P = (1/2)(Delta - 2K).
        """
        koverF = self.k / self.sqF
        # s = sqF a' + beta a + k b/sqF;  d(-s) = (-sqF s', +k s/sqF)
        S = self._block([[self._d_plus(self.sqF, self.beta), self._diag(koverF)]])
        d_of_minus_s = self._block([[-(self._diag(self.sqF) @ self.grid.d1)],
                                    [self._diag(koverF)]])
        # c = sqF b' + beta b + k a/sqF;  delta(c vol) = (k c/sqF, -sqF c')
        C = self._block([[self._diag(koverF), self._d_plus(self.sqF, self.beta)]])
        c_back = self._block([[self._diag(koverF)],
                              [-(self._diag(self.sqF) @ self.grid.d1)]])
        return d_of_minus_s @ S + c_back @ C

    @cached_property
    def linearized_einstein(self):
        """L on sym2_full, hyperbolic base required (K = -1 on the grid)."""
        if not np.allclose(self.Fpp, 2.0, atol=1e-12):
            raise ValueError("linearized gauged operator needs a K = -1 profile")
        DK0 = self.conformal_killing @ self.divergence_tf
        trace_op = 0.5 * self.scalar_laplacian + sp.eye(self.grid.n, format="csr")
        return self._block([[DK0, None], [None, trace_op]])

    @cached_property
    def linearized_curvature(self):
        """DK on sym2_full -> scalar: ((1/2)Delta + 1) f + (1/2) delta delta h0."""
        f_part = 0.5 * self.scalar_laplacian + sp.eye(self.grid.n, format="csr")
        h0_part = 0.5 * (self.codifferential @ self.divergence_tf)
        return self._block([[h0_part, f_part]])


def mode_operators(profile, grid: RadialGrid, k: int) -> ModeOperators:
    """A fresh :class:`ModeOperators` on every call; nothing is cached
    globally, so a caller that needs the same operators again holds them."""
    return ModeOperators(profile, grid, k)


# -- ModeField wrappers -------------------------------------------------------

_NOUT = {Rank.SCALAR: 1, Rank.ONE_FORM: 2, Rank.SYM2_TRACEFREE: 2, Rank.SYM2_FULL: 3}


def _apply(mat, f: ModeField, rank_out: Rank) -> ModeField:
    out = mat @ f.data.reshape(-1)
    return ModeField(f.k, rank_out, f.grid, out.reshape(_NOUT[rank_out], -1),
                     f.variant)


def apply_gauge_laplacian(m, f: ModeField) -> ModeField:
    if f.rank is not Rank.ONE_FORM:
        raise ValueError("gauge Laplacian acts on one-forms")
    return _apply(mode_operators(m, f.grid, f.k).gauge_laplacian, f, Rank.ONE_FORM)


def apply_divergence(m, h: ModeField) -> ModeField:
    if h.rank is Rank.SYM2_TRACEFREE:
        mat = mode_operators(m, h.grid, h.k).divergence_tf
    elif h.rank is Rank.SYM2_FULL:
        mat = mode_operators(m, h.grid, h.k).divergence_full
    else:
        raise ValueError("divergence acts on symmetric 2-tensors")
    return _apply(mat, h, Rank.ONE_FORM)


def apply_div_star(m, w: ModeField) -> ModeField:
    if w.rank is not Rank.ONE_FORM:
        raise ValueError("div_star acts on one-forms")
    return _apply(mode_operators(m, w.grid, w.k).div_star, w, Rank.SYM2_FULL)


def apply_trace(m, h: ModeField) -> ModeField:
    """tr h = 2 f for h = h0 + f g."""
    if h.rank is not Rank.SYM2_FULL:
        raise ValueError("trace acts on sym2_full fields")
    _, f = h.trace_split()
    return f * 2.0


def apply_bianchi(m, h: ModeField) -> ModeField:
    if h.rank is Rank.SYM2_TRACEFREE:
        h = h.as_full()
    return _apply(mode_operators(m, h.grid, h.k).bianchi, h, Rank.ONE_FORM)


def apply_conformal_killing(m, w: ModeField) -> ModeField:
    if w.rank is not Rank.ONE_FORM:
        raise ValueError("conformal Killing operator acts on one-forms")
    return _apply(mode_operators(m, w.grid, w.k).conformal_killing, w,
                  Rank.SYM2_TRACEFREE)


def apply_codifferential(m, w: ModeField) -> ModeField:
    if w.rank is not Rank.ONE_FORM:
        raise ValueError("codifferential acts on one-forms")
    return _apply(mode_operators(m, w.grid, w.k).codifferential, w, Rank.SCALAR)


def apply_scalar_laplacian(m, s: ModeField) -> ModeField:
    if s.rank is not Rank.SCALAR:
        raise ValueError("scalar Laplacian acts on scalars")
    return _apply(mode_operators(m, s.grid, s.k).scalar_laplacian, s, Rank.SCALAR)


def apply_hodge_laplacian(m, w: ModeField) -> ModeField:
    if w.rank is not Rank.ONE_FORM:
        raise ValueError("Hodge Laplacian acts on one-forms")
    return _apply(mode_operators(m, w.grid, w.k).hodge_laplacian, w, Rank.ONE_FORM)


def weitzenboeck_residual(m, w: ModeField, interior: int = 4) -> float:
    """Relative residual of P w = (1/2)(Delta w - 2 K w) on interior nodes.

    P comes from the direct channel stencils, Delta from the d delta +
    delta d assembly: two independent discrete paths.  Normalized by the
    sup of the compared quantity P w.
    """
    if w.grid.n <= 2 * interior:
        raise ValueError(f"the {w.grid.n}-node grid has no node past the "
                         f"{interior}-node margin of the Weitzenboeck residual")
    K = -0.5 * np.asarray(m.Fpp(w.grid.nodes), dtype=float)
    Pw = apply_gauge_laplacian(m, w)
    Dw = apply_hodge_laplacian(m, w)
    target = 0.5 * (Dw.data - 2.0 * K * w.data)
    sl = slice(interior, -interior if interior else None)
    num = np.max(np.abs((Pw.data - target)[:, sl]))
    den = max(np.max(np.abs(Pw.data[:, sl])), 1e-300)
    return float(num / den)


def apply_linearized_einstein(m, h: ModeField) -> ModeField:
    if h.rank is not Rank.SYM2_FULL:
        h = h.as_full()
    return _apply(mode_operators(m, h.grid, h.k).linearized_einstein, h,
                  Rank.SYM2_FULL)


def apply_linearized_curvature(m, h: ModeField) -> ModeField:
    if h.rank is not Rank.SYM2_FULL:
        h = h.as_full()
    return _apply(mode_operators(m, h.grid, h.k).linearized_curvature, h,
                  Rank.SCALAR)


def conformal_divergence_check(m, u: np.ndarray, h: ModeField,
                               interior: int = 4) -> float:
    """Discrepancy between two computations of the divergence in e^{2u} g.

    Path 1 uses conformal invariance: divergence_{g1}(h) = e^{-2u}
    divergence_g(h) for trace-free h in dimension 2.  Path 2 discretizes the
    divergence directly in the rescaled (non-unit-determinant) metric using
    its own orthonormal frame.  Both are reduced to coordinate components
    (d tau, d theta) before comparison; returns the max abs difference on
    interior nodes relative to the sup of the compared components.
    """
    if h.rank is not Rank.SYM2_TRACEFREE:
        raise ValueError("conformal divergence check needs a trace-free tensor")
    grid = h.grid
    tau = grid.nodes
    u = np.asarray(u, dtype=float)
    k = h.k
    F = np.asarray(m.F(tau), float)
    sqF = np.sqrt(F)
    beta = np.asarray(m.Fp(tau), float) / (2.0 * sqF)
    up = grid.d1 @ u
    eu = np.exp(u)

    # path 1: identity route, converted to coordinate components
    div_g = apply_divergence(m, h)
    a_g, b_g = div_g.data
    coord1_tau = np.exp(-2.0 * u) * a_g / sqF
    coord1_th = np.exp(-2.0 * u) * b_g * sqF

    # path 2: direct discretization in g1 = e^{2u} g with frame
    # s1~ = sqrt(A) d tau, s2~ = sqrt(C) d theta, A = e^{2u}/F, C = e^{2u} F
    inv_sqA = sqF / eu
    sqC = sqF * eu
    beta1 = (sqF * up + beta) / eu
    phi1 = h.data[0] / eu**2
    psi1 = h.data[1] / eu**2
    w1 = -(inv_sqA * (grid.d1 @ phi1) + k * psi1 / sqC + 2.0 * beta1 * phi1)
    w2 = -(inv_sqA * (grid.d1 @ psi1) + k * phi1 / sqC + 2.0 * beta1 * psi1)
    coord2_tau = w1 * (eu / sqF)
    coord2_th = w2 * sqC

    sl = slice(interior, -interior if interior else None)
    num = max(np.max(np.abs((coord1_tau - coord2_tau)[sl])),
              np.max(np.abs((coord1_th - coord2_th)[sl])))
    # scale by the larger of the compared components and the input itself,
    # so divergence-free inputs (both paths near zero) do not divide noise
    # by noise
    den = max(np.max(np.abs(coord1_tau[sl])), np.max(np.abs(coord1_th[sl])),
              np.max(np.abs(h.data)), 1e-300)
    return float(num / den)
