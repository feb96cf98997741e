"""Per-Fourier-mode fields on a rotational metric, stored as real pairs.

Conventions (used by every operator in :mod:`wpneck.operators`):

Work in the orthonormal coframe s1 = d tau/sqrt(F), s2 = sqrt(F) d theta and
the induced trace-free tensor frame {s1^2 - s2^2, s1 (x) s2 + s2 (x) s1}.
A real field at mode k >= 1 splits into two invariant "variants" whose
theta-patterns are

    COS variant:  one-form  a(tau) cos(k th) s1 + b(tau) sin(k th) s2
                  tensor    phi cos(k th) (s1^2-s2^2) + psi sin(k th) (sym)
                  scalar    s(tau) cos(k th)
    SIN variant:  one-form  a sin(k th) s1 - b cos(k th) s2
                  tensor    phi sin(k th) (s1^2-s2^2) - psi cos(k th) (sym)
                  scalar    s(tau) sin(k th)

With these sign choices every mode operator has the *same* radial formula on
both variants, so the variant is pure bookkeeping (it matters only for
theta quadrature and for reconstructing 2-D fields).  At k = 0 the stored
pairs are the literal theta-independent components and the variant is COS.

The rho (null) frame pairs diagonalize the first-order operators:

    one-form:         (w1, w2) = ((a+b)/2, (a-b)/2)
    trace-free tensor (t1, t2) = ((phi-psi)/2, (phi+psi)/2)

On w1 the gauge Laplacian acts as (1/2) P_k^+ (the (tau+k)^2 potential), on
w2 as (1/2) P_k^-.  t1 is the channel annihilated by sqrt(F) d/dtau +
(2 tau - k)/sqrt(F) (the e^{+(k/ell) arctan(tau/ell)}/F solution), t2 the
other one.  The divergence used throughout is the *negative* covariant
divergence (the L^2 adjoint of the symmetrized derivative), so in channel
form it reads (w1, w2) = (-D_+ t2, -D_- t1); the textbook diagonal display
diag(D_-, D_+) is the same operator with opposite sign and swapped output
slots.

Inner products: the area form of the unit-determinant profile metric is
d tau d theta, so mode inner products are tau-quadratures times the theta
factor (pi for k >= 1, 2 pi for k = 0); distinct (k, variant) pairs are
orthogonal.  Pointwise tensor contraction gives |h|^2 = 2(phi^2 + psi^2) +
2 f^2 for h = h0 + f g.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import RadialGrid

__all__ = [
    "Rank",
    "Variant",
    "ModeField",
    "ModeKey",
    "mode_inner_product",
    "mode_norm",
]


class Rank(str, Enum):
    SCALAR = "scalar"
    ONE_FORM = "one_form"
    SYM2_TRACEFREE = "sym2_tracefree"
    SYM2_FULL = "sym2_full"


class Variant(str, Enum):
    COS = "cos"
    SIN = "sin"


_NCOMP = {Rank.SCALAR: 1, Rank.ONE_FORM: 2, Rank.SYM2_TRACEFREE: 2, Rank.SYM2_FULL: 3}

#: key of a mode in a multi-mode field
ModeKey = tuple[int, Variant]


@dataclass(frozen=True, eq=False)
class ModeField:
    """Samples of one (k, variant) mode in sigma-frame components.

    data rows: scalar (s,); one_form (a, b); sym2_tracefree (phi, psi);
    sym2_full (phi, psi, f) where f is the trace part, h = h0 + f g.
    Immutable after construction.
    """

    k: int
    rank: Rank
    grid: RadialGrid
    data: np.ndarray
    variant: Variant = Variant.COS

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("mode index k must be >= 0")
        if self.k == 0 and self.variant is not Variant.COS:
            raise ValueError("k = 0 modes are stored with the COS variant")
        d = np.atleast_2d(np.asarray(self.data, dtype=float))
        if d.shape != (_NCOMP[self.rank], self.grid.n):
            raise ValueError(
                f"data shape {d.shape} does not match rank {self.rank.value} "
                f"on an n={self.grid.n} grid"
            )
        object.__setattr__(self, "data", d)
        d.setflags(write=False)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, k: int, rank: Rank, grid: RadialGrid, variant: Variant = Variant.COS):
        return cls(k, rank, grid, np.zeros((_NCOMP[rank], grid.n)), variant)

    @classmethod
    def one_form_rho(cls, k, grid, w1, w2, variant=Variant.COS) -> "ModeField":
        """One-form from rho-pair (w1, w2): a = w1 + w2, b = w1 - w2."""
        w1 = np.asarray(w1, float)
        w2 = np.asarray(w2, float)
        return cls(k, Rank.ONE_FORM, grid, np.vstack([w1 + w2, w1 - w2]), variant)

    @classmethod
    def tracefree_rho(cls, k, grid, t1, t2, variant=Variant.COS) -> "ModeField":
        """Trace-free tensor from channels (t1, t2): phi = t1+t2, psi = t2-t1."""
        t1 = np.asarray(t1, float)
        t2 = np.asarray(t2, float)
        return cls(k, Rank.SYM2_TRACEFREE, grid, np.vstack([t1 + t2, t2 - t1]), variant)

    # -- views -------------------------------------------------------------
    @property
    def key(self) -> ModeKey:
        return (self.k, self.variant)

    def rho(self) -> np.ndarray:
        """Rho-frame pairs; involutive with the constructors above."""
        if self.rank is Rank.ONE_FORM:
            a, b = self.data
            return np.vstack([(a + b) / 2.0, (a - b) / 2.0])
        if self.rank in (Rank.SYM2_TRACEFREE, Rank.SYM2_FULL):
            phi, psi = self.data[0], self.data[1]
            return np.vstack([(phi - psi) / 2.0, (phi + psi) / 2.0])
        raise ValueError(f"no rho frame for rank {self.rank.value}")

    def trace_split(self) -> tuple["ModeField", "ModeField"]:
        """sym2_full -> (trace-free part, trace scalar f)."""
        if self.rank is not Rank.SYM2_FULL:
            raise ValueError("trace_split needs a sym2_full field")
        h0 = ModeField(self.k, Rank.SYM2_TRACEFREE, self.grid, self.data[:2].copy(),
                       self.variant)
        f = ModeField(self.k, Rank.SCALAR, self.grid, self.data[2:3].copy(), self.variant)
        return h0, f

    def as_full(self, trace: np.ndarray | None = None) -> "ModeField":
        """Promote a trace-free tensor to sym2_full (with optional trace part)."""
        if self.rank is Rank.SYM2_FULL:
            return self
        if self.rank is not Rank.SYM2_TRACEFREE:
            raise ValueError("as_full needs a sym2 field")
        f = np.zeros(self.grid.n) if trace is None else np.asarray(trace, float)
        return ModeField(self.k, Rank.SYM2_FULL, self.grid,
                         np.vstack([self.data, f]), self.variant)

    def __sub__(self, other: "ModeField") -> "ModeField":
        self._check_compatible(other)
        return ModeField(self.k, self.rank, self.grid, self.data - other.data, self.variant)

    def __mul__(self, c: float) -> "ModeField":
        return ModeField(self.k, self.rank, self.grid, self.data * float(c), self.variant)

    __rmul__ = __mul__

    def _check_compatible(self, other: "ModeField"):
        if (self.k, self.rank, self.variant) != (other.k, other.rank, other.variant):
            raise ValueError("mode fields are not compatible")
        if self.grid is not other.grid:
            raise ValueError("mode fields live on different grids")


def _theta_factor(k: int) -> float:
    return 2.0 * np.pi if k == 0 else np.pi


def _pointwise_pairing(f1: ModeField, f2: ModeField) -> np.ndarray:
    if f1.rank is Rank.SCALAR:
        return f1.data[0] * f2.data[0]
    if f1.rank is Rank.ONE_FORM:
        return f1.data[0] * f2.data[0] + f1.data[1] * f2.data[1]
    if f1.rank is Rank.SYM2_TRACEFREE:
        return 2.0 * (f1.data[0] * f2.data[0] + f1.data[1] * f2.data[1])
    # full: <h, h'> = <h0, h0'> + 2 f f'
    return 2.0 * (f1.data[0] * f2.data[0] + f1.data[1] * f2.data[1]
                  + f1.data[2] * f2.data[2])


def mode_inner_product(f1: ModeField, f2: ModeField,
                       weight: np.ndarray | None = None) -> float:
    """L^2 pairing of two modes; zero for distinct (k, variant).

    ``weight`` is an optional pointwise factor in the tau-integrand (used for
    conformally weighted pairings, e.g. exp(-2 phi)).
    """
    if f1.rank is not f2.rank:
        raise ValueError("rank mismatch in inner product")
    if f1.grid is not f2.grid:
        raise ValueError("grid mismatch in inner product")
    if f1.key != f2.key:
        return 0.0
    integrand = _pointwise_pairing(f1, f2)
    if weight is not None:
        integrand = integrand * weight
    return _theta_factor(f1.k) * f1.grid.integrate(integrand)


def mode_norm(f: ModeField, weight: np.ndarray | None = None) -> float:
    return float(np.sqrt(max(mode_inner_product(f, f, weight), 0.0)))
