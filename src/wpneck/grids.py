"""Radial grids, differentiation matrices, quadrature weights, the tridiagonal solver.

Two grid families are supported on an interval: uniform (second-order
finite differences, composite Simpson quadrature) and Chebyshev-Lobatto
(spectral differentiation, Clenshaw-Curtis quadrature).  Periodic
uniform grids (for the closed model surface) use wrap-around stencils and
plain trapezoid weights, which are spectrally accurate for smooth periodic
integrands.

A stretched "arcsinh" grid is provided for the cylinder: uniform in
t = arcsinh(tau/ell), so the node spacing in tau scales like
sqrt(tau^2 + ell^2).  That resolves the ell-scale turning region near
tau = 0 without a uniform grid of size ~1/ell.  The last few are kept and
shared by every caller, read-only.

Every grid stores ``d1``/``d2`` as CSR matrices, built on the first read, so
callers that use only nodes and weights never pay for them.  Threads first
reading one grid at once (``--jobs``) may build them twice, with equal results.

An even periodic grid has a mirror half (:attr:`RadialGrid.mirror_half`): the
nodes 0 ... n/2, which carry a field that is even or odd under the grid
reflection R: i -> n - i, with the quadrature of the even ones.  A
:meth:`RadialGrid.span` is a run of a grid's nodes with their weights.
Both are plain grids; what is built from a grid is kept with it, each
grid its own (:meth:`RadialGrid.keep`).

Every tridiagonal band of the package, each an M-matrix, is solved by
:class:`_SymmetrizedBand`, scaled to a symmetric positive definite band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n nodes (n odd) with spacing h."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (h / 3.0)


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on n Chebyshev-Lobatto nodes over [-1, 1]."""
    if n < 2:
        raise ValueError("need at least two nodes")
    m = n - 1
    c = np.zeros(n)
    theta = np.pi * np.arange(n) / m
    for i in range(n):
        s = 0.0
        for j in range(1, m // 2 + 1):
            bj = 1.0 if (2 * j == m) else 2.0
            s += bj / (4.0 * j * j - 1.0) * np.cos(2.0 * j * theta[i])
        c[i] = 1.0 - s
    c *= 2.0 / m
    c[0] /= 2.0
    c[-1] /= 2.0
    return c


def _cheb_diff_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes (descending on [-1,1] flipped to ascending) and D."""
    m = n - 1
    x = np.cos(np.pi * np.arange(n) / m)
    c = np.hstack([2.0, np.ones(m - 1), 2.0]) * (-1.0) ** np.arange(n)
    X = np.tile(x, (n, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    # flip to ascending node order
    return x[::-1].copy(), D[::-1, ::-1].copy()


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Nodes, differentiation matrices, and quadrature weights on an interval.

    ``d1``/``d2`` are CSR matrices acting on samples at ``nodes``; ``weights``
    integrate against them.  ``scheme`` is one of ``uniform``, ``chebyshev``,
    ``periodic``, ``mirror half`` (:attr:`mirror_half`) or ``span``
    (:meth:`span`); the last two have no stencils.  ``_stencils()`` returns
    (d1, d2) and runs on the first read of either (twice, with equal results,
    if two threads read first at once).  :meth:`keep` keeps anything else
    built from the grid with it.  Instances are otherwise immutable and safe
    to share.
    """

    nodes: np.ndarray
    weights: np.ndarray
    scheme: str
    periodic: bool = False
    _stencils: object = field(repr=False, default=None)
    _kept: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        if self.periodic:
            return float(self.nodes[0] + self.n * (self.nodes[1] - self.nodes[0]))
        return float(self.nodes[-1])

    @cached_property
    def _built(self) -> tuple:
        return self._stencils()

    @property
    def d1(self):
        return self._built[0]

    @property
    def d2(self):
        return self._built[1]

    def keep(self, key: str, build):
        """``build(self)``, run on the first call with ``key`` and kept with the grid.

        Every solve on the grid then shares it, and it dies with the grid, so
        it must hold no reference to it.  An array of the result, or of a
        nested tuple of them, is made read-only.  A :attr:`mirror_half` or
        :meth:`span` is a grid of its own and keeps its own.  Threads first
        asking at once may build twice; all of them get the first one stored.
        """
        try:
            return self._kept[key]
        except KeyError:
            return self._kept.setdefault(key, _read_only(build(self)))

    @cached_property
    def mirror_half(self) -> "RadialGrid":
        """The nodes 0 ... n/2 of an even periodic grid, for fields with a parity
        under the reflection R: i -> n - i.

        A sum over the grid of an R-even field is its sum over these nodes
        with the weights w_0, 2 w_1, ..., 2 w_{n/2 - 1}, w_{n/2}, which are
        the half's.  The nodes are a view of the grid's; the half holds no
        reference to the grid.
        """
        if not self.periodic or self.n % 2:
            raise ValueError("only an even periodic grid has a mirror half")
        h = self.n // 2
        weights = self.weights[:h + 1].copy()
        weights[1:h] *= 2.0
        return RadialGrid(self.nodes[:h + 1], weights, "mirror half")

    def span(self, start: int, stop: int) -> "RadialGrid":
        """The nodes start ... stop - 1 of the grid, with their weights.

        Nodes and weights are views of the grid's; the span holds no
        reference to the grid.
        """
        return RadialGrid(self.nodes[start:stop], self.weights[start:stop], "span")

    def integrate(self, f: np.ndarray) -> float:
        return float(self.weights @ f)

    def refine(self) -> "RadialGrid":
        """Grid of the same scheme with (roughly) doubled resolution."""
        if self.scheme == "uniform":
            return uniform_grid(self.a, self.b, 2 * self.n - 1)
        if self.scheme == "periodic":
            return periodic_grid(self.a, self.b, 2 * self.n)
        if self.scheme == "chebyshev":
            return chebyshev_grid(self.a, self.b, 2 * self.n - 1)
        raise ValueError(self.scheme)


def _read_only(value):
    """``value``, its arrays (it or those of a nested tuple) made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for v in value:
            _read_only(v)
    return value


def _stencil(n: int, weights, ends=None) -> sp.csr_matrix:
    """CSR matrix of the 3-point stencil ``weights`` at offsets (-1, 0, +1).

    With ``ends`` = (first, last), rows 0 and n-1 hold the one-sided
    closures ``first`` on the leading columns and ``last`` on the trailing
    ones; without, the stencil wraps around.  Zero weights are not stored.
    """
    rows = np.arange(n) if ends is None else np.arange(1, n - 1)
    parts = [(rows, (rows + off) % n, np.full(rows.size, w))
             for off, w in zip((-1, 0, 1), weights) if w != 0.0]
    if ends is not None:
        first, last = ends
        parts += [(np.zeros(first.size, int), np.arange(first.size), first),
                  (np.full(last.size, n - 1), np.arange(n - last.size, n), last)]
    r, c, v = (np.concatenate(p) for p in zip(*parts))
    return sp.coo_matrix((v, (r, c)), shape=(n, n)).tocsr()


def _fd_stencils(n: int, h: float, periodic: bool) -> tuple:
    """O(h^2) first and second derivative stencils on n nodes of spacing h."""
    ends1 = ends2 = None
    if not periodic:  # one-sided boundary closures; solves replace these rows
        ends1 = (np.array([-1.5, 2.0, -0.5]) / h, np.array([0.5, -2.0, 1.5]) / h)
        ends2 = (np.array([2.0, -5.0, 4.0, -1.0]) / h**2,
                 np.array([-1.0, 4.0, -5.0, 2.0]) / h**2)
    return (_stencil(n, (-0.5 / h, 0.0, 0.5 / h), ends1),
            _stencil(n, (1.0 / h**2, -2.0 / h**2, 1.0 / h**2), ends2))


def _symmetrized(main, lower, upper, sizes):
    """The pieces (``sizes``) of a tridiagonal band, stacked with zero coupling.

    A piece with sub- and superdiagonals l and u is S T S^-1: T symmetric,
    with the piece's diagonal and the off-diagonal sign(u_i) sqrt(l_{i+1} u_i),
    and S = diag(s), s_0 = 1 and s_{i+1} = s_i sqrt(l_{i+1} / u_i).  The
    scaling restarts at each piece, so each is factored and solved bit for
    bit as if alone.  A pair l_{i+1}, u_i of opposite signs, or with one
    zero, has no such T and is refused; a pair of zeros is a cut.
    ``lower`` and ``upper`` are overwritten.
    """
    return _SymmetrizedBand(main, *_symmetric_form(lower, upper, sizes))


def _symmetric_form(lower, upper, sizes):
    """``(off, scale)`` of :func:`_symmetrized`: T's off-diagonal and S."""
    ends = np.cumsum(sizes)
    # at a piece's last row p the coupling is cut: ones stand in there for
    # the check and the ratios, and T gets a zero
    cut = ends[:-1] - 1
    lower[cut] = upper[cut] = 1.0
    prod = lower * upper
    small = ~(prod >= np.finfo(float).tiny)
    if np.any(small) and np.any(np.sign(lower[small]) != np.sign(upper[small])):
        raise np.linalg.LinAlgError("channel band is not symmetrizable")
    off = np.copysign(np.sqrt(prod), upper)
    if np.any(small):
        # a pair whose product underflows is symmetrized without forming the
        # product; a pair of zeros is a cut
        l, u = np.abs(lower[small]), np.abs(upper[small])
        off[small] = np.copysign(np.sqrt(l) * np.sqrt(u), upper[small])
        zero = np.flatnonzero(small)[u == 0.0]
        lower[zero] = upper[zero] = 1.0
    off[cut] = 0.0
    ratio = np.sqrt(lower / upper)
    scale = np.empty(lower.size + 1)
    for start, end in zip(ends - sizes, ends):
        scale[start] = 1.0
        np.cumprod(ratio[start:end - 1], out=scale[start + 1:end])
    return off, scale


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
        self.size = scale.size

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


def uniform_grid(a: float, b: float, n: int) -> RadialGrid:
    """Uniform interval grid, n odd, with O(h^2) stencils and Simpson weights."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    h = x[1] - x[0]
    return RadialGrid(
        nodes=x,
        weights=simpson_weights(n, h),
        scheme="uniform",
        _stencils=partial(_fd_stencils, n, h, False),
    )


def periodic_grid(a: float, b: float, n: int) -> RadialGrid:
    """Uniform periodic grid on [a, b) with wrap-around O(h^2) stencils."""
    h = (b - a) / n
    return RadialGrid(
        nodes=a + h * np.arange(n),
        weights=np.full(n, h),
        scheme="periodic",
        periodic=True,
        _stencils=partial(_fd_stencils, n, h, True),
    )


def chebyshev_grid(a: float, b: float, n: int) -> RadialGrid:
    """Chebyshev-Lobatto collocation grid mapped to [a, b]."""
    x01, D = _cheb_diff_matrix(n)
    scale = (b - a) / 2.0
    x = a + scale * (x01 + 1.0)
    d1 = D / scale
    w = clenshaw_curtis_weights(n)[::-1] * scale
    return RadialGrid(
        nodes=x,
        weights=w.copy(),
        scheme="chebyshev",
        _stencils=lambda: (sp.csr_matrix(d1), sp.csr_matrix(d1 @ d1)),
    )


@dataclass(frozen=True, eq=False)
class ArcsinhGrid:
    """Uniform grid in t = arcsinh(tau/ell) over |tau| <= tau_bound.

    ``t_grid`` carries the stencils; ``tau`` are the image nodes.  The
    spacing in tau is proportional to sqrt(tau^2 + ell^2), clustering nodes
    in the turning region.  :func:`arcsinh_grid` shares one instance among
    its callers, so ``tau``, ``jacobian`` and :attr:`channel_band` are
    built on the first read, kept and read-only.
    """

    ell: float
    tau_bound: float
    t_grid: RadialGrid

    @property
    def t(self) -> np.ndarray:
        return self.t_grid.nodes

    @cached_property
    def tau(self) -> np.ndarray:
        return _read_only(self.ell * np.sinh(self.t_grid.nodes))

    @cached_property
    def jacobian(self) -> np.ndarray:
        """d tau / d t = ell * cosh t."""
        return _read_only(self.ell * np.cosh(self.t_grid.nodes))

    @cached_property
    def channel_band(self) -> tuple[np.ndarray, ...]:
        """((ell cosh t)^2, lower, upper, off, scale) on the interior nodes 1 ... n - 2.

        lower[i], upper[i]: row i's off-diagonals of -w'' - tanh(t) w' in O(h^2)
        central differences, the part of a cylinder channel operator in t that
        depends on the grid alone (:mod:`wpneck.green`); (off, scale): their
        symmetric form (:func:`_symmetric_form`), refused unless an M-matrix.
        """
        t = self.t
        ht = t[1] - t[0]
        drift = np.tanh(t[1:-1]) / (2.0 * ht)
        lower, upper = -1.0 / ht**2 + drift, -1.0 / ht**2 - drift
        form = _symmetric_form(lower[1:].copy(), upper[:-1].copy(), [drift.size])
        return _read_only(((self.ell * np.cosh(t[1:-1])) ** 2, lower, upper, *form))

    def integrate_dtau(self, f: np.ndarray) -> float:
        return self.t_grid.integrate(f * self.jacobian)


@lru_cache(maxsize=4)
def arcsinh_grid(ell: float, tau_bound: float, n: int) -> ArcsinhGrid:
    """The :class:`ArcsinhGrid` on |tau| <= tau_bound, n nodes (an even n gets n + 1).

    Built once per (ell, tau_bound, n) and shared: the last four are kept,
    so the channel solves of one ell reuse one grid.  Its arrays are
    read-only.
    """
    if ell <= 0:
        raise ValueError("arcsinh grid needs ell > 0")
    tb = float(np.arcsinh(tau_bound / ell))
    return ArcsinhGrid(ell=ell, tau_bound=tau_bound, t_grid=uniform_grid(-tb, tb, n))
