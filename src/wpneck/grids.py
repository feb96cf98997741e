"""Radial grids, differentiation matrices, quadrature weights, tridiagonal solves.

Two grid families are supported on an interval: uniform (second-order
finite differences, composite Simpson quadrature) and Chebyshev-Lobatto
(spectral differentiation, Clenshaw-Curtis quadrature).  Periodic
uniform grids (for the closed model surface) use wrap-around stencils and
plain trapezoid weights, which are spectrally accurate for smooth periodic
integrands.

A stretched "arcsinh" grid is provided for the cylinder: uniform in
t = arcsinh(tau/ell), so the node spacing in tau scales like
sqrt(tau^2 + ell^2).  That resolves the ell-scale turning region near
tau = 0 without a uniform grid of size ~1/ell.

Every grid stores ``d1``/``d2`` as CSR matrices, built on the first read, so
callers that use only nodes and weights never pay for them.  Threads first
reading one grid at once (``--jobs``) may build them twice, with equal results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

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
    ``periodic``.  ``_stencils()`` returns (d1, d2) and runs on the first read
    of either (twice, with equal results, if two threads read first at once).
    :meth:`memo` keeps other arrays of the nodes alone with the grid.
    Instances are otherwise immutable and safe to share.
    """

    nodes: np.ndarray
    weights: np.ndarray
    scheme: str
    order: int
    periodic: bool = False
    _stencils: object = field(repr=False, default=None)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

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

    def memo(self, key: str, build):
        """``build()``, run on the first call with ``key`` and kept with the grid.

        For arrays that depend on the nodes alone, never on a surface or its
        ell: every solve on the grid then shares them, and they die with it.
        The arrays of the result (an array or a tuple of them, nested) are
        made read-only.  Threads first asking at once may build twice, with
        equal results; all of them get the first one stored.
        """
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, _read_only(build()))

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
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    else:
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


def tridiagonal_lu(lower, diag, upper) -> tuple:
    """LAPACK ``dgttrf`` factors of the tridiagonal matrix whose row i is
    (lower[i], diag[i], upper[i]); lower[0] and upper[-1] are never read.

    The factorization pivots: the Green and conformal-factor bands it serves
    need not be positive definite (the conformal Newton Jacobian is negative
    definite)."""
    *lu, info = lapack.dgttrf(lower[1:], diag, upper[:-1])
    if info:
        raise np.linalg.LinAlgError("tridiagonal band is exactly singular")
    return tuple(lu)


def tridiagonal_solve(lu: tuple, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve with :func:`tridiagonal_lu` factors; ``trans="T"`` uses the transpose."""
    return lapack.dgttrs(*lu, b, trans=trans)[0]


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
        order=2,
        _stencils=partial(_fd_stencils, n, h, False),
    )


def periodic_grid(a: float, b: float, n: int) -> RadialGrid:
    """Uniform periodic grid on [a, b) with wrap-around O(h^2) stencils."""
    h = (b - a) / n
    return RadialGrid(
        nodes=a + h * np.arange(n),
        weights=np.full(n, h),
        scheme="periodic",
        order=2,
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
        order=n,  # spectral; refinement tests treat residuals as floor-limited
        _stencils=lambda: (sp.csr_matrix(d1), sp.csr_matrix(d1 @ d1)),
    )


@dataclass(frozen=True, eq=False)
class ArcsinhGrid:
    """Uniform grid in t = arcsinh(tau/ell) over |tau| <= tau_bound.

    ``t_grid`` carries the stencils; ``tau`` are the image nodes.  The
    spacing in tau is proportional to sqrt(tau^2 + ell^2), clustering nodes
    in the turning region.
    """

    ell: float
    tau_bound: float
    t_grid: RadialGrid

    @property
    def t(self) -> np.ndarray:
        return self.t_grid.nodes

    @property
    def tau(self) -> np.ndarray:
        return self.ell * np.sinh(self.t_grid.nodes)

    @property
    def jacobian(self) -> np.ndarray:
        """d tau / d t = ell * cosh t."""
        return self.ell * np.cosh(self.t_grid.nodes)

    def integrate_dtau(self, f: np.ndarray) -> float:
        return self.t_grid.integrate(f * self.jacobian)


def arcsinh_grid(ell: float, tau_bound: float, n: int) -> ArcsinhGrid:
    if ell <= 0:
        raise ValueError("arcsinh grid needs ell > 0")
    tb = float(np.arcsinh(tau_bound / ell))
    return ArcsinhGrid(ell=ell, tau_bound=tau_bound, t_grid=uniform_grid(-tb, tb, n))
