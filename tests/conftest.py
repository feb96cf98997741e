import math

import numpy as np
import pytest
import scipy.sparse as sp

from wpneck import checks
from wpneck.cylinder import CylinderMetric
from wpneck.green import HomogeneousSolutions
from wpneck.grids import chebyshev_grid, periodic_grid, uniform_grid
from wpneck.operators import mode_operators
from wpneck.parametrix import _NORM_RTOL, _Layers
from wpneck.surface import (CutoffPair, GlobalModeSolver, SubdomainSolver,
                            channel_diagonals, zero_mode)
from wpneck.ttbasis import tt_element, tt_limit


@pytest.fixture(scope="session")
def cyl_half():
    return CylinderMetric(0.5)


@pytest.fixture(scope="session")
def grid_1025():
    return uniform_grid(-1.0, 1.0, 1025)


@pytest.fixture(scope="session")
def grid_2049():
    return uniform_grid(-1.0, 1.0, 2049)


@pytest.fixture(scope="session")
def cheb_96():
    return chebyshev_grid(-1.0, 1.0, 96)


@pytest.fixture(scope="session")
def surface_grid():
    return periodic_grid(-2.0, 2.0, 2048)


def smooth_bump(a: float, b: float):
    """C^infinity bump supported on (a, b), unit sup norm."""
    bump = checks.smooth_bump(a, b)
    return lambda x: np.exp(4.0) * bump(x)


def homogeneous_residual(ell: float, tau: np.ndarray) -> float:
    """The sup over ``tau`` of the zero-mode ODE residual of u and v.

    The residual is -F w'' - 2 tau w' + (1 + tau^2 / F) w, F = tau^2 + ell^2,
    with the analytic derivatives of the explicit solutions
    (:class:`~wpneck.green.HomogeneousSolutions`).
    """
    hom = HomogeneousSolutions(ell)
    F = tau**2 + ell**2
    return max(float(np.max(np.abs(-F * d2w(tau) - 2 * tau * dw(tau)
                                   + (1 + tau**2 / F) * w(tau))))
               for w, dw, d2w in ((hom.u, hom.du, hom.d2u), (hom.v, hom.dv, hom.d2v)))


def limit_sup_errors(tau: np.ndarray) -> list[float]:
    """The kappa, k = 3 TT element's sup distance to its limit at ell = 0.1, 0.05, 0.025.

    Each is the larger of sup |phi - phi0| and sup |psi - psi0| over ``tau``,
    (phi0, psi0) the profiles of the limit tensor.
    """
    phi0, psi0 = tt_limit("kappa", 3).profiles(tau)
    sups = []
    for ell in (0.1, 0.05, 0.025):
        phi, psi = tt_element("kappa", 3, ell).profiles(tau)
        sups.append(max(np.max(np.abs(phi - phi0)), np.max(np.abs(psi - psi0))))
    return sups


def channel_matrices(surface, grid, k: int):
    """Oracle: blockdiag((1/2) P_k^+, (1/2) P_k^-) as one sparse CSC matrix.

    Assembled from the mode operators' sparse channel matrices, acting on
    both rho channels stacked as the flattened (2, n) array, as the program
    built it before the channel diagonals came straight from the stencils;
    returned with the global solver's k = 0 kernel (None for k != 0).
    """
    ops = mode_operators(surface, grid, k)
    P = sp.block_diag([sp.csc_matrix(ops.channel_matrix(sign, 0.5))
                       for sign in (+1, -1)], format="csc")
    return P, GlobalModeSolver(surface, grid, 0).kernel if k == 0 else None


def cyclic_diagonals(P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle: the diagonals (L, D, U) of a block-diagonal channel matrix ``P``.

    Each is a (2, n) array, one row per rho channel: row i of channel c of
    ``P`` reads L[c, i] x[i - 1] + D[c, i] x[i] + U[c, i] x[i + 1] with
    indices mod n, so the periodic corners sit in L[:, 0] and U[:, n - 1].
    """
    n = P.shape[0] // 2
    coo = P.tocoo()
    chan, row = np.divmod(coo.row, n)
    slot = (coo.col - coo.row + 1) % n
    if np.any(coo.col // n != chan) or np.any(slot > 2):
        raise ValueError("P is not block-diagonal cyclic tridiagonal")
    diags = np.zeros((3, 2, n))
    diags[slot, chan, row] = coo.data
    return diags[0], diags[1], diags[2]


def power_norm(block, which: str = "S", iters: int = 20, seed: int = 0):
    """Oracle: the largest singular value of S (or R) of a parametrix block
    by power iteration on A^T A, independent of ``operator_norm``'s
    bidiagonalization.

    The same projected random start; each step applies A and A^T once and
    stops on the same relative step (``_NORM_RTOL``).  Returns (sigma,
    steps, converged), converged False after ``iters`` steps without it.
    """
    fwd = block.apply_S if which == "S" else block.apply_R
    bwd = block.apply_S_T if which == "S" else block.apply_R_T
    rng = np.random.default_rng(seed)
    x = block._project(rng.standard_normal((2, block.grid.n)))
    x /= np.linalg.norm(x)
    sigma = 0.0
    for step in range(1, iters + 1):
        y = fwd(x)
        z = block._project(bwd(block._project(y)))
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0, step, True
        new_sigma = math.sqrt(nz)
        x = z / nz
        if abs(new_sigma - sigma) <= _NORM_RTOL * max(new_sigma, 1e-30):
            return new_sigma, step, True
        sigma = new_sigma
    return sigma, iters, False


class WholeBandRoute:
    """Oracle: R, R^T and G~ of the parametrix block at (``surface``, k) by
    the whole-band route, independent of the bank's condensation.

    Both subdomains' Dirichlet bands, both channels of each, are one
    :class:`~wpneck.surface.SubdomainSolver` on the runs of
    ``_Layers.of_blocks``, solved whole, as the blocks applied them before
    they joined their banks.  R = -sum_j [P, chi~_j] G_j chi_j, with the
    commutators' entries from ``layers.commutator`` at the layers' (rows,
    cols).  A stacked vector is in the band's order, ``layers.flat``: run
    by run, both channels of each.
    """

    def __init__(self, surface, grid, k: int):
        self.layers = layers = _Layers.of_blocks(grid, CutoffPair())
        diags = zero_mode(surface, grid)[0] if k == 0 else channel_diagonals(surface, grid, k)
        self.solver = SubdomainSolver(diags, layers.runs)
        self._vals = layers.commutator(diags[0], diags[2])
        self._n = grid.n

    def commute(self, x):
        """-sum_j [P, chi~_j] x_j for a stacked x."""
        return np.bincount(self.layers.rows, self._vals * x[self.layers.cols],
                           minlength=2 * self._n).reshape(2, -1)

    def commute_T(self, w):
        """The transpose of :meth:`commute`: (2, n) in, stacked out."""
        return np.bincount(self.layers.cols, self._vals * w.reshape(-1)[self.layers.rows],
                           minlength=self.layers.flat.size)

    def _solve(self, w):
        """G_j chi_j w for both subdomains, stacked."""
        return self.solver.solve_channels(self.layers.chi * w.reshape(-1)[self.layers.flat])

    def _scatter(self, x):
        return np.bincount(self.layers.flat, x, minlength=2 * self._n).reshape(2, -1)

    def apply_R(self, w):
        return self.commute(self._solve(w))

    def apply_R_T(self, w):
        return self._scatter(self.layers.chi * self.solver.solve_channels(self.commute_T(w), "T"))

    def apply_Gtilde(self, w):
        return self._scatter(self.layers.chiw * self._solve(w))
