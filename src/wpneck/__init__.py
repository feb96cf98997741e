"""wpneck: numerics for the degenerating hyperbolic cylinder.

Explicit mode operators, Green solves, transverse-traceless bases, a
cutoff-glued parametrix with Neumann-series correction on a closed model
surface, uniformizing conformal factors, Weil-Petersson pairing sweeps,
and a half-integer/log expansion fitter.
"""

from .cylinder import (CylinderMetric, boundary_distance, make_chart,
                       metric_components, plumbing_substitution_check,
                       profile_curvature)
from .grids import arcsinh_grid, chebyshev_grid, periodic_grid, uniform_grid
from .green import (BarrierProfile, GreenSolveReport, HomogeneousSolutions,
                    certify_barrier, cylinder_dirichlet_inverse,
                    solve_nonzero_mode, solve_zero_mode)
from .modefields import ModeField, Rank, Variant, mode_inner_product, mode_norm
from .parametrix import (ParametrixFamily, SolverBank, assemble_tt_frame,
                         build_cutoff_tensors, project_tt)
from .surface import CutoffPair, ModelSurfaceMetric
from .ttbasis import (TTBasisElement, growing_solutions, tt_element,
                      tt_l2norm, tt_limit, tt_rescaled_zero_mode)
from .uniformize import ConformalFactor, solve_conformal_factor
from .wp import (ExpansionFit, fit_polyhomogeneous, length_variation,
                 sweep_wp_coefficients, twist_variation, wp_inner_product)

__version__ = "0.1.0"

__all__ = [
    "CylinderMetric", "boundary_distance", "make_chart", "metric_components",
    "plumbing_substitution_check", "profile_curvature",
    "arcsinh_grid", "chebyshev_grid", "periodic_grid", "uniform_grid",
    "BarrierProfile", "GreenSolveReport", "HomogeneousSolutions",
    "certify_barrier", "cylinder_dirichlet_inverse", "solve_nonzero_mode",
    "solve_zero_mode",
    "ModeField", "Rank", "Variant", "mode_inner_product", "mode_norm",
    "ParametrixFamily", "SolverBank", "assemble_tt_frame",
    "build_cutoff_tensors", "project_tt",
    "CutoffPair", "ModelSurfaceMetric",
    "TTBasisElement", "growing_solutions", "tt_element", "tt_l2norm",
    "tt_limit", "tt_rescaled_zero_mode",
    "ConformalFactor", "solve_conformal_factor",
    "ExpansionFit", "fit_polyhomogeneous", "length_variation",
    "sweep_wp_coefficients", "twist_variation", "wp_inner_product",
]
