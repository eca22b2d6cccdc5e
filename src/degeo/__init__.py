"""Numerical toolkit for area-constrained length minimization in the plane
under a conformal density F = sqrt(W) that vanishes at the wells of W, and
for the traveling-wave profiles those minimizers become.
"""

from .errors import (BubbleDetected, DegenerateHessian, DegeoError,
                     GapTooLarge, GridTooCoarse, InvalidC1, InvalidCoefficient,
                     InvalidDensity, InvalidK, NonConvergence, NonExistence,
                     NonPositiveEigenvalue, NotInNonexistenceRegime,
                     ZeroBeta, ZeroDensityInterior)
from .functionals import (Curve, Curve3, area, area_polar, curve_from_csv,
                          curve_to_csv, energy, lift)
from .homogeneous import (HomogeneousSolution, field_V_beta,
                          homogeneous_length, integrate_integral_curve,
                          minimizing_ellipse, rtilde, solve_beta_for_area,
                          solve_homogeneous, vertical_fiber_distance)
from .potential import (Potential, Well, from_json_dict, make_custom,
                        make_homogeneous, make_radial_quartic,
                        make_two_well_k)
from .radial import (DesingularizedPath, compare_b_negative, delivered_area,
                     energy_RA, existence_threshold, figure1_bundle,
                     lagrange_multiplier_radial, parabola_energy,
                     parabola_geodesic, path_from_csv, path_to_csv,
                     solve_C1_for_area, spiral_from_C1, to_RA,
                     vertical_segment_resolution)
from .solver import (SolveResult, SolverConfig, area_sweep,
                     detect_area_leakage, discrete_area_gradient,
                     discrete_energy_gradient, el_residual,
                     estimate_multiplier, geodesic_curvature,
                     minimize_constrained, vertex_normals)
from .wave import (WaveProfile, hamiltonian_energy, hamiltonian_splits,
                   profile_from_csv, profile_to_csv,
                   second_variation_spectrum, to_traveling_wave,
                   wave_residual, zero_mode_alignment)

__version__ = "0.1.0"

__all__ = [
    "BubbleDetected", "Curve", "Curve3", "DegenerateHessian", "DegeoError",
    "DesingularizedPath", "GapTooLarge", "GridTooCoarse",
    "HomogeneousSolution", "InvalidC1", "InvalidCoefficient", "InvalidDensity",
    "InvalidK", "NonConvergence", "NonExistence",
    "NonPositiveEigenvalue", "NotInNonexistenceRegime", "Potential",
    "SolveResult", "SolverConfig", "WaveProfile", "Well",
    "ZeroBeta", "ZeroDensityInterior", "area", "area_polar", "area_sweep",
    "compare_b_negative", "curve_from_csv", "curve_to_csv", "delivered_area",
    "detect_area_leakage",
    "discrete_area_gradient", "discrete_energy_gradient", "el_residual",
    "energy", "energy_RA", "estimate_multiplier",
    "existence_threshold", "field_V_beta", "figure1_bundle", "from_json_dict",
    "geodesic_curvature", "hamiltonian_energy", "hamiltonian_splits",
    "homogeneous_length",
    "integrate_integral_curve", "lagrange_multiplier_radial", "lift",
    "make_custom", "make_homogeneous", "make_radial_quartic",
    "make_two_well_k", "minimize_constrained", "minimizing_ellipse",
    "parabola_energy", "parabola_geodesic",
    "path_from_csv", "path_to_csv", "profile_from_csv", "profile_to_csv",
    "rtilde", "second_variation_spectrum", "solve_C1_for_area",
    "solve_beta_for_area", "solve_homogeneous", "spiral_from_C1", "to_RA",
    "to_traveling_wave", "vertex_normals", "vertical_fiber_distance",
    "vertical_segment_resolution", "wave_residual", "zero_mode_alignment",
]
