"""Harmonic maps between annuli on surfaces of bounded curvature.

Radial and grid harmonic-map solvers, conformal moduli, minimal-surface
metrics, comparison theorems, and verification of the Nitsche-type annulus
distortion bound rho2/rho1 >= Psi Mod^2 + 1.
"""

from .comparison import ComparisonReport, hessian_check, osserman_check
from .errors import DivergenceError, DomainError, MaskError, RangeExitError
from .grid import AnnulusGrid, AnnulusMap, embed_radial_profile
from .metrics import (
    CurvatureBound,
    GeodesicAnnulus,
    RotMetric,
    constant_curvature_metric,
    gaussian_curvature,
    h_c,
    infer_bound,
    load_metric,
    metric_from_profile,
    psi_big,
    psi_sharp,
    psi_small,
)
from .modulus import (
    Circular,
    MaskedPolarDomain,
    angular_energy,
    masked_from_circular,
    masked_geodesic_annulus,
    modulus_capacity,
    modulus_circular,
)
from .pde import (
    green_chain,
    harmonicity_residual,
    hopf_dbar_norm,
    hopf_differential,
    laplacian_bound_check,
    residual_norm,
    solve_dirichlet,
)
from .radial import (
    NoSolution,
    RadialProfile,
    critical_modulus,
    critical_outer,
    modulus_of_slope,
    nitsche_euclidean,
    nitsche_ndim,
    ode_rhs,
    radial_map_ndim,
    shoot,
    solve_bvp,
)
from .report import BoundReport, check_bound, random_solved_cases, verify_end_to_end
from .weierstrass import (
    CATALOG,
    WeierstrassData,
    catalog_surface,
    corollary_check,
    geodesic_shoot,
    surface_metric,
    we_density,
    we_distance_radial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
