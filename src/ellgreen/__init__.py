"""Analytic invariants of genus-1 Riemann surfaces: normalised theta/eta/
discriminant, the canonical torus Green function, isogeny kernel energies,
averaged quotient heights, and the explicit Faltings-height formula."""

from .errors import SeriesConvergenceError
from .lattice import (
    CyclicSubgroup,
    Isogeny,
    TauPoint,
    TorusPoint,
    cyclic_subgroups,
    exact_order_points,
    mult_by_n_kernel,
    multiplication_isogeny,
    quotient,
    reduce_tau,
    subgroup_points,
    transport_point,
)
from .modular import (
    DEFAULT_TOL,
    SeriesTolerance,
    SurfaceInvariants,
    delta,
    eta,
    invariants,
    log_norm_delta,
    log_norm_eta,
    norm_theta,
    theta,
    theta_dz,
)
from .green import (
    GreenValue,
    a_invariant_adjunction_check,
    energy,
    green,
    green_mean_integral,
    green_pair,
    green_projection_check,
    torsion_product,
)
from .weierstrass import (
    PeriodData,
    RootTriple,
    WeierstrassCurve,
    discriminant_relation_residual,
    eisenstein,
    half_period_roots,
    optimal_agm,
    periods_from_curve,
    root_product_discriminant,
    thomae_residuals,
    two_torsion_green_check,
)
from .heights import (
    AverageHeightReport,
    CurveHeightInput,
    average_green_over_cyclic,
    average_height_increment,
    cyclic_log_green_constant,
    cyclic_subgroup_count,
    exact_order_log_green,
    exact_order_log_green_expected,
    faltings_height,
)

__version__ = "0.1.0"

__all__ = [
    "SeriesConvergenceError",
    "CyclicSubgroup", "Isogeny", "TauPoint", "TorusPoint",
    "cyclic_subgroups", "exact_order_points", "mult_by_n_kernel",
    "multiplication_isogeny", "quotient", "reduce_tau", "subgroup_points",
    "transport_point",
    "DEFAULT_TOL", "SeriesTolerance", "SurfaceInvariants",
    "delta", "eta", "invariants", "log_norm_delta", "log_norm_eta",
    "norm_theta", "theta", "theta_dz",
    "GreenValue", "a_invariant_adjunction_check", "energy",
    "green", "green_mean_integral", "green_pair", "green_projection_check",
    "torsion_product",
    "PeriodData", "RootTriple", "WeierstrassCurve",
    "discriminant_relation_residual", "eisenstein", "half_period_roots",
    "optimal_agm", "periods_from_curve", "root_product_discriminant",
    "thomae_residuals", "two_torsion_green_check",
    "AverageHeightReport", "CurveHeightInput", "average_green_over_cyclic",
    "average_height_increment", "cyclic_log_green_constant",
    "cyclic_subgroup_count", "exact_order_log_green",
    "exact_order_log_green_expected", "faltings_height",
    "__version__",
]
