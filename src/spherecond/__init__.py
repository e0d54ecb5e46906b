"""Spherical tube volumes, conic condition numbers, and Monte Carlo
validation of their probabilistic tail bounds."""

__version__ = "0.1.0"

from .geometry import (
    Cap,
    SpherePoint,
    j_integral,
    j_integral_quad,
    kinematic_constant,
    sphere_volume,
)
from .sampling import RngStream, sample_uniform_cap
from .bounds import (
    ProblemDescriptor,
    application_bound,
    curvature_integral_bound,
    expectation_bound,
    linear_tail_bound,
    log_tail_bound,
    log_tube_ratio_bound,
    smooth_tube_bound,
    tail_bound,
    tube_ratio_bound,
)
from .conditioning import (
    PolySystem,
    WeylPolynomial,
    cntr_witness_check,
    cntr_witness_product,
    discriminant_distance_2x2,
    eigenvalue_condition,
    frobenius_condition,
    mu_norm,
    multiple_zero_witness,
    system_projective_distance,
    weyl_inner,
    weyl_norm,
)
from .varieties import (
    CurveVariety,
    DeterminantVariety,
    SubsphereVariety,
    band_volume,
    clopper_pearson,
    geodesic_sphere_mu,
    verify_kinematic,
    verify_weyl_tube_bound,
)
