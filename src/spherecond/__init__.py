"""Spherical tube volumes, conic condition numbers, and Monte Carlo
validation of their probabilistic tail bounds.

The public names are exported lazily (PEP 562): `import spherecond` loads no
submodule, and each name imports its submodule on first access. So the closed-form
bounds load only the standard library, and numpy loads with the first name that
needs it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "geometry": ("Cap", "SpherePoint", "j_integral", "j_integral_quad",
                 "kinematic_constant", "sphere_volume"),
    "sampling": ("RngStream", "sample_uniform_cap"),
    "bounds": ("ProblemDescriptor", "application_bound", "curvature_integral_bound",
               "expectation_bound", "linear_tail_bound", "log_tail_bound",
               "log_tube_ratio_bound", "smooth_tube_bound", "tail_bound",
               "tube_ratio_bound"),
    "conditioning": ("PolySystem", "WeylPolynomial", "cntr_witness_check",
                     "cntr_witness_product", "discriminant_distance_2x2",
                     "eigenvalue_condition", "frobenius_condition", "mu_norm",
                     "multiple_zero_witness", "system_projective_distance", "weyl_inner",
                     "weyl_norm"),
    "varieties": ("CurveVariety", "DeterminantVariety", "SubsphereVariety", "band_volume",
                  "clopper_pearson", "geodesic_sphere_mu", "verify_kinematic",
                  "verify_weyl_tube_bound"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
