"""Extremal length on flat tori: closed forms, harmonic-map energies,
first and second variations along Beltrami deformations, and a
self-verifying cross-check suite."""

from .moduli import (
    CurveClass,
    KerckhoffDistance,
    MappingClass,
    Modulus,
    apply_mapping_class,
    cylinder_modulus,
    extremal_length,
    format_complex,
    format_curve,
    hyperbolic_distance,
    kerckhoff_distance,
    levi_form,
    parse_complex,
    parse_curve,
)
from .harmonic import (
    build_harmonic_map,
    energy,
    hopf,
)
from .beltrami import (
    BeltramiField,
    FIELD_CATALOG,
    catalog_field,
    from_function,
    modulus_path_constant,
    teich_geodesic_constant,
)
from .variation import (
    IdentityReport,
    VariationField,
    first_variation,
    identity_eq11_check,
    identity_eq15_evaluate,
    pair_sum_levi,
    second_variation_constant,
    solve_variation_field,
)
from .verify import SuiteResult, run_suite, teich_bound_check

__version__ = "0.1.0"
