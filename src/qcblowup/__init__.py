"""Exact classical and small quantum cohomology of blow-ups of projective
space along linear subspaces, with Groebner-based quotient rings and
three-point Gromov-Witten extraction."""

import types as _types

from .errors import (
    BudgetError,
    CheckFailure,
    ParseError,
    StructuralError,
    UsageError,
)
from .geometry import (
    BLOWUP,
    BLOWUP_TO_BUNDLE,
    BUNDLE,
    BUNDLE_TO_BLOWUP,
    EXCEPTIONAL_LINE,
    FIBER_LINE,
    ChernVector,
    CurveClass,
    GeometryParams,
    Presentation,
    anticanonical_class,
    change_vars,
    chern_coefficients,
    classical_presentation,
    classical_relations,
    curve_dual,
    derive_params,
    fano_positivity_check,
    integrate,
    moduli_dimension_identities,
    oracle_integrate,
    pair_divisor_curve,
    pairing_matrix,
    quantum_relations,
    segre_integral_oracle,
    variables_for,
    verify_classical_geometry,
    virtual_dimension,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    QuotientRing,
    buchberger,
    ideal_equal,
    normal_form,
    spolynomial,
    staircase_basis,
)
from .poly import (
    Polynomial,
    Scalar,
    VariableSet,
    blowup_variables,
    bundle_variables,
)
from .quantum import (
    GWQuery,
    basis_corrections,
    class_representative,
    contribution_by_class,
    gw_invariant,
    quantum_presentation,
    quantum_product,
    verify_gw_identities,
    verify_quantum_presentation,
    verify_s3_symmetry,
)
from .report import CheckEntry, CheckReport

__version__ = "0.1.0"

# Every public name imported above is exported, and nothing else.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
