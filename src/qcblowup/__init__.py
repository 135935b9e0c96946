"""Exact classical and small quantum cohomology of blow-ups of projective
space along linear subspaces, with Groebner-based quotient rings and
three-point Gromov-Witten extraction."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  A name is imported
# on first access (PEP 562 ``__getattr__``), so a one-shot command loads only
# the modules it runs: ``quantum`` is compiled only when a deformed product
# is needed.  Resolved names are not stored here; each access reads the
# submodule, so whatever patches a submodule's namespace is seen, and undone,
# through the package as well.
_SOURCES = {
    "errors": (
        "BudgetError", "CheckFailure", "ParseError", "StructuralError", "UsageError",
    ),
    "geometry": (
        "BLOWUP", "BLOWUP_TO_BUNDLE", "BUNDLE", "BUNDLE_TO_BLOWUP", "EXCEPTIONAL_LINE",
        "FIBER_LINE", "CurveClass", "GeometryParams", "Presentation",
        "anticanonical_class", "change_vars", "chern_coefficients",
        "classical_presentation", "classical_relations", "curve_dual", "derive_params",
        "fano_positivity_check", "integrate", "moduli_dimension_identities",
        "oracle_integrate", "pair_divisor_curve", "pairing_matrix", "quantum_presentation",
        "quantum_relations", "segre_integral_oracle", "variables_for",
        "verify_classical_geometry", "virtual_dimension",
    ),
    "groebner": (
        "GroebnerBasis", "Ideal", "QuotientRing", "buchberger", "ideal_equal",
        "normal_form", "staircase_basis",
    ),
    "poly": ("Polynomial", "Scalar", "VariableSet", "blowup_variables", "bundle_variables"),
    "quantum": (
        "GWQuery", "basis_corrections", "class_representative", "contribution_by_class",
        "gw_invariant", "quantum_product", "verify_gw_identities", "verify_quantum_presentation",
    ),
    "report": ("CheckEntry", "CheckReport"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
