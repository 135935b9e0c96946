"""The quantum product assembled from Groebner normal forms, kept as a test
oracle for ``qcblowup.quantum._contributions``, which expands the product on
the integer ring models instead.

The two class representatives are multiplied as polynomials, the product
takes one normal form in the deformed quotient, the normal form is split by
parameter powers, and the one correction step 1 - q2*C is applied with
``Polynomial`` arithmetic.  Blow-up classes are multiplied in bundle
coordinates and translated back.

Beside it, :func:`staircase_products` builds the table of model products of
all staircase basis pairs that the tests compare with the oracle and with
the verification suites' model reads.
"""

from functools import lru_cache

from qcblowup import (
    Polynomial,
    UsageError,
    basis_corrections,
    change_vars,
    class_representative,
    quantum_presentation,
)
from qcblowup.quantum import _phi, _product, _terms


def decompose_contributions(f):
    """Split a polynomial by parameter powers: the piece at key (a, b) is the
    parameter-free class multiplying q1^a q2^b."""
    vs = f.variables
    parameters = range(vs.divisor_count, len(vs))
    if len(parameters) != 2:
        raise UsageError("expected a variable set with two deformation parameters")
    i1, i2 = parameters
    pieces = {}
    for mono, coeff in f.terms.items():
        key = (mono[i1], mono[i2])
        stripped = list(mono)
        stripped[i1] = 0
        stripped[i2] = 0
        pieces.setdefault(key, {})[tuple(stripped)] = coeff
    return {key: Polynomial._from_clean(vs, terms) for key, terms in sorted(pieces.items())}


def groebner_contributions(x, y, qp):
    """The nonzero pieces of the quantum product of x and y by curve class
    (a, b), in key order, as ``_contributions`` returns them."""
    if qp.coords == "blowup":
        pieces = groebner_contributions(
            change_vars(x, "blowup_to_bundle"),
            change_vars(y, "blowup_to_bundle"),
            quantum_presentation(qp.params, "bundle"),
        )
        return {key: change_vars(piece, "bundle_to_blowup") for key, piece in pieces.items()}
    z = qp.quotient.normal_form(class_representative(x, qp) * class_representative(y, qp))
    naive = decompose_contributions(z)
    corrections = basis_corrections(qp)
    out = dict(naive)
    zero = Polynomial.zero(qp.variables)
    for (a, b), piece in naive.items():
        for mono, corr in corrections.items():
            coeff = piece.coefficient(mono)
            if coeff:
                out[(a, b + 1)] = out.get((a, b + 1), zero) - coeff * corr
    return {key: val for key, val in sorted(out.items()) if not val.is_zero}


@lru_cache(maxsize=None)
def staircase_products(qp):
    """Quantum products of all staircase basis pairs (i <= j) of a deformed
    bundle ring, split by curve class: entry (i, j) is
    ``_contributions(b_i, b_j, qp)``, expanded on the ring model with each
    phi(b_s) read once, as the symmetry sweep expands them."""
    terms = _phi(qp, *_terms(qp, *qp.quotient.staircase_polynomials())[1])
    return {
        (i, j): _product(qp, terms_i, terms[j])
        for i, terms_i in enumerate(terms)
        for j in range(i, len(terms))
    }
