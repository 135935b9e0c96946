"""The quantum product assembled from Groebner normal forms, kept as a test
oracle for ``qcblowup.quantum_product``, which computes each piece from the
ring's integer products (``QuotientRing.product``) instead.

The two class representatives are multiplied as polynomials, the product
takes one normal form in the deformed quotient, the normal form is split by
parameter powers, and the one correction step 1 - q2*C is applied with
``Polynomial`` arithmetic.  Blow-up classes are multiplied in bundle
coordinates and translated back.

:func:`budget_product` is the product as the library read it before each
product monomial's rows were walked by key: one piece per curve class in
the degree budget, each read by :func:`piece` (which the library used for
``contribution_by_class`` before that became a slice of the product).  The
piece applies the correction step itself, to the deformed ring's
products, so it checks the library's one step rather than reading it.

Beside them, :func:`contributions` splits the public product by curve class,
and :func:`basis_products` splits the products of all staircase basis pairs
(:func:`staircase_products` keeps that table per ring), which the tests
compare with the oracle and with the verification suites' ring reads.
"""

from functools import lru_cache

from qcblowup import (
    Polynomial,
    geometry,
    quantum,
    UsageError,
    basis_corrections,
    change_vars,
    class_representative,
    quantum_presentation,
    quantum_product,
)
from qcblowup.poly import _canonical_terms


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
    (a, b), in key order, as :func:`contributions` returns them."""
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


def piece(kernel, grouped, key):
    """The piece at key = (a, b) of a product grouped by ``quantum._grouped``,
    read off the deformed ring's products with its own correction step: the
    sum of scale times the ring's piece of w at (a, b - k) minus the
    corrections (``basis_corrections``) of its piece at (a, b - k - 1).
    Each w is looked up once."""
    (a, b), out = key, {}
    product, corrections = kernel.qp.quotient.product, basis_corrections(kernel.qp)
    live = [(k, monos) for k, monos in grouped.items() if k <= b]
    vectors = {w: product(w) for w in dict.fromkeys(w for _, monos in live for w in monos)}
    for k, monos in live:
        for w, scale in monos.items():
            vec = vectors[w]
            for t, c in vec.get((a, b - k), {}).items():
                out[t] = out.get(t, 0) + scale * c
            for s, c in vec.get((a, b - k - 1), {}).items():
                for t, ct in corrections[s].terms.items() if s in corrections else ():
                    out[t] = out.get(t, 0) - scale * c * ct
    return out


def budget_product(x, y, qp):
    """The quantum product of x and y read piece by piece: the term pairs
    grouped once and :func:`piece` read at every key (a, b) with
    r a + n b at most the sum of the factors' largest degrees, which every
    nonzero piece has; a blow-up product is translated back."""
    kernel, terms = quantum._factors(qp, x, y)
    degree, r, n = kernel.qp.variables.weighted_degree, qp.params.r, qp.params.n
    budget = sum(max(map(degree, t), default=0) for t in terms)
    pairs = quantum._grouped(kernel, *terms, budget // n)
    out = {}
    for a in range(budget // r + 1):
        for b in range((budget - r * a) // n + 1):
            terms = piece(kernel, pairs, (a, b))
            out.update((mono[:2] + (a, b), c) for mono, c in terms.items())
    product = Polynomial._from_clean(kernel.qp.variables, _canonical_terms(out))
    return geometry._in_coords(product, qp.coords)


def contributions(x, y, qp):
    """The nonzero pieces of ``quantum_product(x, y, qp)`` by curve class
    (a, b), in key order."""
    return decompose_contributions(quantum_product(x, y, qp))


def basis_products(qp):
    """Quantum products of all staircase basis pairs (i <= j) of a deformed
    bundle ring, split by curve class: entry (i, j) is
    ``contributions(b_i, b_j, qp)``."""
    polys = qp.quotient.staircase_polynomials()
    return {
        (i, j): contributions(x, polys[j], qp)
        for i, x in enumerate(polys)
        for j in range(i, len(polys))
    }


staircase_products = lru_cache(maxsize=None)(basis_products)
