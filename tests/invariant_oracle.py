"""Two assemblies of the three-point invariant, kept as test oracles for
``qcblowup.quantum.gw_invariant``, which walks the term pairs of the piece
(summed by product monomial first in a group of more than 9), builds phi
only up to the key's q2 power and pairs the piece with gamma through the
classical ring's pairing (``quotient.gram``).

* :func:`assembled_invariant` splits alpha * beta by curve class with a
  whole-product routine (the public ``quantum_product``, split by
  ``product_oracle.contributions``, by default; the tests also pass the
  Groebner assembly of ``product_oracle``), multiplies the piece at the
  query's class by gamma as polynomials and integrates the product through
  a Groebner normal form.
* :func:`piecewise_invariant` is the kernel as it was before the pairs were
  grouped: the full phi of both classes, one product lookup per term pair
  whose q2 exponents do not exceed the key's, the correction step applied
  pair by pair, and one top-coefficient integral per (piece term, gamma
  term).

Blow-up classes are translated to bundle coordinates first.
"""

from qcblowup import (
    Polynomial,
    basis_corrections,
    change_vars,
    classical_presentation,
    integrate,
    quantum_presentation,
)
from qcblowup.poly import mono_mul

from product_oracle import contributions as product_contributions


def _bundle_query(query, qp):
    """The query's classes and the deformed ring in bundle coordinates."""
    classes = (query.alpha, query.beta, query.gamma)
    if qp.coords == "blowup":
        qp = quantum_presentation(qp.params, "bundle")
        classes = tuple(change_vars(c, "blowup_to_bundle") for c in classes)
    return qp, classes


def assembled_invariant(query, qp, contributions=product_contributions):
    """The invariant of an admissible query whose classes lie within the top
    degree; 0 for an inadmissible one."""
    if not query.admissible:
        return 0
    qp, (alpha, beta, gamma) = _bundle_query(query, qp)
    key = (query.curve.a, query.curve.b)
    piece = contributions(alpha, beta, qp).get(key, Polynomial.zero(qp.variables))
    return integrate(piece * gamma, qp.params)


def _full_phi(qp, terms):
    """phi of a class over the staircase of the deformed bundle ring, as
    (monomial, q2 exponent, coefficient) terms: the class, then q2 times
    its corrections."""
    corrections = basis_corrections(qp)
    shift = {}
    for mono, coeff in terms.items():
        if mono in corrections:
            for m, c in corrections[mono].terms.items():
                shift[m] = shift.get(m, 0) + coeff * c
    return [(m, 0, c) for m, c in terms.items()] + [(m, 1, c) for m, c in shift.items() if c]


def pairwise_piece(qp, x, y, key):
    """The piece of phi(x) * phi(y) at key = (a, b), term pair by term pair:
    the naive piece at (a, b) minus C times the naive piece at (a, b - 1).
    A pair whose q2 exponents sum above b is skipped before its lookup."""
    ring, corrections = qp.quotient, basis_corrections(qp)
    a, b = key
    out = {}
    for u, ku, cu in x:
        for v, kv, cv in y:
            k = ku + kv
            if k > b:
                continue
            product = ring.product(mono_mul(u, v))
            scale = cu * cv
            for t, c in product.get((a, b - k), {}).items():
                out[t] = out.get(t, 0) + scale * c
            for s, c in product.get((a, b - 1 - k), {}).items():
                if s in corrections:
                    for t, cc in corrections[s].terms.items():
                        out[t] = out.get(t, 0) - scale * c * cc
    return out


def _top_coefficient(ring, params, x, y):
    """The integral of x * y in the classical bundle ring: the coefficient
    of the top staircase monomial h^n xi^(r-1) in the ring product."""
    return ring.product(mono_mul(x, y)).get((0, 0), {}).get((params.r - 1, params.n, 0, 0), 0)


def piecewise_invariant(query, qp):
    """The invariant of an admissible query whose classes lie within the top
    degree; 0 for an inadmissible one or a class above the top degree."""
    params = qp.params
    classes = (query.alpha, query.beta, query.gamma)
    if not query.admissible or max(c.weighted_degree() for c in classes) > params.top_degree:
        return 0
    qp, classes = _bundle_query(query, qp)
    classical = classical_presentation(params, "bundle").quotient
    alpha, beta, gamma = (classical.normal_form(c).terms for c in classes)
    key = (query.curve.a, query.curve.b)
    piece = pairwise_piece(qp, _full_phi(qp, alpha), _full_phi(qp, beta), key)
    value = 0
    for t, c in piece.items():
        if c:
            for g, cg in gamma.items():
                value += c * cg * _top_coefficient(classical, params, t, g)
    return value
