"""The products by the divisors xi and h from classical integrals alone,
kept as a test oracle for ``qcblowup.quantum_product`` in range (r < n).

The cohomology is generated by the divisors, so their products fix the
whole small quantum product (Kontsevich and Manin, *Gromov-Witten classes,
quantum cohomology, and enumerative geometry*, 1994).  By the divisor axiom
the piece of D * alpha at a curve class beta is (D.beta) times the two-point
class psi_beta(alpha), and in range only four classes reach it:

* fiber lines A1: one line through two points of a fiber P^(r-1), with no
  H^1 of its normal bundle, so psi_A1(alpha) = sum_j (int alpha h^(n-j)) h^j;
* exceptional lines A2, the lines in the P^n fibers of E = P^p x P^n, so
  psi_A2(alpha) = sum_i (int alpha E k^(p-i)) E k^i, with E = xi - 2h and
  k = xi - h;
* A1 + A2: only the point class contributes, with psi(pt) = 1, as one line
  passes through two general points and misses P^p (Lai, *Gromov-Witten
  invariants of blow-ups along submanifolds with convex normal bundles*,
  Geom. Topol. 13, 2009);
* k A1 with k >= 2 contributes nothing.

Hence D * alpha = D alpha + q1 (D.A1) psi_A1(alpha) + q2 (D.A2) psi_A2(alpha)
+ q1 q2 (D.(A1 + A2)) (int alpha).  The pairings are written out here
(h.A1 = 0, xi.A1 = 1, h.A2 = xi.A2 = 1), not read from the library's toric
table; the integrals come from ``integrate`` and every class is reduced by
the classical bundle normal form.  No deformed ring, basis correction or
Gram inverse enters.
"""

from qcblowup import Polynomial, classical_presentation, integrate, quantum_presentation
from qcblowup import quantum_product

#: (D.A1, D.A2) for the two divisor variables
PAIRINGS = {"xi": (1, 1), "h": (0, 1)}


def divisor_product(divisor, alpha, params):
    """D * alpha by the formula above, for D the variable named ``divisor``
    and alpha a parameter-free class over the bundle variables."""
    pres = classical_presentation(params, "bundle")
    vs, nf, zero = pres.variables, pres.quotient.normal_form, Polynomial.zero(pres.variables)
    xi, h, q1, q2 = (Polynomial.variable(vs, name) for name in vs.names)
    e, k = xi - 2 * h, xi - h
    n, p = params.n, params.p
    psi_a1 = sum((integrate(alpha * h ** (n - j), params) * h**j for j in range(n + 1)), zero)
    psi_a2 = sum(
        (integrate(alpha * e * k ** (p - i), params) * e * k**i for i in range(p + 1)), zero
    )
    d1, d2 = PAIRINGS[divisor]
    return (
        nf(Polynomial.variable(vs, divisor) * alpha)
        + d1 * q1 * nf(psi_a1)
        + d2 * q2 * nf(psi_a2)
        + (d1 + d2) * integrate(alpha, params) * q1 * q2
    )


def differing_products(params):
    """The (divisor, staircase monomial) pairs of the deformed bundle ring
    whose ``quantum_product`` differs from :func:`divisor_product`."""
    qp = quantum_presentation(params, "bundle")
    vs = qp.variables
    return [
        (divisor, s)
        for s in qp.quotient.staircase
        for divisor in PAIRINGS
        if quantum_product(Polynomial.variable(vs, divisor), Polynomial(vs, {s: 1}), qp)
        != divisor_product(divisor, Polynomial(vs, {s: 1}), params)
    ]
