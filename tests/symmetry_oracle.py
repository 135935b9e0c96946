"""The Frobenius symmetry of extraction, kept as a test oracle of the basis
corrections: for every staircase triple and every curve class, pairing the
contribution of one pair against the third class does not depend on the
grouping (Kontsevich-Manin).  A wrong correction breaks it, where the
checks that ``verify`` runs do not notice.

The sweep is built on the public product: each basis pair i <= j is
multiplied once (``quantum_product``, split by curve class), and the
products are dropped when the sweep returns.  Every piece is a class over
the classical staircase, which the deformed staircase equals (the
correction solve checks this), so its pairing with a basis class is a dot
product with a row of the classical ring's pairing (``quotient.gram``): each
piece is multiplied by the rows once, and each pairing of the sweep is a
lookup.  The piece
of b_i * b_j at (a, b) has degree deg i + deg j - (r a + n b), so it pairs
with b_k to a nonzero value only where r a + n b = deg i + deg j + deg k -
top; the sweep reads only those keys.  It costs O(rank^3), so no command
runs it.

:func:`divisor_asymmetries` is the divisor slice of the same symmetry at
O(rank^2): multiplication by a divisor is self-adjoint for the pairing.
"""

from qcblowup import (
    CheckReport,
    Polynomial,
    UsageError,
    classical_presentation,
    quantum_presentation,
    quantum_product,
)

from product_oracle import basis_products


def verify_s3_symmetry(params):
    """The ``s3_symmetry`` and ``extraction_integrality`` checks of one
    in-range instance, as a report."""
    if not params.in_range:
        raise UsageError("symmetry sweep requires 2p+3 < m")
    qp = quantum_presentation(params, "bundle")
    gram = classical_presentation(params, "bundle").quotient.gram
    staircase, polys = qp.quotient.staircase, qp.quotient.staircase_polynomials()

    # paired[(i, j), key][t]: the piece of b_i * b_j at key paired with t.
    paired = {}
    for pair, pieces in basis_products(qp).items():
        for key, piece in pieces.items():
            row = paired[pair, key] = {}
            for s, c in piece.terms.items():
                for t, g in gram[s]:
                    row[t] = row.get(t, 0) + c * g

    # classes[d]: the curve classes (a, b) with r a + n b = d, for d up to
    # 2 top, the most that three basis degrees can exceed the top by.
    r, n, top = params.r, params.n, params.top_degree
    classes = {}
    for a in range(2 * top // r + 1):
        for b in range((2 * top - r * a) // n + 1):
            classes.setdefault(r * a + n * b, []).append((a, b))
    degrees = [qp.variables.weighted_degree(s) for s in staircase]
    failures, fractional = [], []
    checked = 0
    size = len(staircase)
    for i in range(size):
        for j in range(i, size):
            for k in range(j, size):
                groupings = (((i, j), k), ((i, k), j), ((j, k), i))
                for a, b in classes.get(degrees[i] + degrees[j] + degrees[k] - top, ()):
                    v1, v2, v3 = values = [
                        paired.get((pair, (a, b)), {}).get(staircase[third], 0)
                        for pair, third in groupings
                    ]
                    checked += 1
                    if not (v1 == v2 == v3):
                        failures.append(
                            f"({polys[i]}, {polys[j]}, {polys[k]}) at q1^{a} q2^{b}:"
                            f" {v1}, {v2}, {v3}"
                        )
                    for v in values:
                        if v.denominator != 1:
                            fractional.append(f"({polys[i]}, {polys[j]}, {polys[k]}) -> {v}")
    report = CheckReport()
    report.add(
        "s3_symmetry",
        not failures,
        "; ".join(failures[:5]) if failures else f"{checked} triple/class pairings",
    )
    report.add(
        "extraction_integrality",
        not fractional,
        "; ".join(fractional[:5]) if fractional else "all values integral",
    )
    return report


def divisor_asymmetries(qp):
    """The ordered (D, beta, x, y) with int (D*x)_beta . y != int (D*y)_beta . x,
    for D in {xi, h}, every curve class beta and all classical bundle
    staircase monomials x and y, where (D*x)_beta is the class multiplying
    q^beta in ``quantum_product(D, x, qp)``; the integrals are read off the
    classical ring's pairing (``quotient.gram``).  The invariant
    <D, x, y>_beta is symmetric in x and y, so an in-range instance gives
    none.  That is necessary, not sufficient: a change of basis that keeps
    the Gram form passes it."""
    classical = classical_presentation(qp.params, "bundle").quotient
    gram = {s: dict(row) for s, row in classical.gram.items()}
    staircase, polys = classical.staircase, classical.staircase_polynomials()
    failures = []
    for name in ("xi", "h"):
        divisor = Polynomial.variable(qp.variables, name)
        # paired[x][beta][y]: the integral of (D*x)_beta against y
        paired = {x: {} for x in staircase}
        for x, poly in zip(staircase, polys):
            for mono, c in quantum_product(divisor, poly, qp).terms.items():
                row = paired[x].setdefault(mono[2:], {})
                for y, g in gram.get(mono[:2] + (0, 0), {}).items():
                    row[y] = row.get(y, 0) + c * g
        betas = sorted({beta for rows in paired.values() for beta in rows})
        failures += [
            (name, beta, x, y) for beta in betas for x in staircase for y in staircase
            if paired[x].get(beta, {}).get(y, 0) != paired[y].get(beta, {}).get(x, 0)
        ]
    return failures
