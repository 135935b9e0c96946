"""The basis-correction system in its original formulation, assembled from
Groebner products, kept as a test oracle for
``qcblowup.quantum.basis_corrections``.

The package reads every coefficient from the integer ring models and solves
the reduced system: one row per (class, component) from the divisor
xi - h, over the correction unknowns alone.  This oracle keeps both divisor
routes, h and xi, each with the auxiliary two-point unknowns S of every
basis class, and builds each row from ``Polynomial`` products, deformed and
classical normal forms and one ``integrate`` call per closure pairing.
Only the closure equations and the elimination routine are the package's;
the divisor rows and the unknowns differ, so agreement checks the reduced
system against the original one.
"""

from fractions import Fraction

from qcblowup import CheckFailure, Polynomial, classical_presentation, integrate
from qcblowup.linalg import eliminate
from product_oracle import decompose_contributions


def polynomial_corrections(qp):
    """The nonzero corrections of an in-range deformed bundle presentation,
    keyed by staircase monomial in the order of the solve's unknowns."""
    params = qp.params
    cp = classical_presentation(params, "bundle")
    vs = qp.variables
    n, top = params.n, params.top_degree
    staircase = qp.quotient.staircase
    by_degree = {}
    for mono in staircase:
        by_degree.setdefault(sum(mono), []).append(mono)

    def mono_poly(mono):
        return Polynomial.monomial(vs, mono)

    def naive_q2_part(f):
        nf = qp.quotient.normal_form(f)
        return decompose_contributions(nf).get((0, 1), Polynomial.zero(vs))

    unknowns = []
    index = {}

    def register(kind, key, degree):
        for comp in by_degree.get(degree, []):
            index[(kind, key, comp)] = len(unknowns)
            unknowns.append((kind, key, comp))

    for d in range(n, top + 1):
        for mono in by_degree.get(d, []):
            register("C", mono, d - n)
    for d in range(n - 1, top + 1):
        for mono in by_degree.get(d, []):
            register("S", mono, d - n + 1)

    ncols = len(unknowns)
    rows = []

    def bump(row, key, val):
        if val:
            col = index[key]
            row[col] = row.get(col, Fraction(0)) + val

    # Divisor routes, h then xi.
    for name in ("h", "xi"):
        divisor = Polynomial.variable(vs, name)
        for cmono in staircase:
            out_degree = sum(cmono) + 1 - n
            if out_degree < 0:
                continue
            known = naive_q2_part(divisor * mono_poly(cmono))
            classical = cp.quotient.normal_form(divisor * mono_poly(cmono))
            for comp in by_degree.get(out_degree, []):
                row = {ncols: -known.coefficient(comp)}
                for mu in by_degree.get(sum(cmono) - n, []):
                    shifted = cp.quotient.normal_form(divisor * mono_poly(mu))
                    bump(row, ("C", cmono, mu), shifted.coefficient(comp))
                for mu, coeff in classical.terms.items():
                    if ("C", mu, comp) in index:
                        bump(row, ("C", mu, comp), -coeff)
                bump(row, ("S", cmono, comp), Fraction(-1))
                rows.append(row)

    # Fundamental-class closure on complementary pairs.
    for dx in range(n, top + 1):
        dy = top + n - dx
        if dy < n or dy > top or dy < dx:
            continue
        for x in by_degree.get(dx, []):
            for y in by_degree.get(dy, []):
                if dy == dx and y < x:
                    continue
                row = {ncols: -integrate(naive_q2_part(mono_poly(x) * mono_poly(y)), cp)}
                for mu in by_degree.get(dy - n, []):
                    bump(row, ("C", y, mu), integrate(mono_poly(x) * mono_poly(mu), cp))
                for mu in by_degree.get(dx - n, []):
                    bump(row, ("C", x, mu), integrate(mono_poly(y) * mono_poly(mu), cp))
                rows.append(row)

    system = eliminate(rows, ncols)
    if len(system.pivots) != ncols or system.leftover:
        raise CheckFailure("basis-identification system has no unique solution")
    solution = system.solution()
    corrections = {}
    for idx, (kind, key, comp) in enumerate(unknowns):
        if kind == "C" and solution[idx]:
            current = corrections.get(key, Polynomial.zero(vs))
            corrections[key] = current + solution[idx] * mono_poly(comp)
    return corrections
