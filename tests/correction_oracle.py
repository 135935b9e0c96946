"""The basis-correction systems, kept as test oracles for the closed form
of ``qcblowup.quantum.basis_corrections``.

Both solve the divisor and fundamental-class axioms exactly, with
:func:`elimination_oracle.eliminate` and the back substitution
:func:`solution`:

* :func:`model_corrections` is the reduced system the package solved
  before the closed form: one row per (class, component) from the divisor
  xi - h, over the correction unknowns alone, every coefficient read from
  the rings' integer products (``quotient.product``) and the classical pairing
  (``quotient.gram``).
  Its underdetermined, inconsistent and non-integral checks raise
  ``CheckFailure``.
* :func:`polynomial_corrections` is the original formulation: both divisor
  routes, h and xi, each with the auxiliary two-point unknowns S of every
  basis class, every row built from ``Polynomial`` products, deformed and
  classical normal forms and one ``integrate`` call per closure pairing.

Agreement of the three checks the formula against two independent
assemblies of the same axioms.
"""

from fractions import Fraction

from qcblowup import CheckFailure, Polynomial, classical_presentation, integrate
from qcblowup.poly import mono_mul
from elimination_oracle import eliminate
from pair_sweep_oracle import model_piece
from product_oracle import decompose_contributions


def solution(system):
    """Back substitution for an eliminated system (``elimination_oracle.Elimination``)
    of full rank whose right-hand side is column ``ncols``."""
    x = [Fraction(0)] * system.ncols
    for col in reversed(range(system.ncols)):
        pivot = system.pivots[col]
        known = sum(v * x[c] for c, v in pivot.items() if col < c < system.ncols)
        x[col] = Fraction(pivot.get(system.ncols, 0) - known) / pivot[col]
    return x


def model_corrections(qp):
    """The nonzero corrections of an in-range deformed bundle presentation,
    keyed by staircase monomial in the order of the unknowns, from the
    reduced system read off the rings' products.

    * divisor rows: for a divisor D and a basis class c, the q2-part of the
      ring product D * repr(c) minus the correction expansion of the
      classical product D.c is (D . exceptional line) times a two-point
      class S_c that does not depend on D.  Both h and xi meet the line
      once, so the difference of their rows is the row of xi - h, which has
      degree 0 on the line, and S_c drops out;
    * closure rows: three-point invariants with a fundamental-class
      insertion vanish.  The classical integrals are the rows of the
      classical ring's pairing, the deformed one the top-monomial
      coefficient of a ring product.

    The system must have a unique solution, and every value of it must be
    an integer.
    """
    params = qp.params
    cp = classical_presentation(params, "bundle")
    staircase = qp.quotient.staircase
    if cp.quotient.staircase != staircase:
        raise CheckFailure("deformed and classical staircases differ")
    deformed, classical = qp.quotient, cp.quotient
    n, top, by_degree = params.n, params.top_degree, cp.quotient.by_degree

    # Unknowns, in column order: the components of the correction C_s of
    # each monomial s of degree >= n, over the classes of degree deg s - n.
    index = {}
    for d in range(n, top + 1):
        for mono in by_degree.get(d, []):
            for comp in by_degree.get(d - n, []):
                index[(mono, comp)] = len(index)

    # One row per equation, with its right-hand side in column ``ncols``.
    ncols = len(index)
    rows = []

    def bump(row, key, val):
        if val:
            col = index[key]
            row[col] = row.get(col, 0) + val

    # Divisor rows: the q2-part of the ring product (xi - h) * repr(c) equals
    # the correction expansion of the classical product (xi - h).c.
    def times_xi_minus_h(ring, key):
        """The piece at q-power ``key`` of (xi - h) * s, for each staircase s."""
        out = {}
        for s in staircase:
            piece = out[s] = dict(ring.product(mono_mul(s, (1, 0, 0, 0))).get(key, {}))
            for t, c in ring.product(mono_mul(s, (0, 1, 0, 0))).get(key, {}).items():
                piece[t] = piece.get(t, 0) - c
        return out

    known, cmat = times_xi_minus_h(deformed, (0, 1)), times_xi_minus_h(classical, (0, 0))
    for cmono in staircase:
        for comp in by_degree.get(sum(cmono) + 1 - n, []):
            row = {ncols: -known[cmono].get(comp, 0)}
            for mu in by_degree.get(sum(cmono) - n, []):
                bump(row, (cmono, mu), cmat[mu].get(comp, 0))
            for mu, coeff in cmat[cmono].items():
                if (mu, comp) in index:
                    bump(row, (mu, comp), -coeff)
            rows.append(row)

    # Fundamental-class closure: for complementary pairs the corrected
    # exceptional-line contribution of x * y integrates to zero; the pairing
    # row of x pairs it with the components of C_y (of degree top - deg x).
    top_monomial, gram = cp.quotient.top_monomial(top), cp.quotient.gram
    for dx in range(n, top + 1):
        dy = top + n - dx
        if dy < n or dy > top or dy < dx:
            continue
        for x in by_degree.get(dx, []):
            for y in by_degree.get(dy, []):
                if dy == dx and y < x:
                    continue
                row = {ncols: -model_piece(deformed, x, y, (0, 1)).get(top_monomial, 0)}
                for mu, c in gram[x]:
                    bump(row, (y, mu), c)
                for mu, c in gram[y]:
                    bump(row, (x, mu), c)
                rows.append(row)

    system = eliminate(rows, ncols)
    if len(system.pivots) != ncols:
        raise CheckFailure("basis-identification system is underdetermined")
    if system.leftover:
        raise CheckFailure("basis-identification system is inconsistent")
    terms = {}
    for (key, comp), value in zip(index, solution(system)):
        if value.denominator != 1:
            vs = qp.variables
            raise CheckFailure(
                f"non-integral basis correction {Polynomial(vs, {comp: value})}"
                f" for {Polynomial(vs, {key: 1})}"
            )
        if value:
            terms.setdefault(key, {})[comp] = value.numerator
    return {key: Polynomial(qp.variables, t) for key, t in terms.items()}


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
        return Polynomial(vs, {mono: 1})

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
                row = {ncols: -integrate(naive_q2_part(mono_poly(x) * mono_poly(y)), params)}
                for mu in by_degree.get(dy - n, []):
                    bump(row, ("C", y, mu), integrate(mono_poly(x) * mono_poly(mu), params))
                for mu in by_degree.get(dx - n, []):
                    bump(row, ("C", x, mu), integrate(mono_poly(y) * mono_poly(mu), params))
                rows.append(row)

    system = eliminate(rows, ncols)
    if len(system.pivots) != ncols or system.leftover:
        raise CheckFailure("basis-identification system has no unique solution")
    solution_values = solution(system)
    corrections = {}
    for idx, (kind, key, comp) in enumerate(unknowns):
        if kind == "C" and solution_values[idx]:
            current = corrections.get(key, Polynomial.zero(vs))
            corrections[key] = current + solution_values[idx] * mono_poly(comp)
    return corrections
