"""Deformed (small quantum) presentations and Gromov-Witten extraction.

The classical relations deform by the two extremal curve classes.  With
formal parameters q1 (degree r, the anticanonical degree of a fiber line)
and q2 (degree n, that of an exceptional line) the relations become

* bundle coordinates:  h^(n+1) - (xi - 2h) q2   and
  (xi - h)^(r-1) (xi - 2h) - q1;
* blow-up coordinates: (k - eta)^(m-p) - eta q2  and  k^(p+1) eta - q1.

Setting q1 = q2 = 0 recovers the classical ring; setting q1 = q2 = 1 gives
the undeformed quantum relations.  The grading makes every relation
homogeneous, so products in the deformed quotient split uniquely into
contributions q1^a q2^b times a class of the complementary degree, and the
three-point invariant of classes alpha, beta, gamma in the class
a*A1 + b*A2 is the classical integral of the (a, b)-contribution of
alpha * beta against gamma.

One subtlety: a staircase monomial of the presented ring stands for the
iterated ring product of the generators, which coincides with the
classical basis class of the same name only up to weighted degree n.
Above that degree the two differ by exceptional-line contributions; the
unique corrections are forced by the divisor and fundamental-class axioms
of the three-point theory and are solved for exactly (see
:func:`basis_corrections`).  All extraction goes through the corrected
identification, which is what makes the extracted three-point function
symmetric.

The presentation is certified by the hypothesis 2p+3 < m (r < n);
construction outside that range still works but results are formal and
use the uncorrected identification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import CheckFailure, UsageError
from .geometry import (
    BLOWUP,
    BLOWUP_TO_BUNDLE,
    BUNDLE,
    BUNDLE_TO_BLOWUP,
    CurveClass,
    GeometryParams,
    Presentation,
    _presentation,
    change_vars,
    classical_presentation,
    classical_relations,
    integrate,
    quantum_relations,  # noqa: F401  (kept importable from this module)
)
from .groebner import Ideal, ideal_equal
from .linalg import eliminate
from .poly import Mono, Polynomial, Scalar
from .report import CheckReport


def quantum_presentation(
    params: GeometryParams, coords: str = BLOWUP, *, max_degree: int | None = None
) -> Presentation:
    """Build the deformed presentation and its quotient ring (cached)."""
    return _presentation(params, coords, True, max_degree)


def decompose_contributions(f: Polynomial) -> dict[tuple[int, int], Polynomial]:
    """Split a polynomial by parameter powers: the piece at key (a, b) is the
    parameter-free class multiplying q1^a q2^b."""
    vs = f.variables
    if len(vs.parameter_indices) != 2:
        raise UsageError("expected a variable set with two deformation parameters")
    i1, i2 = vs.parameter_indices
    pieces: dict[tuple[int, int], dict[Mono, Fraction]] = {}
    for mono, coeff in f.terms.items():
        key = (mono[i1], mono[i2])
        stripped = list(mono)
        stripped[i1] = 0
        stripped[i2] = 0
        pieces.setdefault(key, {})[tuple(stripped)] = coeff
    return {key: Polynomial._from_clean(vs, terms) for key, terms in sorted(pieces.items())}


@lru_cache(maxsize=None)
def basis_corrections(qp: Presentation) -> dict[Mono, Polynomial]:
    """Exceptional-line corrections turning staircase monomials into the
    classical basis classes they are named after.

    A staircase monomial of weighted degree d > n equals its classical class
    plus q2 times a parameter-free class of degree d - n.  (Corrections at
    fiber-line levels vanish: every pairing of a fiber-line multiple against
    staircase classes with fiber exponents below the threshold is zero, and
    the base divisor pairs trivially with the fiber line.)  The q2-level
    corrections, together with the auxiliary two-point classes of each basis
    element, satisfy an exact linear system expressing two facts:

    * multiplying by a divisor class contributes at each curve class
      proportionally to the divisor's degree on that class, with the same
      two-point class for every divisor;
    * three-point invariants with a fundamental-class insertion vanish.

    The system is 2-3% nonzero; it is eliminated sparsely and exactly
    (:func:`qcblowup.linalg.eliminate`), must have a unique solution, and
    every correction comes out integral.  The corrections are read off the
    staircase expansion of a class, which :func:`class_representative`
    produces for any input by reducing it first.  Returns the nonzero corrections keyed by staircase
    exponent tuple.  Empty for blow-up coordinates (extraction converts to
    bundle coordinates first) and for out-of-range parameters, where results
    are formal and uncorrected.
    """
    params = qp.params
    if qp.coords != BUNDLE or not params.in_range:
        return {}
    cp = classical_presentation(params, BUNDLE)
    vs = qp.variables
    n, top = params.n, params.top_degree
    staircase = qp.quotient.staircase
    by_degree: dict[int, list[Mono]] = {}
    for mono in staircase:
        by_degree.setdefault(sum(mono), []).append(mono)

    def mono_poly(mono: Mono) -> Polynomial:
        return Polynomial.monomial(vs, mono)

    def naive_q2_part(f: Polynomial) -> Polynomial:
        nf = qp.quotient.normal_form(f)
        return decompose_contributions(nf).get((0, 1), Polynomial.zero(vs))

    # Unknowns: corrections C_m for monomials of degree >= n (class of degree
    # deg m - n) and two-point classes S_c for degree >= n-1 (degree
    # deg c - n + 1), one scalar unknown per staircase component.
    unknowns: list[tuple[str, Mono, Mono]] = []
    index: dict[tuple[str, Mono, Mono], int] = {}

    def register(kind: str, key: Mono, degree: int) -> None:
        for comp in by_degree.get(degree, []):
            index[(kind, key, comp)] = len(unknowns)
            unknowns.append((kind, key, comp))

    for d in range(n, top + 1):
        for mono in by_degree.get(d, []):
            register("C", mono, d - n)
    for d in range(n - 1, top + 1):
        for mono in by_degree.get(d, []):
            register("S", mono, d - n + 1)

    # One row per equation, with its right-hand side in column ``ncols``.
    ncols = len(unknowns)
    rows: list[dict[int, Fraction]] = []

    def bump(row: dict[int, Fraction], key: tuple[str, Mono, Mono], val: Fraction) -> None:
        if val:
            col = index[key]
            row[col] = row.get(col, Fraction(0)) + val

    # Divisor routes: for D in {h, xi} and basis class c, the q2-part of the
    # ring product D * repr(c) equals the correction-expansion of the
    # classical product D.c plus the two-point class of c (both divisors
    # meet an exceptional line once).
    for name in ("h", "xi"):
        divisor = Polynomial.variable(vs, name)
        for cmono in staircase:
            out_degree = sum(cmono) + 1 - n
            if out_degree < 0:
                continue
            known = naive_q2_part(divisor * mono_poly(cmono))
            classical = cp.quotient.normal_form(divisor * mono_poly(cmono))
            for comp in by_degree.get(out_degree, []):
                row: dict[int, Fraction] = {ncols: -known.coefficient(comp)}
                for mu in by_degree.get(sum(cmono) - n, []):
                    shifted = cp.quotient.normal_form(divisor * mono_poly(mu))
                    bump(row, ("C", cmono, mu), shifted.coefficient(comp))
                for mu, coeff in classical.terms.items():
                    if ("C", mu, comp) in index:
                        bump(row, ("C", mu, comp), -coeff)
                bump(row, ("S", cmono, comp), Fraction(-1))
                rows.append(row)

    # Fundamental-class closure: for complementary pairs the corrected
    # exceptional-line contribution of x * y integrates to zero.
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
    if len(system.pivots) != ncols:
        raise CheckFailure("basis-identification system is underdetermined")
    if system.leftover:
        raise CheckFailure("basis-identification system is inconsistent")
    solution = system.solution()
    corrections: dict[Mono, Polynomial] = {}
    for idx, (kind, key, comp) in enumerate(unknowns):
        if kind == "C" and solution[idx]:
            current = corrections.get(key, Polynomial.zero(vs))
            corrections[key] = current + solution[idx] * mono_poly(comp)
    for value in corrections.values():
        if not value.is_integral():
            raise CheckFailure(f"non-integral basis correction {value}")
    return corrections


def class_representative(f: Polynomial, qp: Presentation) -> Polynomial:
    """The element of the deformed quotient representing a classical class.

    Any parameter-free polynomial is accepted.  A term outside the classical
    staircase is first reduced with the classical normal form, so that the
    correction coefficients are read off the class's expansion over the
    classical basis; staircase inputs skip the reduction.
    """
    if f.variables != qp.variables:
        raise UsageError("class over a different variable set than the presentation")
    if not f.is_parameter_free():
        raise UsageError("classical classes must be parameter-free")
    classical = classical_presentation(qp.params, qp.coords).quotient
    if not set(f.terms) <= set(classical.staircase):
        f = classical.normal_form(f)
    correction = Polynomial.zero(qp.variables)
    for mono, corr in basis_corrections(qp).items():
        coeff = f.coefficient(mono)
        if coeff:
            correction = correction + coeff * corr
    return f + Polynomial.variable(qp.variables, "q2") * correction


def _contributions(
    x: Polynomial, y: Polynomial, qp: Presentation
) -> dict[tuple[int, int], Polynomial]:
    """The quantum product of two classical classes split by curve class: the
    nonzero class over the classical basis multiplying q1^a q2^b, keyed by
    (a, b).  The one place where class representatives are multiplied;
    blow-up pieces are computed in bundle coordinates and translated back."""
    if not qp.quantum:
        raise UsageError("quantum products need the deformed presentation")
    if qp.coords == BLOWUP:
        pieces = _contributions(
            change_vars(x, BLOWUP_TO_BUNDLE),
            change_vars(y, BLOWUP_TO_BUNDLE),
            quantum_presentation(qp.params, BUNDLE),
        )
        return {key: change_vars(piece, BUNDLE_TO_BLOWUP) for key, piece in pieces.items()}
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


def quantum_product(x: Polynomial, y: Polynomial, qp: Presentation) -> Polynomial:
    """Quantum product of two classical classes, expanded over the classical
    basis: the result is a sum of q1^a q2^b times parameter-free classes,
    one term per contributing curve class."""
    vs = qp.variables
    out = Polynomial.zero(vs)
    for (a, b), piece in _contributions(x, y, qp).items():
        out = out + piece * Polynomial.monomial(vs, (0, 0, a, b))
    return out


def contribution_by_class(
    x: Polynomial, y: Polynomial, a: int, b: int, qp: Presentation
) -> Polynomial:
    """The class multiplying q1^a q2^b in the quantum product of x and y;
    zero whenever the degree budget deg x + deg y - (r a + n b) is negative."""
    if a < 0 or b < 0:
        raise UsageError("curve-class coefficients must be non-negative")
    return _contributions(x, y, qp).get((a, b), Polynomial.zero(qp.variables))


@dataclass(frozen=True)
class GWQuery:
    """A three-point invariant request: a curve class and three parameter-free
    homogeneous classes, in either coordinate system (both give the same
    degree bookkeeping)."""

    curve: CurveClass
    alpha: Polynomial
    beta: Polynomial
    gamma: Polynomial

    def _weights(self) -> tuple[int, int]:
        vs = self.alpha.variables
        return vs.weights[2], vs.weights[3]

    @property
    def degree_budget(self) -> int:
        """d = deg(alpha) + deg(beta) - (r a + n b), the degree of the
        contribution the query reads off."""
        r, n = self._weights()
        return (
            self.alpha.homogeneous_degree()
            + self.beta.homogeneous_degree()
            - (r * self.curve.a + n * self.curve.b)
        )

    @property
    def admissible(self) -> bool:
        """Queries with a negative budget or an off-degree third class
        evaluate to zero for degree reasons."""
        r, n = self._weights()
        top = n + r - 1
        try:
            d = self.degree_budget
        except UsageError:
            return False
        return d >= 0 and self.gamma.homogeneous_degree() == top - d


@dataclass
class GWTable:
    """Extracted three-point invariants keyed by curve class and the rendered
    class triple, with a provenance note per entry."""

    entries: dict[tuple[tuple[int, int], tuple[str, str, str]], int] = field(
        default_factory=dict
    )
    notes: dict[tuple[tuple[int, int], tuple[str, str, str]], str] = field(
        default_factory=dict
    )

    def record(
        self,
        curve: CurveClass,
        triple: tuple[Polynomial, Polynomial, Polynomial],
        value: int,
        note: str = "",
    ) -> None:
        key = ((curve.a, curve.b), tuple(str(t) for t in triple))
        self.entries[key] = value
        if note:
            self.notes[key] = note

    def __len__(self) -> int:
        return len(self.entries)


def gw_invariant(query: GWQuery, qp: Presentation) -> Scalar:
    """Evaluate a three-point invariant from the deformed presentation.

    Blow-up queries are translated to bundle coordinates first.  The classes
    need not be written in staircase monomials: any class is reduced to the
    classical staircase before the basis corrections apply (see
    :func:`class_representative`).  The result of an admissible integral
    query is asserted to be an integer; queries that fail the degree
    bookkeeping return 0.
    """
    if not qp.quantum:
        raise UsageError("invariants need the deformed presentation")
    alpha, beta, gamma = query.alpha, query.beta, query.gamma
    if qp.coords == BLOWUP:
        qp = quantum_presentation(qp.params, BUNDLE)
        alpha, beta, gamma = (
            change_vars(c, BLOWUP_TO_BUNDLE) for c in (alpha, beta, gamma)
        )
        query = GWQuery(query.curve, alpha, beta, gamma)
    for c in (alpha, beta, gamma):
        if c.variables != qp.variables:
            raise UsageError("query class over a different variable set")
        if not c.is_parameter_free():
            raise UsageError("query classes must be parameter-free")
        if c.is_zero or not c.is_homogeneous():
            raise UsageError("query classes must be nonzero and homogeneous")
    if query.curve.a < 0 or query.curve.b < 0:
        raise UsageError("curve-class coefficients must be non-negative")
    if not query.admissible:
        return Fraction(0)
    key = (query.curve.a, query.curve.b)
    piece = _contributions(alpha, beta, qp).get(key, Polynomial.zero(qp.variables))
    value = integrate(piece * gamma, classical_presentation(qp.params, BUNDLE))
    if alpha.is_integral() and beta.is_integral() and gamma.is_integral():
        if value.denominator != 1:
            raise CheckFailure(f"non-integral invariant {value} from integral classes")
    return value


@lru_cache(maxsize=1)
def _staircase_products(
    qp: Presentation,
) -> dict[tuple[int, int], dict[tuple[int, int], Polynomial]]:
    """Quantum products of all staircase basis pairs (i <= j), split by
    curve class.  The verification suites of one instance run back to back
    and share this table; only the latest instance's table is kept."""
    polys = qp.quotient.staircase_polynomials()
    return {
        (i, j): _contributions(bi, polys[j], qp)
        for i, bi in enumerate(polys)
        for j in range(i, len(polys))
    }


def verify_gw_identities(
    params: GeometryParams, b_max: int = 2, table: GWTable | None = None
) -> CheckReport:
    """Check the three families of three-point identities plus the deformed
    ring relations they imply.

    * one rational curve in a fiber through a point and two hyperplane-type
      conditions (value 1);
    * counts along the exceptional locus for every split of the base degree:
      value 1 against a point class, value r-1 against the section-type
      class, and the vanishing of their difference combination;
    * vanishing of every multiple-fiber-class contribution below the degree
      threshold, for multiplicities up to ``b_max``.

    Requires the range hypothesis 2p+3 < m; when ``table`` is given every
    checked invariant is recorded with a provenance note.
    """
    if not params.in_range:
        raise UsageError(
            "three-point identity suite requires 2p+3 < m (equivalently r < n)"
        )
    if b_max < 1:
        raise UsageError("b_max must be at least 1")
    n, r = params.n, params.r
    qp = quantum_presentation(params, BUNDLE)
    vs = qp.variables
    xi = Polynomial.variable(vs, "xi")
    h = Polynomial.variable(vs, "h")
    q1 = Polynomial.variable(vs, "q1")
    q2 = Polynomial.variable(vs, "q2")
    report = CheckReport()

    # Fiber-line count: one line in the fiber through a point, meeting one
    # hyperplane section of the fiber and the complementary power.
    point = h**n * xi ** (r - 1)
    val = gw_invariant(GWQuery(CurveClass(1, 0), xi, xi ** (r - 1), point), qp)
    report.add("fiber_point_count", val == 1, f"value {val}")
    if table is not None:
        table.record(
            CurveClass(1, 0), (xi, xi ** (r - 1), point), int(val), "fiber-line point count"
        )

    # Exceptional-line counts for every split j + (n+1-j) of the base power.
    dual_a1 = h**n * xi ** (r - 2)
    section = h ** (n - 1) * xi ** (r - 1)
    combo = section + (1 - r) * dual_a1
    for j in range(1, n + 1):
        alpha, beta = h**j, h ** (n + 1 - j)
        v_point = gw_invariant(GWQuery(CurveClass(0, 1), alpha, beta, dual_a1), qp)
        v_section = gw_invariant(GWQuery(CurveClass(0, 1), alpha, beta, section), qp)
        v_combo = gw_invariant(GWQuery(CurveClass(0, 1), alpha, beta, combo), qp)
        report.add(
            f"exceptional_point_count[j={j}]", v_point == 1, f"value {v_point}"
        )
        report.add(
            f"exceptional_section_count[j={j}]",
            v_section == r - 1,
            f"value {v_section}, expected {r - 1}",
        )
        report.add(
            f"exceptional_combination_vanishes[j={j}]", v_combo == 0, f"value {v_combo}"
        )
        if table is not None:
            table.record(
                CurveClass(0, 1), (alpha, beta, dual_a1), int(v_point),
                "exceptional-line count against a point",
            )
            table.record(
                CurveClass(0, 1), (alpha, beta, section), int(v_section),
                "exceptional-line count against the section class",
            )
            table.record(
                CurveClass(0, 1), (alpha, beta, combo), int(v_combo),
                "vanishing combination",
            )

    # Multiple-fiber-class vanishing: the (b, 0) contribution of a product of
    # basis classes dies whenever the fiber degrees sum below b*r.
    staircase = qp.quotient.staircase
    polys = qp.quotient.staircase_polynomials()
    products = _staircase_products(qp)
    for b in range(1, b_max + 1):
        offenders = []
        checked = 0
        for i in range(len(staircase)):
            for j in range(i, len(staircase)):
                xi_sum = staircase[i][0] + staircase[j][0]
                if xi_sum >= b * r:
                    continue
                checked += 1
                piece = products[(i, j)].get((b, 0))
                if piece is not None and not piece.is_zero:
                    offenders.append(f"{polys[i]} * {polys[j]} -> {piece}")
        report.add(
            f"fiber_multiple_vanishing[b={b}]",
            not offenders,
            "; ".join(offenders) if offenders else f"{checked} basis pairs checked",
        )

    # The deformed ring relations the counts above assemble into.
    nf = qp.quotient.normal_form
    report.add(
        "deformed_base_relation",
        nf(h ** (n + 1)) == (xi - 2 * h) * q2,
        f"h^{n + 1} -> {nf(h ** (n + 1))}",
    )
    report.add(
        "deformed_fiber_relation",
        nf((xi - h) ** (r - 1) * (xi - 2 * h)) == q1,
        f"-> {nf((xi - h) ** (r - 1) * (xi - 2 * h))}",
    )
    return report


def verify_quantum_presentation(params: GeometryParams) -> CheckReport:
    """Structural checks of the deformed presentation for one instance:
    the unit-parameter relations in blow-up coordinates, the coordinate
    correspondence of the deformed ideals, rank preservation, and the
    classical specialization at q1 = q2 = 0."""
    if not params.in_range:
        raise UsageError("quantum certification requires 2p+3 < m")
    report = CheckReport()
    qpb = quantum_presentation(params, BLOWUP)
    qpf = quantum_presentation(params, BUNDLE)

    # (k - eta)^(m-p) - eta and k^(p+1) eta - 1 at unit parameters.
    bvs = qpb.variables
    k = Polynomial.variable(bvs, "k")
    eta = Polynomial.variable(bvs, "eta")
    expected = (
        (k - eta) ** (params.m - params.p) - eta,
        k ** (params.p + 1) * eta - 1,
    )
    at_one = tuple(g.substitute({"q1": 1, "q2": 1}) for g in qpb.relations)
    report.add(
        "unit_parameter_relations",
        at_one == expected,
        f"{[str(g) for g in at_one]}",
    )

    # The coordinate change carries the deformed ideals onto each other.
    mapped = tuple(change_vars(g, BLOWUP_TO_BUNDLE) for g in qpb.relations)
    report.add(
        "deformed_ideal_correspondence",
        ideal_equal(
            Ideal(qpf.variables, mapped), Ideal(qpf.variables, qpf.relations)
        ),
    )

    # Homogeneity and rank preservation under deformation.
    report.add(
        "relations_homogeneous",
        all(g.is_homogeneous() for g in qpb.relations + qpf.relations),
    )
    report.add(
        "deformed_rank",
        qpb.quotient.rank == params.rank and qpf.quotient.rank == params.rank,
        f"blowup {qpb.quotient.rank}, bundle {qpf.quotient.rank}, expected {params.rank}",
    )

    # q -> 0 recovers the classical presentations exactly.
    for qp, coords in ((qpb, BLOWUP), (qpf, BUNDLE)):
        classical = classical_relations(params, coords)
        specialized = tuple(g.substitute({"q1": 0, "q2": 0}) for g in qp.relations)
        report.add(f"classical_specialization_{coords}", specialized == classical)

    # Products specialize too: the classical-class piece of the deformed
    # product is the classical normal-form product on every basis pair.
    cp = classical_presentation(params, BUNDLE)
    polys = qpf.quotient.staircase_polynomials()
    products = _staircase_products(qpf)
    zero = Polynomial.zero(qpf.variables)
    mismatches = []
    for i, bi in enumerate(polys):
        for j in range(i, len(polys)):
            deformed = products[(i, j)].get((0, 0), zero)
            classical_nf = cp.quotient.normal_form(bi * polys[j])
            if deformed != classical_nf:
                mismatches.append(f"{bi} * {polys[j]}")
    report.add(
        "product_specialization",
        not mismatches,
        "; ".join(mismatches) if mismatches else f"{len(polys)} basis classes",
    )
    return report


def verify_s3_symmetry(params: GeometryParams) -> CheckReport:
    """Frobenius symmetry of extraction: for every staircase triple and every
    curve class within the degree budget, pairing the contribution of one
    pair against the third class is independent of the grouping.

    Also asserts integrality of every extracted value along the sweep.
    """
    if not params.in_range:
        raise UsageError("symmetry sweep requires 2p+3 < m")
    qp = quantum_presentation(params, BUNDLE)
    cp = classical_presentation(params, BUNDLE)
    polys = qp.quotient.staircase_polynomials()
    products = _staircase_products(qp)
    report = CheckReport()

    def pairing(i: int, j: int, k: int, key: tuple[int, int]) -> Fraction:
        piece = products[(min(i, j), max(i, j))].get(key)
        if piece is None or piece.is_zero:
            return Fraction(0)
        return integrate(piece * polys[k], cp)

    failures = []
    fractional = []
    checked = 0
    size = len(polys)
    for i in range(size):
        for j in range(i, size):
            for k in range(j, size):
                keys = set(products[(i, j)]) | set(products[(min(i, k), max(i, k))])
                keys |= set(products[(min(j, k), max(j, k))])
                for key in sorted(keys):
                    v1 = pairing(i, j, k, key)
                    v2 = pairing(i, k, j, key)
                    v3 = pairing(j, k, i, key)
                    checked += 1
                    if not (v1 == v2 == v3):
                        failures.append(
                            f"({polys[i]}, {polys[j]}, {polys[k]}) at q1^{key[0]} q2^{key[1]}:"
                            f" {v1}, {v2}, {v3}"
                        )
                    for v in (v1, v2, v3):
                        if v.denominator != 1:
                            fractional.append(
                                f"({polys[i]}, {polys[j]}, {polys[k]}) -> {v}"
                            )
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
