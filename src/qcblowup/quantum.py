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
symmetric.  Everything runs on the integer model of each bundle ring, its
multiplication matrices (``quotient.model``).  Whole products are expanded
by one routine (:func:`_product`, behind :func:`_contributions`), which
also builds the table of staircase products that the verification suites
share (:func:`_staircase_products`).  A three-point invariant needs one
piece of one product: :func:`gw_invariant` computes that piece alone
(:func:`_piece`) and integrates it against the third class on the
classical ring's model.  The rows of the correction solve are read from
the same models.  The tests check the products, the invariants and the
solve against assemblies from Groebner normal forms.

The presentation is certified by the hypothesis 2p+3 < m (r < n);
construction outside that range still works but results are formal and
use the uncorrected identification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .errors import CheckFailure, UsageError
from .geometry import (
    BLOWUP,
    BLOWUP_TO_BUNDLE,
    BUNDLE,
    BUNDLE_TO_BLOWUP,
    CurveClass,
    GeometryParams,
    Presentation,
    _carries_ideal,
    _presentation,
    change_vars,
    classical_presentation,
    integrate,  # noqa: F401  (kept importable from this module)
    pairing_matrix,
    quantum_relations,  # noqa: F401  (kept importable from this module)
)
from .groebner import Vector, _add, _RingModel
from .linalg import eliminate
from .poly import Mono, Polynomial, Scalar, _add_term, _canonical, mono_mul
from .report import CheckReport


def quantum_presentation(
    params: GeometryParams, coords: str = BLOWUP, *, max_degree: int | None = None
) -> Presentation:
    """Build the deformed presentation and its quotient ring (cached)."""
    return _presentation(params, coords, True, max_degree)


Term = tuple[Mono, int, Scalar]  # parameter-free monomial, q2 exponent, coefficient


def _integral(
    model: _RingModel, params: GeometryParams, x: Mono, y: Mono, key: tuple[int, int]
) -> int:
    """The integral of the piece at q-power ``key`` of x * y in a bundle ring
    whose staircase is the classical one: the coefficient of the top
    staircase monomial h^n xi^(r-1) in the model product."""
    return model.product(mono_mul(x, y)).get(key, {}).get((params.r - 1, params.n, 0, 0), 0)


def _model_piece(model: _RingModel, x: Mono, y: Mono, key: tuple[int, int]) -> dict[Mono, int]:
    """The nonzero terms of the piece at q-power ``key`` of x * y in a ring
    model."""
    return {t: c for t, c in model.product(mono_mul(x, y)).get(key, {}).items() if c}


@lru_cache(maxsize=None)
def basis_corrections(qp: Presentation) -> MappingProxyType[Mono, Polynomial]:
    """Exceptional-line corrections turning staircase monomials into the
    classical basis classes they are named after.

    A staircase monomial s of weighted degree d > n equals its classical
    class plus q2 times a parameter-free class C_s of degree d - n.
    (Corrections at fiber-line levels vanish: every pairing of a fiber-line
    multiple against staircase classes with fiber exponents below the
    threshold is zero, and the base divisor pairs trivially with the fiber
    line.)  The corrections solve an exact linear system of two kinds of row:

    * divisor axiom: for a divisor D and a basis class c, the q2-part of the
      ring product D * repr(c) minus the correction expansion of the
      classical product D.c is (D . exceptional line) times a two-point
      class S_c that does not depend on D.  Both h and xi meet the line
      once, so the difference of their rows is the row of xi - h, which has
      degree 0 on the line, and S_c drops out.  The h-row kept beside it
      would only fix S_c, which no other row involves, so the xi - h rows
      give the same corrections as the two divisor routes with unknowns S;
    * closure: three-point invariants with a fundamental-class insertion
      vanish.

    Every row is read from the integer models (``quotient.model``) of the
    deformed and the classical ring, each closure integral as the
    top-monomial coefficient of a model product.  The sparse system is
    eliminated exactly (:func:`qcblowup.linalg.eliminate`), must have a
    unique solution, and every value of it must be an integer.  Returns the
    nonzero corrections keyed by staircase exponent tuple, as a read-only
    mapping (the result is cached and shared).  Empty for blow-up
    coordinates (extraction converts to bundle coordinates first) and for
    out-of-range parameters, where results are formal and uncorrected.
    """
    params = qp.params
    if qp.coords != BUNDLE or not params.in_range:
        return MappingProxyType({})
    cp = classical_presentation(params, BUNDLE)
    staircase = qp.quotient.staircase
    if cp.quotient.staircase != staircase:
        raise CheckFailure("deformed and classical staircases differ")
    deformed, classical = qp.quotient.model, cp.quotient.model
    n, top = params.n, params.top_degree
    by_degree: dict[int, list[Mono]] = {}
    for mono in staircase:
        by_degree.setdefault(sum(mono), []).append(mono)

    # Unknowns, in column order: the components of the correction C_s of
    # each monomial s of degree >= n, over the classes of degree deg s - n.
    index: dict[tuple[Mono, Mono], int] = {}
    for d in range(n, top + 1):
        for mono in by_degree.get(d, []):
            for comp in by_degree.get(d - n, []):
                index[(mono, comp)] = len(index)

    # One row per equation, with its right-hand side in column ``ncols``.
    ncols = len(index)
    rows: list[dict[int, int]] = []

    def bump(row: dict[int, int], key: tuple[Mono, Mono], val: int) -> None:
        if val:
            col = index[key]
            row[col] = row.get(col, 0) + val

    # Divisor rows: the q2-part of the ring product (xi - h) * repr(c) equals
    # the correction expansion of the classical product (xi - h).c.
    def times_xi_minus_h(model: _RingModel, key: tuple[int, int]) -> dict[Mono, dict[Mono, int]]:
        """The piece at q-power ``key`` of (xi - h) * s, for each staircase s."""
        out = {}
        for s in staircase:
            vec: Vector = {}
            _add(vec, model.matrices[0][s], (0, 0), 1)
            _add(vec, model.matrices[1][s], (0, 0), -1)
            out[s] = vec.get(key, {})
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
    # exceptional-line contribution of x * y integrates to zero.
    for dx in range(n, top + 1):
        dy = top + n - dx
        if dy < n or dy > top or dy < dx:
            continue
        for x in by_degree.get(dx, []):
            for y in by_degree.get(dy, []):
                if dy == dx and y < x:
                    continue
                row = {ncols: -_integral(deformed, params, x, y, (0, 1))}
                for mu in by_degree.get(dy - n, []):
                    bump(row, (y, mu), _integral(classical, params, x, mu, (0, 0)))
                for mu in by_degree.get(dx - n, []):
                    bump(row, (x, mu), _integral(classical, params, y, mu, (0, 0)))
                rows.append(row)

    system = eliminate(rows, ncols)
    if len(system.pivots) != ncols:
        raise CheckFailure("basis-identification system is underdetermined")
    if system.leftover:
        raise CheckFailure("basis-identification system is inconsistent")
    terms: dict[Mono, dict[Mono, int]] = {}
    for (key, comp), value in zip(index, system.solution()):
        if value.denominator != 1:
            vs = qp.variables
            raise CheckFailure(
                f"non-integral basis correction {Polynomial.monomial(vs, comp, value)}"
                f" for {Polynomial.monomial(vs, key)}"
            )
        if value:
            terms.setdefault(key, {})[comp] = value.numerator
    return MappingProxyType(
        {key: Polynomial._from_clean(qp.variables, t) for key, t in terms.items()}
    )


def _below_top(f: Polynomial, params: GeometryParams) -> Polynomial:
    """A parameter-free class without its terms above the top degree, which
    are zero in cohomology."""
    if not f.is_parameter_free():
        raise UsageError("classical classes must be parameter-free")
    degree, top = f.variables.weighted_degree, params.top_degree
    terms = {mono: c for mono, c in f.terms.items() if degree(mono) <= top}
    return Polynomial._from_clean(f.variables, terms)


def class_representative(f: Polynomial, qp: Presentation) -> Polynomial:
    """The element of the deformed quotient representing a classical class.

    Any parameter-free polynomial is accepted.  A class with a term off the
    classical staircase (tested against ``staircase_set`` of the classical
    quotient) has its terms above the top degree dropped and the rest
    reduced to the staircase by a normal form; staircase inputs skip both.
    Each term of the resulting expansion over the classical basis then
    brings its own basis correction, if it has one (see :func:`_terms`).
    """
    out: dict[Mono, Scalar] = {}
    for mono, k, c in _terms(qp, f)[0]:
        _add_term(out, mono[:3] + (k,), c)
    return Polynomial._from_clean(qp.variables, out)


def _terms(qp: Presentation, *classes: Polynomial) -> list[list[Term]]:
    """phi = :func:`class_representative` of each class as (monomial, q2
    exponent, coefficient) terms: the staircase terms of the class, then q2
    times the sum of their basis corrections."""
    classical = classical_presentation(qp.params, qp.coords).quotient
    corrections = basis_corrections(qp)
    out = []
    for f in classes:
        if f.variables != qp.variables:
            raise UsageError("class over a different variable set than the presentation")
        if not f.terms.keys() <= classical.staircase_set:
            f = classical.normal_form(_below_top(f, qp.params))
        terms = {(mono, 0): coeff for mono, coeff in f.terms.items()}
        for mono, coeff in f.terms.items():
            if mono in corrections:
                for m, c in corrections[mono].terms.items():
                    terms[m, 1] = terms.get((m, 1), 0) + coeff * c
        out.append([(m, k, c) for (m, k), c in terms.items() if c])
    return out


def _product(
    qp: Presentation, x: list[Term], y: list[Term]
) -> dict[tuple[int, int], Polynomial]:
    """phi(x) * phi(y) expanded on the ring model (``qp.quotient.model``),
    followed by the one correction step 1 - q2*C that turns the staircase
    monomials of each piece into the classical basis classes; the nonzero
    pieces in key order."""
    model, corrections = qp.quotient.model, basis_corrections(qp)
    naive: Vector = {}
    for u, ku, cu in x:
        for v, kv, cv in y:
            _add(naive, model.product(mono_mul(u, v)), (0, ku + kv), cu * cv)
    # In descending order each naive piece is read before the step writes
    # into it.
    for key in sorted(naive, reverse=True):
        for mono, coeff in naive[key].items():
            if coeff and mono in corrections:
                _add(naive, {(0, 1): corrections[mono].terms}, key, -coeff)
    return {
        key: Polynomial._from_clean(qp.variables, clean)
        for key in sorted(naive)
        if (clean := {t: _canonical(c) for t, c in naive[key].items() if c})
    }


def _piece(
    qp: Presentation, x: list[Term], y: list[Term], key: tuple[int, int]
) -> dict[Mono, Scalar]:
    """The piece of phi(x) * phi(y) at key = (a, b) that :func:`_product`
    returns, computed alone on the ring model: the naive piece at (a, b)
    minus C times the naive piece at (a, b - 1).  Zero coefficients may
    remain."""
    model, corrections = qp.quotient.model, basis_corrections(qp)
    a, b = key
    out: dict[Mono, Scalar] = {}
    for u, ku, cu in x:
        for v, kv, cv in y:
            product = model.product(mono_mul(u, v))
            scale = cu * cv
            for t, c in product.get((a, b - ku - kv), {}).items():
                out[t] = out.get(t, 0) + scale * c
            for s, c in product.get((a, b - 1 - ku - kv), {}).items():
                if s in corrections:
                    for t, cc in corrections[s].terms.items():
                        out[t] = out.get(t, 0) - scale * c * cc
    return out


def _contributions(
    x: Polynomial, y: Polynomial, qp: Presentation
) -> dict[tuple[int, int], Polynomial]:
    """The quantum product of two classical classes split by curve class: the
    nonzero class over the classical basis multiplying q1^a q2^b, keyed by
    (a, b).  The one product routine, for every deformed ring (n = 1
    included); blow-up pieces are computed in bundle coordinates and
    translated back, after terms above the top degree are dropped."""
    if not qp.quantum:
        raise UsageError("quantum products need the deformed presentation")
    if qp.coords == BLOWUP:
        pieces = _contributions(
            change_vars(_below_top(x, qp.params), BLOWUP_TO_BUNDLE),
            change_vars(_below_top(y, qp.params), BLOWUP_TO_BUNDLE),
            quantum_presentation(qp.params, BUNDLE),
        )
        return {key: change_vars(piece, BUNDLE_TO_BLOWUP) for key, piece in pieces.items()}
    return _product(qp, *_terms(qp, x, y))


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
            return d >= 0 and self.gamma.homogeneous_degree() == top - d
        except UsageError:
            return False


def gw_invariant(query: GWQuery, qp: Presentation) -> Scalar:
    """Evaluate a three-point invariant from the deformed presentation.

    One pass over the terms of each class checks that it is parameter-free
    and homogeneous and reads its degree, which then serves the degree
    bookkeeping of :attr:`GWQuery.admissible` (in the query's own
    coordinates) and the test against the top degree: a query failing
    either returns 0.  Blow-up queries are then translated to bundle
    coordinates.  Any class is reduced to the classical staircase before
    the basis corrections apply (see :func:`class_representative`).  Only
    the requested piece of the product is computed, on the integer model of
    the deformed ring (:func:`_piece`), and it is paired with gamma through
    the classical ring's model: each product of a piece term with a gamma
    term integrates to its top staircase coefficient.  The result of an
    admissible integral query is asserted to be an integer.
    """
    if not qp.quantum:
        raise UsageError("invariants need the deformed presentation")
    vs, params = qp.variables, qp.params
    classes = (query.alpha, query.beta, query.gamma)
    degrees = []
    for c in classes:
        if c.variables != vs:
            raise UsageError("query class over a different variable set")
        found = set()
        for mono in c.terms:
            if not vs.is_parameter_free(mono):
                raise UsageError("query classes must be parameter-free")
            found.add(vs.weighted_degree(mono))
        if len(found) != 1:
            raise UsageError("query classes must be nonzero and homogeneous")
        degrees.append(found.pop())
    a, b = query.curve.a, query.curve.b
    if a < 0 or b < 0:
        raise UsageError("curve-class coefficients must be non-negative")
    top = params.top_degree
    budget = degrees[0] + degrees[1] - (params.r * a + params.n * b)
    if budget < 0 or degrees[2] != top - budget or max(degrees) > top:
        return 0
    alpha, beta, gamma = classes
    if qp.coords == BLOWUP:
        qp = quantum_presentation(params, BUNDLE)
        alpha, beta, gamma = (change_vars(c, BLOWUP_TO_BUNDLE) for c in classes)
    piece = _piece(qp, *_terms(qp, alpha, beta), (a, b))
    classical = classical_presentation(params, BUNDLE).quotient.model
    value = 0
    for t, c in piece.items():
        if c:
            for g, cg in gamma.terms.items():
                value += c * cg * _integral(classical, params, t, g, (0, 0))
    value = _canonical(value)
    if value.denominator != 1 and all(c.is_integral() for c in (alpha, beta, gamma)):
        raise CheckFailure(f"non-integral invariant {value} from integral classes")
    return value


@lru_cache(maxsize=1)
def _staircase_products(
    qp: Presentation,
) -> MappingProxyType[tuple[int, int], MappingProxyType[tuple[int, int], Polynomial]]:
    """Quantum products of all staircase basis pairs (i <= j), split by
    curve class: entry (i, j) is ``_contributions(b_i, b_j, qp)``, the same
    expansion run with each phi(b_s) read once.  The verification suites of
    one instance share this table; only the latest is kept.  The table and
    its entries are read-only, since every caller shares them.
    """
    if not qp.quantum or qp.coords != BUNDLE:
        raise UsageError("the product table is built on the deformed bundle ring")
    terms = _terms(qp, *qp.quotient.staircase_polynomials())
    return MappingProxyType({
        (i, j): MappingProxyType(_product(qp, terms_i, terms[j]))
        for i, terms_i in enumerate(terms)
        for j in range(i, len(terms))
    })


def verify_gw_identities(params: GeometryParams, b_max: int = 2) -> CheckReport:
    """Check the three families of three-point identities plus the deformed
    ring relations they imply.

    * one rational curve in a fiber through a point and two hyperplane-type
      conditions (value 1);
    * counts along the exceptional locus for every split of the base degree:
      value 1 against a point class, value r-1 against the section-type
      class, and the vanishing of their difference combination;
    * vanishing of every multiple-fiber-class contribution below the degree
      threshold, for multiplicities up to ``b_max``.

    Requires the range hypothesis 2p+3 < m.
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

    # Multiple-fiber-class vanishing: the (b, 0) contribution of a product of
    # basis classes dies whenever the fiber degrees sum below b*r.  phi and
    # the correction step only add q2 powers, so that piece of the product
    # table is the deformed model's product of the two staircase monomials.
    staircase = qp.quotient.staircase
    polys = qp.quotient.staircase_polynomials()
    for b in range(1, b_max + 1):
        offenders = []
        checked = 0
        for i in range(len(staircase)):
            for j in range(i, len(staircase)):
                xi_sum = staircase[i][0] + staircase[j][0]
                if xi_sum >= b * r:
                    continue
                checked += 1
                if terms := _model_piece(qp.quotient.model, staircase[i], staircase[j], (b, 0)):
                    piece = Polynomial._from_clean(vs, terms)
                    offenders.append(f"{polys[i]} * {polys[j]} -> {piece}")
        report.add(
            f"fiber_multiple_vanishing[b={b}]",
            not offenders,
            "; ".join(offenders) if offenders else f"{checked} basis pairs checked",
        )

    # The deformed ring relations the counts above assemble into.
    nf = qp.quotient.normal_form
    base, fiber = nf(h ** (n + 1)), nf((xi - h) ** (r - 1) * (xi - 2 * h))
    report.add("deformed_base_relation", base == (xi - 2 * h) * q2, f"h^{n + 1} -> {base}")
    report.add("deformed_fiber_relation", fiber == q1, f"-> {fiber}")
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
    report.add("deformed_ideal_correspondence", _carries_ideal(qpb, qpf))

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
        classical = classical_presentation(params, coords).relations
        specialized = tuple(g.substitute({"q1": 0, "q2": 0}) for g in qp.relations)
        report.add(f"classical_specialization_{coords}", specialized == classical)

    # Products specialize too: the classical-class piece of the deformed
    # product is the classical product on every basis pair.  That piece of
    # the product table is the deformed model's product (phi and the
    # correction step only add q2 powers).
    rings = (qpf.quotient.model, classical_presentation(params, BUNDLE).quotient.model)
    staircase = qpf.quotient.staircase
    polys = qpf.quotient.staircase_polynomials()
    mismatches = []
    for i, si in enumerate(staircase):
        for j in range(i, len(staircase)):
            piece, expected = (_model_piece(ring, si, staircase[j], (0, 0)) for ring in rings)
            if piece != expected:
                mismatches.append(f"{polys[i]} * {polys[j]}")
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

    Every piece of the product table is a class over the classical
    staircase, which the deformed staircase equals (the correction solve
    checks this), so its pairing with a basis class is a dot product with
    the Gram matrix G = ``pairing_matrix(cp)``: each piece's coefficient
    vector is multiplied by G once, and each pairing of the sweep is a
    lookup.  Also asserts integrality of every extracted value along the
    sweep.
    """
    if not params.in_range:
        raise UsageError("symmetry sweep requires 2p+3 < m")
    qp = quantum_presentation(params, BUNDLE)
    cp = classical_presentation(params, BUNDLE)
    staircase = cp.quotient.staircase
    polys = qp.quotient.staircase_polynomials()
    products = _staircase_products(qp)
    report = CheckReport()

    # The nonzero entries of G, row by row, keyed by staircase monomial.
    gram = {
        s: [(k, g) for k, g in enumerate(row) if g]
        for s, row in zip(staircase, pairing_matrix(cp))
    }
    # paired[(i, j), key][k]: the piece of b_i * b_j at key paired with b_k.
    paired: dict[tuple[tuple[int, int], tuple[int, int]], dict[int, Scalar]] = {}
    for pair, pieces in products.items():
        for key, piece in pieces.items():
            row = paired[pair, key] = {}
            for s, c in piece.terms.items():
                for k, g in gram[s]:
                    row[k] = row.get(k, 0) + c * g

    failures: list[str] = []
    fractional: list[str] = []
    checked = 0
    size = len(polys)
    for i in range(size):
        for j in range(i, size):
            for k in range(j, size):
                groupings = (((i, j), k), ((i, k), j), ((j, k), i))
                for key in sorted({key for pair, _ in groupings for key in products[pair]}):
                    v1, v2, v3 = values = [
                        paired.get((pair, key), {}).get(third, 0) for pair, third in groupings
                    ]
                    checked += 1
                    if not (v1 == v2 == v3):
                        failures.append(
                            f"({polys[i]}, {polys[j]}, {polys[k]}) at q1^{key[0]} q2^{key[1]}:"
                            f" {v1}, {v2}, {v3}"
                        )
                    for v in values:
                        if v.denominator != 1:
                            fractional.append(f"({polys[i]}, {polys[j]}, {polys[k]}) -> {v}")
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
