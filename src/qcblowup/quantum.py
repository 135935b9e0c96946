"""Small quantum products and Gromov-Witten extraction in deformed rings.

The classical relations deform by the two extremal curve classes.  With
formal parameters q1 (degree r, the anticanonical degree of a fiber line)
and q2 (degree n, that of an exceptional line) the relations become

* bundle coordinates:  h^(n+1) - (xi - 2h) q2   and
  (xi - h)^(r-1) (xi - 2h) - q1;
* blow-up coordinates: (k - eta)^(m-p) - eta q2  and  k^(p+1) eta - q1.

Setting q1 = q2 = 0 recovers the classical ring; setting q1 = q2 = 1 gives
the undeformed quantum relations (:mod:`qcblowup.geometry` builds both
rings; :func:`quantum_presentation` stays importable here).  The grading
makes every relation homogeneous, so products in the deformed quotient
split uniquely into contributions q1^a q2^b times a class of the
complementary degree, and the three-point invariant of classes alpha,
beta, gamma in the class a*A1 + b*A2 is the classical integral of the
(a, b)-contribution of alpha * beta against gamma.

One subtlety: a staircase monomial of the presented ring stands for the
iterated ring product of the generators, which coincides with the classical
basis class of the same name only up to weighted degree n.  Above that
degree the two differ by exceptional-line contributions, which the divisor
axiom and the two-point classes of exceptional lines give in closed form
(see :func:`basis_corrections`).  All extraction goes through the corrected
identification, which is what makes the extracted three-point function
symmetric.  Products run on the deformed bundle ring, which multiplies
itself (``quotient.product``, rows seeded once in its one memo), read
through one query kernel per deformed ring (:class:`_Kernel`, shared by
both coordinate systems).  A class enters by one route (:func:`_terms`);
an invariant's bundle staircase classes enter in its validating scan.
:func:`_groups` splits a product's term pairs by q2 exponent k, and
:func:`_grouped` sums them by k and product monomial w.  The corrections C
are applied in one place, :func:`_shift`, and the correction step 1 - q2*C
in one, :meth:`_Kernel.corrected`.  :func:`quantum_product` sums the ring
products of its grouped pairs and takes the step once; :func:`gw_invariant`
walks each group's pairs (summed by w first above 9 pairs) into the paired
rows the kernel keeps for each w, looking gamma up.  The tests check it all
against Groebner assemblies, and the invariants' symmetry by a basis sweep.
The two suites that ``verify`` runs are in :mod:`qcblowup.suites`, imported
by their entry points here on the first call.

The presentation is certified by the hypothesis 2p+3 < m (r < n);
construction outside that range still works but results are formal and
use the uncorrected identification.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb
from types import MappingProxyType

from .errors import CheckFailure, UsageError
from .geometry import (
    BUNDLE,
    CurveClass,
    GeometryParams,
    Presentation,
    _in_coords,
    classical_presentation,
    integrate,  # noqa: F401  (kept importable from this module)
    quantum_presentation,
)
from .poly import Mono, Polynomial, Scalar, _canonical, _canonical_terms
from .records import Frozen


Key = tuple[int, int]  # the exponents (a, b) of q1^a q2^b
Grouped = dict[int, dict[Mono, Scalar]]  # :func:`_grouped`
_kernels: dict[tuple[int, int, str], tuple[Presentation, _Kernel]] = {}  # :func:`_kernel`


@lru_cache(maxsize=None)
def basis_corrections(qp: Presentation) -> MappingProxyType[Mono, Polynomial]:
    """Exceptional-line corrections turning staircase monomials into the
    classical basis classes they are named after, in closed form.

    A staircase monomial s = h^a xi^b of weighted degree n + e with e >= 1
    equals its classical class minus q2 times a parameter-free class C_s of
    degree e, so the classical class is represented by s + q2 C_s
    (:func:`_shift`).  With E = xi - 2h (the exceptional divisor) and
    k = xi - h (the hyperplane class of P^m),

        C_s = -E P_{e,b},  P_{e,b} = sum_{i<e} C(b-e+i, i) k^i xi^(e-1-i),

    so P_{1,b} = 1 and P_{2,b} = b xi - (b-1) h.  Derivation: build s as
    h^a, then times xi, b times.  By the divisor axiom (Kontsevich-Manin)
    the part of alpha * D at a curve class beta is (D . beta) times the
    two-point class of alpha at beta.

    * Exceptional lines A2 (h.A2 = xi.A2 = 1) are the lines in the P^n
      fibers of E = P^p x P^n, with normal bundle O(1)^(n-1) + O^p + O(-1)
      (no H^1), and two points of one fiber lie on one line.  So the
      two-point class of alpha is psi(alpha) = sum_i (int alpha E k^(p-i))
      E k^i.  On E, h restricts to v and xi to u + v (u, v the hyperplanes
      of P^p and P^n), so int h^a xi^j E k^(p-i) is C(j, n-a) at
      i = a + j - n and 0 otherwise; psi(h^a) = 0 for a <= n.
    * Fiber lines A1 and their multiples d A1 lie in the fibers P^(r-1) of
      the bundle over P^n, so h^a comes out of their two-point classes,
      and that of xi^j has degree j + 1 - d r < 0 for j <= r - 2, which
      every xi step on the staircase multiplies; h.A1 = 0.
    * Any other class in reach (q1 q2, q2^2) has degree above the top
      n + r - 1, as r < n; so does q2 times a quantum term of C_x * xi.

    Hence C vanishes on h^a, and an xi step on x = h^a xi^j gives
    C_(x xi) = C_x xi - psi(x) = C_x xi - C(j, n-a) E k^(a+j-n); the sum
    over j, with i = a + j - n, is the formula.  No q1 term arises, so the
    fiber-line corrections vanish.  The terms of C_s have degree
    e <= r - 1 < n and lie on the staircase as they stand.

    Returns the nonzero corrections keyed by staircase exponent tuple, in
    staircase order, as a read-only mapping (cached and shared); empty for
    blow-up coordinates (extraction converts to bundle coordinates first)
    and out of range, where results are formal and uncorrected.  The tests
    check the formula against exact linear solves of the same axioms.
    """
    params = qp.params
    if qp.coords != BUNDLE or not params.in_range:
        return MappingProxyType({})
    staircase = qp.quotient.staircase
    if classical_presentation(params, BUNDLE).quotient.staircase != staircase:
        raise CheckFailure("deformed and classical staircases differ")
    corrections = {}
    for s in staircase:
        b, e = s[0], s[0] + s[1] - params.n
        if e < 1:
            continue
        # P_{e,b} by h-exponent j, as k^i = sum_j C(i, j) (-h)^j xi^(i-j), and
        # a trailing 0 for p[-1]; then -(xi - 2h) P_{e,b} in staircase order
        p = [sum((-1) ** j * comb(b - e + i, i) * comb(i, j) for i in range(j, e))
             for j in range(e)] + [0]
        terms = {(e - j, j, 0, 0): c for j in range(e, -1, -1) if (c := 2 * p[j - 1] - p[j])}
        corrections[s] = Polynomial._from_clean(qp.variables, terms)
    return MappingProxyType(corrections)


class _Kernel:
    """What the products and invariants of one deformed bundle ring read,
    resolved once (:func:`_kernel`): the correction step (:meth:`corrected`)
    and the paired rows of each product monomial w, built once (:meth:`rows`)."""

    def __init__(self, qp: Presentation) -> None:
        self.qp, self.classical = qp, classical_presentation(qp.params, BUNDLE).quotient
        # a parameter-free monomial has one degree in both coordinate systems
        self.degree = {s: d for d, group in self.classical.by_degree.items() for s in group}
        self.paired_rows: dict[Mono, dict[Key, dict[Mono, int]]] = {}

    @cached_property
    def corrections(self) -> MappingProxyType[Mono, Polynomial]:
        return basis_corrections(self.qp)

    def corrected(self, vec: dict[Key, dict[Mono, Scalar]]) -> dict[Key, dict[Mono, Scalar]]:
        """The correction step 1 - q2*C on a product given by its naive
        pieces at each q-power (a, c): each piece stays, and minus C of it
        (:func:`_shift`) goes to (a, c + 1).  Returns the nonzero pieces,
        cleaned once; ``vec`` is left as it is."""
        pieces = {key: dict(piece) for key, piece in vec.items()}
        for (a, c), piece in vec.items():
            row = pieces.setdefault((a, c + 1), {})
            for t, ct in _shift(self, piece).items():
                row[t] = row.get(t, 0) - ct
        return {key: row for key, terms in pieces.items() if (row := _canonical_terms(terms))}

    def rows(self, w: Mono) -> dict[Key, dict[Mono, int]]:
        """Build, store and return the paired rows of w: at each key (a, c)
        its corrected ring product reaches, the piece's pairing with each
        staircase monomial of the complementary degree (the classical
        ``gram``; terms off the classical staircase, in formal n = 1 rings,
        pair to 0).  Only nonzero rows and entries are kept."""
        pairs, gram = {}, self.classical.gram
        for key, piece in self.corrected(self.qp.quotient.product(w)).items():
            row = {}
            for t, c in piece.items():
                for g, cg in gram.get(t, ()):
                    row[g] = row.get(g, 0) + c * cg
            if row := _canonical_terms(row):
                pairs[key] = row
        self.paired_rows[w] = pairs
        return pairs


def _kernel(qp: Presentation) -> _Kernel:
    """The kernel of a deformed presentation, stored by (m, p, coords) with the
    presentation it serves (a rebuilt ring gets its own); blow-up shares the bundle one."""
    served, kernel = _kernels.get(key := (qp.params.m, qp.params.p, qp.coords), (None, None))
    if served is not qp:
        bundle = qp if qp.coords == BUNDLE else quantum_presentation(qp.params, BUNDLE)
        _kernels[key] = qp, (kernel := _Kernel(qp) if bundle is qp else _kernel(bundle))
    return kernel


def class_representative(f: Polynomial, qp: Presentation) -> Polynomial:
    """The element of the deformed quotient representing a classical class.

    Any parameter-free class enters as a factor does (:func:`_factors`,
    :func:`_shift`); a blow-up class then takes the blow-up normal form of
    the element translated back, so both coordinate systems multiply alike.
    """
    kernel, (terms,) = _factors(qp, f)
    vs, shift = kernel.qp.variables, _shift(kernel, terms)
    rep = _canonical_terms({**terms, **{mono[:3] + (1,): c for mono, c in shift.items()}})
    return qp.quotient.normal_form(_in_coords(Polynomial._from_clean(vs, rep), qp.coords))


def _factors(qp: Presentation, *classes: Polynomial) -> tuple[_Kernel, list[dict[Mono, Scalar]]]:
    """The kernel of a deformed presentation and the terms (:func:`_terms`)
    of product factors, each checked to lie over the presentation's variables."""
    if not qp.quantum:
        raise UsageError("quantum products need the deformed presentation")
    kernel, vs, out = _kernel(qp), qp.variables, []
    for f in classes:
        if f.variables is not vs and f.variables != vs:
            raise UsageError("class over a different variable set than the presentation")
        out.append(_terms(kernel, qp, f))
    return kernel, out


def _terms(kernel: _Kernel, qp: Presentation, f: Polynomial) -> dict[Mono, Scalar]:
    """The one route of a class over the variables of ``qp`` into products:
    its terms over the classical bundle staircase.  A bundle class on it
    enters as it is; any other must be parameter-free, is cut above the top
    degree (zero in cohomology), translated if blow-up, and normal-formed if
    still off the staircase."""
    staircase = kernel.classical.staircase_set
    if qp.coords == BUNDLE and f.terms.keys() <= staircase:
        return f.terms
    if not f.is_parameter_free():
        raise UsageError("classical classes must be parameter-free")
    degree, top = f.variables.weighted_degree, qp.params.top_degree
    f = Polynomial._from_clean(f.variables, {m: c for m, c in f.terms.items() if degree(m) <= top})
    f = _in_coords(f, BUNDLE)
    return f.terms if f.terms.keys() <= staircase else kernel.classical.normal_form(f).terms


def _shift(kernel: _Kernel, terms: dict[Mono, Scalar]) -> dict[Mono, Scalar]:
    """C of a class given by its terms on the deformed bundle staircase: the
    sum of their corrections (nonzero terms only), the one place C is
    applied.  It is the q2^1 part of phi (:func:`class_representative`; no
    other q2 power), and :meth:`_Kernel.corrected` subtracts it one q2 up."""
    shift, corrections = {}, kernel.corrections
    for mono, coeff in terms.items():
        for m, c in corrections[mono].terms.items() if mono in corrections else ():
            shift[m] = shift.get(m, 0) + coeff * c
    return {m: c for m, c in shift.items() if c}


def _groups(kernel: _Kernel, x: dict[Mono, Scalar], y: dict[Mono, Scalar], b: int) -> list:
    """The term-pair groups (k, x', y') of phi(x) * phi(y) with q2 exponent k <= b:
    x*y, then C(x)*y and x*C(y), then C(x)*C(y) (phi adds only q2 powers)."""
    groups = [(0, x, y)]
    if b:
        xs, ys = _shift(kernel, x), _shift(kernel, y)
        groups += [(1, xs, y), (1, x, ys)] + [(2, xs, ys)] * (b > 1)
    return groups


def _grouped(kernel: _Kernel, x: dict[Mono, Scalar], y: dict[Mono, Scalar], b: int) -> Grouped:
    """The pairs of :func:`_groups` summed by q2 exponent k and product monomial w."""
    grouped: Grouped = {}
    for k, xk, yk in _groups(kernel, x, y, b):
        _summed(xk, yk, grouped.setdefault(k, {}))
    return grouped


def _summed(x: dict[Mono, Scalar], y: dict[Mono, Scalar], monos: dict[Mono, Scalar]) -> dict:
    """monos plus the term pairs of x * y, summed by product monomial."""
    for u, cu in x.items():
        for v, cv in y.items():
            w = (u[0] + v[0], u[1] + v[1], 0, 0)
            monos[w] = monos.get(w, 0) + cu * cv
    return monos


def quantum_product(x: Polynomial, y: Polynomial, qp: Presentation) -> Polynomial:
    """Quantum product of two classical classes, expanded over the classical
    basis: the result is a sum of q1^a q2^b times parameter-free classes,
    one term per contributing curve class.  The term pairs are grouped once
    (phi reaches q2^2 at most), the deformed ring's products of the
    grouped w are summed, each shifted by its q2 exponent k, and the
    correction step is taken once, on the sum; a blow-up product is
    translated back.  That is exact: the step is linear and commutes with
    the q2 shift.  With m = p + 2 the pieces lie over the deformed
    staircase (rank 6 against 4 at (2, 0)) and can hold classes above the
    top degree: such results are formal."""
    kernel, terms = _factors(qp, x, y)
    product, vec = kernel.qp.quotient.product, {}
    for k, monos in _grouped(kernel, *terms, 2).items():
        for w, scale in monos.items():
            for (a, c), piece in product(w).items():
                row = vec.setdefault((a, c + k), {})
                for t, ct in piece.items():
                    row[t] = row.get(t, 0) + scale * ct
    out = {t[:2] + key: c for key, piece in kernel.corrected(vec).items() for t, c in piece.items()}
    return _in_coords(Polynomial._from_clean(kernel.qp.variables, out), qp.coords)


def contribution_by_class(
    x: Polynomial, y: Polynomial, a: int, b: int, qp: Presentation
) -> Polynomial:
    """The class multiplying q1^a q2^b in :func:`quantum_product` of x and
    y; zero whenever the degree budget deg x + deg y - (r a + n b) is negative."""
    if a < 0 or b < 0:
        raise UsageError("curve-class coefficients must be non-negative")
    product = quantum_product(x, y, qp)
    terms = {mono[:2] + (0, 0): c for mono, c in product.terms.items() if mono[2:] == (a, b)}
    return Polynomial._from_clean(product.variables, terms)


class GWQuery(Frozen):
    """A three-point invariant request: a curve class and three parameter-free
    homogeneous classes, in either coordinate system (both give the same
    degree bookkeeping)."""

    __slots__ = _fields = ("curve", "alpha", "beta", "gamma")

    def __init__(
        self, curve: CurveClass, alpha: Polynomial, beta: Polynomial, gamma: Polynomial
    ) -> None:
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

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

    One pass over each class's terms validates and enters it: the variable
    set (by identity first: variable sets are interned), no parameter, one
    degree (a staircase term's read from the kernel), and whether a bundle
    class lies on the classical staircase, where it enters as it is; only
    blow-up and off-staircase classes go through :func:`_terms`.  A query
    failing :attr:`GWQuery.admissible`'s bookkeeping, or with a class above
    the top degree, returns 0.  The value sums cu * cv * (paired row of
    w = u*v at (a, b - k)) . gamma over the term pairs of each group of
    :func:`_groups`, one row lookup per pair (w's rows built on its first
    read), looking gamma up.  A group of more than 9 pairs (a count of the
    query's own classes) is summed by w first, as its pairs share monomials;
    for fewer a dict of sums costs more than it saves.  An admissible
    integral query gives an integer.
    """
    if not qp.quantum:
        raise UsageError("invariants need the deformed presentation")
    vs, params, kernel = qp.variables, qp.params, _kernel(qp)
    classes, staircase_degree = (query.alpha, query.beta, query.gamma), kernel.degree
    degrees, entered, bundle = [], [], qp.coords == BUNDLE
    for c in classes:
        if c.variables is not vs and c.variables != vs:
            raise UsageError("query class over a different variable set")
        found, terms = set(), c.terms if bundle else None
        for mono in c.terms:
            if (d := staircase_degree.get(mono)) is None:
                if not vs.is_parameter_free(mono):
                    raise UsageError("query classes must be parameter-free")
                d, terms = vs.weighted_degree(mono), None
            found.add(d)
        if len(found) != 1:
            raise UsageError("query classes must be nonzero and homogeneous")
        degrees.append(found.pop())
        entered.append(terms)
    a, b = query.curve.a, query.curve.b
    if a < 0 or b < 0:
        raise UsageError("curve-class coefficients must be non-negative")
    top = params.top_degree
    budget = degrees[0] + degrees[1] - (params.r * a + params.n * b)
    if budget < 0 or degrees[2] != top - budget or max(degrees) > top:
        return 0
    if None in entered:  # a blow-up or off-staircase class
        entered = [_terms(kernel, qp, c) if t is None else t for c, t in zip(classes, entered)]
    alpha, beta, gamma = entered
    value, rows = 0, kernel.paired_rows
    for k, x, y in _groups(kernel, alpha, beta, b):
        key = (a, b - k)
        if len(x) * len(y) > 9:  # pairs that share product monomials are summed first
            for w, scale in _summed(x, y, {}).items():
                if (wrows := rows.get(w)) is None:
                    wrows = kernel.rows(w)
                if row := wrows.get(key):
                    for g, pairing in row.items():
                        if cg := gamma.get(g):
                            value += scale * cg * pairing
            continue
        for u, cu in x.items():  # the same walk pair by pair (one loop would rebuild w)
            for v, cv in y.items():
                if (wrows := rows.get(w := (u[0] + v[0], u[1] + v[1], 0, 0))) is None:
                    wrows = kernel.rows(w)
                if row := wrows.get(key):
                    for g, pairing in row.items():
                        if cg := gamma.get(g):
                            value += cu * cv * cg * pairing
    value = _canonical(value)
    # The coordinate change is integral both ways, so the query's own
    # classes decide integrality.
    if value.denominator != 1 and all(c.is_integral() for c in classes):
        raise CheckFailure(f"non-integral invariant {value} from integral classes")
    return value


def verify_gw_identities(params: GeometryParams, b_max: int = 2):
    """Check the three families of three-point identities plus the deformed
    ring relations they imply.

    * one rational curve in a fiber through a point and two hyperplane-type
      conditions (value 1);
    * counts along the exceptional locus for every split of the base degree:
      value 1 against a point class, value r-1 against the section-type
      class, and the vanishing of their difference combination;
    * vanishing of every multiple-fiber-class contribution below the degree
      threshold, for multiplicities up to ``b_max``.

    Requires the range hypothesis 2p+3 < m.  Returns a
    :class:`~qcblowup.report.CheckReport`; the suite is
    :func:`qcblowup.suites.gw_identity_suite`, compiled on the first call.
    """
    from . import suites

    return suites.gw_identity_suite(params, b_max)


def verify_quantum_presentation(params: GeometryParams):
    """Structural checks of the deformed presentation for one instance:
    the unit-parameter relations in blow-up coordinates, the coordinate
    correspondence of the deformed ideals, rank preservation, and the
    classical specialization at q1 = q2 = 0.  Returns a
    :class:`~qcblowup.report.CheckReport`; the suite is
    :func:`qcblowup.suites.quantum_presentation_suite`."""
    from . import suites

    return suites.quantum_presentation_suite(params)
