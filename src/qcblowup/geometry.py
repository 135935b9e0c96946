"""Classical geometry of the blow-up of P^m along a p-dimensional linear
subspace, viewed as the projective bundle P(V) over P^n.

Here n = m - p - 1 and r = p + 2, and V is the rank-r bundle
O(1)^(r-1) + O(2) on P^n.  The variety is toric, and one table
(:data:`_FAMILIES`) holds its three families of rays: x_0..x_n, y_0..y_p
and e, with divisors h = k - eta, xi - h = k and xi - 2h = eta in bundle
coordinates (xi, h) and blow-up coordinates (k, eta), where k pulls back the
hyperplane class and eta is the exceptional divisor.  Their weights
(D.A1, D.A2) against a line A1 in a fiber and a line A2 along the
exceptional locus are (0, 1), (1, 0) and (1, -1).  Batyrev's rule
prod_{D.b > 0} D^(D.b) = q^b prod_{D.b < 0} D^(-D.b), for b = A2 and then
A1 (Batyrev, *Asterisque* 218, 1993; Cox and Katz, *Mirror Symmetry and
Algebraic Geometry*, ch. 11), gives the relations of both presentations,
the classical ones at q = 0:

* bundle: h^(n+1) = q2 (xi - 2h) and (xi - h)^(r-1) (xi - 2h) = q1;
* blow-up: (k - eta)^(m-p) = q2 eta and k^(p+1) eta = q1.

The same table gives the coordinate change and the anticanonical class.
Integration is normalized by the top cell: the integral of h^n xi^(r-1)
is 1, which reproduces the standard duality pairings of the two curve
classes against the nef divisors xi - h and h.

Everything in this module is exact and pure; objects are immutable and
safe to share across threads.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CheckFailure, UsageError
from .groebner import Ideal, QuotientRing, _in_ideal, buchberger, staircase_basis
from .poly import Mono, Polynomial, Scalar, VariableSet, _canonical, _canonical_terms
from .poly import blowup_variables, bundle_variables
from .records import Frozen
from .report import CheckReport

BUNDLE = "bundle"
BLOWUP = "blowup"
BLOWUP_TO_BUNDLE = "blowup_to_bundle"
BUNDLE_TO_BLOWUP = "bundle_to_blowup"
#: The toric data, one row per ray family (x_0..x_n, y_0..y_p, e): its size,
#: its weights (D.A1, D.A2) and its divisor D as a linear form in the two
#: divisor variables of each coordinate system.
_FAMILIES = (
    (lambda params: params.n + 1, (0, 1), {BUNDLE: (0, 1), BLOWUP: (1, -1)}),
    (lambda params: params.p + 1, (1, 0), {BUNDLE: (1, -1), BLOWUP: (1, 0)}),
    (lambda params: 1, (1, -1), {BUNDLE: (1, -2), BLOWUP: (0, 1)}),
)
# each coordinate system's variable names and preset, its name in messages
# and the direction of change into it
_COORDS = {BUNDLE: (("xi", "h", "q1", "q2"), bundle_variables, "bundle", BLOWUP_TO_BUNDLE),
           BLOWUP: (("k", "eta", "q1", "q2"), blowup_variables, "blow-up", BUNDLE_TO_BLOWUP)}


class GeometryParams(Frozen):
    """The pair (m, p), its only fields, and what it derives: n = m-p-1,
    r = p+2 and ``in_range``, the hypothesis 2p+3 < m (equivalently r < n)
    under which the deformed presentation is certified; classical
    constructions work for every (m, p) :func:`derive_params` admits.  The
    hash, part of every presentation cache key, is computed once.
    """

    __slots__ = ("m", "p", "n", "r", "in_range", "_hash")
    _fields = __slots__[:2]

    def __init__(self, m: int, p: int) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", m - p - 1)
        object.__setattr__(self, "r", p + 2)
        object.__setattr__(self, "in_range", 2 * p + 3 < m)
        object.__setattr__(self, "_hash", hash((m, p)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def top_degree(self) -> int:
        """Complex dimension n + r - 1 of the variety."""
        return self.n + self.r - 1

    @property
    def rank(self) -> int:
        """Rank (n+1)*r of the cohomology as a free module."""
        return (self.n + 1) * self.r


def derive_params(m: int, p: int) -> GeometryParams:
    """Validate (m, p); the record derives n, r and the range flag."""
    if not (isinstance(m, int) and isinstance(p, int)):
        raise UsageError("m and p must be integers")
    if m < 2 or p < 0 or p > m - 2:
        raise UsageError(f"need m >= 2 and 0 <= p <= m-2, got (m, p) = ({m}, {p})")
    return GeometryParams(m, p)


def chern_coefficients(params: GeometryParams) -> tuple[int, ...]:
    """Coefficients c_0..c_r of the total Chern class of O(1)^(r-1) + O(2):
    expand (1+t)^(r-1) (1+2t) and sanity-check the endpoints."""
    coeffs = [1]
    for root in [1] * (params.r - 1) + [2]:
        coeffs = [
            (coeffs[i] if i < len(coeffs) else 0)
            + (root * coeffs[i - 1] if i > 0 else 0)
            for i in range(len(coeffs) + 1)
        ]
    if coeffs[0] != 1 or coeffs[1] != params.r + 1 or coeffs[params.r] != 2:
        raise CheckFailure(f"Chern coefficients {coeffs} fail endpoint checks")
    return tuple(coeffs)


class CurveClass(Frozen):
    """An integer homology class a*A1 + b*A2, where A1 is the class of a line
    in a fiber of P(V) -> P^n and A2 the class of a line along the
    exceptional locus."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def is_effective(self) -> bool:
        return self.a >= 0 and self.b >= 0 and (self.a, self.b) != (0, 0)


#: The two extremal generators of the curve classes.
FIBER_LINE = CurveClass(1, 0)
EXCEPTIONAL_LINE = CurveClass(0, 1)


class Presentation(Frozen):
    """Two relations, classical or deformed (``quantum``; q1 = q2 = 0 gives
    back the classical ones), plus the processed quotient.

    The relations and the quotient follow from (coords, params, quantum), so
    the hash reads only those three, computed once; the caches keyed on a
    presentation stay cheap to query."""

    __slots__ = ("coords", "params", "quantum", "relations", "quotient", "_hash")
    _fields = __slots__[:5]

    def __init__(
        self,
        coords: str,
        params: GeometryParams,
        quantum: bool,
        relations: tuple[Polynomial, Polynomial],
        quotient: QuotientRing,
    ) -> None:
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "quantum", quantum)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "_hash", hash((coords, params, quantum)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def variables(self) -> VariableSet:
        return self.relations[0].variables

    @property
    def certified(self) -> bool:
        """Classical rings always are; the deformed ring is certified by the
        range hypothesis 2p+3 < m."""
        return not self.quantum or self.params.in_range


def variables_for(params: GeometryParams, coords: str) -> VariableSet:
    if coords not in _COORDS:
        raise UsageError(f"coords must be {BUNDLE!r} or {BLOWUP!r}, got {coords!r}")
    return _COORDS[coords][1](params.r, params.n)


def _side(params: GeometryParams, coords: str, beta: int, lower: bool) -> dict[Mono, int]:
    """The terms of one side of Batyrev's relation of A1 (``beta`` 0) or A2
    (1) in ``coords``: the product over the families with D.beta > 0 of
    D^(size * D.beta), or (``lower``) minus q^beta times that over D.beta < 0
    of D^(-size * D.beta); at most two factors, so one :func:`_binary_form` row."""
    factors = [(size(params) * abs(w), forms[coords]) for size, weights, forms in _FAMILIES
               if (w := weights[beta]) and (w < 0) == lower]
    (a, u), (b, v) = factors + [(0, (0, 0))] * (2 - len(factors))
    q, sign = ((1 - beta, beta), -1) if lower else ((0, 0), 1)
    return {(a + b - j, j, *q): sign * c for j, c in enumerate(_binary_form(a, b, (u, v))) if c}


def classical_relations(params: GeometryParams, coords: str) -> tuple[Polynomial, Polynomial]:
    """The two classical relations in the requested coordinates, the upper
    sides of Batyrev's relations of A2 and then A1 (:func:`_side`), read off
    integer binomial rows with no polynomial power.  In bundle coordinates
    the second, (xi - h)^(r-1) (xi - 2h), must equal its expansion
    sum_k (-1)^k c_k h^k xi^(r-k) by the Chern coefficients c_k of V, formed
    in polynomial arithmetic."""
    vs, r = variables_for(params, coords), params.r
    relations = tuple(Polynomial._from_clean(vs, _side(params, coords, b, False)) for b in (1, 0))
    if coords == BUNDLE:
        xi, h = Polynomial.variable(vs, "xi"), Polynomial.variable(vs, "h")
        chern = chern_coefficients(params)
        terms = ((-1) ** k_ * chern[k_] * h ** k_ * xi ** (r - k_) for k_ in range(r + 1))
        if relations[1] != sum(terms, Polynomial.zero(vs)):
            raise CheckFailure("factored and Chern-expanded fiber relations disagree")
    return relations


def quantum_relations(params: GeometryParams, coords: str) -> tuple[Polynomial, Polynomial]:
    """The two deformed relations in the requested coordinates: the
    classical ones minus the lower sides of their Batyrev relations,
    eta*q2 (E*q2 = (xi - 2h)*q2 in bundle coordinates) and q1."""
    deformed = tuple(
        Polynomial._from_clean(rel.variables, {**rel.terms, **_side(params, coords, b, True)})
        for rel, b in zip(classical_relations(params, coords), (1, 0))
    )
    for rel in deformed:
        if not rel.is_homogeneous():
            raise CheckFailure(f"deformed relation {rel} is not graded-homogeneous")
    return deformed


def _build(
    params: GeometryParams, coords: str, quantum: bool, max_degree: int | None = None
) -> Presentation:
    relations = (quantum_relations if quantum else classical_relations)(params, coords)
    ideal = Ideal(relations[0].variables, relations)
    quotient = staircase_basis(buchberger(ideal, max_degree=max_degree))
    return Presentation(coords, params, quantum, relations, quotient)


#: One ring per (params, coords, quantum), whatever budget built it: a reduced
#: Groebner basis depends only on the ideal and the order (Cox, Little and
#: O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 Sec. 7).
_rings: dict[tuple[GeometryParams, str, bool], Presentation] = {}


def _budgeted(
    params: GeometryParams, coords: str, quantum: bool, max_degree: int | None = None
) -> Presentation:
    """The stored ring, unless its Buchberger run went above a given budget
    ``max_degree`` (its basis's ``peak_degree``): then Buchberger runs again
    under the budget and raises its :class:`BudgetError`.  A ring not yet
    stored is built under the budget (the default without one) and stored,
    so the ring a raised budget admits is the one every later reader gets."""
    key = (params, coords, quantum)
    pres = _rings.get(key)
    if pres is None or max_degree is not None and max_degree < pres.quotient.basis.peak_degree:
        pres = _rings.setdefault(key, _build(params, coords, quantum, max_degree))
    return pres


def classical_presentation(
    params: GeometryParams, coords: str = BLOWUP, *, max_degree: int | None = None
) -> Presentation:
    """The classical presentation and its quotient ring, built once per
    instance whatever the budget (:func:`_budgeted`)."""
    return _budgeted(params, coords, False, max_degree)


def quantum_presentation(
    params: GeometryParams, coords: str = BLOWUP, *, max_degree: int | None = None
) -> Presentation:
    """The deformed presentation and its quotient ring, built once per
    instance whatever the budget (:func:`_budgeted`)."""
    return _budgeted(params, coords, True, max_degree)


@lru_cache(maxsize=1024)
def _binary_form(a: int, b: int, images: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Coefficients of (u1 s + v1 t)^a (u2 s + v2 t)^b for images
    ((u1, v1), (u2, v2)), indexed by the power of t.  Memoised and
    shared, hence a tuple; the bound holds every (a, b) with a + b <= 30 in
    both directions of change, beside the relations' rows."""
    row = [1]
    for (u, v), e in zip(images, (a, b)):
        for _ in range(e):
            row = [u * x + v * y for x, y in zip(row + [0], [0] + row)]
    return tuple(row)


def _form(sums: tuple[int, ...], coords: str) -> tuple[int, ...]:
    """sum_f sums[f] * D_f over the families, as a linear form in ``coords``."""
    return tuple(sum(c * row[2][coords][i] for c, row in zip(sums, _FAMILIES)) for i in (0, 1))


#: Each direction of change: the coordinate systems it leaves and enters, and
#: the images in the second of the divisor variables of the first, each
#: written as a sum of the family divisors (D_x, D_y, D_e).
_CHANGES = {
    direction: (source, target, tuple(_form(sums, target) for sums in variables))
    for direction, source, target, variables in (
        (BLOWUP_TO_BUNDLE, BLOWUP, BUNDLE, ((0, 1, 0), (0, 0, 1))),  # k = D_y, eta = D_e
        (BUNDLE_TO_BLOWUP, BUNDLE, BLOWUP, ((1, 1, 0), (1, 0, 0))),  # xi = D_x + D_y, h = D_x
    )
}


def change_vars(f: Polynomial, direction: str) -> Polynomial:
    """Translate between the two coordinate systems, by the images the
    toric table gives (:data:`_CHANGES`).

    Forward (blow-up to bundle): k -> xi - h, eta -> xi - 2h.
    Inverse (bundle to blow-up): h -> k - eta, xi -> 2k - eta.
    The deformation parameters pass through unchanged.  Each monomial
    x^a y^b q1^s q2^t goes to an integer binary form of degree a + b in the
    two target divisors (:func:`_binary_form`, memoised), so no polynomial
    power or product is formed; the terms are summed into a plain dict and
    cleaned once (:func:`qcblowup.poly._canonical_terms`).
    """
    if (change := _CHANGES.get(direction)) is None:
        raise UsageError(
            f"direction must be {BLOWUP_TO_BUNDLE!r} or {BUNDLE_TO_BLOWUP!r}, got {direction!r}"
        )
    source, target, images = change
    names, _, label, _ = _COORDS[source]
    vs = f.variables
    if vs.names != names:
        raise UsageError(f"expected a polynomial in {label} coordinates")
    out: dict[tuple[int, ...], Scalar] = {}
    get = out.get
    for (a, b, s, t), coeff in f.terms.items():
        d = a + b
        for j, c in enumerate(_binary_form(a, b, images)):
            mono = (d - j, j, s, t)
            out[mono] = get(mono, 0) + coeff * c
    target_vs = _COORDS[target][1](vs.weights[2], vs.weights[3])
    return Polynomial._from_clean(target_vs, _canonical_terms(out))


def _carries_ideal(source: Presentation, target: Presentation) -> bool:
    """True iff the coordinate change carries the ideal of ``source`` into
    that of ``target``: each relation of ``source``, mapped, lies in the
    ideal of the basis ``target`` already holds (one reduction of the whole
    relation, which memoises nothing).  The inclusions both ways prove the
    two ideals equal."""
    basis = target.quotient.basis
    return all(_in_ideal(_in_coords(g, target.coords), basis) for g in source.relations)


def _in_coords(f: Polynomial, coords: str) -> Polynomial:
    """The class f in the coordinate system ``coords``: f itself when it is
    already there, else carried by :func:`change_vars`, which rejects a
    class over neither preset with :class:`UsageError`."""
    names, _, _, direction = _COORDS[coords]
    return f if f.variables.names == names else change_vars(f, direction)


def integrate(f: Polynomial, params: GeometryParams) -> Scalar:
    """Integrate a parameter-free class of the instance ``params`` against
    the fundamental class.

    Every relation is homogeneous, so only the top-degree part of f can
    reach the top class; the other terms are dropped before anything else.
    The rest is carried into bundle coordinates and reduced in the stored
    classical bundle ring, whose top degree holds the one staircase
    monomial h^n xi^(r-1); the value is its coefficient in the normal form,
    normalized so that it integrates to 1.
    """
    if not f.is_parameter_free():
        raise UsageError("cannot integrate a class containing deformation parameters")
    degree = f.variables.weighted_degree
    top = {mono: c for mono, c in f.terms.items() if degree(mono) == params.top_degree}
    f = _in_coords(Polynomial._from_clean(f.variables, top), BUNDLE)
    quotient = classical_presentation(params, BUNDLE).quotient
    return quotient.normal_form(f).coefficient(quotient.top_monomial(params.top_degree))


def curve_dual(curve: CurveClass, params: GeometryParams) -> Polynomial:
    """The cohomology class Poincare-dual to a curve class, in bundle
    coordinates: A1 -> h^n xi^(r-2), A2 -> h^(n-1) xi^(r-1) - r h^n xi^(r-2)."""
    n, r = params.n, params.r
    return Polynomial(
        bundle_variables(r, n),
        {(r - 1, n - 1, 0, 0): curve.b, (r - 2, n, 0, 0): curve.a - r * curve.b},
    )


def pair_divisor_curve(divisor: Polynomial, curve: CurveClass, params: GeometryParams) -> Scalar:
    """Intersection number of a degree-1 divisor class of the instance
    ``params``, in either coordinate system, with a curve class."""
    divisor = _in_coords(divisor, BUNDLE)
    if not divisor.is_parameter_free():
        raise UsageError("divisor class must be parameter-free")
    if divisor.is_zero or divisor.homogeneous_degree() != 1:
        raise UsageError("divisor class must be homogeneous of degree 1")
    return integrate(divisor * curve_dual(curve, params), params)


def anticanonical_class(params: GeometryParams) -> Polynomial:
    """The anticanonical divisor, the sum of the m + 2 ray divisors:
    (n+1) h + (p+1) (xi - h) + (xi - 2h) = r*xi + (n - r)*h."""
    xi, h = _form(tuple(row[0](params) for row in _FAMILIES), BUNDLE)
    return Polynomial(variables_for(params, BUNDLE), {(1, 0, 0, 0): xi, (0, 1, 0, 0): h})


def virtual_dimension(params: GeometryParams, curve: CurveClass) -> int:
    """Expected dimension of the genus-0 parametrized moduli space for a
    curve class: (anticanonical degree) + n + r - 1."""
    return params.r * curve.a + params.n * curve.b + params.top_degree


def segre_integral_oracle(params: GeometryParams, h_exp: int, xi_exp: int) -> int:
    """Integral of h^h_exp xi^xi_exp computed without any Groebner machinery.

    The pushforward of xi-powers to P^n is governed by the inverse power
    series of prod_i (1 - a_i t) over the splitting roots (1, ..., 1, 2), so
    the integral equals the complete homogeneous symmetric value of degree
    n - h_exp in those roots.
    """
    if h_exp + xi_exp != params.top_degree:
        raise UsageError(
            f"degree mismatch: {h_exp} + {xi_exp} != {params.top_degree}"
        )
    if not 0 <= h_exp <= params.n:
        raise UsageError(f"h exponent must lie in 0..{params.n}")
    order = params.n - h_exp
    chern = chern_coefficients(params)
    # 1 / prod(1 - a_i t) = 1 / sum_k (-1)^k c_k t^k, by power-series
    # division; c_0 = 1 (chern_coefficients checks it), so it stays in ``int``.
    series = [1]
    for j in range(1, order + 1):
        series.append(-sum((-1) ** i * chern[i] * series[j - i]
                           for i in range(1, min(j, params.r) + 1)))
    return series[order]


def oracle_integrate(f: Polynomial, params: GeometryParams) -> Scalar:
    """Linear extension of the series oracle to arbitrary parameter-free
    classes of the instance ``params``: off-degree and h-power-overflow
    monomials integrate to zero."""
    f = _in_coords(f, BUNDLE)
    if f.variables != variables_for(params, BUNDLE):
        raise UsageError("class over a different variable set than the instance")
    if not f.is_parameter_free():
        raise UsageError("cannot integrate a class containing deformation parameters")
    total = 0
    for mono, coeff in f.terms.items():
        xi_exp, h_exp = mono[0], mono[1]
        if h_exp + xi_exp != params.top_degree or h_exp > params.n:
            continue
        total += coeff * segre_integral_oracle(params, h_exp, xi_exp)
    return _canonical(total)


def pairing_matrix(presentation: Presentation) -> list[list[int]]:
    """Intersection pairing of the staircase basis with itself, read in the
    presentation's own quotient.  The top degree of a classical ring holds
    one staircase monomial t (h^n xi^(r-1), or eta^m in blow-up
    coordinates), and the quotient's pairing ``QuotientRing.gram`` gives
    each product of complementary degrees as c*t; it pairs to c times the
    integral of t (one :func:`integrate` call on the instance).  The others
    pair to 0."""
    quotient, params = presentation.quotient, presentation.params
    t = quotient.top_monomial(params.top_degree)
    scale = integrate(Polynomial._from_clean(presentation.variables, {t: 1}), params)
    index = {s: i for i, s in enumerate(quotient.staircase)}
    matrix = [[0] * len(index) for _ in index]
    for s, row in quotient.gram.items():
        for u, c in row:
            if (value := scale * c).denominator != 1:
                raise CheckFailure(f"non-integral pairing value {value}")
            matrix[index[s]][index[u]] = int(value)
    return matrix


def _bareiss(block: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): each division by the last pivot is exact, so all stay ``int``."""
    a, sign, prev = [list(row) for row in block], 1, 1
    for i in range(len(a)):
        p = next((j for j in range(i, len(a)) if a[j][i]), None)
        if p is None:
            return 0
        a[i], a[p], sign = a[p], a[i], sign if p == i else -sign
        pivot, tail = a[i][i], a[i][i + 1:]
        for row in a[i + 1:]:
            row[i + 1:] = [(x * pivot - row[i] * y) // prev for x, y in zip(row[i + 1:], tail)]
        prev = pivot
    return sign * prev


def block_determinant(matrix: list[list[int]], sizes: list[int]) -> int:
    """Determinant of an integer matrix whose rows and columns split into
    consecutive blocks of the given sizes s_0..s_k, row block i being zero
    outside column block k - i.  Reversing the column blocks, at the sign
    (-1)^(sum of s_i*s_j over i < j), leaves the diagonal blocks, each taken
    by :func:`_bareiss`; one that is not square makes the matrix singular.
    A pairing matrix qualifies with the group sizes of
    ``QuotientRing.by_degree``: graded-lex lists the staircase by degree, so
    the blocks are contiguous, and degree d pairs only with top - d (a
    degree with no complement has zero rows, and so a zero block)."""
    starts, k = [sum(sizes[:i]) for i in range(len(sizes))], len(sizes) - 1
    det = -1 if sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1:]) % 2 else 1
    for i, (start, size) in enumerate(zip(starts, sizes)):
        if sizes[k - i] != size:
            return 0
        col = starts[k - i]
        det *= _bareiss([row[col:col + size] for row in matrix[start:start + size]])
    return det


def fano_positivity_check(params: GeometryParams, grid_bound: int = 5) -> CheckReport:
    """Verify anticanonical positivity and nef pairings on the grid of
    effective classes a, b in 0..grid_bound, (a, b) != (0, 0).  Pairings
    are linear in the class, so only the six extremal ones are integrated."""
    if grid_bound < 1:
        raise UsageError("grid_bound must be at least 1")
    xi, h = (Polynomial.variable(variables_for(params, BUNDLE), name) for name in ("xi", "h"))
    extremal = [
        [pair_divisor_curve(d, c, params) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
        for d in (anticanonical_class(params), xi - h, h)
    ]
    grid = range(grid_bound + 1)
    effective = [(a, b) for a in grid for b in grid if CurveClass(a, b).is_effective]
    violations = []
    for a, b in effective:
        deg, nef_fiber, nef_base = (a * d1 + b * d2 for d1, d2 in extremal)
        if deg <= 0:
            violations.append(f"-K.({a},{b}) = {deg}")
        if nef_fiber < 0:
            violations.append(f"(xi-h).({a},{b}) < 0")
        if nef_base < 0:
            violations.append(f"h.({a},{b}) < 0")
    report = CheckReport()
    detail = "; ".join(violations) or f"{len(effective)} effective classes checked"
    report.add("fano_positivity", not violations, detail)
    return report


def moduli_dimension_identities(params: GeometryParams) -> CheckReport:
    """The two dimension identities tying the unparametrized moduli spaces of
    the extremal classes to their expected dimensions."""
    n, r = params.n, params.r
    anti, report = anticanonical_class(params), CheckReport()
    for name, curve, expected in (
        ("fiber_moduli_dimension", FIBER_LINE, n + 2 * r - 4),
        ("exceptional_moduli_dimension", EXCEPTIONAL_LINE, 2 * n + r - 4),
    ):
        dimension = pair_divisor_curve(anti, curve, params) + params.top_degree - 3
        report.add(name, expected == dimension, f"{expected} vs {dimension}")
    return report


def verify_classical_geometry(
    params: GeometryParams, grid_bound: int = 5
) -> CheckReport:
    """Run every classical cross-check for one (m, p) instance."""
    report = CheckReport()
    n, r = params.n, params.r
    bundle = classical_presentation(params, BUNDLE)
    blowup = classical_presentation(params, BLOWUP)

    for pres in (bundle, blowup):
        rank = pres.quotient.rank
        report.add(f"staircase_rank_{pres.coords}", rank == params.rank,
                   f"rank {rank}, expected {params.rank}")

    # Coordinate change carries each classical ideal into the other, so
    # the two inclusions prove them equal.
    report.add("ideal_correspondence_to_bundle", _carries_ideal(blowup, bundle))
    report.add("ideal_correspondence_to_blowup", _carries_ideal(bundle, blowup))

    # Duality pairings: {xi-h, h} against {A1, A2} is the identity table;
    # the blow-up pairings of {k, eta} against the same classes.
    xi, h = (Polynomial.variable(bundle.variables, name) for name in ("xi", "h"))
    k, eta = (Polynomial.variable(blowup.variables, name) for name in ("k", "eta"))
    for name, divisors, expected in (("duality_pairing_table", (xi - h, h), [[1, 0], [0, 1]]),
                                     ("blowup_pairing_table", (k, eta), [[1, 0], [1, -1]])):
        table = [[int(pair_divisor_curve(d, c, params)) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
                 for d in divisors]
        report.add(name, table == expected, f"{table}")

    # Anticanonical degrees of the extremal classes.
    anti = anticanonical_class(params)
    report.add(
        "anticanonical_degrees",
        pair_divisor_curve(anti, FIBER_LINE, params) == r
        and pair_divisor_curve(anti, EXCEPTIONAL_LINE, params) == n,
    )

    # Integration normalization and top-row values.
    report.add(
        "integration_normalization",
        integrate(h**n * xi ** (r - 1), params) == 1
        and integrate(h ** (n - 1) * xi**r, params) == r + 1,
    )

    # Groebner integration agrees with the series oracle in every top degree.
    oracle_ok = all(
        integrate(h**a * xi ** (params.top_degree - a), params)
        == segre_integral_oracle(params, a, params.top_degree - a)
        for a in range(n + 1)
    )
    report.add("integration_oracle_agreement", oracle_ok)

    # The intersection pairing on the bundle staircase is unimodular (that
    # staircase is an integral basis of the cohomology).  The blow-up
    # staircase only spans a finite-index sublattice for p >= 1, so there
    # the pairing is merely required to be nondegenerate.
    det, det_blowup = (
        block_determinant(pairing_matrix(pres), list(map(len, pres.quotient.by_degree.values())))
        for pres in (bundle, blowup)
    )
    report.add("pairing_unimodular", det in (1, -1), f"det {det}")
    report.add("pairing_nondegenerate_blowup", det_blowup != 0, f"det {det_blowup}")

    # Expected dimensions of the genus-0 moduli spaces.
    report.add(
        "virtual_dimensions",
        virtual_dimension(params, FIBER_LINE) == r + params.top_degree
        and virtual_dimension(params, EXCEPTIONAL_LINE) == n + params.top_degree
        and virtual_dimension(params, CurveClass(0, 0)) == params.top_degree,
    )

    report.merge(moduli_dimension_identities(params))
    report.merge(fano_positivity_check(params, grid_bound))
    return report
