"""Classical geometry of the blow-up of P^m along a p-dimensional linear
subspace, viewed as the projective bundle P(V) over P^n.

Here n = m - p - 1 and r = p + 2, and V is the rank-r bundle
O(1)^(r-1) + O(2) on P^n.  The cohomology ring has two standard
presentations:

* bundle coordinates (xi, h): relations h^(n+1) and
  (xi - h)^(r-1) (xi - 2h) = sum_k (-1)^k c_k h^k xi^(r-k), with c_k the
  Chern coefficients of V;
* blow-up coordinates (k, eta): relations (k - eta)^(m-p) and k^(p+1) eta,
  where k pulls back the hyperplane class and eta is the exceptional
  divisor.

The coordinate change k = xi - h, eta = xi - 2h identifies the two.
Integration is normalized by the top cell: the integral of h^n xi^(r-1)
is 1, which reproduces the standard duality pairings of the two curve
classes (a line in a fiber, and a line along the exceptional locus)
against the nef divisors xi - h and h.

Everything in this module is exact and pure; objects are immutable and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CheckFailure, UsageError
from .groebner import (
    Ideal,
    QuotientRing,
    buchberger,
    ideal_equal,
    staircase_basis,
)
from .linalg import determinant
from .poly import Polynomial, Scalar, VariableSet, blowup_variables, bundle_variables, mono_mul
from .report import CheckReport

BUNDLE = "bundle"
BLOWUP = "blowup"
BLOWUP_TO_BUNDLE = "blowup_to_bundle"
BUNDLE_TO_BLOWUP = "bundle_to_blowup"


@dataclass(frozen=True)
class GeometryParams:
    """The pair (m, p) with its derived invariants.

    ``in_range`` records the hypothesis 2p+3 < m (equivalently r < n) under
    which the deformed presentation is certified; classical constructions
    work for every admissible (m, p).
    """

    m: int
    p: int
    n: int
    r: int
    in_range: bool

    @property
    def top_degree(self) -> int:
        """Complex dimension n + r - 1 of the variety."""
        return self.n + self.r - 1

    @property
    def rank(self) -> int:
        """Rank (n+1)*r of the cohomology as a free module."""
        return (self.n + 1) * self.r


def derive_params(m: int, p: int) -> GeometryParams:
    """Validate (m, p) and derive n = m-p-1, r = p+2 and the range flag."""
    if not (isinstance(m, int) and isinstance(p, int)):
        raise UsageError("m and p must be integers")
    if m < 2 or p < 0 or p > m - 2:
        raise UsageError(f"need m >= 2 and 0 <= p <= m-2, got (m, p) = ({m}, {p})")
    return GeometryParams(m=m, p=p, n=m - p - 1, r=p + 2, in_range=2 * p + 3 < m)


@dataclass(frozen=True)
class ChernVector:
    """Coefficients c_0..c_r of the total Chern class of O(1)^(r-1) + O(2),
    i.e. of the product (1+t)^(r-1) (1+2t)."""

    coefficients: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> int:
        return self.coefficients[k]


def chern_coefficients(params: GeometryParams) -> ChernVector:
    """Expand (1+t)^(r-1) (1+2t) and sanity-check the endpoints."""
    coeffs = [1]
    for root in [1] * (params.r - 1) + [2]:
        coeffs = [
            (coeffs[i] if i < len(coeffs) else 0)
            + (root * coeffs[i - 1] if i > 0 else 0)
            for i in range(len(coeffs) + 1)
        ]
    vec = ChernVector(tuple(coeffs))
    if vec[0] != 1 or vec[1] != params.r + 1 or vec[params.r] != 2:
        raise CheckFailure(f"Chern coefficients {coeffs} fail endpoint checks")
    return vec


@dataclass(frozen=True)
class CurveClass:
    """An integer homology class a*A1 + b*A2, where A1 is the class of a line
    in a fiber of P(V) -> P^n and A2 the class of a line along the
    exceptional locus."""

    a: int
    b: int

    @property
    def is_effective(self) -> bool:
        return self.a >= 0 and self.b >= 0 and (self.a, self.b) != (0, 0)


#: The two extremal generators of the curve classes.
FIBER_LINE = CurveClass(1, 0)
EXCEPTIONAL_LINE = CurveClass(0, 1)


@dataclass(frozen=True)
class Presentation:
    """Two relations, classical or deformed (``quantum``; q1 = q2 = 0 gives
    back the classical ones), plus the processed quotient."""

    coords: str
    params: GeometryParams
    quantum: bool
    relations: tuple[Polynomial, Polynomial]
    quotient: QuotientRing

    @property
    def variables(self) -> VariableSet:
        return self.relations[0].variables

    @property
    def certified(self) -> bool:
        """Classical rings always are; the deformed ring is certified by the
        range hypothesis 2p+3 < m."""
        return not self.quantum or self.params.in_range


def variables_for(params: GeometryParams, coords: str) -> VariableSet:
    if coords == BUNDLE:
        return bundle_variables(params.r, params.n)
    if coords == BLOWUP:
        return blowup_variables(params.r, params.n)
    raise UsageError(f"coords must be {BUNDLE!r} or {BLOWUP!r}, got {coords!r}")


def classical_relations(
    params: GeometryParams, coords: str
) -> tuple[Polynomial, Polynomial]:
    """The two classical relations in the requested coordinates.

    In bundle coordinates the second relation is built twice, from the
    factored form and from the Chern coefficients, and the two expansions
    are required to agree.
    """
    vs = variables_for(params, coords)
    if coords == BLOWUP:
        k = Polynomial.variable(vs, "k")
        eta = Polynomial.variable(vs, "eta")
        return ((k - eta) ** (params.m - params.p), k ** (params.p + 1) * eta)
    xi = Polynomial.variable(vs, "xi")
    h = Polynomial.variable(vs, "h")
    factored = (xi - h) ** (params.r - 1) * (xi - 2 * h)
    chern = chern_coefficients(params)
    expanded = Polynomial.zero(vs)
    for k_ in range(params.r + 1):
        expanded = expanded + (-1) ** k_ * chern[k_] * h ** k_ * xi ** (params.r - k_)
    if factored != expanded:
        raise CheckFailure("factored and Chern-expanded fiber relations disagree")
    return (h ** (params.n + 1), factored)


def quantum_relations(
    params: GeometryParams, coords: str
) -> tuple[Polynomial, Polynomial]:
    """The two deformed relations in the requested coordinates."""
    classical = classical_relations(params, coords)
    vs = classical[0].variables
    q1 = Polynomial.variable(vs, "q1")
    q2 = Polynomial.variable(vs, "q2")
    if coords == BLOWUP:
        eta = Polynomial.variable(vs, "eta")
        deformed = (classical[0] - eta * q2, classical[1] - q1)
    else:
        xi = Polynomial.variable(vs, "xi")
        h = Polynomial.variable(vs, "h")
        deformed = (classical[0] - (xi - 2 * h) * q2, classical[1] - q1)
    for rel in deformed:
        if not rel.is_homogeneous():
            raise CheckFailure(f"deformed relation {rel} is not graded-homogeneous")
    return deformed


@lru_cache(maxsize=None)
def _presentation(
    params: GeometryParams, coords: str, quantum: bool, max_degree: int | None
) -> Presentation:
    relations = (quantum_relations if quantum else classical_relations)(params, coords)
    ideal = Ideal(relations[0].variables, relations)
    quotient = staircase_basis(buchberger(ideal, max_degree=max_degree))
    return Presentation(coords, params, quantum, relations, quotient)


def classical_presentation(
    params: GeometryParams, coords: str = BLOWUP, *, max_degree: int | None = None
) -> Presentation:
    """Build the classical presentation and its quotient ring (cached)."""
    return _presentation(params, coords, False, max_degree)


def change_vars(f: Polynomial, direction: str) -> Polynomial:
    """Translate between the two coordinate systems.

    Forward (blow-up to bundle): k -> xi - h, eta -> xi - 2h.
    Inverse (bundle to blow-up): h -> k - eta, xi -> 2k - eta.
    The deformation parameters pass through unchanged.
    """
    vs = f.variables
    if direction == BLOWUP_TO_BUNDLE:
        if vs.names != ("k", "eta", "q1", "q2"):
            raise UsageError("expected a polynomial in blow-up coordinates")
        r, n = vs.weights[2], vs.weights[3]
        target = bundle_variables(r, n)
        xi = Polynomial.variable(target, "xi")
        h = Polynomial.variable(target, "h")
        return f.map_variables(target, {"k": xi - h, "eta": xi - 2 * h})
    if direction == BUNDLE_TO_BLOWUP:
        if vs.names != ("xi", "h", "q1", "q2"):
            raise UsageError("expected a polynomial in bundle coordinates")
        r, n = vs.weights[2], vs.weights[3]
        target = blowup_variables(r, n)
        k = Polynomial.variable(target, "k")
        eta = Polynomial.variable(target, "eta")
        return f.map_variables(target, {"h": k - eta, "xi": 2 * k - eta})
    raise UsageError(
        f"direction must be {BLOWUP_TO_BUNDLE!r} or {BUNDLE_TO_BLOWUP!r}, got {direction!r}"
    )


def _to_bundle(f: Polynomial) -> Polynomial:
    if f.variables.names == ("k", "eta", "q1", "q2"):
        return change_vars(f, BLOWUP_TO_BUNDLE)
    if f.variables.names == ("xi", "h", "q1", "q2"):
        return f
    raise UsageError("expected a polynomial in bundle or blow-up coordinates")


def integrate(f: Polynomial, presentation: Presentation) -> Scalar:
    """Integrate a parameter-free class against the fundamental class.

    Every relation is homogeneous, so only the top-degree part of f can
    reach the top class; the other terms are dropped before anything else.
    Reduction happens in bundle coordinates; the value is the coefficient of
    the top staircase monomial h^n xi^(r-1) in the normal form, normalized so
    that h^n xi^(r-1) integrates to 1.
    """
    params = presentation.params
    if not f.is_parameter_free():
        raise UsageError("cannot integrate a class containing deformation parameters")
    degree = f.variables.weighted_degree
    top = {mono: c for mono, c in f.terms.items() if degree(mono) == params.top_degree}
    f = _to_bundle(Polynomial._from_clean(f.variables, top))
    bundle = (
        presentation
        if presentation.coords == BUNDLE
        else classical_presentation(params, BUNDLE)
    )
    nf = bundle.quotient.normal_form(f)
    return nf.coefficient((params.r - 1, params.n, 0, 0))


@lru_cache(maxsize=1)
def _extremal_duals(params: GeometryParams) -> tuple[Polynomial, Polynomial]:
    """The duals of A1 and A2.  The positivity sweep of one instance asks
    for them back to back; only the latest instance's pair is kept."""
    vs = bundle_variables(params.r, params.n)
    xi = Polynomial.variable(vs, "xi")
    h = Polynomial.variable(vs, "h")
    dual_a1 = h**params.n * xi ** (params.r - 2)
    dual_a2 = h ** (params.n - 1) * xi ** (params.r - 1) - params.r * dual_a1
    return dual_a1, dual_a2


def curve_dual(curve: CurveClass, params: GeometryParams) -> Polynomial:
    """The cohomology class Poincare-dual to a curve class, in bundle
    coordinates: A1 -> h^n xi^(r-2), A2 -> h^(n-1) xi^(r-1) - r h^n xi^(r-2)."""
    dual_a1, dual_a2 = _extremal_duals(params)
    return curve.a * dual_a1 + curve.b * dual_a2


def pair_divisor_curve(
    divisor: Polynomial, curve: CurveClass, presentation: Presentation
) -> Scalar:
    """Intersection number of a degree-1 divisor class with a curve class."""
    divisor = _to_bundle(divisor)
    if not divisor.is_parameter_free():
        raise UsageError("divisor class must be parameter-free")
    if divisor.is_zero or divisor.homogeneous_degree() != 1:
        raise UsageError("divisor class must be homogeneous of degree 1")
    return integrate(divisor * curve_dual(curve, presentation.params), presentation)


def anticanonical_class(params: GeometryParams) -> Polynomial:
    """The anticanonical divisor r*(xi - h) + n*h = r*xi + (n - r)*h."""
    vs = bundle_variables(params.r, params.n)
    xi = Polynomial.variable(vs, "xi")
    h = Polynomial.variable(vs, "h")
    return params.r * (xi - h) + params.n * h


def virtual_dimension(params: GeometryParams, curve: CurveClass) -> int:
    """Expected dimension of the genus-0 parametrized moduli space for a
    curve class: (anticanonical degree) + n + r - 1."""
    return params.r * curve.a + params.n * curve.b + params.top_degree


def segre_integral_oracle(params: GeometryParams, h_exp: int, xi_exp: int) -> Scalar:
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
    # 1 / prod(1 - a_i t) = 1 / sum_k (-1)^k c_k t^k, by power-series division.
    series = [Fraction(1)]
    for j in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, min(j, params.r) + 1):
            acc -= Fraction((-1) ** i * chern[i]) * series[j - i]
        series.append(acc)
    return series[order]


def oracle_integrate(f: Polynomial, params: GeometryParams) -> Scalar:
    """Linear extension of the series oracle to arbitrary parameter-free
    classes: off-degree and h-power-overflow monomials integrate to zero."""
    f = _to_bundle(f)
    if not f.is_parameter_free():
        raise UsageError("cannot integrate a class containing deformation parameters")
    total = Fraction(0)
    for mono, coeff in f.terms.items():
        xi_exp, h_exp = mono[0], mono[1]
        if h_exp + xi_exp != params.top_degree or h_exp > params.n:
            continue
        total += coeff * segre_integral_oracle(params, h_exp, xi_exp)
    return total


def pairing_matrix(presentation: Presentation) -> list[list[int]]:
    """Intersection pairing of the staircase basis with itself; each distinct
    product monomial is integrated once."""
    vs = presentation.variables
    staircase = presentation.quotient.staircase
    values: dict[tuple[int, ...], int] = {}
    for mono in dict.fromkeys(mono_mul(mi, mj) for mi in staircase for mj in staircase):
        value = integrate(Polynomial.monomial(vs, mono), presentation)
        if value.denominator != 1:
            raise CheckFailure(f"non-integral pairing value {value}")
        values[mono] = int(value)
    return [[values[mono_mul(mi, mj)] for mj in staircase] for mi in staircase]


def fano_positivity_check(params: GeometryParams, grid_bound: int = 5) -> CheckReport:
    """Verify anticanonical positivity and nef pairings on the grid of
    effective classes a, b in 0..grid_bound, (a, b) != (0, 0)."""
    if grid_bound < 1:
        raise UsageError("grid_bound must be at least 1")
    pres = classical_presentation(params, BUNDLE)
    vs = pres.variables
    xi = Polynomial.variable(vs, "xi")
    h = Polynomial.variable(vs, "h")
    anti = anticanonical_class(params)
    report = CheckReport()
    violations = []
    checked = 0
    for a in range(grid_bound + 1):
        for b in range(grid_bound + 1):
            curve = CurveClass(a, b)
            if not curve.is_effective:
                continue
            checked += 1
            deg = pair_divisor_curve(anti, curve, pres)
            if deg <= 0:
                violations.append(f"-K.({a},{b}) = {deg}")
            if pair_divisor_curve(xi - h, curve, pres) < 0:
                violations.append(f"(xi-h).({a},{b}) < 0")
            if pair_divisor_curve(h, curve, pres) < 0:
                violations.append(f"h.({a},{b}) < 0")
    report.add(
        "fano_positivity",
        not violations,
        "; ".join(violations) if violations else f"{checked} effective classes checked",
    )
    return report


def moduli_dimension_identities(params: GeometryParams) -> CheckReport:
    """The two dimension identities tying the unparametrized moduli spaces of
    the extremal classes to their expected dimensions."""
    n, r = params.n, params.r
    pres = classical_presentation(params, BUNDLE)
    anti = anticanonical_class(params)
    report = CheckReport()
    deg_a1 = pair_divisor_curve(anti, FIBER_LINE, pres)
    deg_a2 = pair_divisor_curve(anti, EXCEPTIONAL_LINE, pres)
    report.add(
        "fiber_moduli_dimension",
        n + 2 * r - 4 == deg_a1 + params.top_degree - 3,
        f"{n + 2 * r - 4} vs {deg_a1 + params.top_degree - 3}",
    )
    report.add(
        "exceptional_moduli_dimension",
        2 * n + r - 4 == deg_a2 + params.top_degree - 3,
        f"{2 * n + r - 4} vs {deg_a2 + params.top_degree - 3}",
    )
    return report


def verify_classical_geometry(
    params: GeometryParams, grid_bound: int = 5
) -> CheckReport:
    """Run every classical cross-check for one (m, p) instance."""
    report = CheckReport()
    n, r = params.n, params.r
    bundle = classical_presentation(params, BUNDLE)
    blowup = classical_presentation(params, BLOWUP)

    report.add(
        "staircase_rank_bundle",
        bundle.quotient.rank == params.rank,
        f"rank {bundle.quotient.rank}, expected {params.rank}",
    )
    report.add(
        "staircase_rank_blowup",
        blowup.quotient.rank == params.rank,
        f"rank {blowup.quotient.rank}, expected {params.rank}",
    )

    # Coordinate change carries each classical ideal onto the other.
    mapped = tuple(change_vars(g, BLOWUP_TO_BUNDLE) for g in blowup.relations)
    bundle_ideal = Ideal(bundle.variables, bundle.relations)
    report.add(
        "ideal_correspondence_to_bundle",
        ideal_equal(Ideal(bundle.variables, mapped), bundle_ideal),
    )
    mapped_back = tuple(change_vars(g, BUNDLE_TO_BLOWUP) for g in bundle.relations)
    blowup_ideal = Ideal(blowup.variables, blowup.relations)
    report.add(
        "ideal_correspondence_to_blowup",
        ideal_equal(Ideal(blowup.variables, mapped_back), blowup_ideal),
    )

    # Duality pairings: {xi-h, h} against {A1, A2} is the identity table.
    vs = bundle.variables
    xi = Polynomial.variable(vs, "xi")
    h = Polynomial.variable(vs, "h")
    table = [
        [int(pair_divisor_curve(d, c, bundle)) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
        for d in (xi - h, h)
    ]
    report.add("duality_pairing_table", table == [[1, 0], [0, 1]], f"{table}")

    # Blow-up pairings: {k, eta} against the same classes.
    bvs = blowup.variables
    k = Polynomial.variable(bvs, "k")
    eta = Polynomial.variable(bvs, "eta")
    btable = [
        [int(pair_divisor_curve(d, c, bundle)) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
        for d in (k, eta)
    ]
    report.add("blowup_pairing_table", btable == [[1, 0], [1, -1]], f"{btable}")

    # Anticanonical degrees of the extremal classes.
    anti = anticanonical_class(params)
    report.add(
        "anticanonical_degrees",
        pair_divisor_curve(anti, FIBER_LINE, bundle) == r
        and pair_divisor_curve(anti, EXCEPTIONAL_LINE, bundle) == n,
    )

    # Integration normalization and top-row values.
    report.add(
        "integration_normalization",
        integrate(h**n * xi ** (r - 1), bundle) == 1
        and integrate(h ** (n - 1) * xi**r, bundle) == r + 1,
    )

    # Groebner integration agrees with the series oracle in every top degree.
    oracle_ok = all(
        integrate(h**a * xi ** (params.top_degree - a), bundle)
        == segre_integral_oracle(params, a, params.top_degree - a)
        for a in range(n + 1)
    )
    report.add("integration_oracle_agreement", oracle_ok)

    # The intersection pairing on the bundle staircase is unimodular (that
    # staircase is an integral basis of the cohomology).  The blow-up
    # staircase only spans a finite-index sublattice for p >= 1, so there
    # the pairing is merely required to be nondegenerate.
    det = int(determinant(pairing_matrix(bundle)))
    report.add("pairing_unimodular", det in (1, -1), f"det {det}")
    det_blowup = int(determinant(pairing_matrix(blowup)))
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
