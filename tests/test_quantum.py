"""Deformed presentations, quantum products and invariant extraction."""

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

import pytest

from qcblowup import (
    CheckFailure,
    CurveClass,
    GWQuery,
    Polynomial,
    Presentation,
    QuotientRing,
    UsageError,
    basis_corrections,
    bundle_variables,
    class_representative,
    classical_presentation,
    contribution_by_class,
    derive_params,
    gw_invariant,
    integrate,
    oracle_integrate,
    pairing_matrix,
    quantum_presentation,
    quantum_product,
    quantum_relations,
    staircase_basis,
    verify_classical_geometry,
    verify_gw_identities,
    verify_quantum_presentation,
)
from qcblowup import quantum, suites
from qcblowup.geometry import _build
from qcblowup.poly import mono_mul

import correction_oracle
import pair_sweep_oracle
import product_oracle
import symmetry_oracle
from correction_oracle import model_corrections, polynomial_corrections
from elimination_oracle import eliminate
from invariant_oracle import assembled_invariant, pairwise_piece, piecewise_invariant
from product_oracle import (
    contributions, decompose_contributions, groebner_contributions, staircase_products,
)
from symmetry_oracle import verify_s3_symmetry


def bp(text, params):
    return Polynomial.parse(bundle_variables(params.r, params.n), text)


# -- presentations ---------------------------------------------------------------


def test_deformed_relations_40():
    params = derive_params(4, 0)
    bundle = quantum_presentation(params, "bundle")
    assert [str(g) for g in bundle.relations] == [
        "h^4 - xi*q2 + 2*h*q2",
        "xi^2 - 3*h*xi + 2*h^2 - q1",
    ]
    blowup = quantum_presentation(params, "blowup")
    kv = blowup.variables
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    q1 = Polynomial.variable(kv, "q1")
    q2 = Polynomial.variable(kv, "q2")
    assert blowup.relations == ((k - eta) ** 4 - eta * q2, k * eta - q1)


def test_deformed_relations_81_blowup():
    params = derive_params(8, 1)
    blowup = quantum_presentation(params, "blowup")
    kv = blowup.variables
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    q1 = Polynomial.variable(kv, "q1")
    q2 = Polynomial.variable(kv, "q2")
    assert blowup.relations == ((k - eta) ** 7 - eta * q2, k**2 * eta - q1)


def test_relations_homogeneous(grid_params):
    for coords in ("bundle", "blowup"):
        for g in quantum_relations(grid_params, coords):
            assert g.is_homogeneous()


def test_unit_parameter_specialization(grid_params):
    blowup = quantum_presentation(grid_params, "blowup")
    kv = blowup.variables
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    at_one = tuple(g.substitute({"q1": 1, "q2": 1}) for g in blowup.relations)
    m, p = grid_params.m, grid_params.p
    assert at_one == ((k - eta) ** (m - p) - eta, k ** (p + 1) * eta - 1)


def test_zero_parameter_specialization(grid_params):
    from qcblowup import classical_relations

    for coords in ("bundle", "blowup"):
        qp = quantum_presentation(grid_params, coords)
        specialized = tuple(g.substitute({"q1": 0, "q2": 0}) for g in qp.relations)
        assert specialized == classical_relations(grid_params, coords)


def test_certification_flag():
    assert quantum_presentation(derive_params(4, 0), "bundle").certified
    assert not quantum_presentation(derive_params(5, 1), "bundle").certified


def test_deformed_rank_preserved(grid_params):
    for coords in ("bundle", "blowup"):
        assert quantum_presentation(grid_params, coords).quotient.rank == grid_params.rank


# -- products and contributions ----------------------------------------------------


def test_quantum_square_of_fiber_class():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    xi = bp("xi", params)
    assert quantum_product(xi, xi, qp) == bp("3*h*xi - 2*h^2 + q1", params)


def test_quantum_base_power_overflow():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    assert quantum_product(bp("h", params), bp("h^3", params), qp) == bp(
        "xi*q2 - 2*h*q2", params
    )


def test_unit_law_including_corrected_classes():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    one = Polynomial.one(qp.variables)
    for text in ("h^2", "h^3*xi", "xi + 2*h"):
        y = bp(text, params)
        assert quantum_product(one, y, qp) == y


def test_contribution_examples():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    h = bp("h", params)
    xi = bp("xi", params)
    assert contribution_by_class(h, bp("h^3", params), 0, 1, qp) == xi - 2 * h
    assert contribution_by_class(h, h, 0, 0, qp) == bp("h^2", params)
    assert contribution_by_class(xi, h, 1, 0, qp).is_zero


def test_contribution_rejects_negative_classes():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    with pytest.raises(UsageError):
        contribution_by_class(bp("h", params), bp("h", params), -1, 0, qp)


def test_degree_cutoff_zeroes_contributions():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    h = bp("h", params)
    # r*a + n*b far above deg x + deg y
    assert contribution_by_class(h, h, 3, 2, qp).is_zero
    assert contribution_by_class(h, h, 0, 1, qp).is_zero


def test_products_of_homogeneous_classes_are_homogeneous():
    params = derive_params(6, 1)
    qp = quantum_presentation(params, "bundle")
    xs = [bp("h^2", params), bp("h*xi + xi^2", params), bp("h^4*xi", params)]
    for x in xs:
        for y in xs:
            product = quantum_product(x, y, qp)
            assert product.is_homogeneous()
            if not product.is_zero:
                assert (
                    product.homogeneous_degree()
                    == x.homogeneous_degree() + y.homogeneous_degree()
                )


def test_quantum_product_rejects_parameters():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    with pytest.raises(UsageError):
        quantum_product(bp("q1", params), bp("h", params), qp)


def test_blowup_products_translate_from_bundle():
    from qcblowup import BLOWUP_TO_BUNDLE, change_vars

    params = derive_params(4, 0)
    qpb = quantum_presentation(params, "blowup")
    qpf = quantum_presentation(params, "bundle")
    kv = qpb.variables
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    product = quantum_product(k, k * (k - eta), qpb)
    expected = quantum_product(
        change_vars(k, BLOWUP_TO_BUNDLE), change_vars(k * (k - eta), BLOWUP_TO_BUNDLE), qpf
    )
    assert change_vars(product, BLOWUP_TO_BUNDLE) == expected
    for x, y in ((k, k * (k - eta)), (k**2, eta**2), (eta, k**3)):
        bx, by = change_vars(x, BLOWUP_TO_BUNDLE), change_vars(y, BLOWUP_TO_BUNDLE)
        for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
            piece = contribution_by_class(x, y, a, b, qpb)
            assert piece.variables == kv
            assert change_vars(piece, BLOWUP_TO_BUNDLE) == contribution_by_class(
                bx, by, a, b, qpf
            )


# -- basis identification -----------------------------------------------------------


def test_basis_correction_at_40_is_the_section_class():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    corrections = basis_corrections(qp)
    top = (params.r - 1, params.n, 0, 0)
    assert set(corrections) == {top}
    assert corrections[top] == -(bp("xi - 2*h", params))


def test_basis_corrections_only_above_base_degree(grid_params):
    qp = quantum_presentation(grid_params, "bundle")
    for mono, corr in basis_corrections(qp).items():
        assert sum(mono) > grid_params.n
        assert corr.is_integral()


def test_basis_corrections_empty_when_formal():
    qp = quantum_presentation(derive_params(5, 1), "bundle")
    assert basis_corrections(qp) == {}


@pytest.mark.parametrize("m, p", [(8, 1), (5, 1)])
def test_cached_corrections_are_read_only(m, p):
    # the cached results are shared by every caller, so none may change them
    qp = quantum_presentation(derive_params(m, p), "bundle")
    corrections = basis_corrections(qp)
    before = dict(corrections)
    with pytest.raises(TypeError):
        corrections[qp.quotient.staircase[-1]] = Polynomial.zero(qp.variables)
    assert basis_corrections(qp) is corrections
    assert dict(basis_corrections(qp)) == before


def test_the_model_solve_refuses_a_non_integral_solution(monkeypatch, params40):
    # halving the right-hand side halves the correction -(xi - 2h) of h^3*xi
    qp = quantum_presentation(params40, "bundle")

    def halved(rows, ncols):
        rows = [{c: Fraction(v, 2) if c == ncols else v for c, v in row.items()} for row in rows]
        return eliminate(rows, ncols)

    monkeypatch.setattr(correction_oracle, "eliminate", halved)
    with pytest.raises(CheckFailure, match=r"non-integral basis correction -1/2\*xi for h\^3\*xi"):
        model_corrections(qp)


def test_the_model_solve_has_no_two_point_unknowns(monkeypatch):
    # one row per (class, component) from the divisor xi - h, plus the
    # closure rows, over the correction unknowns alone: at (16,5) the two
    # divisor routes with their two-point unknowns take 280 rows x 202
    shapes = []

    def spy(rows, ncols):
        rows = list(rows)
        shapes.append((len(rows), ncols))
        return eliminate(rows, ncols)

    monkeypatch.setattr(correction_oracle, "eliminate", spy)
    model_corrections(quantum_presentation(derive_params(16, 5), "bundle"))
    assert shapes == [(162, 84)]


def test_a_cold_closed_form_reads_no_model_gram_row_or_solve(monkeypatch):
    # the closed form reads the two staircases only: no ring product and no
    # pairing, even with its cache cleared; and the package ships no
    # elimination module at all
    import importlib.util

    assert importlib.util.find_spec("qcblowup.linalg") is None

    qp = quantum_presentation(derive_params(16, 5), "bundle")
    expected = dict(basis_corrections(qp))
    reads = []
    monkeypatch.setattr(QuotientRing, "product", lambda ring, mono: reads.append("product"))
    monkeypatch.setattr(QuotientRing, "gram", property(lambda ring: reads.append("gram")))
    basis_corrections.cache_clear()
    assert basis_corrections(qp) == expected
    assert reads == []
    assert not hasattr(quantum, "eliminate")


def test_closed_form_cases_at_11_3():
    # n = 7, r = 5: C_s = -(xi - 2h) P_{e,b} for s = h^a xi^b, e = a + b - n
    params = derive_params(11, 3)
    corrections = basis_corrections(quantum_presentation(params, "bundle"))
    minus_e, n = -bp("xi - 2*h", params), params.n
    for b in range(1, params.r):  # P_{1,b} = 1
        assert corrections[(b, n + 1 - b, 0, 0)] == minus_e
    for b in range(2, params.r):  # P_{2,b} = b xi - (b-1) h
        assert corrections[(b, n + 2 - b, 0, 0)] == minus_e * bp(f"{b}*xi - {b - 1}*h", params)
    assert corrections[(3, n, 0, 0)] == minus_e * bp("3*xi^2 - 3*h*xi + h^2", params)


def test_class_representative_of_the_point_class():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    top = bp("h^3*xi", params)
    rep = class_representative(top, qp)
    assert rep == bp("h^3*xi - xi*q2 + 2*h*q2", params)
    # the representative is already in normal form and q -> 0 recovers the class
    assert qp.quotient.normal_form(rep) == rep
    assert rep.substitute({"q1": 0, "q2": 0}) == top


def test_class_representative_adds_q2_times_the_corrections(grid_params):
    qp = quantum_presentation(grid_params, "bundle")
    vs = qp.variables
    f = Polynomial(vs, {s: k + 1 for k, s in enumerate(qp.quotient.staircase)})
    correction = Polynomial.zero(vs)
    for mono, corr in basis_corrections(qp).items():
        correction = correction + f.coefficient(mono) * corr
    rep = class_representative(f, qp)
    assert rep == f + Polynomial.variable(vs, "q2") * correction
    assert rep.terms == Polynomial(vs, dict(rep.terms)).terms


@pytest.mark.parametrize("coords", ["bundle", "blowup"])
def test_class_representative_is_a_ring_homomorphism(grid_params, coords):
    # nf(rep(x) * rep(y)) = sum over curve classes of q^key * rep(piece_key)
    # for every pair of classical staircase classes, in either coordinate system
    qp = quantum_presentation(grid_params, coords)
    vs = qp.variables
    basis = classical_presentation(grid_params, coords).quotient.staircase_polynomials()
    reps = [class_representative(x, qp) for x in basis]
    for i, x in enumerate(basis):
        for j in range(i, len(basis)):
            expected = Polynomial.zero(vs)
            for (a, b), piece in contributions(x, basis[j], qp).items():
                q = Polynomial(vs, {(0, 0, a, b): 1})
                expected = expected + q * class_representative(piece, qp)
            assert qp.quotient.normal_form(reps[i] * reps[j]) == expected, (str(x), str(basis[j]))


def test_blowup_representatives_carry_the_bundle_corrections():
    # eta^3 at (8,1) stands for eta^3 - q1 in the product; its blow-up
    # normal form alone would be eta^3
    qp = quantum_presentation(derive_params(8, 1), "blowup")
    vs = qp.variables
    eta3 = Polynomial.parse(vs, "eta^3")
    assert qp.quotient.normal_form(eta3) == eta3
    assert class_representative(eta3, qp) == Polynomial.parse(vs, "eta^3 - q1")


# -- invariant extraction -----------------------------------------------------------


def test_fiber_line_invariant():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    query = GWQuery(CurveClass(1, 0), bp("xi", params), bp("xi", params), bp("h^3*xi", params))
    assert query.degree_budget == 0 and query.admissible
    assert gw_invariant(query, qp) == 1


def test_exceptional_line_invariants():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    h, h3 = bp("h", params), bp("h^3", params)
    assert gw_invariant(GWQuery(CurveClass(0, 1), h, h3, bp("h^3", params)), qp) == 1
    assert gw_invariant(GWQuery(CurveClass(0, 1), h, h3, bp("h^2*xi", params)), qp) == 1
    # the r-1 value is the section count: cross-check the integral directly
    assert integrate(bp("xi - 2*h", params) * bp("h^2*xi", params), params) == 1


def test_inadmissible_query_returns_zero():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    h = bp("h", params)
    query = GWQuery(CurveClass(2, 0), h, h, h)
    assert query.degree_budget == -2 and not query.admissible
    assert gw_invariant(query, qp) == 0


@pytest.mark.parametrize("gamma", ["0", "xi + h^2"])
def test_a_zero_or_inhomogeneous_third_class_is_not_admissible(gamma):
    params = derive_params(4, 0)
    xi = bp("xi", params)
    query = GWQuery(CurveClass(1, 0), xi, xi, bp(gamma, params))
    assert query.degree_budget == 0 and not query.admissible


def test_gw_invariant_in_blowup_coordinates():
    from qcblowup import blowup_variables

    params = derive_params(4, 0)
    qp = quantum_presentation(params, "blowup")
    kv = blowup_variables(params.r, params.n)
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    # k + (k - eta) = xi and (k - eta)^3 (2k - eta) = h^3 xi in bundle terms,
    # so this is the fiber-line point count in disguise
    value = gw_invariant(
        GWQuery(CurveClass(1, 0), k + (k - eta), k + (k - eta), (k - eta) ** 3 * (2 * k - eta)),
        qp,
    )
    assert value == 1


def test_string_axiom_on_corrected_classes():
    # invariants against the fundamental class vanish for nonzero curve classes
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    one = Polynomial.one(qp.variables)
    top = bp("h^3*xi", params)
    for x_text in ("h^3", "h^2*xi"):
        x = bp(x_text, params)
        piece = contribution_by_class(x, top, 0, 1, qp)
        assert integrate(piece * one, params) == 0


def _bad_query(case):
    # a query at (4,0) in bundle coordinates that fails validation or the
    # degree bookkeeping, keyed by what is wrong with it
    params = derive_params(4, 0)
    h, xi = bp("h", params), bp("xi", params)
    point = bp("h^3*xi", params)
    from qcblowup import blowup_variables

    k = Polynomial.variable(blowup_variables(params.r, params.n), "k")
    return {
        "other_variable_set": GWQuery(CurveClass(1, 0), xi, k, point),
        "q_term": GWQuery(CurveClass(0, 1), h, h + bp("q1", params), h),
        "zero_class": GWQuery(CurveClass(1, 0), xi, xi, bp("0", params)),
        "inhomogeneous": GWQuery(CurveClass(0, 1), h + bp("h^2", params), h, h),
        "negative_curve": GWQuery(CurveClass(-1, 0), h, h, h),
        "inadmissible": GWQuery(CurveClass(2, 0), h, h, h),
        "above_top": GWQuery(CurveClass(1, 0), xi**5, Polynomial.one(h.variables), xi),
        # the first failing class decides, and within a class a parameter
        # is reported before inhomogeneity; classes before the curve
        "inhomogeneous_before_q_term": GWQuery(CurveClass(0, 1), h + xi**2, bp("q2", params), h),
        "q_term_before_inhomogeneous": GWQuery(CurveClass(0, 1), h + bp("q2", params), h, h),
        "class_before_curve": GWQuery(CurveClass(-1, 0), bp("0", params), h, h),
    }[case]


@pytest.mark.parametrize(
    "case, expected",
    [
        ("other_variable_set", "query class over a different variable set"),
        ("q_term", "query classes must be parameter-free"),
        ("zero_class", "query classes must be nonzero and homogeneous"),
        ("inhomogeneous", "query classes must be nonzero and homogeneous"),
        ("negative_curve", "curve-class coefficients must be non-negative"),
        ("inadmissible", 0),
        ("above_top", 0),
        ("inhomogeneous_before_q_term", "query classes must be nonzero and homogeneous"),
        ("q_term_before_inhomogeneous", "query classes must be parameter-free"),
        ("class_before_curve", "query classes must be nonzero and homogeneous"),
    ],
)
def test_bad_queries_keep_their_errors_and_values(case, expected):
    query = _bad_query(case)
    qp = quantum_presentation(derive_params(4, 0), "bundle")
    if isinstance(expected, str):
        with pytest.raises(UsageError) as info:
            gw_invariant(query, qp)
        assert str(info.value) == expected
    else:
        assert not query.admissible or max(
            c.weighted_degree() for c in (query.alpha, query.beta, query.gamma)
        ) > qp.params.top_degree
        assert gw_invariant(query, qp) == expected


class _ReadSpy(dict):
    # a dict that records the keys read from it
    def __init__(self, data):
        super().__init__(data)
        self.reads = []

    def __contains__(self, key):
        self.reads.append(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


def test_a_warm_query_reads_each_weighted_degree_once(monkeypatch):
    # one validation pass per class: the degree of each class term is read
    # at most once (from the kernel's staircase degrees, or computed off the
    # staircase), none of it again for the bookkeeping
    from collections import Counter

    from qcblowup import VariableSet

    params = derive_params(16, 5)
    qp = quantum_presentation(params, "bundle")
    n, r = params.n, params.r
    h, xi = bp("h", params), bp("xi", params)
    combo = h ** (n - 1) * xi ** (r - 1) + (1 - r) * h**n * xi ** (r - 2)
    queries = [
        GWQuery(CurveClass(0, 1), h**n + h ** (n - 1) * xi, h, combo),
        GWQuery(CurveClass(0, 1), h**n * xi, h**2 * xi ** (r - 1), h ** (n - 4) * xi),
    ]
    expected = [gw_invariant(query, qp) for query in queries]  # warms the models
    calls = []
    original = VariableSet.weighted_degree

    def spy(self, mono):
        calls.append(mono)
        return original(self, mono)

    monkeypatch.setattr(VariableSet, "weighted_degree", spy)
    degrees = _ReadSpy(quantum._kernel(qp).degree)
    monkeypatch.setattr(quantum._kernel(qp), "degree", degrees)
    for query, value in zip(queries, expected):
        calls.clear()
        degrees.reads.clear()
        classes = (query.alpha, query.beta, query.gamma)
        assert all(set(c.terms) <= qp.quotient.staircase_set for c in classes)
        assert gw_invariant(query, qp) == value
        reads = Counter(calls) + Counter(degrees.reads)
        assert reads == Counter(t for c in classes for t in c.terms)


def test_gw_query_validation():
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    h = bp("h", params)
    with pytest.raises(UsageError):
        gw_invariant(GWQuery(CurveClass(-1, 0), h, h, h), qp)
    with pytest.raises(UsageError):
        gw_invariant(GWQuery(CurveClass(0, 1), bp("q1", params), h, h), qp)
    with pytest.raises(UsageError):
        gw_invariant(GWQuery(CurveClass(0, 1), h + bp("h^2", params), h, h), qp)


def _random_homogeneous(rng, vs, staircase, degree):
    # one to three terms of one degree, on or off the staircase, some with
    # rational coefficients
    on_staircase = [s for s in staircase if sum(s) == degree]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        if on_staircase and rng.random() < 0.5:
            mono = rng.choice(on_staircase)
        else:
            a = rng.randint(0, degree)
            mono = (a, degree - a, 0, 0)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[mono] = Fraction(c, rng.choice([2, 3])) if rng.random() < 0.15 else c
    return Polynomial(vs, terms)


def _random_query(rng, params, vs, staircase):
    # an admissible query: two class degrees, a curve class within the budget
    # and a third class of the complementary degree
    top, r, n = params.top_degree, params.r, params.n
    da, db = rng.randint(0, top), rng.randint(0, top)
    curves = [
        (a, b) for a in range(3) for b in range(4) if 0 <= da + db - r * a - n * b <= top
    ]
    a, b = rng.choice(curves)
    degrees = (da, db, top - (da + db - r * a - n * b))
    classes = (_random_homogeneous(rng, vs, staircase, d) for d in degrees)
    return GWQuery(CurveClass(a, b), *classes)


@pytest.mark.parametrize("m", range(2, 13))
def test_gw_invariant_matches_the_groebner_oracle(m):
    # the piece read off the ring model and paired through the classical
    # model, against the whole Groebner product multiplied by gamma and
    # integrated, on seeded queries over every (m, p) and both coordinates
    rng = random.Random(1000 + m)
    nonzero = 0
    for p in range(m - 1):
        params = derive_params(m, p)
        for coords in ("bundle", "blowup"):
            qp = quantum_presentation(params, coords)
            staircase = classical_presentation(params, coords).quotient.staircase
            for _ in range(12):
                query = _random_query(rng, params, qp.variables, staircase)
                assert query.admissible
                expected = assembled_invariant(query, qp, groebner_contributions)
                value = gw_invariant(query, qp)
                assert value == expected, (m, p, coords, query)
                assert type(value) is int or value.denominator > 1
                nonzero += value != 0
    assert nonzero >= 10


LADDER = [(8, 1), (11, 3), (16, 5), (20, 4)]


def _ladder_class(rng, vs, degree, terms):
    # distinct monomials of one degree, on and off the staircase
    monos = [(i, degree - i, 0, 0) for i in range(degree + 1)]
    chosen = rng.sample(monos, min(terms, len(monos)))
    return Polynomial(vs, {mono: rng.choice([-3, -2, -1, 1, 2, 3]) for mono in chosen})


def _ladder_queries(rng, params, vs, count):
    # queries at b = 0, 1, 2 in turn, with classes of one to six terms; every
    # third query carries one Fraction coefficient, and every fourth is made
    # inadmissible by moving gamma off the complementary degree
    top, r, n = params.top_degree, params.r, params.n
    queries = []
    for i in range(count):
        a, b = rng.randint(0, 1), i % 3
        degrees = [
            (da, db) for da in range(top + 1) for db in range(top + 1)
            if 0 <= da + db - r * a - n * b <= top
        ]
        da, db = rng.choice(degrees)
        dg = top - (da + db - r * a - n * b)
        if i % 4 == 3:
            dg = dg + 1 if dg < top else dg - 1
        classes = [_ladder_class(rng, vs, d, rng.randint(1, 6)) for d in (da, db, dg)]
        if i % 3 == 1:
            slot = rng.randrange(3)
            terms = dict(classes[slot].terms)
            mono = rng.choice(sorted(terms))
            terms[mono] = Fraction(terms[mono], 2)
            classes[slot] = Polynomial(vs, terms)
        queries.append(GWQuery(CurveClass(a, b), *classes))
    return queries


@pytest.mark.parametrize("m, p", LADDER, ids=[f"m{m}p{p}" for m, p in LADDER])
def test_gw_invariant_matches_the_piecewise_kernel(m, p):
    # the grouped kernel against the pairwise one with its integral pairing
    # and against the whole-product assembly, on seeded ladder queries in
    # both coordinate systems; contribution_by_class against the piece of
    # the public product on the same pairs
    params = derive_params(m, p)
    rng = random.Random(31 * m + p)
    seen = {"b": set(), "fraction": 0, "inadmissible": 0, "nonzero": 0}
    for coords in ("bundle", "blowup"):
        qp = quantum_presentation(params, coords)
        zero = Polynomial.zero(qp.variables)
        for query in _ladder_queries(rng, params, qp.variables, 18):
            a, b = query.curve.a, query.curve.b
            value = gw_invariant(query, qp)
            assert value == piecewise_invariant(query, qp) == assembled_invariant(query, qp), (
                coords, query
            )
            assert type(value) is int or value.denominator > 1
            alpha, beta = query.alpha, query.beta
            piece = contributions(alpha, beta, qp).get((a, b), zero)
            assert contribution_by_class(alpha, beta, a, b, qp) == piece, (coords, query)
            seen["b"].add(b)
            seen["inadmissible"] += not query.admissible
            seen["nonzero"] += value != 0
            classes = (alpha, beta, query.gamma)
            seen["fraction"] += any(type(c) is Fraction for x in classes for c in x.terms.values())
    assert seen["b"] == {0, 1, 2}
    assert seen["fraction"] and seen["inadmissible"] and seen["nonzero"] >= 4
    _check_kernel_rows(quantum_presentation(params, "bundle"))


def _staircase_ladder_queries(rng, params, vs, count):
    # admissible queries at b = 0, 1, 2 in turn whose classes are one to
    # three staircase monomials of the classical bundle ring; every third
    # query carries one Fraction coefficient
    top, r, n = params.top_degree, params.r, params.n
    by_degree = {}
    for mono in classical_presentation(params, "bundle").quotient.staircase:
        by_degree.setdefault(sum(mono), []).append(mono)
    queries = []
    for i in range(count):
        b = i % 3
        a = rng.randint(0, 1)
        degrees = [
            (da, db, top - (da + db - r * a - n * b))
            for da in range(top + 1) for db in range(top + 1)
            if 0 <= da + db - r * a - n * b <= top
        ]
        classes = []
        for d in rng.choice(degrees):
            monos = rng.sample(by_degree[d], min(rng.randint(1, 3), len(by_degree[d])))
            classes.append({mono: rng.choice([-3, -2, -1, 1, 2, 3]) for mono in monos})
        if i % 3 == 1:
            terms = classes[rng.randrange(3)]
            mono = rng.choice(sorted(terms))
            terms[mono] = Fraction(terms[mono], 2)
        queries.append(GWQuery(CurveClass(a, b), *(Polynomial(vs, t) for t in classes)))
    return queries


def _off_staircase(query, params, coeff):
    # the query with its highest-degree class shifted off the staircase by
    # coeff * xi^(d-n-1) * h^(n+1), which is zero classically (None when no
    # class has degree above n)
    classes = [query.alpha, query.beta, query.gamma]
    slot = max(range(3), key=lambda i: classes[i].homogeneous_degree())
    d, n = classes[slot].homogeneous_degree(), params.n
    if d <= n:
        return None
    shift = Polynomial(classes[slot].variables, {(d - n - 1, n + 1, 0, 0): coeff})
    classes[slot] = classes[slot] + shift
    return GWQuery(query.curve, *classes)


def _in_blowup(query):
    from qcblowup import BUNDLE_TO_BLOWUP, change_vars

    classes = (query.alpha, query.beta, query.gamma)
    return GWQuery(query.curve, *(change_vars(c, BUNDLE_TO_BLOWUP) for c in classes))


def test_a_warm_staircase_query_enters_its_classes_in_its_own_scan(monkeypatch):
    # a bundle query whose classes lie on the staircase validates and enters
    # them in one scan: no record comparison (variable sets are compared by
    # identity first) and no call of the general entry route; a blow-up
    # query and an off-staircase bundle query still take that route
    from qcblowup.records import Record

    params = derive_params(11, 3)
    qp, qpb = (quantum_presentation(params, coords) for coords in ("bundle", "blowup"))
    queries = _staircase_ladder_queries(random.Random(1104), params, qp.variables, 6)
    expected = [gw_invariant(query, qp) for query in queries]  # warms the kernel
    eq_calls = _spied_calls(monkeypatch, Record, "__eq__")
    terms_calls = _spied_calls(monkeypatch, quantum, "_terms")
    assert [gw_invariant(query, qp) for query in queries] == expected
    assert eq_calls == [] and terms_calls == []
    query, value = next(
        (q, v) for q, v in zip(queries, expected) if v and _off_staircase(q, params, 1)
    )
    assert gw_invariant(_in_blowup(query), qpb) == value
    assert len(terms_calls) == 3
    terms_calls.clear()
    assert gw_invariant(_off_staircase(query, params, 1), qp) == value
    assert len(terms_calls) == 1


@pytest.mark.parametrize("m, p", LADDER, ids=[f"m{m}p{p}" for m, p in LADDER])
def test_every_entry_route_gives_the_staircase_value(m, p):
    # seeded staircase queries at b = 0, 1, 2 (some with a Fraction
    # coefficient) give one value on the staircase, with a class shifted off
    # it by a degree-matched multiple of h^(n+1), and carried to blow-up
    # coordinates, shifted or not
    params = derive_params(m, p)
    qp, qpb = (quantum_presentation(params, coords) for coords in ("bundle", "blowup"))
    rng = random.Random(97 * m + p)
    seen = {"b": set(), "fraction": 0, "nonzero": 0, "shifted": 0}
    for query in _staircase_ladder_queries(rng, params, qp.variables, 12):
        value = gw_invariant(query, qp)
        assert gw_invariant(_in_blowup(query), qpb) == value, query
        if shifted := _off_staircase(query, params, Fraction(rng.choice([-2, 1, 3]), 3)):
            assert gw_invariant(shifted, qp) == value, shifted
            assert gw_invariant(_in_blowup(shifted), qpb) == value, shifted
            seen["shifted"] += 1
        classes = (query.alpha, query.beta, query.gamma)
        seen["b"].add(query.curve.b)
        seen["fraction"] += any(type(c) is Fraction for x in classes for c in x.terms.values())
        seen["nonzero"] += value != 0
    assert seen["b"] == {0, 1, 2}
    assert seen["fraction"] and seen["nonzero"] >= 3 and seen["shifted"] >= 6


def _sized_queries(rng, params, vs, staircase, terms, count):
    # admissible queries at b = 0, 1, 2 in turn whose classes take
    # rng.randint(*terms) monomials (all, where fewer exist) of one degree of
    # ``staircase``; alpha and beta take degrees that have at least terms[0]
    top, r, n = params.top_degree, params.r, params.n
    by_degree = {}
    for mono in staircase:
        by_degree.setdefault(sum(mono), []).append(mono)
    wide = [d for d, monos in by_degree.items() if len(monos) >= terms[0]]
    queries = []
    for i in range(count):
        b = i % 3
        a, da, db = rng.choice([(a, da, db) for a in (0, 1) for da in wide for db in wide
                                if 0 <= da + db - r * a - n * b <= top])
        classes = []
        for d in (da, db, top - (da + db - r * a - n * b)):
            monos = rng.sample(by_degree[d], min(rng.randint(*terms), len(by_degree[d])))
            classes.append(Polynomial(vs, {mono: rng.choice([-3, -2, -1, 1, 2]) for mono in monos}))
        queries.append(GWQuery(CurveClass(a, b), *classes))
    return queries


def _spied_walks(monkeypatch):
    # the term-pair groups each gw_invariant call walks, as (k, pairs), and
    # the number of groups it sums by product monomial first
    walks, summed = [], []
    groups, sums, invariant = quantum._groups, quantum._summed, quantum.gw_invariant

    def spy_groups(*args):
        found = groups(*args)
        walks[-1] += [(k, len(x) * len(y)) for k, x, y in found]
        return found

    def spy_summed(*args):
        summed[-1] += 1
        return sums(*args)

    def spy_invariant(*args):
        walks.append([])
        summed.append(0)
        return invariant(*args)

    monkeypatch.setattr(quantum, "_groups", spy_groups)
    monkeypatch.setattr(quantum, "_summed", spy_summed)
    return spy_invariant, walks, summed


WIDE_LADDER = [(11, 3), (16, 5), (20, 4)]


@pytest.mark.parametrize("m, p", WIDE_LADDER, ids=[f"m{m}p{p}" for m, p in WIDE_LADDER])
def test_both_pair_walks_match_the_piecewise_kernel(monkeypatch, m, p):
    # classes of one to three staircase terms and of four to seven, at
    # b = 0, 1 and 2: a group of more than 9 term pairs is summed by product
    # monomial first and any other is walked pair by pair, and either way
    # the value is the pairwise kernel's and the whole-product assembly's
    params = derive_params(m, p)
    qp = quantum_presentation(params, "bundle")
    staircase = classical_presentation(params, "bundle").quotient.staircase
    rng = random.Random(53 * m + p)
    invariant, walks, summed = _spied_walks(monkeypatch)
    seen = set()  # (k, walked pair by pair) over the groups with pairs
    for terms in ((1, 3), (4, 7)):
        for query in _sized_queries(rng, params, qp.variables, staircase, terms, 30):
            value = invariant(query, qp)
            assert summed[-1] == sum(pairs > 9 for _, pairs in walks[-1]), query
            seen |= {(k, pairs <= 9) for k, pairs in walks[-1] if pairs}
            assert value == piecewise_invariant(query, qp) == assembled_invariant(query, qp)
    assert seen == {(k, direct) for k in (0, 1, 2) for direct in (False, True)}


@pytest.mark.parametrize("m, p", WIDE_LADDER, ids=[f"m{m}p{p}" for m, p in WIDE_LADDER])
def test_translated_blowup_classes_take_both_walks(monkeypatch, m, p):
    # blow-up classes carried to bundle coordinates by change_vars and
    # reduced in the classical bundle ring, as a session asks them, give the
    # pairwise kernel's value of the blow-up query, and so does the blow-up
    # query asked as it is; the translated classes reach both walks
    from qcblowup import BLOWUP_TO_BUNDLE, change_vars

    params = derive_params(m, p)
    qp, qpb = (quantum_presentation(params, coords) for coords in ("bundle", "blowup"))
    staircase = classical_presentation(params, "blowup").quotient.staircase
    reduce = classical_presentation(params, "bundle").quotient.normal_form
    rng = random.Random(59 * m + p)
    invariant, walks, summed = _spied_walks(monkeypatch)
    seen, nonzero = set(), 0
    for query in _sized_queries(rng, params, qpb.variables, staircase, (1, 7), 24):
        classes = (query.alpha, query.beta, query.gamma)
        carried = (reduce(change_vars(c, BLOWUP_TO_BUNDLE)) for c in classes)
        value = invariant(GWQuery(query.curve, *carried), qp)
        assert summed[-1] == sum(pairs > 9 for _, pairs in walks[-1]), query
        seen |= {(k, pairs <= 9) for k, pairs in walks[-1] if pairs}
        assert value == piecewise_invariant(query, qpb) == gw_invariant(query, qpb), query
        nonzero += value != 0
    assert {(0, False), (0, True), (1, False), (1, True)} <= seen and nonzero >= 3


def _check_kernel_rows(qp):
    # every memoised w of the ring's query kernel (both coordinate systems
    # share it) has, under the kernel's correction step, exactly the nonzero
    # pieces of w * 1 in its degree budget (keys (a, b) with r a + n b <=
    # deg w), each equal to the pairwise piece, and holds their nonzero
    # pairing_matrix pairings with the staircase monomials of the
    # complementary degree
    kernel = quantum._kernel(qp)
    assert quantum._kernel(quantum_presentation(qp.params, "blowup")) is kernel
    cp = classical_presentation(qp.params, "bundle")
    staircase = cp.quotient.staircase
    gram = dict(zip(staircase, pairing_matrix(cp)))
    r, n, one = qp.params.r, qp.params.n, [((0, 0, 0, 0), 0, 1)]
    assert kernel.paired_rows
    for w, rows in kernel.paired_rows.items():
        d, expected, paired = qp.variables.weighted_degree(w), {}, {}
        for key in ((a, b) for a in range(d // r + 1) for b in range((d - r * a) // n + 1)):
            piece = {t: c for t, c in pairwise_piece(qp, [(w, 0, 1)], one, key).items() if c}
            if piece:
                expected[key] = piece
                pairs = {
                    g: v for k, g in enumerate(staircase)
                    if (v := sum(c * gram[t][k] for t, c in piece.items() if t in gram))
                }
                if pairs:
                    paired[key] = pairs
        assert kernel.corrected(qp.quotient.product(w)) == expected, w
        assert rows == paired, w


def test_shared_memos_survive_callers_that_change_their_results():
    # the rings' product memos, the classical pairings and the kernels'
    # paired rows are shared by every query: a seeded batch
    # whose every returned polynomial is changed in place leaves them as
    # they were, and the batch gives the same values again
    import copy

    rng = random.Random(2718)
    batch, rings = [], []
    for m, p in [(11, 3), (16, 5)]:
        params = derive_params(m, p)
        for build in (quantum_presentation, classical_presentation):
            rings.append(build(params, "bundle").quotient)
        for coords in ("bundle", "blowup"):
            qp = quantum_presentation(params, coords)
            batch += [(query, qp) for query in _ladder_queries(rng, params, qp.variables, 12)]
            # single basis monomials, whose pieces are single model products
            polys = classical_presentation(params, coords).quotient.staircase_polynomials()
            by_degree = {}
            for poly in polys:
                by_degree.setdefault(poly.homogeneous_degree(), []).append(poly)
            top, r, n = params.top_degree, params.r, params.n
            for a, b in [(0, 0), (1, 0), (0, 1)] * 4:
                x, y = rng.choice(polys), rng.choice(polys)
                d = x.homogeneous_degree() + y.homogeneous_degree() - r * a - n * b
                if 0 <= d <= top:
                    gamma = rng.choice(by_degree[top - d])
                    batch.append((GWQuery(CurveClass(a, b), x, y, gamma), qp))

    def run(mutate):
        values = []
        for query, qp in batch:
            alpha, beta = query.alpha, query.beta
            results = [
                contribution_by_class(alpha, beta, query.curve.a, query.curve.b, qp),
                quantum_product(alpha, beta, qp),
                class_representative(alpha, qp),
                class_representative(query.gamma, qp),
            ]
            values.append((gw_invariant(query, qp), *(dict(r.terms) for r in results)))
            if mutate:
                for result in results:
                    for mono in list(result.terms):
                        result.terms[mono] = 12345
                    result.terms[(7, 7, 7, 7)] = 1
        return values

    def memos():
        rows = [ring._products for ring in rings]
        rows += [dict(ring.gram) for ring in rings[1::2]]  # the classical rings
        for m, p in [(11, 3), (16, 5)]:
            kernel = quantum._kernel(quantum_presentation(derive_params(m, p), "bundle"))
            rows.append(kernel.paired_rows)
        return rows

    expected = run(False)  # warms the memos
    assert any(value for value, *_ in expected)
    before = copy.deepcopy(memos())
    assert all(any(gram.values()) for gram in before[4:6])  # the classical pairings
    assert all(any(rows.values()) for rows in before[6:])  # the kernels' rows
    assert run(True) == expected
    assert memos() == before
    assert run(False) == expected


def test_a_warm_query_builds_and_looks_up_no_ring(monkeypatch):
    # a query reads its ring through the kernel of its presentation: once
    # the kernel exists, queries in both coordinate systems at b = 0, 1 and 2
    # call no presentation builder and read no basis correction
    from qcblowup import geometry

    params = derive_params(11, 3)
    rng = random.Random(1103)
    batch = []
    for coords in ("bundle", "blowup"):
        qp = quantum_presentation(params, coords)
        batch += [(query, qp) for query in _ladder_queries(rng, params, qp.variables, 12)]
    assert {query.curve.b for query, _ in batch} == {0, 1, 2}
    expected = [gw_invariant(query, qp) for query, qp in batch]  # builds the kernel
    calls = {
        (module.__name__, name): _spied_calls(monkeypatch, module, name)
        for module in (quantum, geometry)
        for name in ("classical_presentation", "quantum_presentation", "basis_corrections")
        if hasattr(module, name)
    }
    assert [gw_invariant(query, qp) for query, qp in batch] == expected
    assert not any(calls.values())
    # the spies do see what a new kernel reads
    monkeypatch.setattr(quantum, "_kernel", quantum._Kernel)
    query, qp = next(
        (query, qp) for query, qp in batch
        if query.curve.b and query.admissible and qp.coords == "bundle"
    )
    gw_invariant(query, qp)
    assert calls["qcblowup.quantum", "classical_presentation"]
    assert calls["qcblowup.quantum", "basis_corrections"]


def _session_stream(seed):
    # the gw-session benchmark's query stream (warm-up and timed passes) at
    # a seed, as (query, presentation) pairs
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    inputs = gen.session_inputs(seed)
    stream = []
    for q in inputs["warmup"] + [q for block in inputs["passes"] for q in block]:
        qp = quantum_presentation(derive_params(q["m"], q["p"]), q["coords"])
        classes = [Polynomial.parse(qp.variables, q[slot]) for slot in ("alpha", "beta", "gamma")]
        stream.append((GWQuery(CurveClass(*q["curve"]), *classes), qp))
    return stream


def test_the_kernel_memos_stay_within_the_rows_the_stream_reads(monkeypatch):
    # on fresh kernels, the seed-1 gw-session stream leaves in the memos
    # exactly the product monomials its term pairs reach: w = u * v for a
    # pair of phi terms of alpha and beta whose q2 exponents sum to at most
    # b, with one model product lookup per w and only the nonzero rows
    kernels = {}

    def fresh(qp):
        bundle = quantum_presentation(qp.params, "bundle")
        if bundle not in kernels:
            kernels[bundle] = quantum._Kernel(bundle)
        return kernels[bundle]

    monkeypatch.setattr(quantum, "_kernel", fresh)
    stream, reached = _session_stream(1), {}
    for query, qp in stream:
        if query.admissible:
            kernel, (alpha, beta, _) = quantum._factors(qp, query.alpha, query.beta, query.gamma)
            b = query.curve.b
            x = [(0, alpha), (1, quantum._shift(kernel, alpha))]
            y = [(0, beta), (1, quantum._shift(kernel, beta))]
            reached.setdefault(kernel.qp, set()).update(
                (u[0] + v[0], u[1] + v[1], 0, 0)
                for ku, xs in x for kv, ys in y if ku + kv <= b for u in xs for v in ys
            )
    expected = [gw_invariant(query, qp) for query, qp in stream]  # warms the ring memos
    assert any(expected) and len(reached) == 4
    kernels.clear()
    lookups = {qp: _spied_calls(monkeypatch, qp.quotient, "product") for qp in reached}
    assert [gw_invariant(query, qp) for query, qp in stream] == expected
    assert kernels.keys() == reached.keys()
    total = 0
    for bundle, kernel in kernels.items():
        assert kernel.paired_rows.keys() == reached[bundle]
        assert sorted(w for w, in lookups[bundle]) == sorted(reached[bundle])
        assert all(row for wrows in kernel.paired_rows.values() for row in wrows.values())
        total += sum(map(len, kernel.paired_rows.values()))
    assert 1400 < total <= 1700  # 1,551 rows over the four ladder rings


def test_each_product_monomial_is_built_once(monkeypatch):
    # over the seed-1 gw-session stream on fresh kernels, the row builder
    # runs once per distinct product monomial of each ring, whatever curve
    # classes later queries ask of it, and a second pass builds none
    kernels = {}

    def fresh(qp):
        bundle = quantum_presentation(qp.params, "bundle")
        if bundle not in kernels:
            kernels[bundle] = quantum._Kernel(bundle)
        return kernels[bundle]

    monkeypatch.setattr(quantum, "_kernel", fresh)
    builds = _spied_calls(monkeypatch, quantum._Kernel, "rows")
    stream = _session_stream(1)
    expected = [gw_invariant(query, qp) for query, qp in stream]
    built = [(kernel.qp, w) for kernel, w in builds]
    assert len(built) == len(set(built)) == sum(len(k.paired_rows) for k in kernels.values())
    rows = sum(len(wrows) for k in kernels.values() for wrows in k.paired_rows.values())
    assert rows > 1.5 * len(built)  # a build serves several curve classes
    builds.clear()
    assert [gw_invariant(query, qp) for query, qp in stream] == expected
    assert builds == []


def test_gw_invariant_matches_the_whole_product_assembly(grid_params):
    # the same assembly on the public product, over staircase triples; each
    # pair's product is formed once and read for every curve class and z
    qp = quantum_presentation(grid_params, "bundle")
    polys = qp.quotient.staircase_polynomials()
    top, r, n = grid_params.top_degree, grid_params.r, grid_params.n
    products = lru_cache(maxsize=None)(contributions)
    for i, x in enumerate(polys):
        for y in polys[i:]:
            for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
                d = x.homogeneous_degree() + y.homogeneous_degree() - r * a - n * b
                for z in polys:
                    if 0 <= d <= top and z.homogeneous_degree() == top - d:
                        query = GWQuery(CurveClass(a, b), x, y, z)
                        assert gw_invariant(query, qp) == assembled_invariant(query, qp, products)


def test_a_warm_staircase_query_reads_only_the_ring_models(monkeypatch):
    # no polynomial product, normal form or integral once the models exist
    from qcblowup import geometry, groebner

    params = derive_params(16, 5)
    qp = quantum_presentation(params, "bundle")
    n, r = params.n, params.r
    h, xi = bp("h", params), bp("xi", params)
    queries = [  # the exceptional section count, and classes that carry corrections
        (GWQuery(CurveClass(0, 1), h**n, h, h ** (n - 1) * xi ** (r - 1)), r - 1),
        (GWQuery(CurveClass(0, 1), h**n * xi, h**2 * xi ** (r - 1), h ** (n - 4) * xi), 35),
    ]
    expected = [assembled_invariant(query, qp, groebner_contributions) for query, _ in queries]
    assert [gw_invariant(query, qp) for query, _ in queries] == expected  # warms the models
    assert expected == [value for _, value in queries]
    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for owner, name in (
        (Polynomial, "__mul__"), (Polynomial, "__rmul__"), (groebner, "normal_form"),
        (geometry, "integrate"), (quantum, "integrate"),
    ):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    for query, _ in queries:
        assert set(query.alpha.terms) <= qp.quotient.staircase_set
    assert [gw_invariant(query, qp) for query, _ in queries] == expected
    assert calls == []
    # the spies do see the oracle's work
    assembled_invariant(queries[1][0], qp)
    assert {"__mul__", "normal_form"} <= set(calls)


@pytest.mark.parametrize("key", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_the_piece_forms_no_product_above_its_q2_power(monkeypatch, key):
    # a term pair whose q2 exponents sum above b cannot reach (a, b), so its
    # model product is never looked up, and the live pairs are summed by
    # product monomial first: one lookup per distinct monomial; the piece
    # equals the Groebner product's
    params = derive_params(16, 5)
    qp = quantum_presentation(params, "bundle")
    alpha = bp("h^9*xi^3 + 2*h^10*xi^2", params)
    beta = bp("h^8*xi^4 - h^5*xi^6", params)
    kernel, terms = quantum._Kernel(qp), quantum._factors(qp, alpha, beta)[1]
    x, y = ([(0, t), (1, quantum._shift(kernel, t))] for t in terms)
    live = [(u, v) for ku, xs in x for u in xs for kv, ys in y for v in ys if ku + kv <= key[1]]
    assert len(live) < sum(map(len, dict(x).values())) * sum(map(len, dict(y).values()))
    grouped = quantum._grouped(kernel, *terms, key[1])
    # warms the ring's memo, as its products recurse when cold
    product_oracle.piece(quantum._Kernel(qp), grouped, key)
    looked_up = _spied_calls(monkeypatch, qp.quotient, "product")
    piece = product_oracle.piece(kernel, grouped, key)
    monkeypatch.undo()
    monos = [tuple(a + b for a, b in zip(u, v)) for u, v in live]
    assert sorted(w for w, in looked_up) == sorted(set(monos))
    assert len(set(monos)) < len(monos) or key[1] == 0  # pairs do share monomials
    expected = groebner_contributions(alpha, beta, qp).get(key, Polynomial.zero(qp.variables))
    assert Polynomial(qp.variables, piece) == expected


def _spied_calls(monkeypatch, owner, name):
    # record the arguments of every call of owner.name; on an immutable
    # record (a ring) the spy shadows the method in the instance dict
    calls = []
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    if isinstance(owner, QuotientRing):
        monkeypatch.setitem(vars(owner), name, spy)
    else:
        monkeypatch.setattr(owner, name, spy)
    return calls


def _warm_queries(params):
    # staircase queries at b = 0 and b = 1 whose classes carry corrections
    qp = quantum_presentation(params, "bundle")
    n, r = params.n, params.r
    h, xi = bp("h", params), bp("xi", params)
    b0 = [
        GWQuery(CurveClass(1, 0), h ** (n - 1) * xi**2, xi ** (r - 1), xi ** (r - 1)),
        GWQuery(CurveClass(1, 0), h**n * xi + h ** (n - 2) * xi**3, xi ** (r - 1), xi ** (r - 1)),
        GWQuery(CurveClass(0, 0), h ** (n - 1) * xi**2, h, xi ** (r - 3)),
    ]
    b1 = [GWQuery(CurveClass(0, 1), h**n * xi, h**2 * xi ** (r - 1), h ** (n - 4) * xi)]
    for query in b0 + b1:
        assert query.admissible
        assert any(t in basis_corrections(qp) for t in query.alpha.terms)
    return qp, b0, b1


def test_a_warm_b0_query_reads_no_basis_correction(monkeypatch):
    # no q2 correction reaches a key with b = 0, so once the rows of its
    # product monomials are built a b = 0 query reads none of the kernel's
    # corrections (a row build reads them, for the rows one q2 level up);
    # a b = 1 query's phi does
    qp, b0, b1 = _warm_queries(derive_params(16, 5))
    expected = [assembled_invariant(query, qp, groebner_contributions) for query in b0 + b1]
    cold = quantum._Kernel(qp)
    cold.corrections = _ReadSpy(quantum._kernel(qp).corrections)
    monkeypatch.setattr(quantum, "_kernel", lambda qp: cold)
    assert [gw_invariant(query, qp) for query in b0] == expected[: len(b0)]
    assert cold.corrections.reads  # the row builds
    monkeypatch.undo()
    assert [gw_invariant(query, qp) for query in b0 + b1] == expected  # builds the rows
    assert any(expected)
    kernel = quantum._kernel(qp)
    corrections = _ReadSpy(kernel.corrections)
    monkeypatch.setattr(kernel, "corrections", corrections)
    calls = _spied_calls(monkeypatch, quantum, "basis_corrections")
    assert [gw_invariant(query, qp) for query in b0] == expected[: len(b0)]
    assert corrections.reads == []
    assert [gw_invariant(query, qp) for query in b1] == expected[len(b0):]
    assert corrections.reads and calls == []


def test_the_model_solve_reads_the_gram_rows():
    # the closure rows read the classical integrals off the ring's pairing:
    # a solve reads the row of each staircase monomial of degree n..top
    params = derive_params(16, 5)
    qp = quantum_presentation(params, "bundle")
    quotient = classical_presentation(params, "bundle").quotient
    original = quotient.gram
    vars(quotient)["gram"] = gram = _ReadSpy(original)
    try:
        corrections = model_corrections(qp)
    finally:
        vars(quotient)["gram"] = original
    assert set(gram.reads) == {
        mono
        for d, monos in quotient.by_degree.items()
        if params.n <= d <= params.top_degree
        for mono in monos
    }
    assert corrections == polynomial_corrections(qp)


def test_gram_rows_match_the_pairing_matrix(grid_params):
    # each row of the ring's one pairing lists the nonzero entries of the
    # staircase monomial's row of pairing_matrix (the bundle top class
    # integrates to 1), as a tuple; the pairing is built once per ring
    cp = classical_presentation(grid_params, "bundle")
    gram, staircase = cp.quotient.gram, cp.quotient.staircase
    assert isinstance(gram, MappingProxyType) and list(gram) == list(staircase)
    for g, entries in zip(staircase, pairing_matrix(cp)):
        row = gram[g]
        assert isinstance(row, tuple) and all(isinstance(e, tuple) for e in row)
        assert row == tuple((t, c) for t, c in zip(staircase, entries) if c)
    assert cp.quotient.gram is gram


def test_the_gram_matches_the_segre_oracle(grid_params):
    # an independent reading of every row: the Segre-series integral of each
    # product of complementary degrees, with no Groebner machinery
    cp = classical_presentation(grid_params, "bundle")
    vs, top, by_degree = cp.variables, grid_params.top_degree, cp.quotient.by_degree
    for s, row in cp.quotient.gram.items():
        x = Polynomial(vs, {s: 1})
        complement = by_degree.get(top - vs.weighted_degree(s), ())
        values = [(u, oracle_integrate(x * Polynomial(vs, {u: 1}), grid_params))
                  for u in complement]
        assert row == tuple((u, v) for u, v in values if v), s


def test_gram_rows_need_one_top_staircase_monomial(params40):
    # the pairing reads its ring's graded staircase: fold the top degree into
    # the one below it, in the cache of a fresh copy of the ring
    cp = classical_presentation(params40, "bundle")
    quotient = QuotientRing(cp.quotient.basis, cp.quotient.staircase)
    folded = dict(quotient.by_degree)
    folded[params40.top_degree - 1] += folded.pop(params40.top_degree)
    quotient.__dict__["by_degree"] = folded
    with pytest.raises(CheckFailure, match="3 staircase monomials of top degree, expected 1"):
        quotient.gram


def test_the_pairing_matrix_and_the_query_kernel_read_one_pairing_build(monkeypatch):
    # a cold classical bundle ring builds its pairing once: pairing_matrix,
    # verify and a fresh query kernel's row builds all read that one build,
    # and no query seeds the classical ring's product memo
    from qcblowup import geometry

    params = derive_params(11, 3)
    qp = quantum_presentation(params, "bundle")
    ring, blowup = (classical_presentation(params, c).quotient for c in ("bundle", "blowup"))
    builds, models, original = [], [], QuotientRing.gram.func

    def spy(quotient):
        builds.append(quotient)
        return original(quotient)

    gram = cached_property(spy)
    gram.__set_name__(QuotientRing, "gram")
    monkeypatch.setattr(QuotientRing, "gram", gram)
    seed = QuotientRing._products.func
    products = cached_property(lambda q: (models.append(q), seed(q))[1])
    products.__set_name__(QuotientRing, "_products")
    monkeypatch.setattr(QuotientRing, "_products", products)
    for quotient in (ring, blowup):
        vars(quotient).pop("gram", None)
    for quotient in (ring, qp.quotient):
        vars(quotient).pop("_products", None)
    assert geometry.pairing_matrix(classical_presentation(params, "bundle"))
    cold = quantum._Kernel(qp)
    monkeypatch.setattr(quantum, "_kernel", lambda qp: cold)
    qp_blowup = quantum_presentation(params, "blowup")
    rng = random.Random(113)
    for query in _ladder_queries(rng, params, qp.variables, 12):
        gw_invariant(query, qp)
    for query in _ladder_queries(rng, params, qp_blowup.variables, 12):
        gw_invariant(query, qp_blowup)
    assert verify_classical_geometry(params).ok  # its pairing_matrix builds the blow-up one
    assert cold.paired_rows and builds == [ring, blowup]
    assert [q is qp.quotient for q in models] == [True]  # the deformed ring's memo only


# -- verification suites --------------------------------------------------------------


def test_deformed_correspondence_reuses_the_presentation_bases(monkeypatch, params81):
    # no basis: both inclusions reduce by the bases the presentations hold,
    # and the classical relations are read off the classical presentations
    from qcblowup import geometry

    verify_quantum_presentation(params81)
    calls = {"buchberger": 0, "classical_relations": 0}
    for name in calls:
        original = getattr(geometry, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(geometry, name, counted)
    assert verify_quantum_presentation(params81).ok
    assert calls == {"buchberger": 0, "classical_relations": 0}


def test_gw_identity_suite_entries(params40):
    report = verify_gw_identities(params40, b_max=2)
    assert report.ok, [e.name for e in report.failures()]
    r = params40.r
    expected = [("fiber_point_count", "value 1")]
    for j in range(1, params40.n + 1):
        expected += [
            (f"exceptional_point_count[j={j}]", "value 1"),
            (f"exceptional_section_count[j={j}]", f"value {r - 1}, expected {r - 1}"),
            (f"exceptional_combination_vanishes[j={j}]", "value 0"),
        ]
    expected += [
        ("fiber_multiple_vanishing[b=1]", "26 basis pairs checked"),
        ("fiber_multiple_vanishing[b=2]", "36 basis pairs checked"),
        ("deformed_base_relation", "h^4 -> xi*q2 - 2*h*q2"),
        ("deformed_fiber_relation", "-> q1"),
    ]
    assert [(e.name, e.detail) for e in report.entries] == expected


def test_gw_identity_suite_81(params81):
    report = verify_gw_identities(params81, b_max=1)
    assert report.ok
    values = {
        e.name: e.detail for e in report.entries if "section_count" in e.name
    }
    assert all("value 2" in d for d in values.values())  # r - 1 = 2


def test_gw_identity_suite_refuses_out_of_range():
    with pytest.raises(UsageError):
        verify_gw_identities(derive_params(5, 1))
    with pytest.raises(UsageError):
        verify_gw_identities(derive_params(4, 0), b_max=0)


def test_quantum_presentation_suite(grid_params):
    report = verify_quantum_presentation(grid_params)
    assert report.ok, [e.name for e in report.failures()]


def test_only_the_symmetry_sweep_builds_the_product_table(monkeypatch):
    # the gw identities and the specialization check read the ring models
    # and single pieces, never a whole product; each symmetry sweep (a test
    # oracle) multiplies every basis pair i <= j once through the public
    # product, and keeps no table for the next sweep
    params = derive_params(8, 1)
    products = _spied_calls(monkeypatch, quantum, "quantum_product")
    assert verify_gw_identities(params).ok
    assert verify_quantum_presentation(params).ok
    assert products == []
    products = _spied_calls(monkeypatch, product_oracle, "quantum_product")
    for sweep in (params, params, derive_params(6, 1)):
        del products[:]
        assert verify_s3_symmetry(sweep).ok
        rank = quantum_presentation(sweep, "bundle").quotient.rank
        assert len(products) == rank * (rank + 1) // 2


def _entries(report, *names):
    return {e.name: (e.passed, e.detail) for e in report.entries if e.name in names}


IN_RANGE_GRID = [(m, p) for m in range(4, 13) for p in range(4) if 2 * p + 3 < m]


SWEPT = IN_RANGE_GRID + [(16, 5), (20, 4)]  # and two instances beyond the grid


@pytest.mark.parametrize("m, p", SWEPT, ids=[f"m{m}p{p}" for m, p in SWEPT])
def test_per_monomial_checks_match_the_pair_sweeps(m, p):
    # one read per product monomial gives the entries of the pair-by-pair sweeps
    params = derive_params(m, p)
    qp = quantum_presentation(params, "bundle")
    fiber = _entries(verify_gw_identities(params, b_max=3), *(
        f"fiber_multiple_vanishing[b={b}]" for b in (1, 2, 3)))
    assert fiber == {
        f"fiber_multiple_vanishing[b={b}]": pair_sweep_oracle.fiber_multiple_vanishing(qp, b)
        for b in (1, 2, 3)
    }
    assert _entries(verify_quantum_presentation(params), "product_specialization") == {
        "product_specialization": pair_sweep_oracle.product_specialization(qp)
    }


def _assert_patched_pairs_are_named(monkeypatch, params, b):
    # change the (0, 0) piece of one product monomial w and the (b, 0) piece
    # of another in the deformed ring: every basis pair with that product is
    # named, as by the pair-by-pair sweeps, with the same detail
    qp = quantum_presentation(params, "bundle")
    ring, r = qp.quotient, params.r
    staircase = qp.quotient.staircase
    pairs = [(i, j, mono_mul(staircase[i], staircase[j]))
             for i in range(len(staircase)) for j in range(i, len(staircase))]
    for _, _, w in pairs:
        ring.product(w)  # memoised first, so no product is composed from a patched one
    shared = [w for w in dict.fromkeys(w for _, _, w in pairs)
              if sum(v == w for _, _, v in pairs) > 1]
    special = shared[len(shared) // 2]
    fiber = next(w for w in shared if w[0] < b * r and w != special)
    t = qp.quotient.staircase[0]
    for w, key in ((special, (0, 0)), (fiber, (b, 0))):
        vec = {k: dict(piece) for k, piece in ring.product(w).items()}
        vec.setdefault(key, {})[t] = vec.get(key, {}).get(t, 0) + 5
        monkeypatch.setitem(ring._products, w, vec)
    names = [f"fiber_multiple_vanishing[b={c}]" for c in range(1, b + 1)]
    quantum._kernels.clear()  # no kernel row is built from a patched product
    try:
        fiber_entries = _entries(verify_gw_identities(params, b_max=b), *names)
        special_entries = _entries(verify_quantum_presentation(params), "product_specialization")
    finally:
        quantum._kernels.clear()
    assert fiber_entries == {
        name: pair_sweep_oracle.fiber_multiple_vanishing(qp, c) for c, name in enumerate(names, 1)
    }
    assert special_entries == {
        "product_specialization": pair_sweep_oracle.product_specialization(qp)
    }
    for (passed, detail), w in ((fiber_entries[names[-1]], fiber),
                                (special_entries["product_specialization"], special)):
        assert not passed
        assert detail.count(" * ") == sum(v == w for _, _, v in pairs) > 1


def test_a_patched_product_monomial_names_the_pairs_of_the_sweeps(monkeypatch, params81):
    _assert_patched_pairs_are_named(monkeypatch, params81, 1)


@pytest.mark.parametrize("m, p", [(16, 5), (20, 4)], ids=["m16p5", "m20p4"])
def test_patched_product_monomials_name_the_pairs_beyond_the_grid(monkeypatch, m, p):
    _assert_patched_pairs_are_named(monkeypatch, derive_params(m, p), 3)


def test_passing_suites_form_no_basis_pair(monkeypatch):
    # rank, not rank^2: the suites read each product monomial of the
    # column walk, and multiply no pair of staircase monomials unless
    # some piece has failed
    calls = _spied_calls(monkeypatch, suites, "mono_mul")
    for m, p in ((8, 1), (16, 5), (20, 4)):
        params = derive_params(m, p)
        assert verify_gw_identities(params, b_max=3).ok
        assert verify_quantum_presentation(params).ok
    assert calls == []


def test_the_column_walk_lists_the_products_of_every_staircase():
    # every staircase is the down-set of its column sizes by xi degree, and
    # the walk over pairs of columns lists each product s*u once
    walked = 0
    for m in range(2, 14):
        for p in range(m - 1):
            params = derive_params(m, p)
            for build in (classical_presentation, quantum_presentation):
                for coords in ("bundle", "blowup"):
                    staircase = build(params, coords).quotient.staircase
                    columns = Counter(s[0] for s in staircase)
                    assert set(staircase) == {
                        (x, e, 0, 0) for x, c in columns.items() for e in range(c)}
                    products = suites._product_monomials(columns)
                    assert len(products) == len(set(products))
                    assert set(products) == {mono_mul(s, u) for s in staircase for u in staircase}
                    walked += 1
    assert walked == 312


def test_ring_products_hold_no_zero_and_no_empty_piece():
    # a composed product drops the terms that cancel, and the pieces they empty
    for m in range(2, 13):
        for p in range(m - 1):
            params = derive_params(m, p)
            for build in (classical_presentation, quantum_presentation):
                ring = build(params, "bundle").quotient
                for w in suites._product_monomials(Counter(s[0] for s in ring.staircase)):
                    ring.product(w)
                for w, vec in ring._products.items():
                    assert all(piece and all(piece.values()) for piece in vec.values()), w


def test_table_pieces_without_q2_are_the_model_products(grid_params):
    # the product table is the oracle of the verify suites' ring reads: its
    # (b, 0) pieces are the deformed ring's products of the staircase pairs
    qp = quantum_presentation(grid_params, "bundle")
    staircase, ring = qp.quotient.staircase, qp.quotient
    for (i, j), pieces in staircase_products(qp).items():
        product = ring.product(tuple(x + y for x, y in zip(staircase[i], staircase[j])))
        for b in range(3):
            expected = {t: c for t, c in product.get((b, 0), {}).items() if c}
            piece = pieces.get((b, 0))
            assert (piece.terms if piece else {}) == expected, (i, j, b)
            assert pair_sweep_oracle.model_piece(ring, staircase[i], staircase[j], (b, 0)) == expected


def _assert_table_matches_oracle(qp):
    polys = qp.quotient.staircase_polynomials()
    table = staircase_products(qp)
    pairs = [(i, j) for i in range(len(polys)) for j in range(i, len(polys))]
    assert list(table) == pairs
    for i, j in pairs:
        expected = groebner_contributions(polys[i], polys[j], qp)
        assert list(table[(i, j)]) == list(expected), (polys[i], polys[j])
        for key, piece in expected.items():
            assert table[(i, j)][key] == piece, (polys[i], polys[j], key)


def test_product_table_matches_contributions(grid_params):
    # the public product of every basis pair against its Groebner product
    _assert_table_matches_oracle(quantum_presentation(grid_params, "bundle"))


def _random_class(rng, vs, staircase, top):
    # one to three terms, on or off the staircase, some with rational coefficients
    terms = {}
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            mono = rng.choice(staircase)
        else:
            a = rng.randint(0, top)
            mono = (a, rng.randint(0, top - a), 0, 0)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[mono] = Fraction(c, rng.choice([2, 3])) if rng.random() < 0.15 else c
    return Polynomial(vs, terms)


@pytest.mark.parametrize("m", range(2, 13))
def test_contributions_match_the_groebner_product(m):
    # the ring-model routine against the Groebner assembly, by value and key
    # order, on seeded queries over every (m, p) and both coordinate systems
    rng = random.Random(m)
    for p in range(m - 1):
        params = derive_params(m, p)
        for coords in ("bundle", "blowup"):
            qp = quantum_presentation(params, coords)
            staircase = classical_presentation(params, coords).quotient.staircase
            for _ in range(15):
                x, y = (
                    _random_class(rng, qp.variables, staircase, params.top_degree)
                    for _ in range(2)
                )
                expected = groebner_contributions(x, y, qp)
                got = contributions(x, y, qp)
                assert list(got) == list(expected), (m, p, coords, x, y)
                assert got == expected, (m, p, coords, x, y)


PRODUCT_INSTANCES = [(2, 0), (3, 1), (4, 0), (5, 2), (6, 1), (8, 1), (9, 2), (11, 3), (16, 5)]


def test_quantum_product_matches_the_budget_oracle():
    # the row walk against one piece per curve class in the degree budget,
    # on 1,080 seeded pairs in both coordinate systems, n = 1 rings included
    rng = random.Random(2025)
    seen = {"pairs": 0, "fraction": 0, "q2": 0, "formal": 0}
    for m, p in PRODUCT_INSTANCES:
        params = derive_params(m, p)
        for coords in ("bundle", "blowup"):
            qp = quantum_presentation(params, coords)
            staircase = classical_presentation(params, coords).quotient.staircase
            for _ in range(60):
                x, y = (
                    _random_class(rng, qp.variables, staircase, params.top_degree)
                    for _ in range(2)
                )
                product = quantum_product(x, y, qp)
                assert str(product) == str(product_oracle.budget_product(x, y, qp)), (x, y)
                seen["pairs"] += 1
                seen["fraction"] += any(type(c) is Fraction for c in product.terms.values())
                seen["q2"] += any(mono[3] for mono in product.terms)
                seen["formal"] += params.n == 1
    assert seen["pairs"] == 1080 and seen["formal"] == 240
    assert seen["fraction"] > 100 and seen["q2"] > 100


README_GRID = [(m, p) for m in range(4, 13) for p in range(4) if 2 * p + 3 < m]


@pytest.mark.parametrize(
    "m, p", LADDER + README_GRID, ids=[f"m{m}p{p}" for m, p in LADDER + README_GRID]
)
def test_quantum_product_matches_both_oracles(m, p):
    # one correction step on the summed model products against the budget
    # oracle's own step and the Groebner assembly, on seeded pairs in both
    # coordinate systems
    params = derive_params(m, p)
    rng = random.Random(7 * m + p)
    for coords in ("bundle", "blowup"):
        qp = quantum_presentation(params, coords)
        staircase = classical_presentation(params, coords).quotient.staircase
        for _ in range(12):
            x, y = (_random_class(rng, qp.variables, staircase, params.top_degree) for _ in "xy")
            product = quantum_product(x, y, qp)
            assert product == product_oracle.budget_product(x, y, qp), (coords, x, y)
            assert decompose_contributions(product) == groebner_contributions(x, y, qp)


def test_the_budget_oracle_sees_a_product_without_its_correction_step(monkeypatch):
    # the oracle applies 1 - q2*C itself, so a kernel step that returns the
    # naive pieces makes quantum_product differ from it, at a q2 power of 1
    # or more, on a share of the basis pairs at (11, 3) in both coordinate
    # systems
    params = derive_params(11, 3)
    cases = []
    for coords in ("bundle", "blowup"):
        qp = quantum_presentation(params, coords)
        polys = classical_presentation(params, coords).quotient.staircase_polynomials()
        cases += [(x, y, qp) for i, x in enumerate(polys) for y in polys[i:]]
    expected = [product_oracle.budget_product(*case) for case in cases]
    assert [quantum_product(*case) for case in cases] == expected
    monkeypatch.setattr(
        quantum._Kernel, "corrected",
        lambda kernel, vec: {key: row for key, piece in vec.items()
                             if (row := {t: c for t, c in piece.items() if c})},
    )
    naive = [quantum_product(*case) for case in cases]
    differ = {(x, y, qp.coords) for (x, y, qp), a, b in zip(cases, naive, expected) if a != b}
    assert {coords for *_, coords in differ} == {"bundle", "blowup"}
    assert len(cases) / 10 < len(differ) < len(cases)
    assert all(mono[3] for a, b in zip(naive, expected) for mono in (a - b).terms)


def test_products_and_invariants_leave_the_model_memo_as_it_was():
    # quantum_product sums the deformed ring's memoised vectors and the
    # kernel's step corrects them: over a seeded sample at (11, 3) in both
    # coordinate systems, every memoised vector stays what a fresh ring
    # computes, and a second pass changes none of them
    import copy

    params = derive_params(11, 3)
    rng = random.Random(1131)
    batch = []
    for coords in ("bundle", "blowup"):
        qp = quantum_presentation(params, coords)
        batch += [(query, qp) for query in _ladder_queries(rng, params, qp.variables, 24)]
    quotient = quantum_presentation(params, "bundle").quotient

    def run():
        return [
            (quantum_product(query.alpha, query.beta, qp), gw_invariant(query, qp))
            for query, qp in batch
        ]

    expected = run()
    memo = copy.deepcopy(quotient._products)
    fresh = staircase_basis(quotient.basis)
    assert memo and all(fresh.product(w) == vector for w, vector in memo.items())
    assert run() == expected
    assert quotient._products == memo


def test_product_specialization_matches_classical_normal_forms(grid_params):
    # the (0, 0) piece of each table entry against a Polynomial product and a
    # classical normal form
    qp = quantum_presentation(grid_params, "bundle")
    cp = classical_presentation(grid_params, "bundle")
    polys = qp.quotient.staircase_polynomials()
    zero = Polynomial.zero(qp.variables)
    for (i, j), pieces in staircase_products(qp).items():
        assert pieces.get((0, 0), zero) == cp.quotient.normal_form(polys[i] * polys[j])


def test_product_table_takes_two_normal_forms_per_basis_class():
    # the solve and the sweep read one product memo per ring; only xi*s and
    # h*s are normal-formed, in the deformed and in the classical ring
    qp = quantum_presentation(derive_params(11, 3), "bundle")
    cp = classical_presentation(qp.params, "bundle")
    basis_corrections.cache_clear()
    quantum._kernels.clear()  # a kernel keeps the products it read
    for pres in (qp, cp):
        vars(pres.quotient).pop("_products", None)
    memos = [pres.quotient.basis._nf_memo for pres in (qp, cp)]
    for memo in memos:
        memo.clear()
    basis_corrections(qp)
    seeded = [pres.quotient._products for pres in (qp, cp)]
    assert verify_s3_symmetry(qp.params).ok
    assert all(pres.quotient._products is memo for pres, memo in zip((qp, cp), seeded))
    for memo in memos:
        assert 0 < len(memo) <= 2 * qp.quotient.rank


IN_RANGE_TO_20 = [(m, p) for m in range(4, 21) for p in range(m - 1) if 2 * p + 3 < m]


@pytest.mark.parametrize("m, p", IN_RANGE_TO_20, ids=[f"m{m}p{p}" for m, p in IN_RANGE_TO_20])
def test_basis_corrections_match_the_polynomial_assembly(m, p):
    # the closed form against both divisor routes with their two-point
    # unknowns, built from Groebner products
    qp = quantum_presentation(derive_params(m, p), "bundle")
    expected = polynomial_corrections(qp)
    corrections = basis_corrections(qp)
    assert list(corrections) == list(expected)
    assert corrections == expected


MODEL_SOLVES = IN_RANGE_TO_20 + [(24, 6), (32, 8), (40, 10), (48, 12), (64, 16)]


@pytest.mark.parametrize("m, p", MODEL_SOLVES, ids=[f"m{m}p{p}" for m, p in MODEL_SOLVES])
def test_basis_corrections_match_the_model_solve(m, p):
    # the closed form against the reduced system read from the ring models
    qp = quantum_presentation(derive_params(m, p), "bundle")
    expected = model_corrections(qp)
    corrections = basis_corrections(qp)
    assert list(corrections) == list(expected)
    assert corrections == expected


IN_RANGE_TO_12 = [(m, p) for m, p in IN_RANGE_TO_20 if m <= 12]


@pytest.mark.parametrize("m, p", IN_RANGE_TO_12, ids=[f"m{m}p{p}" for m, p in IN_RANGE_TO_12])
def test_divisor_multiplication_is_self_adjoint(m, p):
    # <D, x, y>_beta is symmetric in x and y, so xi* and h* are self-adjoint
    # for the classical pairing at every curve class
    qp = quantum_presentation(derive_params(m, p), "bundle")
    assert symmetry_oracle.divisor_asymmetries(qp) == []


def test_doubled_corrections_break_the_self_adjointness(monkeypatch):
    # every correction doubled: the products stop being self-adjoint
    original = quantum.basis_corrections
    monkeypatch.setattr(
        quantum, "basis_corrections",
        lambda qp: MappingProxyType({s: 2 * c for s, c in original(qp).items()}),
    )
    quantum._kernels.clear()  # no kernel keeps the doubled corrections
    try:
        counts = [
            len(symmetry_oracle.divisor_asymmetries(
                quantum_presentation(derive_params(m, p), "bundle")))
            for m, p in LADDER[:3]
        ]
    finally:
        quantum._kernels.clear()
    assert counts == [26, 64, 118]


N_EQUALS_ONE = [(2, 0), (3, 1), (4, 2), (5, 3)]


@pytest.mark.parametrize("m, p", N_EQUALS_ONE, ids=[f"m{m}p{p}" for m, p in N_EQUALS_ONE])
def test_ring_model_reads_normal_forms_where_a_parameter_leads(monkeypatch, m, p):
    # n = 1: the deformed basis leads with xi*q2, so staircase classes times
    # q-powers are not normal forms and the rows would be wrong; a fresh ring
    # seeds no row and reads every product off its own normal form, and the
    # table still equals the oracle
    qp = quantum_presentation(derive_params(m, p), "bundle")
    vs = qp.variables
    assert (1, 0, 0, 1) in qp.quotient.basis.leading_monomials()
    ring = staircase_basis(qp.quotient.basis)
    reads = _spied_calls(monkeypatch, ring, "_read")
    staircase, monos = ring.staircase, []
    for i, s in enumerate(staircase):
        for t in staircase[i:]:
            monos.append(mono := tuple(a + b for a, b in zip(s, t)))
            got = Polynomial.zero(vs)
            for (a, b), piece in ring.product(mono).items():
                for u, c in piece.items():
                    got = got + Polynomial(vs, {(u[0], u[1], a, b): c})
            assert got == qp.quotient.normal_form(Polynomial(vs, {mono: 1})), mono
    off = list(dict.fromkeys(mono for mono in monos if mono not in ring.staircase_set))
    assert off and [mono for mono, in reads] == off
    assert len(ring._products) == ring.rank + len(off)
    _assert_table_matches_oracle(qp)


def test_an_n_one_product_is_formal_and_reaches_above_the_top_degree():
    # m = p + 2: the deformed staircase is not the classical one, and the
    # product's pieces lie over it, as the quantum_product docstring says
    params = derive_params(2, 0)
    qp = quantum_presentation(params, "bundle")
    assert (qp.quotient.rank, classical_presentation(params, "bundle").quotient.rank) == (6, 4)
    product = quantum_product(bp("-2*xi^2", params), bp("3*xi^2 + xi", params), qp)
    assert product.coefficient((0, 3, 0, 0)) == -6  # -6*h^3, above the top degree 2
    assert params.top_degree == 2
    assert not qp.certified


def test_s3_symmetry_needs_the_classical_staircase(monkeypatch, params40):
    qp = quantum_presentation(params40, "bundle")
    quotient = QuotientRing(qp.quotient.basis, qp.quotient.staircase[:-1])
    short = Presentation(qp.coords, qp.params, qp.quantum, qp.relations, quotient)
    monkeypatch.setattr(symmetry_oracle, "quantum_presentation", lambda params, coords: short)
    with pytest.raises(CheckFailure):
        verify_s3_symmetry(params40)


def test_gram_pairings_match_integrals(grid_params):
    # the symmetry sweep pairs each table piece with b_k as (piece . G)_k
    qp = quantum_presentation(grid_params, "bundle")
    cp = classical_presentation(grid_params, "bundle")
    staircase = cp.quotient.staircase
    polys = cp.quotient.staircase_polynomials()
    gram = dict(zip(staircase, pairing_matrix(cp)))
    top = grid_params.top_degree
    for pieces in staircase_products(qp).values():
        for piece in pieces.values():
            paired = [0] * len(polys)
            for s, c in piece.terms.items():
                for k, g in enumerate(gram[s]):
                    paired[k] += c * g
            for k, bk in enumerate(polys):
                if piece.homogeneous_degree() + sum(staircase[k]) == top:
                    assert paired[k] == integrate(piece * bk, grid_params)
                else:
                    assert paired[k] == 0


def test_equal_presentations_hash_equal_and_share_cache_entries():
    params = derive_params(8, 1)
    qp = quantum_presentation(params, "bundle")
    # a budget the ring's Buchberger run stays within reads the cached ring;
    # an equal ring built again is another object with the same hash
    assert quantum_presentation(params, "bundle", max_degree=50) is qp
    budgeted = _build(params, "bundle", True, max_degree=50)
    assert budgeted is not qp and budgeted == qp and hash(budgeted) == hash(qp)
    basis_corrections.cache_clear()
    basis_corrections(qp)
    basis_corrections(budgeted)
    basis_corrections(qp)
    info = basis_corrections.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    basis_corrections(quantum_presentation(params, "blowup"))
    info = basis_corrections.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)


def test_quantum_presentation_suite_refuses_out_of_range():
    with pytest.raises(UsageError):
        verify_quantum_presentation(derive_params(5, 1))


def test_s3_symmetry_40(params40):
    report = verify_s3_symmetry(params40)
    assert report.ok, [e.detail for e in report.failures()]


DOUBLED = [(6, 0, 1), (8, 1, 3), (11, 3, 10)]


@pytest.mark.parametrize("m, p, count", DOUBLED, ids=[f"m{m}p{p}" for m, p, _ in DOUBLED])
def test_the_sweep_fails_when_one_basis_correction_is_doubled(monkeypatch, m, p, count):
    # every product reads the corrections of its factors, so doubling any
    # one of them breaks the symmetry of the extracted invariants
    params = derive_params(m, p)
    corrections = basis_corrections(quantum_presentation(params, "bundle"))
    assert len(corrections) == count
    for mono, correction in corrections.items():
        doubled = MappingProxyType({**corrections, mono: 2 * correction})
        monkeypatch.setattr(quantum, "basis_corrections", lambda qp: doubled)
        quantum._kernels.clear()  # a new kernel reads the doubled correction
        report = verify_s3_symmetry(params)
        assert [e.name for e in report.failures()] == ["s3_symmetry"], mono
    monkeypatch.undo()
    quantum._kernels.clear()
    assert verify_s3_symmetry(params).ok


# -- classes outside the staircase ------------------------------------------------------


def _slot_values(curve, classes, qp):
    a, b, c = classes
    return [
        gw_invariant(GWQuery(curve, *slots), qp)
        for slots in ((a, b, c), (b, c, a), (c, a, b), (b, a, c))
    ]


def test_blowup_classes_are_reduced_before_extraction():
    from qcblowup import blowup_variables

    params = derive_params(6, 1)
    qp = quantum_presentation(params, "blowup")
    kv = blowup_variables(params.r, params.n)
    classes = [Polynomial.parse(kv, t) for t in ("k*eta^4", "k^3", "k")]
    assert _slot_values(CurveClass(1, 0), classes, qp) == [-1] * 4


def test_bundle_classes_outside_the_staircase_are_slot_symmetric():
    params = derive_params(6, 1)
    qp = quantum_presentation(params, "bundle")
    classes = [bp(t, params) for t in ("xi^3", "h", "h^3*xi^2")]
    values = _slot_values(CurveClass(1, 0), classes, qp)
    assert len(set(values)) == 1
    # xi^3 reduces to its staircase expansion, which gives the same value
    reduced = classical_presentation(params, "bundle").quotient.normal_form(classes[0])
    assert gw_invariant(GWQuery(CurveClass(1, 0), reduced, *classes[1:]), qp) == values[0]


def test_zero_class_gives_zero():
    # h^(n+1) vanishes classically but not in the deformed ring
    params = derive_params(6, 1)
    qp = quantum_presentation(params, "bundle")
    zero, one, gamma = bp("h^5", params), Polynomial.one(qp.variables), bp("h^4*xi", params)
    assert gw_invariant(GWQuery(CurveClass(0, 1), zero, one, gamma), qp) == 0
    assert gw_invariant(GWQuery(CurveClass(0, 1), one, zero, gamma), qp) == 0
    assert quantum_product(zero, one, qp).is_zero


@pytest.mark.parametrize("coords", ["bundle", "blowup"])
def test_classes_above_the_top_degree_are_never_reduced(monkeypatch, coords):
    # xi^200 (k^200) is zero in cohomology: nothing reduces or translates it
    from qcblowup import geometry, groebner

    params = derive_params(4, 0)
    qp = quantum_presentation(params, coords)
    vs = qp.variables
    x, y = (Polynomial.variable(vs, name) for name in vs.names[:2])
    one, point = Polynomial.one(vs), x * y**3
    gw_invariant(GWQuery(CurveClass(1, 0), x, x, point), qp)  # builds the models
    seen = []
    # a blow-up class reaches bundle coordinates through geometry._in_coords
    for module, name in ((groebner, "normal_form"), (geometry, "change_vars")):
        original = getattr(module, name)

        def spy(f, *args, original=original):
            seen.append(f.weighted_degree())
            return original(f, *args)

        monkeypatch.setattr(module, name, spy)
    high = x**200
    assert gw_invariant(GWQuery(CurveClass(100, 0), high, one, point), qp) == 0
    assert gw_invariant(GWQuery(CurveClass(100, 0), one, high, point), qp) == 0
    assert contribution_by_class(high + x, y, 1, 0, qp) == contribution_by_class(x, y, 1, 0, qp)
    assert class_representative(high + point, qp) == class_representative(point, qp)
    assert max(seen, default=0) <= params.top_degree
    # the spies do see a reduction and a translation of such a class
    assert classical_presentation(params, coords).quotient.normal_form(high).is_zero
    assert seen[-1] == 200
    if coords == "blowup":
        seen.clear()
        geometry._in_coords(high, "bundle")
        assert seen == [200]


def test_presentations_are_built_once_per_key():
    params = derive_params(4, 0)
    for build in (quantum_presentation, classical_presentation):
        assert build(params) is build(params, "blowup", max_degree=None)
        assert build(params, "bundle", max_degree=20) is build(params, "bundle", max_degree=20)
        assert build(params, "bundle", max_degree=20) == build(params, "bundle")
    # one type for both rings: distinct per key, told apart by ``quantum``
    for params in (derive_params(4, 0), derive_params(5, 1)):
        for coords in ("bundle", "blowup"):
            classical = classical_presentation(params, coords)
            deformed = quantum_presentation(params, coords)
            assert classical is not deformed and type(classical) is type(deformed)
            assert (classical.quantum, deformed.quantum) == (False, True)
            assert classical.certified
            assert deformed.certified == params.in_range


def test_a_ring_a_raised_budget_built_is_the_one_every_reader_gets(monkeypatch):
    # h^9, a generator of the bundle rings at (10,1), is above a default
    # budget of 8
    from qcblowup import BudgetError, geometry, groebner

    params = derive_params(10, 1)
    geometry._rings.clear()
    basis_corrections.cache_clear()
    quantum._kernels.clear()
    monkeypatch.setattr(groebner, "DEFAULT_MAX_DEGREE", 8)
    with pytest.raises(BudgetError, match="generator degree 9 exceeds budget 8"):
        classical_presentation(params, "bundle")
    built = classical_presentation(params, "bundle", max_degree=12).quotient
    qp = quantum_presentation(params, "bundle", max_degree=12)
    reduced_in = []
    normal_form = QuotientRing.normal_form
    monkeypatch.setattr(
        QuotientRing, "normal_form", lambda ring, f: reduced_in.append(ring) or normal_form(ring, f)
    )
    assert integrate(bp("h^8*xi^2", params), params) == 1
    assert reduced_in == [built] and reduced_in[0] is built
    assert classical_presentation(params, "bundle").quotient is built
    assert quantum._kernel(qp).classical is built
    with pytest.raises(BudgetError, match="generator degree 9 exceeds budget 8"):
        classical_presentation(params, "bundle", max_degree=8)


def test_a_rebuilt_ring_gets_its_own_kernel():
    # a kernel is tied to the presentation it serves: once the rings are
    # dropped and built again, both coordinate systems read one new kernel,
    # over the new deformed and classical bundle rings, and a query fills it
    from qcblowup import geometry

    params = derive_params(11, 3)
    old = quantum._kernel(quantum_presentation(params, "blowup"))
    assert old is quantum._kernel(quantum_presentation(params, "bundle"))
    geometry._rings.clear()
    qp, qpb = (quantum_presentation(params, coords) for coords in ("bundle", "blowup"))
    assert qp == old.qp and qp is not old.qp
    kernel = quantum._kernel(qpb)
    assert kernel is quantum._kernel(qp) and kernel is not old
    assert kernel.qp is qp
    assert kernel.classical is classical_presentation(params, "bundle").quotient
    h, xi = bp("h", params), bp("xi", params)
    point = h**params.n * xi ** (params.r - 1)
    assert gw_invariant(GWQuery(CurveClass(1, 0), xi, xi ** (params.r - 1), point), qp) == 1
    assert kernel.paired_rows and quantum._kernel(qp) is kernel


def test_extraction_rejects_the_classical_presentation():
    params = derive_params(8, 1)
    xi = bp("xi", params)
    query = GWQuery(CurveClass(1, 0), xi, xi**2, bp("h^6*xi^2", params))
    for coords in ("bundle", "blowup"):
        cp = classical_presentation(params, coords)
        with pytest.raises(UsageError):
            gw_invariant(query, cp)
    with pytest.raises(UsageError):
        quantum_product(xi, xi, classical_presentation(params, "bundle"))
    assert gw_invariant(query, quantum_presentation(params, "bundle")) == 1
