"""Deformed presentations, quantum products and invariant extraction."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qcblowup import (
    CheckFailure,
    CurveClass,
    GWQuery,
    Polynomial,
    UsageError,
    basis_corrections,
    bundle_variables,
    class_representative,
    classical_presentation,
    contribution_by_class,
    derive_params,
    gw_invariant,
    integrate,
    pairing_matrix,
    quantum_presentation,
    quantum_product,
    quantum_relations,
    verify_gw_identities,
    verify_quantum_presentation,
    verify_s3_symmetry,
)
from qcblowup import quantum
from qcblowup.linalg import eliminate
from qcblowup.quantum import _contributions, _staircase_products

from correction_oracle import polynomial_corrections
from invariant_oracle import assembled_invariant
from product_oracle import groebner_contributions


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


def test_basis_corrections_refuse_a_non_integral_solution(monkeypatch, params40):
    # halving the right-hand side halves the correction -(xi - 2h) of h^3*xi
    qp = quantum_presentation(params40, "bundle")

    def halved(rows, ncols):
        rows = [{c: Fraction(v, 2) if c == ncols else v for c, v in row.items()} for row in rows]
        return eliminate(rows, ncols)

    monkeypatch.setattr(quantum, "eliminate", halved)
    basis_corrections.cache_clear()
    with pytest.raises(CheckFailure, match=r"non-integral basis correction -1/2\*xi for h\^3\*xi"):
        basis_corrections(qp)
    assert basis_corrections.cache_info().currsize == 0


def test_the_solve_has_no_two_point_unknowns(monkeypatch):
    # one row per (class, component) from the divisor xi - h, plus the
    # closure rows, over the correction unknowns alone: at (16,5) the two
    # divisor routes with their two-point unknowns took 280 rows x 202
    shapes = []

    def spy(rows, ncols):
        rows = list(rows)
        shapes.append((len(rows), ncols))
        return eliminate(rows, ncols)

    monkeypatch.setattr(quantum, "eliminate", spy)
    basis_corrections.cache_clear()
    basis_corrections(quantum_presentation(derive_params(16, 5), "bundle"))
    assert shapes == [(162, 84)]


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
    cp = classical_presentation(params, "bundle")
    assert integrate(bp("xi - 2*h", params) * bp("h^2*xi", params), cp) == 1


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
        cp = classical_presentation(params, "bundle")
        assert integrate(piece * one, cp) == 0


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


def test_a_warm_query_reads_each_weighted_degree_once(monkeypatch):
    # one validation pass per class: the degree of each class term is
    # computed at most once, none of it again for the bookkeeping
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
    for query, value in zip(queries, expected):
        calls.clear()
        classes = (query.alpha, query.beta, query.gamma)
        assert all(set(c.terms) <= qp.quotient.staircase_set for c in classes)
        assert gw_invariant(query, qp) == value
        assert calls and Counter(calls) <= Counter(t for c in classes for t in c.terms)


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


def test_gw_invariant_matches_the_whole_product_assembly(grid_params):
    # the same assembly on the ring-model product routine, over staircase triples
    qp = quantum_presentation(grid_params, "bundle")
    polys = qp.quotient.staircase_polynomials()
    top, r, n = grid_params.top_degree, grid_params.r, grid_params.n
    for i, x in enumerate(polys):
        for y in polys[i:]:
            for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
                d = x.homogeneous_degree() + y.homogeneous_degree() - r * a - n * b
                for z in polys:
                    if 0 <= d <= top and z.homogeneous_degree() == top - d:
                        query = GWQuery(CurveClass(a, b), x, y, z)
                        assert gw_invariant(query, qp) == assembled_invariant(query, qp)


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


# -- verification suites --------------------------------------------------------------


def test_deformed_correspondence_reuses_the_presentation_bases(monkeypatch, params81):
    # one basis, of the mapped relations; the classical relations are read
    # off the classical presentations
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
    assert calls == {"buchberger": 1, "classical_relations": 0}


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


def test_only_the_symmetry_sweep_builds_the_product_table():
    # the gw identities and the specialization check read the ring models;
    # the symmetry sweep builds the table, and a second sweep shares it
    _staircase_products.cache_clear()
    params = derive_params(8, 1)
    assert verify_gw_identities(params).ok
    assert verify_quantum_presentation(params).ok
    info = _staircase_products.cache_info()
    assert (info.misses, info.hits) == (0, 0)
    assert verify_s3_symmetry(params).ok
    assert verify_s3_symmetry(params).ok
    info = _staircase_products.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert verify_s3_symmetry(derive_params(6, 1)).ok
    info = _staircase_products.cache_info()
    assert (info.misses, info.currsize) == (2, 1)


def test_table_pieces_without_q2_are_the_model_products(grid_params):
    # the product table is the oracle of the verify suites' model reads: its
    # (b, 0) pieces are the deformed model's products of the staircase pairs
    qp = quantum_presentation(grid_params, "bundle")
    staircase, model = qp.quotient.staircase, qp.quotient.model
    for (i, j), pieces in _staircase_products(qp).items():
        product = model.product(tuple(x + y for x, y in zip(staircase[i], staircase[j])))
        for b in range(3):
            expected = {t: c for t, c in product.get((b, 0), {}).items() if c}
            piece = pieces.get((b, 0))
            assert (piece.terms if piece else {}) == expected, (i, j, b)
            assert quantum._model_piece(model, staircase[i], staircase[j], (b, 0)) == expected


def _assert_table_matches_oracle(qp):
    polys = qp.quotient.staircase_polynomials()
    table = _staircase_products(qp)
    pairs = [(i, j) for i in range(len(polys)) for j in range(i, len(polys))]
    assert list(table) == pairs
    for i, j in pairs:
        expected = groebner_contributions(polys[i], polys[j], qp)
        assert list(table[(i, j)]) == list(expected), (polys[i], polys[j])
        for key, piece in expected.items():
            assert table[(i, j)][key] == piece, (polys[i], polys[j], key)


def test_product_table_matches_contributions(grid_params):
    # the table built on the ring model against one Groebner product per basis pair
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
                got = _contributions(x, y, qp)
                assert list(got) == list(expected), (m, p, coords, x, y)
                assert got == expected, (m, p, coords, x, y)


def test_product_specialization_matches_classical_normal_forms(grid_params):
    # the (0, 0) piece of each table entry against a Polynomial product and a
    # classical normal form
    qp = quantum_presentation(grid_params, "bundle")
    cp = classical_presentation(grid_params, "bundle")
    polys = qp.quotient.staircase_polynomials()
    zero = Polynomial.zero(qp.variables)
    for (i, j), pieces in _staircase_products(qp).items():
        assert pieces.get((0, 0), zero) == cp.quotient.normal_form(polys[i] * polys[j])


def test_product_table_takes_two_normal_forms_per_basis_class():
    # the solve and the table read one integer model per ring; only xi*s and
    # h*s are normal-formed, in the deformed and in the classical ring
    qp = quantum_presentation(derive_params(11, 3), "bundle")
    cp = classical_presentation(qp.params, "bundle")
    for cache in (basis_corrections, _staircase_products):
        cache.cache_clear()
    for pres in (qp, cp):
        vars(pres.quotient).pop("model", None)
    memos = [pres.quotient.basis._nf_memo for pres in (qp, cp)]
    for memo in memos:
        memo.clear()
    basis_corrections(qp)
    models = [pres.quotient.model for pres in (qp, cp)]
    _staircase_products(qp)
    assert [pres.quotient.model for pres in (qp, cp)] == models
    for memo in memos:
        assert 0 < len(memo) <= 2 * qp.quotient.rank


IN_RANGE_TO_20 = [(m, p) for m in range(4, 21) for p in range(m - 1) if 2 * p + 3 < m]


@pytest.mark.parametrize("m, p", IN_RANGE_TO_20, ids=[f"m{m}p{p}" for m, p in IN_RANGE_TO_20])
def test_basis_corrections_match_the_polynomial_assembly(m, p):
    # the reduced system read from the ring models against both divisor
    # routes with their two-point unknowns, built from Groebner products
    qp = quantum_presentation(derive_params(m, p), "bundle")
    expected = polynomial_corrections(qp)
    corrections = basis_corrections(qp)
    assert list(corrections) == list(expected)
    assert corrections == expected


N_EQUALS_ONE = [(2, 0), (3, 1), (4, 2), (5, 3)]


@pytest.mark.parametrize("m, p", N_EQUALS_ONE, ids=[f"m{m}p{p}" for m, p in N_EQUALS_ONE])
def test_ring_model_reads_normal_forms_where_a_parameter_leads(m, p):
    # n = 1: the deformed basis leads with xi*q2, so staircase classes times
    # q-powers are not normal forms and the matrices would be wrong; the model
    # reads the ring's own normal forms, and the table still equals the oracle
    qp = quantum_presentation(derive_params(m, p), "bundle")
    vs = qp.variables
    assert (1, 0, 0, 1) in qp.quotient.basis.leading_monomials()
    model = qp.quotient.model
    assert model.matrices is None
    staircase = qp.quotient.staircase
    for i, s in enumerate(staircase):
        for t in staircase[i:]:
            mono = tuple(a + b for a, b in zip(s, t))
            got = Polynomial.zero(vs)
            for (a, b), piece in model.product(mono).items():
                for u, c in piece.items():
                    got = got + Polynomial.monomial(vs, (u[0], u[1], a, b), c)
            assert got == qp.quotient.normal_form(Polynomial.monomial(vs, mono)), mono
    _assert_table_matches_oracle(qp)


def test_product_table_needs_the_deformed_bundle_ring(params40):
    for pres in (
        classical_presentation(params40, "bundle"),
        quantum_presentation(params40, "blowup"),
    ):
        with pytest.raises(UsageError):
            _staircase_products(pres)


def test_product_table_is_read_only(params40):
    # the table is shared by the verification suites, so none may change it
    qp = quantum_presentation(params40, "bundle")
    table = _staircase_products(qp)
    before = {pair: dict(pieces) for pair, pieces in table.items()}
    with pytest.raises(TypeError):
        table[(0, 0)] = {}
    with pytest.raises(TypeError):
        table[(0, 0)][(0, 0)] = Polynomial.zero(qp.variables)
    _staircase_products.cache_clear()
    again = _staircase_products(qp)
    assert again is not table
    assert {pair: dict(pieces) for pair, pieces in again.items()} == before


def test_s3_symmetry_needs_the_classical_staircase(monkeypatch, params40):
    qp = quantum_presentation(params40, "bundle")
    short = replace(qp, quotient=replace(qp.quotient, staircase=qp.quotient.staircase[:-1]))
    monkeypatch.setattr(quantum, "quantum_presentation", lambda params, coords: short)
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
    for pieces in _staircase_products(qp).values():
        for piece in pieces.values():
            paired = [0] * len(polys)
            for s, c in piece.terms.items():
                for k, g in enumerate(gram[s]):
                    paired[k] += c * g
            for k, bk in enumerate(polys):
                if piece.homogeneous_degree() + sum(staircase[k]) == top:
                    assert paired[k] == integrate(piece * bk, cp)
                else:
                    assert paired[k] == 0


def test_equal_presentations_hash_equal_and_share_cache_entries():
    params = derive_params(8, 1)
    qp = quantum_presentation(params, "bundle")
    budgeted = quantum_presentation(params, "bundle", max_degree=50)
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
    from qcblowup import groebner

    params = derive_params(4, 0)
    qp = quantum_presentation(params, coords)
    vs = qp.variables
    x, y = (Polynomial.variable(vs, name) for name in vs.names[:2])
    one, point = Polynomial.one(vs), x * y**3
    gw_invariant(GWQuery(CurveClass(1, 0), x, x, point), qp)  # builds the models
    seen = []
    for module, name in ((groebner, "normal_form"), (quantum, "change_vars")):
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
    # the spy does see a reduction of such a class
    assert classical_presentation(params, coords).quotient.normal_form(high).is_zero
    assert seen[-1] == 200


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
