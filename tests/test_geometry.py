"""Parameters, Chern data, presentations, integration, pairings."""

import random
from fractions import Fraction
from math import comb

import pytest

from qcblowup import (
    BLOWUP_TO_BUNDLE,
    BUNDLE_TO_BLOWUP,
    CheckFailure,
    CurveClass,
    EXCEPTIONAL_LINE,
    FIBER_LINE,
    Polynomial,
    Presentation,
    QuotientRing,
    UsageError,
    VariableSet,
    anticanonical_class,
    blowup_variables,
    bundle_variables,
    change_vars,
    chern_coefficients,
    classical_relations,
    classical_presentation,
    curve_dual,
    derive_params,
    fano_positivity_check,
    integrate,
    moduli_dimension_identities,
    oracle_integrate,
    pair_divisor_curve,
    pairing_matrix,
    quantum_presentation,
    quantum_relations,
    segre_integral_oracle,
    variables_for,
    verify_classical_geometry,
    virtual_dimension,
)
from qcblowup import geometry
from bareiss import bareiss_determinant


def bp(text, params):
    return Polynomial.parse(bundle_variables(params.r, params.n), text)


# -- parameters ----------------------------------------------------------------


def test_derive_params_examples():
    p40 = derive_params(4, 0)
    assert (p40.n, p40.r, p40.in_range) == (3, 2, True)
    p81 = derive_params(8, 1)
    assert (p81.n, p81.r, p81.in_range) == (6, 3, True)
    p51 = derive_params(5, 1)
    assert (p51.n, p51.r, p51.in_range) == (3, 3, False)


def test_derive_params_domain_errors():
    for m, p in ((1, 0), (4, -1), (4, 3), (3, 2)):
        with pytest.raises(UsageError):
            derive_params(m, p)


def test_in_range_matches_r_less_than_n():
    for m in range(2, 15):
        for p in range(0, m - 1):
            params = derive_params(m, p)
            assert params.in_range == (params.r < params.n)
            assert params.n == m - p - 1 and params.r == p + 2


# -- Chern coefficients ----------------------------------------------------------


def test_chern_vectors():
    assert chern_coefficients(derive_params(4, 0)) == (1, 3, 2)
    assert chern_coefficients(derive_params(5, 1)) == (1, 4, 5, 2)


def test_chern_endpoints_for_all_ranks():
    for r in range(2, 13):
        params = derive_params(2 * (r - 2) + 4, r - 2)
        vec = chern_coefficients(params)
        assert vec[0] == 1 and vec[1] == r + 1 and vec[r] == 2


def test_fiber_relation_forms_agree_up_to_rank_12():
    # factored (xi-h)^(r-1) (xi-2h) versus the Chern expansion, exact
    for r in range(2, 13):
        params = derive_params(2 * (r - 2) + 4, r - 2)
        pres = classical_presentation(params, "bundle")
        vs = pres.variables
        xi = Polynomial.variable(vs, "xi")
        h = Polynomial.variable(vs, "h")
        chern = chern_coefficients(params)
        expanded = Polynomial.zero(vs)
        for k in range(r + 1):
            expanded = expanded + (-1) ** k * chern[k] * h**k * xi ** (r - k)
        assert pres.relations[1] == (xi - h) ** (r - 1) * (xi - 2 * h) == expanded


# -- presentations ---------------------------------------------------------------


def test_classical_presentation_40():
    params = derive_params(4, 0)
    bundle = classical_presentation(params, "bundle")
    assert [str(g) for g in bundle.relations] == ["h^4", "xi^2 - 3*h*xi + 2*h^2"]
    blowup = classical_presentation(params, "blowup")
    kv = blowup.variables
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    assert blowup.relations == ((k - eta) ** 4, k * eta)


def test_classical_presentation_81_blowup():
    params = derive_params(8, 1)
    blowup = classical_presentation(params, "blowup")
    kv = blowup.variables
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    assert blowup.relations == ((k - eta) ** 7, k**2 * eta)


def test_quotient_rank_both_coordinate_systems(grid_params):
    for coords in ("bundle", "blowup"):
        pres = classical_presentation(grid_params, coords)
        assert pres.quotient.rank == grid_params.rank


# -- change of variables ---------------------------------------------------------


def test_change_vars_basic_identities():
    params = derive_params(4, 0)
    kv = blowup_variables(params.r, params.n)
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    assert str(change_vars(k - eta, BLOWUP_TO_BUNDLE)) == "h"
    # the center relation maps onto the fiber relation
    image = change_vars(k ** (params.p + 1) * eta, BLOWUP_TO_BUNDLE)
    assert image == classical_presentation(params, "bundle").relations[1]


def test_change_vars_round_trip():
    params = derive_params(8, 1)
    kv = blowup_variables(params.r, params.n)
    f = Polynomial.parse(kv, "k^2*eta - 3*k*q1 + eta^3*q2 - 7")
    assert change_vars(change_vars(f, BLOWUP_TO_BUNDLE), BUNDLE_TO_BLOWUP) == f
    bv = bundle_variables(params.r, params.n)
    g = Polynomial.parse(bv, "xi^2*h - 5*h^3 + q1*q2")
    assert change_vars(change_vars(g, BUNDLE_TO_BLOWUP), BLOWUP_TO_BUNDLE) == g


def test_change_vars_direction_validation():
    params = derive_params(4, 0)
    bv = bundle_variables(params.r, params.n)
    with pytest.raises(UsageError):
        change_vars(Polynomial.variable(bv, "h"), BLOWUP_TO_BUNDLE)
    with pytest.raises(UsageError):
        change_vars(Polynomial.variable(bv, "h"), "sideways")


def test_ideal_correspondence_on_grid(grid_params):
    from qcblowup import Ideal, ideal_equal

    bundle = classical_presentation(grid_params, "bundle")
    blowup = classical_presentation(grid_params, "blowup")
    mapped = tuple(change_vars(g, BLOWUP_TO_BUNDLE) for g in blowup.relations)
    assert ideal_equal(Ideal(bundle.variables, mapped), Ideal(bundle.variables, bundle.relations))
    mapped_back = tuple(change_vars(g, BUNDLE_TO_BLOWUP) for g in bundle.relations)
    assert ideal_equal(Ideal(blowup.variables, mapped_back), Ideal(blowup.variables, blowup.relations))


def _entry(report, name):
    (entry,) = [e for e in report.entries if e.name == name]
    return entry.passed


def _counting(monkeypatch, name):
    calls = []
    original = getattr(geometry, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, name, counted)
    return calls


def test_the_correspondence_checks_build_no_basis(monkeypatch, params81):
    # each inclusion reduces mapped relations by the basis the target
    # presentation already holds, so no Buchberger run is left
    verify_classical_geometry(params81)
    calls = _counting(monkeypatch, "buchberger")
    report = verify_classical_geometry(params81)
    assert _entry(report, "ideal_correspondence_to_bundle")
    assert _entry(report, "ideal_correspondence_to_blowup")
    assert len(calls) == 0


def carries_ideal_by_bases(source, target):
    """The former check, kept as the oracle of ``geometry._carries_ideal``:
    the mapped relations of ``source`` have the reduced basis of ``target``."""
    from qcblowup import Ideal, buchberger

    direction = BLOWUP_TO_BUNDLE if target.coords == "bundle" else BUNDLE_TO_BLOWUP
    mapped = tuple(geometry.change_vars(g, direction) for g in source.relations)
    return buchberger(Ideal(target.variables, mapped)) == target.quotient.basis


CORRESPONDENCE_GRID = [(m, p) for m in range(4, 13) for p in range(4) if p <= m - 2]


@pytest.mark.parametrize(
    "m, p", CORRESPONDENCE_GRID, ids=[f"m{m}p{p}" for m, p in CORRESPONDENCE_GRID]
)
def test_both_inclusions_agree_with_the_comparison_of_reduced_bases(m, p):
    # the two normal-form inclusions hold exactly where the mapped relations
    # have the target's reduced basis, classical and deformed, both ways
    params = derive_params(m, p)
    for build in (classical_presentation, quantum_presentation):
        bundle, blowup = build(params, "bundle"), build(params, "blowup")
        for source, target in ((blowup, bundle), (bundle, blowup)):
            assert geometry._carries_ideal(source, target)
            assert carries_ideal_by_bases(source, target)


def test_ideal_correspondence_fails_on_a_changed_relation(monkeypatch, params40):
    # the mapped fiber relation gains h^r, a nonzero class below its leading
    # term, so the ideals differ while their leading monomials agree
    bundle = classical_presentation(params40, "bundle")
    h = Polynomial.variable(bundle.variables, "h")
    original = geometry.change_vars

    def changed(f, direction):
        out = original(f, direction)
        return out + h**params40.r if out == bundle.relations[1] else out

    monkeypatch.setattr(geometry, "change_vars", changed)
    report = verify_classical_geometry(params40)
    assert not _entry(report, "ideal_correspondence_to_bundle")
    assert _entry(report, "ideal_correspondence_to_blowup")


def test_an_inclusion_check_memoises_no_normal_form(params81):
    # each mapped relation is reduced whole, once: the target bases'
    # normal-form memos stay as they were, here empty on fresh rings
    for quantum in (False, True):
        bundle, blowup = (geometry._build(params81, c, quantum) for c in ("bundle", "blowup"))
        for source, target in ((blowup, bundle), (bundle, blowup)):
            assert geometry._carries_ideal(source, target)
            assert target.quotient.basis._nf_memo == {}


def test_a_changed_relation_fails_both_correspondence_checks_alike(monkeypatch, params40):
    # the mapped fiber relation gains h^r: the inclusion fails with the oracle
    bundle = classical_presentation(params40, "bundle")
    blowup = classical_presentation(params40, "blowup")
    h = Polynomial.variable(bundle.variables, "h")
    original = geometry.change_vars

    def changed(f, direction):
        out = original(f, direction)
        return out + h**params40.r if out == bundle.relations[1] else out

    monkeypatch.setattr(geometry, "change_vars", changed)
    assert not geometry._carries_ideal(blowup, bundle)
    assert not carries_ideal_by_bases(blowup, bundle)


# -- integration -----------------------------------------------------------------


def test_integration_normalization_and_examples():
    params = derive_params(4, 0)
    assert integrate(bp("h^3*xi", params), params) == 1
    assert integrate(bp("xi^4", params), params) == 15
    assert integrate(bp("h^2*xi^2", params), params) == 3
    # off-degree classes integrate to zero
    assert integrate(bp("h^2", params), params) == 0


def test_one_step_reduction_value(grid_params):
    n, r = grid_params.n, grid_params.r
    f = bp(f"h^{n - 1}*xi^{r}" if n > 1 else f"xi^{r}", grid_params)
    assert integrate(f, grid_params) == r + 1


def test_integrate_reads_only_the_top_degree_part():
    params = derive_params(4, 0)
    pres = classical_presentation(params, "bundle")
    assert integrate(bp("xi^12800", params), params) == 0
    mixed = bp("xi^9 + h^2*xi^3 + xi^4 + h", params)
    top = pres.quotient.normal_form(mixed).coefficient((params.r - 1, params.n, 0, 0))
    assert integrate(mixed, params) == top == 15
    k = Polynomial.variable(variables_for(params, "blowup"), "k")
    assert integrate(k**12800 + k**4, params) == integrate(k**4, params) == 1
    # dropping the off-degree terms skips none of the validation
    with pytest.raises(UsageError):
        integrate(bp("h^4 + h*q2", params), params)
    with pytest.raises(UsageError):
        integrate(Polynomial.parse(VariableSet(("a", "b"), (1, 1)), "a^9 + a^4"), params)


def test_integrate_rejects_parameters():
    params = derive_params(4, 0)
    with pytest.raises(UsageError):
        integrate(bp("h*q2", params), params)


def test_segre_oracle_examples():
    assert segre_integral_oracle(derive_params(4, 0), 3, 1) == 1
    assert segre_integral_oracle(derive_params(4, 0), 0, 4) == 15
    assert segre_integral_oracle(derive_params(8, 1), 5, 3) == 4


def test_the_oracles_return_canonical_scalars(grid_params):
    # an integral value is an ``int``; a rational class integrates to a
    # ``Fraction`` only when its value is not integral
    top = grid_params.top_degree
    for a in range(grid_params.n + 1):
        value = segre_integral_oracle(grid_params, a, top - a)
        assert type(value) is int
        mono = bp(f"h^{a}*xi^{top - a}" if a else f"xi^{top}", grid_params)
        assert type(oracle_integrate(mono, grid_params)) is int
        assert oracle_integrate(mono * Fraction(2), grid_params) == 2 * value
        assert type(oracle_integrate(mono * Fraction(2), grid_params)) is int
    params = derive_params(4, 0)
    assert oracle_integrate(bp("1/2*h^3*xi", params), params) == Fraction(1, 2)
    assert type(oracle_integrate(bp("h", params), params)) is int  # off degree: 0


def test_segre_oracle_domain_errors():
    params = derive_params(4, 0)
    with pytest.raises(UsageError):
        segre_integral_oracle(params, 1, 1)
    with pytest.raises(UsageError):
        segre_integral_oracle(params, 4, 0)


def test_groebner_integration_matches_oracle(grid_params):
    top = grid_params.top_degree
    for a in range(grid_params.n + 1):
        mono = bp(f"h^{a}*xi^{top - a}" if a else f"xi^{top}", grid_params)
        assert integrate(mono, grid_params) == segre_integral_oracle(grid_params, a, top - a)


def test_oracle_integrate_linear_extension():
    params = derive_params(4, 0)
    f = bp("xi^4 - 2*h^3*xi + 5*h^4 + h^2", params)
    assert oracle_integrate(f, params) == integrate(f, params) == 13


def test_both_integrals_reject_a_class_of_another_instance():
    # h^3*xi^2 of (4, 0) has the degree of the top cell of (5, 1)
    f = Polynomial.parse(variables_for(derive_params(4, 0), "bundle"), "h^3*xi^2")
    k = Polynomial.variable(variables_for(derive_params(4, 0), "blowup"), "k")
    params = derive_params(5, 1)
    for integral in (integrate, oracle_integrate):
        for cls in (f, k**5):
            with pytest.raises(UsageError, match="different variable set"):
                integral(cls, params)


ADMISSIBLE_TO_8 = [(m, p) for m in range(2, 9) for p in range(m - 1)]


@pytest.mark.parametrize("m, p", ADMISSIBLE_TO_8, ids=[f"m{m}p{p}" for m, p in ADMISSIBLE_TO_8])
def test_every_presentation_integrates_like_the_oracle(m, p):
    # a class over either coordinate system's variables integrates in the
    # classical bundle ring as the oracle does (at n = 1 the deformed bundle
    # staircase has three monomials of top degree, so that ring could not)
    params = derive_params(m, p)
    top = params.top_degree
    for coords in ("bundle", "blowup"):
        vs = variables_for(params, coords)
        for i in range(top + 1):
            mono = Polynomial(vs, {(i, top - i, 0, 0): 1})
            assert integrate(mono, params) == oracle_integrate(mono, params), (coords, mono)
        for divisor in vs.names[:2]:
            d = Polynomial.variable(vs, divisor)
            in_bundle = d if coords == "bundle" else change_vars(d, BLOWUP_TO_BUNDLE)
            for curve in (FIBER_LINE, EXCEPTIONAL_LINE):
                dual = curve_dual(curve, params)
                assert pair_divisor_curve(d, curve, params) == oracle_integrate(in_bundle * dual, params)


# -- pairings --------------------------------------------------------------------


def test_duality_pairing_table(grid_params):
    vs = variables_for(grid_params, "bundle")
    xi = Polynomial.variable(vs, "xi")
    h = Polynomial.variable(vs, "h")
    table = [
        [pair_divisor_curve(d, c, grid_params) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
        for d in (xi - h, h)
    ]
    assert table == [[1, 0], [0, 1]]


def test_blowup_pairing_table(grid_params):
    kv = blowup_variables(grid_params.r, grid_params.n)
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    table = [
        [pair_divisor_curve(d, c, grid_params) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
        for d in (k, eta)
    ]
    assert table == [[1, 0], [1, -1]]


def test_pair_divisor_curve_requires_degree_one():
    params = derive_params(4, 0)
    with pytest.raises(UsageError):
        pair_divisor_curve(bp("h^2", params), FIBER_LINE, params)


def test_pairing_matrix_unimodular_in_bundle_coordinates(grid_params):
    pres = classical_presentation(grid_params, "bundle")
    matrix = pairing_matrix(pres)
    assert bareiss_determinant(matrix) in (1, -1)


def test_pairing_matrix_matches_entrywise_integrals(grid_params):
    for coords in ("bundle", "blowup"):
        pres = classical_presentation(grid_params, coords)
        polys = pres.quotient.staircase_polynomials()
        expected = [[integrate(bi * bj, grid_params) for bj in polys] for bi in polys]
        assert pairing_matrix(pres) == expected


def test_pairing_matrix_forms_only_complementary_products(monkeypatch, grid_params):
    # one product per pair of staircase degrees summing to the top degree,
    # formed when the ring builds its pairing, which the next matrix reuses
    from qcblowup import groebner

    top, calls, original = grid_params.top_degree, [], groebner.mono_mul
    monkeypatch.setattr(groebner, "mono_mul", lambda a, b: calls.append(a) or original(a, b))
    for coords in ("bundle", "blowup"):
        pres = classical_presentation(grid_params, coords)
        degrees = [pres.variables.weighted_degree(s) for s in pres.quotient.staircase]
        vars(pres.quotient).pop("gram", None)
        calls.clear()
        matrix, count = pairing_matrix(pres), sum(degrees.count(top - d) for d in degrees)
        assert len(calls) == count
        assert pairing_matrix(pres) == matrix and len(calls) == count


def test_pairing_matrix_needs_the_top_degree_of_its_params(params40):
    # the (4,0) staircase stops at degree 4, below the top degree of (5,0)
    ring = classical_presentation(params40, "bundle")
    pres = Presentation(
        ring.coords, derive_params(5, 0), ring.quantum, ring.relations, ring.quotient
    )
    with pytest.raises(CheckFailure, match="0 staircase monomials of top degree, expected 1"):
        pairing_matrix(pres)


def test_pairing_matrix_refuses_a_non_integral_value(monkeypatch, params40):
    monkeypatch.setattr(geometry, "integrate", lambda f, params: Fraction(1, 2))
    with pytest.raises(CheckFailure, match="non-integral pairing value 1/2"):
        pairing_matrix(classical_presentation(params40, "bundle"))


def test_blowup_pairing_matrix_nondegenerate(params40):
    pres = classical_presentation(params40, "blowup")
    assert bareiss_determinant(pairing_matrix(pres)) in (1, -1)


def test_blowup_pairing_matrix_reduces_in_its_own_ring(monkeypatch, grid_params):
    # only the integral of the top class eta^m crosses to bundle coordinates
    pres = classical_presentation(grid_params, "blowup")
    calls = _counting(monkeypatch, "change_vars")
    pairing_matrix(pres)
    assert len(calls) <= 1


BLOWUPS_TO_12 = [(m, p) for m in range(2, 13) for p in range(m - 1)]


@pytest.mark.parametrize("m, p", BLOWUPS_TO_12, ids=[f"m{m}p{p}" for m, p in BLOWUPS_TO_12])
def test_top_blowup_class_integrates_to_the_exceptional_self_intersection(m, p):
    # eta^m = (-1)^(m-1-p) C(m-1, p) for the blow-up of P^m along P^p
    params = derive_params(m, p)
    pres = classical_presentation(params, "blowup")
    assert [s for s in pres.quotient.staircase if sum(s) == m] == [(0, m, 0, 0)]
    eta = Polynomial.variable(pres.variables, "eta")
    assert integrate(eta**m, params) == (-1) ** (m - 1 - p) * comb(m - 1, p)


def test_pairing_matrix_needs_one_top_staircase_monomial(params40):
    for coords in ("bundle", "blowup"):
        pres = classical_presentation(params40, coords)
        quotient = QuotientRing(pres.quotient.basis, pres.quotient.staircase[:-1])
        short = Presentation(pres.coords, pres.params, pres.quantum, pres.relations, quotient)
        with pytest.raises(CheckFailure, match="0 staircase monomials of top degree"):
            pairing_matrix(short)


def test_pairing_across_two_instances_names_the_weights():
    k = Polynomial.variable(blowup_variables(3, 4), "k")  # (m, p) = (6, 1)
    with pytest.raises(UsageError, match=r"weights=\(1, 1, 3, 4\).* vs .*weights=\(1, 1, 3, 5\)"):
        pair_divisor_curve(k, FIBER_LINE, derive_params(7, 1))


# -- anticanonical, dimensions, positivity ----------------------------------------


def test_anticanonical_examples():
    assert str(anticanonical_class(derive_params(4, 0))) == "2*xi + h"
    assert str(anticanonical_class(derive_params(8, 1))) == "3*xi + 3*h"


def test_anticanonical_degrees(grid_params):
    anti = anticanonical_class(grid_params)
    assert pair_divisor_curve(anti, FIBER_LINE, grid_params) == grid_params.r
    assert pair_divisor_curve(anti, EXCEPTIONAL_LINE, grid_params) == grid_params.n


def test_virtual_dimension_examples():
    p40 = derive_params(4, 0)
    assert virtual_dimension(p40, FIBER_LINE) == 6
    assert virtual_dimension(p40, EXCEPTIONAL_LINE) == 7
    assert virtual_dimension(p40, CurveClass(0, 0)) == p40.top_degree


def test_moduli_dimension_identities(grid_params):
    assert moduli_dimension_identities(grid_params).ok


def test_fano_positivity_grid():
    report = fano_positivity_check(derive_params(4, 0), 5)
    assert report.ok
    assert "35" in report.entries[0].detail
    assert fano_positivity_check(derive_params(8, 1), 5).ok
    with pytest.raises(UsageError):
        fano_positivity_check(derive_params(4, 0), 0)


def test_curve_dual_pairs_to_identity():
    params = derive_params(8, 1)
    assert integrate((bp("xi", params) - bp("h", params)) * curve_dual(FIBER_LINE, params), params) == 1
    assert integrate(bp("h", params) * curve_dual(FIBER_LINE, params), params) == 0


def test_full_classical_suite(grid_params):
    report = verify_classical_geometry(grid_params)
    assert report.ok, [e.name for e in report.failures()]


def test_classical_suite_out_of_range_params():
    # classical geometry needs no range hypothesis
    report = verify_classical_geometry(derive_params(5, 1))
    assert report.ok, [e.name for e in report.failures()]


# -- the coordinate change against the map_variables oracle -----------------------


def _oracle_change_vars(f, direction):
    # the substitution by polynomial powers that change_vars replaced
    r, n = f.variables.weights[2], f.variables.weights[3]
    if direction == BLOWUP_TO_BUNDLE:
        target = bundle_variables(r, n)
        xi, h = (Polynomial.variable(target, name) for name in ("xi", "h"))
        return f.map_variables(target, {"k": xi - h, "eta": xi - 2 * h})
    target = blowup_variables(r, n)
    k, eta = (Polynomial.variable(target, name) for name in ("k", "eta"))
    return f.map_variables(target, {"h": k - eta, "xi": 2 * k - eta})


def _seeded_polynomials(vs, rng, count=8):
    x, y = (Polynomial.variable(vs, name) for name in vs.names[:2])
    # x^2 - x*y has no y^2 term in either image: the leading terms cancel
    yield x**2 - x * y
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = (rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 3), rng.randint(0, 3))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        yield Polynomial(vs, terms)


@pytest.mark.parametrize("m, p", BLOWUPS_TO_12, ids=[f"m{m}p{p}" for m, p in BLOWUPS_TO_12])
def test_change_vars_matches_the_map_variables_oracle(m, p):
    params = derive_params(m, p)
    rng = random.Random(100 * m + p)
    for coords, direction in (("blowup", BLOWUP_TO_BUNDLE), ("bundle", BUNDLE_TO_BLOWUP)):
        vs = (blowup_variables if coords == "blowup" else bundle_variables)(params.r, params.n)
        relations = classical_relations(params, coords) + quantum_relations(params, coords)
        for f in (*relations, *_seeded_polynomials(vs, rng)):
            out, expected = change_vars(f, direction), _oracle_change_vars(f, direction)
            assert out.variables == expected.variables
            assert out.terms == expected.terms
            assert all(
                type(c) is int or (type(c) is Fraction and c.denominator > 1)
                for c in out.terms.values()
            )


def test_change_vars_cancels_terms():
    params = derive_params(8, 1)
    kv, bv = blowup_variables(params.r, params.n), bundle_variables(params.r, params.n)
    f = Polynomial.parse(kv, "k^2*q2 - k*eta*q2")
    assert change_vars(f, BLOWUP_TO_BUNDLE) == Polynomial.parse(bv, "h*xi*q2 - h^2*q2")
    g = Polynomial.parse(bv, "h^2 - h*xi")
    assert change_vars(g, BUNDLE_TO_BLOWUP) == Polynomial.parse(kv, "k*eta - k^2")


def test_change_vars_forms_no_polynomial_product(monkeypatch):
    params = derive_params(16, 5)
    kv = blowup_variables(params.r, params.n)
    f = Polynomial.parse(kv, "k^6*eta^4 - 3*k^2*eta^8*q1 + 1/2*eta^10")
    expected = _oracle_change_vars(f, BLOWUP_TO_BUNDLE)
    calls = []
    for name in ("__mul__", "__rmul__", "__pow__", "map_variables"):
        original = getattr(Polynomial, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(Polynomial, name, spy)
    image = change_vars(f, BLOWUP_TO_BUNDLE)
    back = change_vars(image, BUNDLE_TO_BLOWUP)
    assert calls == []
    monkeypatch.undo()
    assert image == expected and back == f


def test_change_vars_lands_on_the_interned_presets():
    # parsed classes, translated classes and presentations share one
    # instance per (r, n)
    params = derive_params(16, 5)
    kv, bv = (geometry.variables_for(params, coords) for coords in ("blowup", "bundle"))
    assert kv is blowup_variables(params.r, params.n) is geometry.variables_for(params, "blowup")
    assert bv is bundle_variables(params.r, params.n) is geometry.variables_for(params, "bundle")
    assert classical_presentation(params, "bundle").variables is bv
    f = Polynomial.parse(kv, "k^3 - 2*k*eta^2 + eta*q2")
    image = change_vars(f, BLOWUP_TO_BUNDLE)
    assert image.variables is bv
    assert change_vars(image, BUNDLE_TO_BLOWUP).variables is kv


def test_binary_forms_are_shared_tuples_behind_a_bounded_cache():
    images = ((1, -1), (1, -2))
    row = geometry._binary_form(3, 2, images)
    assert type(row) is tuple
    assert geometry._binary_form(3, 2, images) is row
    # (s - t)^3 (s - 2t)^2, by the power of t
    assert row == (1, -7, 19, -25, 16, -4)
    assert geometry._binary_form(0, 0, images) == (1,)
    assert geometry._binary_form.cache_info().maxsize is not None
