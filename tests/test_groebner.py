"""Buchberger bases, normal forms, staircases and ideal equality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcblowup import (
    BudgetError,
    CheckFailure,
    Ideal,
    Polynomial,
    StructuralError,
    UsageError,
    VariableSet,
    buchberger,
    bundle_variables,
    classical_presentation,
    classical_relations,
    derive_params,
    ideal_equal,
    normal_form,
    quantum_presentation,
    quantum_relations,
    staircase_basis,
)
from qcblowup import groebner
from qcblowup.poly import mono_mul
import buchberger_oracle
from buchberger_oracle import leading_term, monic_reducers, oracle_buchberger

BV = bundle_variables(2, 3)


def poly(text, vs=BV):
    return Polynomial.parse(vs, text)


def bundle_classical_ideal():
    return Ideal(BV, (poly("h^4"), poly("xi^2 - 3*h*xi + 2*h^2")))


def bundle_deformed_ideal():
    return Ideal(BV, (poly("h^4 - xi*q2 + 2*h*q2"), poly("xi^2 - 3*h*xi + 2*h^2 - q1")))


# -- buchberger ----------------------------------------------------------------


def test_coprime_leading_terms_already_a_basis():
    # the leading terms h^4 and xi^2 are coprime
    gb = buchberger(bundle_classical_ideal())
    assert set(gb.polys) == {poly("h^4"), poly("xi^2 - 3*h*xi + 2*h^2")}


def test_principal_ideal_gives_monic_generator():
    f = 3 * poly("h^2") - 6 * poly("xi*q1")
    gb = buchberger(Ideal(BV, (f,)))
    # leading term under graded-lex is -6*xi*q1
    assert gb.polys == (f * Fraction(-1, 6),)
    assert leading_term(gb.polys[0])[1] == 1


def test_deformed_ideal_leading_terms():
    gb = buchberger(bundle_deformed_ideal())
    lts = {Polynomial(BV, {m: 1}).render() for m in gb.leading_monomials()}
    assert lts == {"xi^2", "h^4"}


def test_spolynomials_of_basis_reduce_to_zero():
    for ideal in (bundle_classical_ideal(), bundle_deformed_ideal()):
        gb = buchberger(ideal)
        for i in range(len(gb.polys)):
            for j in range(i + 1, len(gb.polys)):
                s = buchberger_oracle.spolynomial(gb.polys[i], gb.polys[j])
                assert normal_form(s, gb).is_zero


def test_basis_is_reduced_and_monic():
    gb = buchberger(bundle_deformed_ideal())
    for i, g in enumerate(gb.polys):
        assert leading_term(g)[1] == 1
        for j, other in enumerate(gb.polys):
            if i == j:
                continue
            lt = leading_term(other)[0]
            for mono in g.terms:
                assert not all(x <= y for x, y in zip(lt, mono))


def test_buchberger_idempotent():
    gb = buchberger(bundle_deformed_ideal())
    again = buchberger(Ideal(BV, gb.polys))
    assert again.polys == gb.polys


def test_degree_budget_raises():
    # the blow-up classical basis at (4,0) needs a degree-5 element
    from qcblowup import blowup_variables

    kv = blowup_variables(2, 3)
    k = Polynomial.variable(kv, "k")
    eta = Polynomial.variable(kv, "eta")
    ideal = Ideal(kv, ((k - eta) ** 4, k * eta))
    assert buchberger(ideal).polys  # fine without a budget
    with pytest.raises(BudgetError):
        buchberger(ideal, max_degree=4)


def test_pair_budget_raises():
    with pytest.raises(BudgetError):
        buchberger(bundle_classical_ideal(), max_pairs=0)


def test_empty_ideal_rejected():
    with pytest.raises(UsageError):
        Ideal(BV, ())


# -- normal form ---------------------------------------------------------------


def test_generators_reduce_to_zero():
    ideal = bundle_classical_ideal()
    gb = buchberger(ideal)
    for g in ideal.generators:
        assert normal_form(g, gb).is_zero


def test_classical_rewrite_step():
    gb = buchberger(bundle_classical_ideal())
    assert normal_form(poly("xi^2"), gb) == poly("3*h*xi - 2*h^2")


def test_deformed_rewrite_step():
    gb = buchberger(bundle_deformed_ideal())
    assert normal_form(poly("xi^2"), gb) == poly("3*h*xi - 2*h^2 + q1")
    assert normal_form(poly("h^4"), gb) == poly("xi*q2 - 2*h*q2")


def test_normal_form_idempotent_and_linear():
    gb = buchberger(bundle_deformed_ideal())
    f = poly("xi^3 + h^5 - 2*xi*h^2")
    g = poly("h^4*xi - q1*q2")
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf
    assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)
    assert normal_form(3 * f, gb) == 3 * normal_form(f, gb)


def test_quotient_multiplication_is_sound():
    gb = buchberger(bundle_deformed_ideal())
    fs = [poly("xi^2 - h^2"), poly("h^3 + xi"), poly("xi*h")]
    for f in fs:
        for g in fs:
            lhs = normal_form(f * g, gb)
            rhs = normal_form(normal_form(f, gb) * normal_form(g, gb), gb)
            assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * 4), st.integers(-5, 5)),
        max_size=4,
    )
)
def test_integral_inputs_have_integral_normal_forms(terms):
    f = Polynomial(BV, terms)
    gb = buchberger(bundle_deformed_ideal())
    assert normal_form(f, gb).is_integral()


def test_normal_form_matches_the_whole_remainder():
    # the sum of memoised monomial normal forms against one division of the
    # whole polynomial, on rational inputs and on combinations that cancel
    rng = random.Random(2024)
    for pres in (
        quantum_presentation(derive_params(8, 1), "bundle"),
        classical_presentation(derive_params(11, 3), "bundle"),
    ):
        gb, vs = pres.quotient.basis, pres.variables
        relation = pres.relations[0]
        inputs = [
            relation,  # reduces to zero across its terms
            Fraction(1, 2) * relation + Polynomial(vs, {(1, 0, 0, 0): 1}),
            Polynomial(vs, {(0, 4, 0, 0): Fraction(1, 3), (1, 0, 0, 0): Fraction(2, 3)}),
        ]
        for _ in range(12):
            terms = {}
            for _ in range(rng.randint(1, 7)):
                mono = (rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 2), rng.randint(0, 2))
                terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            inputs.append(Polynomial(vs, terms))
        for f in inputs:
            nf = normal_form(f, gb)
            assert nf == buchberger_oracle._reduce(f, monic_reducers(gb))
            assert all(c and (type(c) is int or c.denominator > 1) for c in nf.terms.values())
        assert normal_form(relation, gb).is_zero


def test_ring_model_reads_only_the_rows_off_the_staircase(monkeypatch, grid_params):
    # the first product seeds the ring's memo with the rows s*xi and s*h: one
    # that is itself a staircase monomial is its own row, and only the others
    # are read off normal forms, once each
    reads = []
    original = groebner.QuotientRing._read

    def spy(self, mono):
        reads.append(mono)
        return original(self, mono)

    for pres in (
        quantum_presentation(grid_params, "bundle"),
        classical_presentation(grid_params, "bundle"),
    ):
        quotient = staircase_basis(pres.quotient.basis)  # a fresh ring
        products = [
            mono_mul(s, unit) for unit in ((1, 0, 0, 0), (0, 1, 0, 0)) for s in quotient.staircase
        ]
        off = list(dict.fromkeys(mono for mono in products if mono not in quotient.staircase_set))
        reads.clear()
        monkeypatch.setattr(groebner.QuotientRing, "_read", spy)
        assert quotient.product(quotient.staircase[0]) == {(0, 0): {quotient.staircase[0]: 1}}
        monkeypatch.undo()
        assert reads == off
        assert 0 < len(off) < len(products)
        assert len(quotient._products) == len(quotient.staircase_set | set(products))
        assert all(quotient._products[mono] == quotient._read(mono) for mono in products)


def test_ring_model_refuses_a_rational_row():
    # classical blow-up rings with p >= 1 have rational normal forms; the
    # first product, which seeds the rows, refuses them
    quotient = classical_presentation(derive_params(8, 1), "blowup").quotient
    with pytest.raises(CheckFailure, match="is not an integral vector over the staircase"):
        quotient.product(quotient.staircase[0])


# -- staircases ----------------------------------------------------------------


def test_classical_staircase_rank_8():
    ring = staircase_basis(buchberger(bundle_classical_ideal()))
    assert ring.rank == 8
    assert set(ring.staircase_strings()) == {
        "1", "h", "h^2", "h^3", "xi", "h*xi", "h^2*xi", "h^3*xi",
    }
    # listed in ascending graded-lex order
    keys = [sum(m) for m in ring.staircase]
    assert keys == sorted(keys)


def test_staircase_rank_21_for_m8_p1():
    vs = bundle_variables(3, 6)
    f1 = Polynomial.variable(vs, "h") ** 7
    xi = Polynomial.variable(vs, "xi")
    h = Polynomial.variable(vs, "h")
    f2 = (xi - h) ** 2 * (xi - 2 * h)
    ring = staircase_basis(buchberger(Ideal(vs, (f1, f2))))
    assert ring.rank == 21


def test_principal_staircase_single_variable():
    vs = VariableSet(("h",), (1,))
    h = Polynomial.variable(vs, "h")
    ring = staircase_basis(buchberger(Ideal(vs, (h,))))
    assert ring.rank == 1
    assert ring.staircase_strings() == ("1",)


def test_infinite_staircase_detected():
    xi = Polynomial.variable(BV, "xi")
    with pytest.raises(StructuralError):
        staircase_basis(buchberger(Ideal(BV, (xi**2,))))


def test_staircase_runs_stop_at_the_first_leading_multiple(grid_params):
    # the staircase against every monomial below the pure-power bounds that
    # no parameter-free leading monomial divides
    for build in (classical_presentation, quantum_presentation):
        for coords in ("bundle", "blowup"):
            ring = build(grid_params, coords).quotient
            lms = [lm for lm in ring.basis.leading_monomials() if not any(lm[2:])]
            bound = max(map(sum, lms)) + 1
            brute = [
                (a, b, 0, 0) for a in range(bound) for b in range(bound)
                if not any(lm[0] <= a and lm[1] <= b for lm in lms)
            ]
            assert ring.staircase == tuple(sorted(brute, key=lambda m: (sum(m), m)))


def test_staircase_without_divisor_variables():
    # one run, of the monomial 1, unless it is a leading monomial
    vs = VariableSet(("q",), (1,), divisor_count=0)
    assert staircase_basis(buchberger(Ideal(vs, (Polynomial.variable(vs, "q"),)))).staircase == ((0,),)
    assert staircase_basis(buchberger(Ideal(vs, (Polynomial.one(vs),)))).staircase == ()


def test_staircase_monomials_are_normal_forms():
    ring = staircase_basis(buchberger(bundle_deformed_ideal()))
    for b in ring.staircase_polynomials():
        assert ring.normal_form(b) == b


# -- ideal equality ------------------------------------------------------------


def test_ideal_equal_under_permutation():
    a = bundle_classical_ideal()
    b = Ideal(BV, tuple(reversed(a.generators)))
    assert ideal_equal(a, b)


def test_ideal_equal_under_elementary_combination():
    f1, f2 = bundle_classical_ideal().generators
    h = Polynomial.variable(BV, "h")
    assert ideal_equal(bundle_classical_ideal(), Ideal(BV, (f1, f2 + h * f1)))


def test_ideal_inequality_detected():
    a = bundle_classical_ideal()
    b = Ideal(BV, (a.generators[0],))
    assert not ideal_equal(a, b)


def test_ideal_inequality_detected_under_equal_leading_monomials():
    # both reduced bases lead with h^2 and xi^2, yet xi^2 is only in the first
    a = Ideal(BV, (poly("h^2"), poly("xi^2")))
    b = Ideal(BV, (poly("h^2"), poly("xi^2 + h*xi")))
    assert buchberger(a).leading_monomials() == buchberger(b).leading_monomials()
    assert not ideal_equal(a, b)
    assert ideal_equal(b, Ideal(BV, (poly("xi^2 + h*xi + h^2"), poly("h^2"))))


def test_ideal_equal_requires_same_setting():
    from qcblowup import blowup_variables

    kv = blowup_variables(2, 3)
    k = Polynomial.variable(kv, "k")
    with pytest.raises(UsageError):
        ideal_equal(bundle_classical_ideal(), Ideal(kv, (k,)))


# -- against the former loop ---------------------------------------------------

ORACLE_INSTANCES = [(m, p) for m in range(2, 13) for p in range(m - 1)] + [(16, 5), (20, 4)]
ORACLE_INSTANCES += [
    (m, p) for m in range(13, 25) for p in range(9) if (m, p) not in ORACLE_INSTANCES
]


def presentation_ideal(m, p, coords, quantum):
    relations = (quantum_relations if quantum else classical_relations)(derive_params(m, p), coords)
    return Ideal(relations[0].variables, relations)


@pytest.mark.parametrize("m, p", ORACLE_INSTANCES, ids=[f"m{m}p{p}" for m, p in ORACLE_INSTANCES])
def test_reduced_bases_match_the_former_loop(m, p):
    # the chain criterion, the cached leading monomials and the integer
    # kernel change no basis and no peak degree
    for coords in ("bundle", "blowup"):
        for quantum in (False, True):
            ideal = presentation_ideal(m, p, coords, quantum)
            got, want = buchberger(ideal), oracle_buchberger(ideal)
            assert got.polys == want.polys
            assert got.peak_degree == want.peak_degree


SMALL_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 2, st.integers(0, 1), st.integers(0, 1)),
    st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(SMALL_TERMS, min_size=1, max_size=3), SMALL_TERMS)
def test_the_integer_kernel_matches_the_fraction_loop_on_small_ideals(generators, probe):
    # rational, non-monic and negative leading coefficients; a budget keeps
    # a runaway draw short, and then both loops give up alike
    ideal = Ideal(BV, [Polynomial(BV, terms) for terms in generators])
    try:
        want = oracle_buchberger(ideal, max_degree=8, max_pairs=60)
    except BudgetError as exc:
        with pytest.raises(BudgetError, match=str(exc)):
            buchberger(ideal, max_degree=8, max_pairs=60)
        return
    got = buchberger(ideal, max_degree=8, max_pairs=60)
    assert (got.polys, got.peak_degree) == (want.polys, want.peak_degree)
    f = Polynomial(BV, probe)
    assert normal_form(f, got) == buchberger_oracle._reduce(f, monic_reducers(got))


def test_normal_form_matches_the_oracle_division_on_the_grid_rings(grid_params):
    # random rational classes, in both coordinate systems, classical and
    # deformed (the blow-up rings with p >= 1 have rational normal forms)
    rng = random.Random(grid_params.m * 100 + grid_params.p)
    for build in (classical_presentation, quantum_presentation):
        for coords in ("bundle", "blowup"):
            gb = build(grid_params, coords).quotient.basis
            for _ in range(8):
                terms = {}
                for _ in range(rng.randint(1, 6)):
                    mono = (rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 1), rng.randint(0, 1))
                    terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                f = Polynomial(gb.variables, terms)
                assert normal_form(f, gb) == buchberger_oracle._reduce(f, monic_reducers(gb))
            # a monomial whose normal form the kernel reaches only by scaling
            monos = [(a, b, 0, 0) for a in range(12) for b in range(12)]
            scaled = [m for m in monos if groebner._pseudo_reduce({m: 1}, gb._reducers)[1] > 1]
            for m in scaled[:5]:
                f = Polynomial(gb.variables, {m: 1})
                assert normal_form(f, gb) == buchberger_oracle._reduce(f, monic_reducers(gb))
            # the blow-up rings with p >= 1 are the rational ones
            assert bool(scaled) == bool(coords == "blowup" and grid_params.p)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(f, g):
        calls.append((f, g))
        return original(f, g)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("m, p, reduced, before", [(20, 4, 6, 20), (16, 5, 7, 27), (11, 3, 5, 14)])
def test_chain_criterion_skips_dead_s_polynomials(monkeypatch, m, p, reduced, before):
    # the deformed blow-up ideal: most S-polynomials of the former loop
    # reduced to zero, and the chain criterion never forms the kernel's S-pairs
    ideal = presentation_ideal(m, p, "blowup", True)
    calls = _counting(monkeypatch, groebner, "_spair")
    buchberger(ideal)
    assert len(calls) == reduced
    oracle_calls = _counting(monkeypatch, buchberger_oracle, "spolynomial")
    oracle_buchberger(ideal)
    assert len(oracle_calls) == before


@pytest.mark.parametrize("m, p, needed", [(20, 4, 21), (11, 3, 15)])
def test_pair_budget_counts_skipped_pairs(m, p, needed):
    # every popped pair counts, skipped or reduced, as in the former loop
    ideal = presentation_ideal(m, p, "blowup", True)
    for build in (buchberger, oracle_buchberger):
        assert build(ideal, max_pairs=needed).polys
        with pytest.raises(BudgetError, match=f"pair budget {needed - 1} exceeded"):
            build(ideal, max_pairs=needed - 1)


def test_the_buchberger_loop_does_no_fraction_arithmetic(monkeypatch):
    # a Fraction is built only where the final reduced basis is made monic,
    # one per coefficient that the leading one does not divide
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(groebner, "Fraction", Counted)
    for m, p in ((8, 1), (11, 3), (16, 5), (20, 4)):
        for coords in ("bundle", "blowup"):
            for quantum in (False, True):
                built.clear()
                gb = buchberger(presentation_ideal(m, p, coords, quantum))
                rational = [c for g in gb.polys for c in g.terms.values() if type(c) is not int]
                assert len(built) == len(rational)
