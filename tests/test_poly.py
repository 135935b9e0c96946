"""Polynomial arithmetic, the graded-lex order and the canonical text format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcblowup import (
    ParseError,
    Polynomial,
    UsageError,
    VariableSet,
    blowup_variables,
    bundle_variables,
    derive_params,
    quantum_presentation,
)
from qcblowup.poly import grlex_key, mono_div, mono_divides, mono_lcm, mono_mul

from product_oracle import decompose_contributions

BV = bundle_variables(2, 3)
KV = blowup_variables(2, 3)


def poly(text, vs=BV):
    return Polynomial.parse(vs, text)


def is_canonical(c):
    """A stored coefficient is an int, or a Fraction only when it is not one."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


# -- strategies ----------------------------------------------------------------


def polynomials(vs=BV, max_exp=3, max_terms=4):
    mono = st.tuples(*[st.integers(0, max_exp) for _ in vs.names])
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    term = st.tuples(mono, coeff)
    return st.lists(term, max_size=max_terms).map(lambda ts: Polynomial(vs, ts))


# -- arithmetic examples -------------------------------------------------------


def test_product_of_variables():
    h = Polynomial.variable(BV, "h")
    assert h * h == poly("h^2")


def test_binomial_square():
    k = Polynomial.variable(KV, "k")
    eta = Polynomial.variable(KV, "eta")
    assert (k - eta) ** 2 == poly("k^2 - 2*k*eta + eta^2", KV)


def test_fiber_relation_product():
    xi = Polynomial.variable(BV, "xi")
    h = Polynomial.variable(BV, "h")
    assert (xi - h) * (xi - 2 * h) == poly("xi^2 - 3*h*xi + 2*h^2")


def test_scalar_mixing_and_power():
    h = Polynomial.variable(BV, "h")
    assert 2 * h - h == h
    assert (h + 1) ** 0 == 1
    assert Fraction(1, 2) * (2 * h) == h


def test_mismatched_variable_sets_rejected():
    with pytest.raises(UsageError):
        Polynomial.variable(BV, "h") + Polynomial.variable(KV, "k")


def test_mismatched_variable_sets_name_their_weights():
    # same names, different weights: the message has to tell the two apart
    h6, h7 = (Polynomial.variable(bundle_variables(3, n), "h") for n in (4, 5))
    with pytest.raises(UsageError) as err:
        h6 * h7
    message = str(err.value)
    assert message.startswith("mixed variable sets: VariableSet(names=('xi', 'h', 'q1', 'q2')")
    assert "weights=(1, 1, 3, 4)" in message.split(" vs ")[0]
    assert "weights=(1, 1, 3, 5)" in message.split(" vs ")[1]


def test_negative_power_rejected():
    with pytest.raises(UsageError):
        Polynomial.variable(BV, "h") ** -1


def test_constructor_accepts_only_exact_coefficients():
    for bad in (0.1, 1.0, "1", None):
        with pytest.raises(UsageError):
            Polynomial(BV, {(1, 0, 0, 0): bad})
        with pytest.raises(UsageError):
            Polynomial(BV, [((1, 0, 0, 0), bad)])
        with pytest.raises(UsageError):
            Polynomial.constant(BV, bad)
        with pytest.raises(UsageError):
            Polynomial.monomial(BV, (0, 1, 0, 0), bad)
        with pytest.raises(UsageError):
            poly("xi + q1").substitute({"q1": bad})
    f = Polynomial(BV, {(1, 0, 0, 0): 2, (0, 1, 0, 0): Fraction(1, 3), (0, 0, 1, 0): 0})
    assert f.terms == {(1, 0, 0, 0): Fraction(2), (0, 1, 0, 0): Fraction(1, 3)}
    assert all(is_canonical(c) for c in f.terms.values())


def test_integral_coefficients_are_stored_as_int():
    xi = (1, 0, 0, 0)
    for f, c in (
        (poly("4/2*xi"), 2),
        (poly("1/2*xi") * 2, 1),
        (4 * poly("1/2*xi"), 2),
        (poly("3/2*xi") * Fraction(4, 3), 2),
        (poly("1/2*xi") + poly("3/2*xi"), 2),
        (poly("1/2*xi") * poly("2"), 1),
    ):
        assert f.terms == {xi: c}
        assert type(f.terms[xi]) is int
    assert type(poly("2/4*xi").terms[xi]) is Fraction
    assert type(Polynomial.variable(BV, "xi").terms[xi]) is int
    assert type(Polynomial.zero(BV).coefficient(xi)) is int


def test_int_and_fraction_inputs_give_equal_polynomials():
    h = (0, 1, 0, 0)
    built = [
        Polynomial(BV, {h: 2, (0, 0, 0, 0): Fraction(1, 2)}),
        Polynomial(BV, {h: Fraction(4, 2), (0, 0, 0, 0): Fraction(2, 4)}),
        poly("2*h + 1/2"),
        poly("1/3*h") * 6 + Fraction(1, 2),
    ]
    for f in built:
        assert f == built[0]
        assert hash(f) == hash(built[0])
        assert all(is_canonical(c) for c in f.terms.values())


# Results of arithmetic skip the constructor's checks, so each is compared
# with what the checking constructor makes of the same terms.
QUANTUM_40 = quantum_presentation(derive_params(4, 0), "bundle")
SCALARS = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), SCALARS, st.integers(0, 3))
def test_arithmetic_results_match_the_checking_constructor(f, g, c, e):
    k = Polynomial.variable(KV, "k")
    eta = Polynomial.variable(KV, "eta")
    results = [
        f + g, f - g, f - f, f + (-f), f * g, f * g - g * f, c * f, f * c, f ** e, -f,
        f.map_variables(KV, {"xi": 2 * k - eta, "h": k - eta}),
        QUANTUM_40.quotient.normal_form(f),
        *decompose_contributions(f).values(),
    ]
    for result in results:
        assert result.terms == Polynomial(result.variables, dict(result.terms)).terms
        assert all(is_canonical(v) and v for v in result.terms.values())


# -- the monomial order (graded-lex) ---------------------------------------------


def compare(a, b):
    ka, kb = grlex_key(a), grlex_key(b)
    return (ka > kb) - (ka < kb)


def test_grlex_uses_degree_first():
    # h^3 > xi although xi has the higher precedence
    assert compare((1, 0, 0, 0), (0, 3, 0, 0)) == -1
    assert compare((1, 1, 0, 0), (0, 2, 0, 0)) == 1


def test_compare_reflexive():
    assert compare((2, 1, 0, 0), (2, 1, 0, 0)) == 0


@given(
    st.tuples(*[st.integers(0, 4)] * 4),
    st.tuples(*[st.integers(0, 4)] * 4),
    st.tuples(*[st.integers(0, 4)] * 4),
)
def test_order_is_multiplicative_with_minimal_unit(a, b, c):
    cmp_ab = compare(a, b)
    shifted = compare(tuple(x + z for x, z in zip(a, c)), tuple(y + z for y, z in zip(b, c)))
    assert cmp_ab == shifted
    assert compare(a, (0, 0, 0, 0)) >= 0


MONOS = st.tuples(*[st.integers(0, 6)] * 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(MONOS, MONOS, st.sampled_from([BV, KV, bundle_variables(5, 16)]))
def test_monomial_kernels_match_the_comprehension_forms(a, b, vs):
    # the map/operator kernels against the generator expressions they replaced
    assert mono_mul(a, b) == tuple(x + y for x, y in zip(a, b))
    assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
    divides = all(x <= y for x, y in zip(a, b))
    assert mono_divides(a, b) is divides
    if divides:
        assert mono_div(b, a) == tuple(y - x for x, y in zip(a, b))
    else:
        with pytest.raises(UsageError, match="does not divide"):
            mono_div(b, a)
    for mono in (a, b):
        assert type(vs.weighted_degree(mono)) is int
        assert vs.weighted_degree(mono) == sum(e * w for e, w in zip(mono, vs.weights))
        assert vs.is_parameter_free(mono) is all(mono[i] == 0 for i in vs.parameter_indices)
    assert type(mono_mul(a, b)) is tuple and type(mono_lcm(a, b)) is tuple


# -- ring axioms ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(f, g, k):
    assert (f + g) + k == f + (g + k)
    assert f + g == g + f
    assert (f * g) * k == f * (g * k)
    assert f * g == g * f
    assert f * (g + k) == f * g + f * k


@settings(max_examples=40, deadline=None)
@given(polynomials(max_exp=2, max_terms=3), st.integers(0, 3))
def test_power_matches_repeated_product(f, e):
    expected = Polynomial.one(BV)
    for _ in range(e):
        expected = expected * f
    assert f**e == expected


# -- grading -------------------------------------------------------------------


def test_weighted_degrees_use_parameter_weights():
    q1 = Polynomial.variable(BV, "q1")
    q2 = Polynomial.variable(BV, "q2")
    assert q1.homogeneous_degree() == 2
    assert q2.homogeneous_degree() == 3


def test_homogeneous_products_add_degrees():
    xi = Polynomial.variable(BV, "xi")
    h = Polynomial.variable(BV, "h")
    q2 = Polynomial.variable(BV, "q2")
    f = h**3 * q2
    g = xi - 2 * h
    assert f.is_homogeneous() and g.is_homogeneous()
    assert (f * g).homogeneous_degree() == f.homogeneous_degree() + g.homogeneous_degree()
    assert not (f + g).is_homogeneous()


def test_integrality_predicate():
    h = Polynomial.variable(BV, "h")
    assert (3 * h).is_integral()
    assert not (Fraction(1, 2) * h).is_integral()


# -- substitution --------------------------------------------------------------


def test_substitute_parameters():
    f = poly("h^4 - xi*q2 + 2*h*q2")
    assert f.substitute({"q2": 1}) == poly("h^4 - xi + 2*h")
    assert f.substitute({"q2": 0}) == poly("h^4")
    assert f.substitute({"h": poly("xi"), "q2": 2}) == poly("xi^4 + 2*xi")


def test_substitute_rejects_unknown_names_and_foreign_images():
    f = poly("h^4 - xi*q2")
    with pytest.raises(UsageError):
        f.substitute({"k": 1})
    with pytest.raises(UsageError):
        f.substitute({"h": Polynomial.variable(KV, "k")})


def test_map_variables_between_presets():
    f = poly("k*eta", KV)
    xi = Polynomial.variable(BV, "xi")
    h = Polynomial.variable(BV, "h")
    image = f.map_variables(BV, {"k": xi - h, "eta": xi - 2 * h})
    assert image == (xi - h) * (xi - 2 * h)


# -- canonical text format -----------------------------------------------------


def test_render_examples():
    assert str(poly("h^4")) == "h^4"
    f = Polynomial.variable(BV, "h") ** 7 - Polynomial.variable(BV, "xi") * Polynomial.variable(BV, "q2") + 2 * Polynomial.variable(BV, "h") * Polynomial.variable(BV, "q2")
    assert str(f) == "h^7 - xi*q2 + 2*h*q2"
    k = Polynomial.variable(KV, "k")
    eta = Polynomial.variable(KV, "eta")
    assert str(k * eta - 1) == "k*eta - 1"
    assert str(Polynomial.zero(BV)) == "0"
    assert str(-Polynomial.one(BV)) == "-1"
    assert str(Fraction(3, 2) * Polynomial.variable(BV, "h")) == "3/2*h"


def test_render_sorts_terms_descending():
    f = poly("2*h^2 + xi^2 - 3*h*xi")
    assert str(f) == "xi^2 - 3*h*xi + 2*h^2"


def test_parse_rejects_garbage():
    for bad in ("", "h^", "h**2", "2h", "h^-1", "(h+1)", "h + + xi"):
        with pytest.raises(ParseError):
            Polynomial.parse(BV, bad)
    with pytest.raises(UsageError):
        Polynomial.parse(BV, "z^2")


def test_parse_rejects_a_zero_denominator():
    for bad in ("2/0*xi^4", "1/0*xi", "h + 0/0", "xi*3/00"):
        with pytest.raises(ParseError, match="zero denominator"):
            Polynomial.parse(BV, bad)
    assert Polynomial.parse(BV, "0/3*h + 3/6") == Fraction(1, 2)


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_parse_render_round_trip(f):
    assert Polynomial.parse(BV, f.render()) == f


def test_variable_set_validation():
    with pytest.raises(UsageError):
        VariableSet(("a", "a"), (1, 1))
    with pytest.raises(UsageError):
        VariableSet(("a", "b"), (1, 0))
    with pytest.raises(UsageError):
        VariableSet(("a", "b"), (1,))
