"""The toric table of ``qcblowup.geometry`` against the hand-written
builders it replaced (``tests/toric_oracle.py``) and against the
intersection numbers the library computes.

The table lists the three ray families of the blow-up: x_0..x_n, y_0..y_p
and e, with weights (D.A1, D.A2) = (0, 1), (1, 0) and (1, -1) and divisors
h, xi - h and xi - 2h.  Relations, coordinate change and anticanonical
class are all read from it, so every admissible (m, p) with m <= 12 is
compared here, in and out of range, n = 1 included.
"""

import random
from fractions import Fraction

import pytest

import toric_oracle
from qcblowup import (
    BLOWUP_TO_BUNDLE,
    BUNDLE_TO_BLOWUP,
    EXCEPTIONAL_LINE,
    FIBER_LINE,
    CheckFailure,
    Polynomial,
    UsageError,
    anticanonical_class,
    change_vars,
    classical_relations,
    derive_params,
    pair_divisor_curve,
    quantum_relations,
    variables_for,
)
from qcblowup import geometry

ADMISSIBLE = [(m, p) for m in range(2, 13) for p in range(m - 1)]
IDS = [f"m{m}p{p}" for m, p in ADMISSIBLE]
DIRECTIONS = (("blowup", BLOWUP_TO_BUNDLE), ("bundle", BUNDLE_TO_BLOWUP))
CURVES = (FIBER_LINE, EXCEPTIONAL_LINE)


def _same(ours, theirs):
    assert ours.variables is theirs.variables
    assert ours.terms == theirs.terms


@pytest.mark.parametrize("m, p", ADMISSIBLE, ids=IDS)
def test_the_relations_are_the_hand_written_ones(m, p):
    params = derive_params(m, p)
    for coords in ("bundle", "blowup"):
        for ours, theirs in (
            (classical_relations, toric_oracle.classical_relations),
            (quantum_relations, toric_oracle.quantum_relations),
        ):
            for got, expected in zip(ours(params, coords), theirs(params, coords), strict=True):
                _same(got, expected)


@pytest.mark.parametrize("m, p", ADMISSIBLE, ids=IDS)
def test_the_coordinate_change_is_the_hand_written_one(m, p):
    params = derive_params(m, p)
    rng = random.Random(100 * m + p)
    for coords, direction in DIRECTIONS:
        vs = variables_for(params, coords)
        classes = [*classical_relations(params, coords), *quantum_relations(params, coords)]
        for _ in range(6):
            terms = {(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 2), rng.randint(0, 2)):
                     Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)}
            classes.append(Polynomial(vs, terms))
        for f in classes:
            _same(change_vars(f, direction), toric_oracle.change_vars(f, direction))


@pytest.mark.parametrize("m, p", ADMISSIBLE, ids=IDS)
def test_the_anticanonical_class_is_the_hand_written_one(m, p):
    params = derive_params(m, p)
    _same(anticanonical_class(params), toric_oracle.anticanonical_class(params))


def test_the_coordinate_change_refuses_what_the_hand_written_one_refused():
    params = derive_params(8, 1)
    for (coords, direction), (_, other) in zip(DIRECTIONS, DIRECTIONS[::-1]):
        vs = variables_for(params, coords)
        f = Polynomial.variable(vs, vs.names[0])
        for args in ((f, other), (f, "sideways")):
            with pytest.raises(UsageError) as ours:
                change_vars(*args)
            with pytest.raises(UsageError) as theirs:
                toric_oracle.change_vars(*args)
            assert str(ours.value) == str(theirs.value)


def _divisor(params, coords, form):
    vs = variables_for(params, coords)
    return Polynomial(vs, {(1, 0, 0, 0): form[0], (0, 1, 0, 0): form[1]})


@pytest.mark.parametrize("m, p", ADMISSIBLE, ids=IDS)
def test_the_table_weights_are_intersection_numbers(m, p):
    # each family's divisor, written in either coordinate system, pairs with
    # A1 and A2 to the weights the relations are read from
    params = derive_params(m, p)
    for _, weights, forms in geometry._FAMILIES:
        for coords in ("bundle", "blowup"):
            divisor = _divisor(params, coords, forms[coords])
            pairs = tuple(pair_divisor_curve(divisor, c, params) for c in CURVES)
            assert pairs == weights, (coords, forms[coords])


@pytest.mark.parametrize("m, p", ADMISSIBLE, ids=IDS)
def test_the_table_sizes_count_the_m_plus_2_rays(m, p):
    params = derive_params(m, p)
    assert [size(params) for size, _, _ in geometry._FAMILIES] == [m - p, p + 1, 1]


def test_a_wrong_row_fails_the_chern_check(monkeypatch, params81):
    # e -> xi - 3h makes the fiber relation (xi - h)^(r-1) (xi - 3h), which
    # the Chern expansion of O(1)^(r-1) + O(2) refuses
    size, weights, forms = geometry._FAMILIES[2]
    wrong = (size, weights, {**forms, "bundle": (1, -3)})
    monkeypatch.setattr(geometry, "_FAMILIES", geometry._FAMILIES[:2] + (wrong,))
    with pytest.raises(CheckFailure, match="Chern-expanded"):
        classical_relations(params81, "bundle")
    with pytest.raises(CheckFailure, match="Chern-expanded"):
        quantum_relations(params81, "bundle")
