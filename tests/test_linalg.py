"""The sparse exact elimination oracle (``elimination_oracle``): solves,
consistency checks and determinants."""

from fractions import Fraction

import pytest
from bareiss import bareiss_determinant
from correction_oracle import solution
from elimination_oracle import determinant, eliminate
from hypothesis import given, settings, strategies as st

from qcblowup import classical_presentation, pairing_matrix


def test_unique_system_is_solved_exactly():
    # x + 2y = 5, 3x - y = 1, and a redundant consistent row x + y = 3
    rows = [{0: 1, 1: 2, 2: 5}, {0: 3, 1: -1, 2: 1}, {0: 1, 1: 1, 2: 3}]
    system = eliminate(rows, 2)
    assert len(system.pivots) == 2 and system.leftover == []
    assert solution(system) == [Fraction(1), Fraction(2)]


def test_fractional_solution():
    system = eliminate([{0: 2, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 0}], 2)
    assert solution(system) == [Fraction(3, 5), Fraction(-1, 5)]


def test_underdetermined_system_has_low_rank():
    # y never appears and the two rows are proportional in x
    rows = [{0: 1, 2: 1}, {0: 2, 2: 2}]
    system = eliminate(rows, 2)
    assert len(system.pivots) == 1
    assert system.leftover == []


def test_inconsistent_system_leaves_a_right_hand_side_row():
    # x + y = 1 and 2x + 2y = 3
    rows = [{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 3}]
    system = eliminate(rows, 2)
    assert len(system.pivots) == 1
    assert system.leftover == [{2: Fraction(1)}]


def test_determinant_sign_and_degenerate_cases():
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[2, 1], [1, 1]]) == 1


@pytest.mark.parametrize("coords", ["bundle", "blowup"])
def test_determinant_matches_bareiss_on_pairing_matrices(grid_params, coords):
    matrix = pairing_matrix(classical_presentation(grid_params, coords))
    value = determinant(matrix)
    assert value.denominator == 1
    assert value == bareiss_determinant(matrix)


def test_unit_pivots_keep_every_entry_an_int():
    # a unimodular system: every pivot is +-1, so every step divides exactly
    rows = [{0: 1, 1: 2, 2: 3, 3: 6}, {0: 2, 1: 5, 2: 7, 3: 14}, {0: 1, 1: 3, 2: 5, 3: 9}]
    system = eliminate(rows, 3)
    assert all(type(v) is int for row in system.pivots.values() for v in row.values())
    assert system.determinant == 1 and type(system.determinant) is int
    assert solution(system) == [1, 1, 1]
    assert type(determinant([[1, 2, 3], [2, 5, 7], [1, 3, 5]])) is int


def test_non_unit_pivots_give_exact_fractions():
    system = eliminate([{0: 2, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 0}], 2)
    assert system.pivots[1] == {1: -5, 2: 1}
    assert all(type(x) is Fraction for x in solution(system))
    assert system.determinant == 5 and type(system.determinant) is int
    # 3 is not a multiple of the pivot 2, so the second row turns rational
    system = eliminate([{0: 2, 1: 1}, {0: 3, 1: 1}], 2)
    assert system.pivots[1] == {1: Fraction(-1, 2)}
    assert system.determinant == -1 and type(system.determinant) is int
    assert determinant([[2, 0], [0, Fraction(1, 2)]]) == 1
    assert type(determinant([[2, 0], [0, Fraction(1, 4)]])) is Fraction


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.integers(1, 3), min_size=n, max_size=n),
        )
    )
)
def test_determinant_matches_bareiss_with_non_unit_pivots(data):
    # rows scaled by 2 or 3 make pivots that are not units
    matrix, scales = data
    matrix = [[scale * v for v in row] for row, scale in zip(matrix, scales)]
    value = determinant(matrix)
    assert value == bareiss_determinant(matrix)
    assert type(value) is int
