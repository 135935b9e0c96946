"""Sparse exact elimination: solves, consistency checks and determinants."""

from fractions import Fraction

import pytest
from bareiss import bareiss_determinant

from qcblowup import classical_presentation, pairing_matrix
from qcblowup.linalg import determinant, eliminate


def test_unique_system_is_solved_exactly():
    # x + 2y = 5, 3x - y = 1, and a redundant consistent row x + y = 3
    rows = [{0: 1, 1: 2, 2: 5}, {0: 3, 1: -1, 2: 1}, {0: 1, 1: 1, 2: 3}]
    system = eliminate(rows, 2)
    assert len(system.pivots) == 2 and system.leftover == []
    assert system.solution() == [Fraction(1), Fraction(2)]


def test_fractional_solution():
    system = eliminate([{0: 2, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 0}], 2)
    assert system.solution() == [Fraction(3, 5), Fraction(-1, 5)]


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
