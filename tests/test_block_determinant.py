"""The pairing determinants of ``verify``: block by block over the graded
staircase (``suites.block_determinant``), against the dense Bareiss
oracle and the sparse elimination oracle."""

import pytest
from bareiss import bareiss_determinant
from elimination_oracle import determinant
from hypothesis import given, settings, strategies as st

from qcblowup import classical_presentation, derive_params, pairing_matrix
from qcblowup.suites import block_determinant

GRID_TO_12 = [(m, p) for m in range(4, 13) for p in range(4) if p <= m - 2]
LARGE = [(24, 6), (32, 8), (48, 12), (64, 16)]


def pairing_determinant(pres):
    """The matrix and its block determinant as ``verify`` takes it."""
    matrix = pairing_matrix(pres)
    sizes = [len(group) for group in pres.quotient.by_degree.values()]
    return matrix, block_determinant(matrix, sizes)


def test_the_graded_staircase_lists_the_staircase_by_degree():
    # the groups, in ascending degree, are consecutive runs of the staircase
    for coords in ("bundle", "blowup"):
        quotient = classical_presentation(derive_params(11, 3), coords).quotient
        degrees = list(quotient.by_degree)
        assert degrees == sorted(degrees) == list(range(degrees[-1] + 1))
        assert [s for group in quotient.by_degree.values() for s in group] == list(
            quotient.staircase
        )
        assert quotient.by_degree is quotient.by_degree
        with pytest.raises(TypeError):
            quotient.by_degree[0] = ()


@pytest.mark.parametrize("m, p", GRID_TO_12, ids=[f"m{m}p{p}" for m, p in GRID_TO_12])
def test_block_determinant_matches_both_oracles_on_the_grid(m, p):
    for coords in ("bundle", "blowup"):
        matrix, value = pairing_determinant(classical_presentation(derive_params(m, p), coords))
        assert type(value) is int
        assert value == bareiss_determinant(matrix) == determinant(matrix)
        if coords == "bundle":
            assert value in (1, -1)


@pytest.mark.parametrize("m, p", LARGE, ids=[f"m{m}p{p}" for m, p in LARGE])
def test_block_determinant_matches_the_eliminator_on_large_instances(m, p):
    for coords in ("bundle", "blowup"):
        matrix, value = pairing_determinant(classical_presentation(derive_params(m, p), coords))
        assert value == determinant(matrix)


def test_block_determinant_signs_and_degenerate_cases():
    assert block_determinant([], []) == 1
    assert block_determinant([[0, 1], [1, 0]], [1, 1]) == -1
    assert block_determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]], [1, 1, 1]) == -30
    # two blocks of odd size 3 swap at the sign (-1)^9
    swap = [[0] * 3 + [int(i == j) for j in range(3)] for i in range(3)]
    swap += [[int(i == j) for j in range(3)] + [0] * 3 for i in range(3)]
    assert block_determinant(swap, [3, 3]) == -1 == bareiss_determinant(swap)
    # sizes (1, 2) are not symmetric: the 1 x 2 block cannot be square
    assert block_determinant([[0, 1, 2], [3, 0, 0], [4, 0, 0]], [1, 2]) == 0
    # a singular block, which needs a row swap to find that out
    assert block_determinant([[0, 0], [0, 0]], [2]) == 0
    assert block_determinant([[0, 2], [3, 1]], [2]) == -6


@st.composite
def block_anti_diagonal(draw):
    """A random integer matrix, zero outside its anti-diagonal blocks, and its
    block sizes.  Half the draws make the sizes a palindrome, of even or odd
    length, as Poincare duality does; the rest mostly have a block that is
    not square."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    if draw(st.booleans()):
        sizes += sizes[::-1] if draw(st.booleans()) else sizes[-2::-1]
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    total, k = sum(sizes), len(sizes) - 1
    matrix = [[0] * total for _ in range(total)]
    for i, (start, size) in enumerate(zip(starts, sizes)):
        col = starts[k - i]
        for r in range(start, start + size):
            for c in range(col, col + sizes[k - i]):
                matrix[r][c] = draw(st.integers(-4, 4))
    return matrix, sizes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(block_anti_diagonal())
def test_block_determinant_matches_bareiss_on_random_block_matrices(case):
    matrix, sizes = case
    value = block_determinant(matrix, sizes)
    assert type(value) is int
    assert value == bareiss_determinant(matrix)
