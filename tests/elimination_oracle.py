"""Exact sparse Gaussian elimination over the integers and the rationals,
kept as a test oracle: the basis-correction solves of
``correction_oracle`` run on :func:`eliminate`, and :func:`determinant` is
the reference of the package's block pairing determinant
(``qcblowup.suites.block_determinant``).

Rows are maps ``{column: value}`` holding only nonzero entries.  An entry
stays an ``int`` while every elimination step divides exactly; a step that
does not goes through an exact ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from qcblowup.poly import Scalar, _canonical
from qcblowup.records import Frozen

Row = dict[int, Scalar]


class Elimination(Frozen):
    """Columns ``0..ncols-1`` of a system after forward elimination.

    ``pivots`` maps each eliminated column to its pivot row, which has no
    entries in earlier pivot columns.  ``leftover`` holds the rows still
    nonzero; their entries lie in columns without a pivot or at ``ncols``
    and beyond (a right-hand side).  ``determinant`` is the sign of the row
    permutation times the product of the pivots for a square system of full
    rank, and 0 otherwise; it is an ``int`` when it is integral.
    """

    __slots__ = _fields = ("ncols", "pivots", "leftover", "determinant")

    def __init__(
        self, ncols: int, pivots: dict[int, Row], leftover: list[Row], determinant: Scalar
    ) -> None:
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "leftover", leftover)
        object.__setattr__(self, "determinant", determinant)


def eliminate(rows: Iterable[Mapping[int, Scalar]], ncols: int) -> Elimination:
    """Forward elimination of columns ``0..ncols-1``.  Each column's pivot is
    the shortest remaining row with an entry there (the earlier row on ties),
    which keeps fill-in low.  A row is reduced by ``a // b`` times the pivot
    row when both entries are ``int`` and b divides a."""
    active = {i: {c: v for c, v in row.items() if v} for i, row in enumerate(rows)}
    nrows = len(active)
    pivots: dict[int, Row] = {}
    order: list[int] = []
    product: Scalar = 1
    for col in range(ncols):
        hits = [i for i, row in active.items() if col in row]
        if not hits:
            continue
        p = min(hits, key=lambda i: (len(active[i]), i))
        prow = pivots[col] = active.pop(p)
        order.append(p)
        pivot = prow[col]
        product *= pivot
        for i in hits:
            if i == p:
                continue
            row = active[i]
            a = row[col]
            if type(a) is int and type(pivot) is int and a % pivot == 0:
                factor = a // pivot
            else:
                factor = _canonical(Fraction(a) / pivot)
            for c, v in prow.items():
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = _canonical(value)
                else:
                    del row[c]
    determinant: Scalar = 0
    if len(order) == nrows == ncols:
        inversions = sum(a > b for a, b in combinations(order, 2))
        determinant = _canonical(-product if inversions % 2 else product)
    return Elimination(ncols, pivots, [row for row in active.values() if row], determinant)


def determinant(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Exact determinant of a square matrix given as a list of rows."""
    return eliminate([dict(enumerate(row)) for row in matrix], len(matrix)).determinant
