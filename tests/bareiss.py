"""Fraction-free (Bareiss 1968) integer determinant on dense rows, kept as a
test oracle for the block pairing determinant of ``qcblowup.geometry`` and
the sparse elimination of ``elimination_oracle``."""


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] = (a[j][k] * a[i][i] - a[j][i] * a[i][k]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]
