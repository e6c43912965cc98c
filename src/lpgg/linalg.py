"""Small matrix helpers (lists of lists of scalars).

Products and traces add in index order for any scalar type.  One exact
forward elimination over radicals serves the rest: :func:`rank` counts
its pivots, :func:`determinant` multiplies them, and :func:`invert` runs
it on ``[matrix | I]`` and back-substitutes.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import EXACT, InexactDivisionError, Radical, coerce, to_numerators

Matrix = list[list]


def identity(n: int) -> Matrix:
    return [[Radical(1 if i == j else 0) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return [vec_mat(row, b) for row in a]


def trace(matrix: Matrix):
    return sum_scalars(matrix[i][i] for i in range(len(matrix)))


def vec_mat(row: list, m: Matrix) -> list:
    return [
        sum_scalars(row[k] * m[k][j] for k in range(len(row)))
        for j in range(len(m[0]))
    ]


def sum_scalars(values) -> object:
    it = iter(values)
    acc = next(it)
    for v in it:
        acc = acc + v
    return acc


def _eliminate(matrix: Matrix, cols: int) -> tuple[Matrix, list, int]:
    """Forward elimination over the first ``cols`` columns of an exact
    matrix (ints, Fractions, Radicals): (rows, pivots, row swaps).

    Each pivot is the candidate with the fewest radical terms; when none
    has at most the two terms a radical can invert, it raises
    :class:`~lpgg.scalars.InexactDivisionError`.  A column with no
    nonzero candidate adds no pivot.
    """
    rows = [[coerce(v, EXACT) for v in row] for row in matrix]
    pivots = []
    swaps = 0
    for col in range(cols):
        r = len(pivots)
        candidates = [i for i in range(r, len(rows)) if rows[i][col]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: len(to_numerators(rows[i][col])[0]))
        lead = rows[best][col]
        if len(to_numerators(lead)[0]) > 2:
            raise InexactDivisionError(f"no exactly invertible pivot in column {col}")
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
            swaps += 1
        # Both rows are zero left of col, so only their tails change.
        lead_inv, tail = lead.inverse(), rows[r][col:]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] * lead_inv
                rows[i][col:] = [a - factor * b for a, b in zip(rows[i][col:], tail)]
        pivots.append(lead)
    return rows, pivots, swaps


def rank(matrix: Matrix) -> int:
    """Exact rank: the pivot count of the elimination."""
    return len(_eliminate(matrix, len(matrix[0]) if matrix else 0)[1])


def determinant(matrix: Matrix) -> Fraction:
    """Exact determinant of a square matrix: the signed product of the
    pivots, which must be rational."""
    _, pivots, swaps = _eliminate(matrix, len(matrix))
    det = Radical(-1 if swaps & 1 else 1)
    for p in pivots:
        det = det * p
    return det.as_fraction() if len(pivots) == len(matrix) else Fraction(0)


def invert(matrix: Matrix) -> Matrix:
    """Exact inverse: eliminate ``[matrix | I]``, then back-substitute.

    Raises ZeroDivisionError on a singular matrix, and
    :class:`~lpgg.scalars.InexactDivisionError` as the elimination does.
    No library code calls it: null frames write T^-1 from its
    definition, and the tests check every frame's T^-1 against this
    independent route.
    """
    n = len(matrix)
    rows, pivots, _ = _eliminate(
        [list(row) + unit for row, unit in zip(matrix, identity(n))], n
    )
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    for col in reversed(range(n)):
        pivot_inv = pivots[col].inverse()
        tail = rows[col][col:] = [v * pivot_inv for v in rows[col][col:]]
        for r in range(col):
            if rows[r][col]:
                factor = rows[r][col]
                rows[r][col:] = [a - factor * b for a, b in zip(rows[r][col:], tail)]
    return [row[n:] for row in rows]
