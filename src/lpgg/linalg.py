"""Small matrix helpers (lists of lists of scalars).

Products and traces add in index order for any scalar type.  Rank and
determinant eliminate over Fractions; :func:`invert` is Gauss-Jordan
over radicals.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import EXACT, InexactDivisionError, Radical, coerce, is_zero

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


def invert(matrix: Matrix) -> Matrix:
    """Exact Gauss-Jordan inverse; raises on singular or inexact division.

    Works over :class:`~lpgg.scalars.Radical` only; pivoting prefers
    divisors with the fewest radical terms and raises
    :class:`~lpgg.scalars.InexactDivisionError` when no pivot has at most
    the two terms the radical class can invert.  No library code calls
    it: null frames write T^-1 from its definition, and the tests check
    every frame's T^-1 against this independent route.
    """
    n = len(matrix)
    a = [[coerce(v, EXACT) for v in row] for row in matrix]
    inv = identity(n)
    for col in range(n):
        candidates = [r for r in range(col, n) if not is_zero(a[r][col])]
        if not candidates:
            raise ZeroDivisionError("singular matrix")
        pivot_row = min(candidates, key=lambda r: len(a[r][col].terms()))
        pivot = a[pivot_row][col]
        if len(pivot.terms()) > 2:
            raise InexactDivisionError(
                "no exactly invertible pivot in column %d" % col
            )
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot_inv = pivot.inverse()
        a[col] = [v * pivot_inv for v in a[col]]
        inv[col] = [v * pivot_inv for v in inv[col]]
        for r in range(n):
            if r == col or is_zero(a[r][col]):
                continue
            factor = a[r][col]
            a[r] = [a[r][j] - factor * a[col][j] for j in range(n)]
            inv[r] = [inv[r][j] - factor * inv[col][j] for j in range(n)]
    return inv


def _eliminate(matrix: Matrix) -> tuple[list, int]:
    """Forward elimination over Fractions: (pivots, row swaps).

    Entries convert exactly: rational radicals, ints, Fractions and
    floats (by their binary value).
    """
    rows = [
        [v.as_fraction() if isinstance(v, Radical) else Fraction(v) for v in row]
        for row in matrix
    ]
    pivots = []
    swaps = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            swaps += 1
        lead = rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(lead)
    return pivots, swaps


def rank(matrix: Matrix) -> int:
    """Exact rank (entries must be rational)."""
    return len(_eliminate(matrix)[0])


def determinant(matrix: Matrix) -> Fraction:
    """Exact determinant of a square matrix (entries must be rational)."""
    pivots, swaps = _eliminate(matrix)
    if len(pivots) < len(matrix):
        return Fraction(0)
    det = Fraction(-1 if swaps & 1 else 1)
    for p in pivots:
        det *= p
    return det

