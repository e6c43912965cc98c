"""Correlated null frames of G(1,n) and G(n,1).

A positively correlated frame is n+1 null vectors a_1..a_{n+1} of G(1,n)
with a_i . a_j = 1/2 for i != j; the negatively correlated twin lives in
G(n,1) with inner products -1/2.  Both are defined by the combination

    b_0 = a_1 + a_2,   b_1 = a_1 - a_2,
    b_k = alpha_k * (A_k - (k-1) a_{k+1}),   alpha_k = -sqrt(2)/sqrt(k(k-1)),

with A_k = a_1 + ... + a_k, b_0 the generator whose square carries the
correlation sign and b_1.. the rest.  Its rows form T^-1, which converts
standard coordinates to null ones.  Its solution, a_{1,2} = (b_0 +- b_1)/2
and a_{k+1} = (A_k - b_k/alpha_k)/(k-1), gives the rows of T.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from . import CANONICAL_BASIS_LIMIT, FRAME_LIMIT, linalg
from .algebra import Algebra, AlgebraError, Multivector, combination, wedge_list
from .scalars import EXACT, Radical, coerce


class CoordinateRow(namedtuple("CoordinateRow", "entries basis")):
    """A coordinate row vector, tagged with the basis it multiplies."""

    __slots__ = ()

    def __new__(cls, entries: tuple, basis: str):  # basis: "standard" or "null"
        if basis not in ("standard", "null"):
            raise ValueError(f"unknown basis tag {basis!r}")
        return super().__new__(cls, entries, basis)


class TableReport(namedtuple("TableReport", "checked violations", defaults=((),))):
    """Outcome of checking the 4x4 pair product grid for every i<j."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class NullFrame:
    """n+1 correlated null vectors with their exact transition matrix."""

    def __init__(self, algebra, sign, vectors, t_matrix, t_inverse):
        self.algebra = algebra
        self.sign = sign
        self.vectors = tuple(vectors)
        self.t_matrix = t_matrix
        self.t_inverse = t_inverse
        self.size = len(self.vectors)
        self.n = self.size - 1
        self._canonical_cache: tuple | None = None

    def __repr__(self):
        kind = "positive" if self.sign > 0 else "negative"
        return f"NullFrame({kind}, n+1={self.size})"

    def vector(self, i: int) -> Multivector:
        """1-based accessor for a_i."""
        return self.vectors[i - 1]

    def metric_dual_basis(self) -> list[Multivector]:
        """Row basis with b^i . b_j = delta_ij (flips the -1 generators)."""
        out = []
        for bit in standard_basis_bits(self.size, self.sign):
            g = self.algebra.generator(bit)
            out.append(g if self.algebra.generator_square(bit) > 0 else -g)
        return out


def standard_basis_bits(n_plus_1: int, sign: int) -> list[int]:
    """Generator bit for each slot of a frame's ordered standard basis.

    Positive frames read (e1, f1..fn) straight off G(1,n); negative
    frames use (f1, e1..en) inside G(n,1), putting the sign-carrying
    generator first in both cases.
    """
    n = n_plus_1 - 1
    if sign > 0:
        return list(range(n + 1))
    return [n] + list(range(n))


def build_null_frame(n_plus_1: int, sign: int = 1) -> NullFrame:
    """The correlated null frame a_1..a_{n+1}: T^-1 from the defining
    combination, T from its solution, each a_i from its row of T."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 2 <= n_plus_1 <= FRAME_LIMIT:
        raise AlgebraError(
            f"frame size {n_plus_1} outside 2..{FRAME_LIMIT}"
        )
    n = n_plus_1 - 1
    algebra = Algebra(1, n) if sign > 0 else Algebra(n, 1)

    zero, one, half = Radical(0), Radical(1), Radical(Fraction(1, 2))
    pad = [zero] * (n - 1)
    t_inverse = [[one, one, *pad], [one, -one, *pad]]
    t_matrix = [[half, half, *pad], [half, -half, *pad]]
    running_sum = [one, zero, *pad]  # A_2 = a_1 + a_2 = b_0
    for k in range(2, n + 1):
        alpha = -(Radical.sqrt(2) / Radical.sqrt(k * (k - 1)))
        t_inverse.append([alpha] * k + [alpha * (1 - k)] + [zero] * (n - k))
        scale = Fraction(1, k - 1)
        row = [x * scale for x in running_sum]
        row[k] = -scale / alpha  # slot k of A_k is zero
        t_matrix.append(row)
        running_sum = [x + y for x, y in zip(running_sum, row)]

    bits = standard_basis_bits(n_plus_1, sign)
    vectors = [
        algebra.multivector({1 << bit: x for bit, x in zip(bits, row) if x})
        for row in t_matrix
    ]
    return NullFrame(algebra, sign, vectors, t_matrix, t_inverse)


# -- multiplication table -------------------------------------------------------


def verify_multiplication_table(frame: NullFrame) -> TableReport:
    """Check all sixteen products of {a_i, a_j, a_i a_j, a_j a_i} per pair.

    The expected grid follows from a_i^2 = 0 and a_i . a_j = s/2: with
    s = +1 every sandwich such as (a_i a_j) a_i collapses back to a_i,
    with s = -1 it picks up a minus sign.
    """
    s = frame.sign
    violations = []
    checked = 0
    zero = frame.algebra.zero()
    for i, j in itertools.combinations(range(frame.size), 2):
        ai, aj = frame.vectors[i], frame.vectors[j]
        aij, aji = ai * aj, aj * ai
        labels = ("a_i", "a_j", "a_i*a_j", "a_j*a_i")
        elements = (ai, aj, aij, aji)
        expected = (
            (zero, aij, zero, ai * s),
            (aji, zero, aj * s, zero),
            (ai * s, zero, aij * s, zero),
            (zero, aj * s, zero, aji * s),
        )
        for r in range(4):
            for c in range(4):
                checked += 1
                got = elements[r] * elements[c]
                if got != expected[r][c]:
                    violations.append(
                        (i + 1, j + 1, f"{labels[r]} * {labels[c]}")
                    )
    return TableReport(checked=checked, violations=tuple(violations))


# -- coordinate conversions ------------------------------------------------------


def _apply_row(row: CoordinateRow, matrix) -> tuple:
    entries = [coerce(v, EXACT) for v in row.entries]
    return tuple(linalg.vec_mat(entries, matrix))


def to_null_coordinates(frame: NullFrame, row: CoordinateRow) -> CoordinateRow:
    if row.basis != "standard":
        raise ValueError("expected standard coordinates")
    if len(row.entries) != frame.size:
        raise ValueError(f"expected {frame.size} coordinates")
    return CoordinateRow(_apply_row(row, frame.t_inverse), "null")


def to_standard_coordinates(frame: NullFrame, row: CoordinateRow) -> CoordinateRow:
    if row.basis != "null":
        raise ValueError("expected null coordinates")
    if len(row.entries) != frame.size:
        raise ValueError(f"expected {frame.size} coordinates")
    return CoordinateRow(_apply_row(row, frame.t_matrix), "standard")


def vector_from_null_coordinates(frame: NullFrame, coords) -> Multivector:
    return combination(frame.algebra, zip(frame.vectors, coords))


# -- sums and reciprocal frame ------------------------------------------------------


def k_sum(frame: NullFrame, k: int) -> Multivector:
    """A_k = a_1 + ... + a_k."""
    if not 1 <= k <= frame.size:
        raise ValueError(f"k = {k} outside 1..{frame.size}")
    return combination(frame.algebra, ((a, 1) for a in frame.vectors[:k]))


def unit_k_sum(frame: NullFrame, k: int) -> Multivector:
    """The normalized k-sum, squaring to the correlation sign."""
    if k < 2:
        raise ValueError("unit_k_sum needs k >= 2 (normalization undefined)")
    scale = Radical.sqrt(Fraction(2, k * (k - 1)))
    return k_sum(frame, k) * scale


def dual_sum(frame: NullFrame, i: int) -> Multivector:
    """The n-sum leaving out a_i (1-based)."""
    if not 1 <= i <= frame.size:
        raise ValueError(f"i = {i} outside 1..{frame.size}")
    return k_sum(frame, frame.size) - frame.vector(i)


def reciprocal_frame(frame: NullFrame) -> list[Multivector]:
    """Vectors a^i with a^i . a_j = delta_ij.

    Columns of T^-1 contract the metric-dual standard frame, so the
    grade-1 duality is inherited from the orthonormal basis.
    """
    dual = frame.metric_dual_basis()
    return [combination(frame.algebra, zip(dual, column))
            for column in zip(*frame.t_inverse)]


# -- pseudoscalar relation ---------------------------------------------------------


def pseudoscalar_relation(frame: NullFrame) -> Multivector:
    """-(sqrt 2)^(n+1)/sqrt(n) a_1^...^a_{n+1}, stated to be e1 f1..fn."""
    if frame.sign < 0:
        raise ValueError("stated for positively correlated frames")
    n = frame.n
    factor = -Radical.sqrt(Fraction(2 ** (n + 1), n))
    return wedge_list(frame.vectors) * factor


# -- canonical null products ----------------------------------------------------------
#
# P[S] is the canonical product a_{t1} a_{t2} ... (t1 < t2 < ...) over the
# subset S.  With s the correlation sign, a_i^2 = 0 and a_i . a_j = s/2
# give a_j a_i = s - a_i a_j for i != j, so a frame vector times P[S] is
# an integer combination of canonical products: with t_1 < ... < t_m the
# members of S below j,
#
#     a_j P[S] = sum_{i=1..m} (-1)^(i-1) s P[S - {t_i}] + (-1)^m P[S + {j}],
#
# where the last term is present only when j is not in S (a_j a_j = 0).


def _left_multiply_vector(sign: int, coords, expansion: dict) -> dict:
    """(sum_j coords[j] a_j) * (sum_S expansion[S] P[S]), by the rule above."""
    out: dict[int, Radical] = {}

    def add(subset, value):
        current = out.get(subset)
        out[subset] = value if current is None else current + value

    for subset, c in expansion.items():
        for j, cj in enumerate(coords):
            if not cj:
                continue
            term = cj * c
            dropped = term if sign > 0 else -term
            below = subset & ((1 << j) - 1)
            while below:
                low = below & -below
                add(subset ^ low, dropped)
                dropped = -dropped
                below ^= low
            if not subset >> j & 1:
                add(subset | (1 << j), dropped if sign > 0 else -dropped)
    return {subset: c for subset, c in out.items() if c}


def canonical_subsets(size: int) -> list[int]:
    """Subset bitmasks ordered by (grade, lexicographic index tuple)."""
    def key(subset: int):
        return (subset.bit_count(),
                tuple(t for t in range(size) if subset >> t & 1))
    return sorted(range(1 << size), key=key)


def null_canonical_basis(frame: NullFrame):
    """The 2^(n+1) canonical products P[S] of the frame vectors.

    Returns (subsets, products): products[r] is the geometric product of
    frame vectors over subsets[r] (increasing indices), built as
    P[S] = a_low P[S - {low}] with low the smallest index in S.
    """
    if frame.size > CANONICAL_BASIS_LIMIT:
        raise AlgebraError(
            f"canonical basis limited to n+1 <= {CANONICAL_BASIS_LIMIT}"
        )
    if frame._canonical_cache is not None:
        return frame._canonical_cache
    subsets = canonical_subsets(frame.size)
    by_subset = {0: frame.algebra.scalar(1)}
    for subset in range(1, 1 << frame.size):
        low = subset & -subset
        by_subset[subset] = (frame.vectors[low.bit_length() - 1]
                             * by_subset[subset ^ low])
    frame._canonical_cache = (subsets, [by_subset[s] for s in subsets])
    return frame._canonical_cache


def express_in_null_basis(frame: NullFrame, mv: Multivector) -> list:
    """Coefficients of mv over the canonical products P[S] (subset order).

    A standard blade is the product of its generators in increasing bit
    order, and each generator is sum_j T^-1[slot][j] a_j.  Multiplying
    the generators in from the right with a_j P[S] expanded by the rule
    above gives the blade's canonical-product coordinates exactly.
    """
    if mv.algebra != frame.algebra:
        raise AlgebraError("multivector from a different algebra")
    rows = dict(zip(standard_basis_bits(frame.size, frame.sign),
                    frame.t_inverse))
    total: dict[int, Radical] = {}
    for blade, value in mv.items():
        expansion = {0: value}
        for bit in reversed(range(frame.size)):
            if blade >> bit & 1:
                expansion = _left_multiply_vector(frame.sign, rows[bit],
                                                  expansion)
        for subset, c in expansion.items():
            current = total.get(subset)
            total[subset] = c if current is None else current + c
    zero = Radical(0)
    return [total.get(subset) or zero for subset in canonical_subsets(frame.size)]


def reconstruct_from_null_basis(frame: NullFrame, coefficients) -> Multivector:
    _, products = null_canonical_basis(frame)
    return combination(frame.algebra, zip(products, coefficients))
