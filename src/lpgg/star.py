"""Star projections and A-matrices over a correlated null frame.

The k-projection conjugates by the normalized k-sum; at k = n+1 it is an
algebra involution and automorphism.  The A-matrix of an element g is
the grid a_i g a_j, whose all-ones contraction reproduces the star of g
up to the normalization 2/((n+1)n); the mediated product rebuilds gh
from two such contractions up to the square of that factor.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraError, Multivector, combination
from .frames import NullFrame, k_sum, unit_k_sum
from .scalars import coerce, widest_backend


def star(frame: NullFrame, g: Multivector, k: int | None = None) -> Multivector:
    """The k-projection of g (conjugation when k = n+1, the default)."""
    if k is None:
        k = frame.size
    if not 2 <= k <= frame.size:
        raise ValueError(f"k = {k} outside 2..{frame.size}")
    unit = unit_k_sum(frame, k)
    return unit * g * unit


def star_normalization(frame: NullFrame) -> Fraction:
    """2/((n+1)n): the factor from the all-ones contraction to the star."""
    size = frame.size
    return Fraction(2, size * (size - 1))


class AMatrix:
    """Grid of products a_i g a_j for a fixed g."""

    def __init__(self, frame: NullFrame, element: Multivector, entries: list):
        self.frame = frame
        self.element = element
        self.entries = entries  # (n+1) x (n+1) multivectors

    def contraction(self) -> Multivector:
        """All-ones contraction: the sum of every entry, A g A."""
        return combination(self.frame.algebra, (
            (entry, 1) for row in self.entries for entry in row),
            self.element.backend)

    def contraction_as_star(self) -> Multivector:
        """The contraction rescaled to match the star projection."""
        return self.contraction() * coerce(
            star_normalization(self.frame), self.element.backend
        )

    def to_json(self) -> dict:
        from .textform import format_multivector

        return {
            "element": format_multivector(self.element),
            "entries": [
                [format_multivector(entry) for entry in row]
                for row in self.entries
            ],
        }


def a_matrix(frame: NullFrame, g: Multivector) -> AMatrix:
    if g.algebra != frame.algebra:
        raise AlgebraError("element from a different algebra")
    entries = [
        [ai * g * aj for aj in frame.vectors]
        for ai in frame.vectors
    ]
    return AMatrix(frame, g, entries)


def mediated_product(frame: NullFrame, g: Multivector, h: Multivector) -> Multivector:
    """The all-ones-mediated product unit (A g A)(A h A) unit, unnormalized.

    It equals ((n+1)n/2)^2 gh, so the square of the star normalization
    rescales it to gh.
    """
    unit = unit_k_sum(frame, frame.size)
    big_a = k_sum(frame, frame.size)
    return unit * ((big_a * g * big_a) * (big_a * h * big_a)) * unit


def from_coefficient_matrix(frame: NullFrame, matrix) -> Multivector:
    """Sum of m_ij a_i a_j over i != j: a scalar plus a bivector.

    The diagonal multiplies a_i a_i = 0, so it is ignored by
    construction; entries may be rational, float, or complex.
    """
    size = frame.size
    if len(matrix) != size or any(len(row) != size for row in matrix):
        raise ValueError(f"expected a {size}x{size} matrix")
    backend = widest_backend(value for row in matrix for value in row)
    vectors = [a.to_backend(backend) for a in frame.vectors]
    return combination(frame.algebra, (
        (vectors[i] * vectors[j], coerce(matrix[i][j], backend))
        for i in range(size) for j in range(size) if i != j), backend)
