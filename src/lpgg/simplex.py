"""Barycentric null simplices, vertex graphs, content, and the Laplacian.

The convex null n-simplex has its vertices at the frame nulls; points
carry homogeneous barycentric coordinates (nonnegative, summing to 1).
Because a_i . a_j = 1/2 off the diagonal, the squared length of a
barycentric point is sum_{i<j} x_i x_j >= 0, vanishing exactly on the
light-cone subset (vertices included).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .algebra import Multivector, combination, wedge_list
from .frames import NullFrame, dual_sum, vector_from_null_coordinates
from .scalars import APPROX, EXACT, Radical, backend_of, coerce, is_zero


class LightConeError(ValueError):
    """Normalization of a point on the light cone (|x| = 0)."""


ON_CONE_TOLERANCE = 1e-12


def _scalar_sign(value) -> int:
    if isinstance(value, Radical):
        return value.sign()
    if isinstance(value, Fraction):
        return (value > 0) - (value < 0)
    return (value > ON_CONE_TOLERANCE) - (value < -ON_CONE_TOLERANCE)


class SimplexPoint(namedtuple("SimplexPoint", "frame coordinates")):
    __slots__ = ()

    def __new__(cls, frame: NullFrame, coordinates: tuple):
        if len(coordinates) != frame.size:
            raise ValueError(f"expected {frame.size} coordinates")
        return super().__new__(cls, frame, coordinates)

    @property
    def backend(self) -> str:
        kinds = {backend_of(c) for c in self.coordinates}
        return APPROX if APPROX in kinds else EXACT

    def is_barycentric(self) -> bool:
        total = linalg.sum_scalars(self.coordinates)
        if self.backend == EXACT:
            unit = total == 1
        else:
            unit = abs(float(total) - 1.0) <= ON_CONE_TOLERANCE
        return unit and all(_scalar_sign(c) >= 0 for c in self.coordinates)

    def to_multivector(self) -> Multivector:
        backend = self.backend
        return combination(self.frame.algebra, (
            (a.to_backend(backend), coerce(x, backend))
            for x, a in zip(self.coordinates, self.frame.vectors)), backend)

    def norm_squared(self):
        """|x|^2 = sum_{i<j} x_i x_j for a positively correlated frame."""
        total = linalg.sum_scalars(
            x * y for x, y in itertools.combinations(self.coordinates, 2))
        if self.frame.sign < 0:
            total = -total
        return total

    def is_on_cone(self) -> bool:
        value = self.norm_squared()
        if self.backend == EXACT:
            return is_zero(value)
        return abs(float(value)) <= ON_CONE_TOLERANCE

    def norm(self):
        value = self.norm_squared()
        if self.backend == EXACT:
            value = coerce(value, EXACT)
            if value.sign() < 0:
                raise LightConeError("|x|^2 < 0: point outside the cone interior")
            if not value.is_rational():
                raise LightConeError(
                    f"|x|^2 = {value} is irrational; use the approx backend "
                    "to normalize"
                )
            return Radical.sqrt(value.as_fraction())
        value = float(value)
        if value < -ON_CONE_TOLERANCE:
            raise LightConeError("|x|^2 < 0: point outside the cone interior")
        return math.sqrt(max(value, 0.0))

    def unit(self) -> Multivector:
        if self.is_on_cone():
            raise LightConeError("cannot normalize a light-cone point")
        return self.to_multivector() / self.norm()


def centroid(frame: NullFrame) -> SimplexPoint:
    w = Fraction(1, frame.size)
    return SimplexPoint(frame, tuple(w for _ in range(frame.size)))


def vertex(frame: NullFrame, i: int) -> SimplexPoint:
    coords = tuple(
        Fraction(1) if j == i - 1 else Fraction(0) for j in range(frame.size)
    )
    return SimplexPoint(frame, coords)


# -- simplicial matrices ----------------------------------------------------------------


class SimplicialMatrix:
    """Vertex rows in null coordinates; barycentric mode checks rows."""

    def __init__(self, frame: NullFrame, rows: list, barycentric: bool = True):
        self.frame = frame
        self.rows = rows
        self.barycentric = barycentric
        for row in rows:
            if len(row) != frame.size:
                raise ValueError(f"rows must have {frame.size} entries")
        if barycentric:
            for row in rows:
                point = SimplexPoint(frame, tuple(row))
                if not point.is_barycentric():
                    raise ValueError(
                        "barycentric rows must be nonnegative and sum to 1"
                    )

    def vertices(self) -> list[Multivector]:
        return [
            vector_from_null_coordinates(self.frame, row) for row in self.rows
        ]


def simplicial_matrix_from_csv(frame: NullFrame, text: str,
                               barycentric: bool = True) -> SimplicialMatrix:
    """One vertex per line, comma-separated exact null coordinates."""
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        row = [parse_coordinate(cell) for cell in line.split(",")]
        if any(isinstance(value, float) for value in row):
            raise ValueError(f"vertex row {line!r} must be exact (integers or p/q)")
        rows.append(row)
    return SimplicialMatrix(frame, rows, barycentric=barycentric)


def parse_coordinate(text: str):
    """Decimal text gives a float; integer and 'p/q' text stay exact.

    Raises ValueError for non-ASCII text (``float`` and ``Fraction`` also
    read other scripts' digits) and for a float that is not finite.
    """
    text = text.strip()
    if not text.isascii():
        raise ValueError(f"coordinate {text!r} must be written in ASCII")
    if "." in text or "e" in text.lower():
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"coordinate {text!r} is not a finite number")
        return value
    return Fraction(text)


def content_vertices(matrix: SimplicialMatrix):
    """Wedge of vertex differences; (content, degenerate flag)."""
    vertices = matrix.vertices()
    if len(vertices) < 2:
        raise ValueError("need at least two vertices")
    first = vertices[0]
    diffs = [v - first for v in vertices[1:]]
    content = wedge_list(diffs)
    return content, content.is_zero()


def content_null(frame: NullFrame) -> Multivector:
    """(1/n!) (a_2-a_1)^...^(a_{n+1}-a_1), the content of the null simplex."""
    first = frame.vectors[0]
    return wedge_list([a - first for a in frame.vectors[1:]]) * Fraction(
        1, math.factorial(frame.n))


def content_point_wedge(frame: NullFrame, point: SimplexPoint) -> Multivector:
    return point.to_multivector().wedge(content_null(frame))


def full_wedge(frame: NullFrame) -> Multivector:
    return wedge_list(list(frame.vectors))


# -- closed graphs and order ------------------------------------------------------------------


def is_closed(matrix: SimplicialMatrix) -> bool:
    """Closed: the dual sums of the vertices add to zero.

    sum_i sum_{j != i} v_j = m * sum_j v_j for m+1 vertices, so this is
    equivalent to the plain vertex sum vanishing (m >= 1).
    """
    vertices = matrix.vertices()
    if len(vertices) < 2:
        raise ValueError("need at least two vertices")
    return combination(matrix.frame.algebra, ((v, 1) for v in vertices)).is_zero()


def order(matrix: SimplicialMatrix) -> int:
    """Largest count of linearly independent vertices, by greedy wedging."""
    result = 0
    current = None
    for v in matrix.vertices():
        candidate = v if current is None else current.wedge(v)
        if not candidate.is_zero():
            current = candidate
            result += 1
    return result


# -- the truncated dual gradient -----------------------------------------------------------


def truncated_dual_nabla(frame: NullFrame) -> DiffOperator:
    """Dual gradient with the sum stopped at i = n (dropping the last term).

    The printed simplex Laplacian displays sum to n; the dual gradient as
    defined sums all n+1 terms (:func:`~lpgg.calculus.make_dual_nabla`).
    """
    from .calculus import DiffOperator
    return DiffOperator.linear(
        frame, [dual_sum(frame, i) for i in range(1, frame.size)]
    )
