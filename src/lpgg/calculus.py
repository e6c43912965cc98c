"""Multivector polynomial fields and differential operators.

Fields are exact polynomials in the null coordinates x_1..x_{n+1} with
multivector coefficients; the identity field sum_i x_i a_i is the
canonical instance.  Differentiation treats the coordinates as free
(the barycentric constraint is relaxed while differentiating, and
re-imposed on simplex inputs only), so d/dx_i applied to the identity
field is the constant field a_i.

Operators are the same polynomials with partials in place of the
coordinates, sum_alpha d_alpha d^alpha, applied by left multiplication
(the vector derivative of Hestenes & Sobczyk, 1984, ch. 2).  The
gradient uses the reciprocal frame for its directions; the dual-sum and
null gradients use the dual n-sums and the frame vectors themselves.
"""

from __future__ import annotations

import itertools
import math

from .algebra import AlgebraError, Multivector, combination
from .frames import NullFrame, dual_sum, reciprocal_frame
from .scalars import APPROX


class PolyField:
    """Polynomial map R^{n+1} -> G(1,n): exponent tuple -> coefficient.

    Built from (coefficient, exponents) pairs: repeated exponents add up,
    zero coefficients drop out, and every exponent tuple must have one
    entry >= 0 per coordinate.  Arithmetic builds ``type(self)``, so the
    subclass :class:`DiffOperator` stays an operator.
    """

    __slots__ = ("frame", "terms")

    def __init__(self, frame: NullFrame, terms):
        self.frame = frame
        groups: dict = {}
        for coefficient, exponents in terms:
            exponents = tuple(exponents)
            if len(exponents) != frame.size or any(e < 0 for e in exponents):
                raise ValueError("bad exponent multi-index")
            groups.setdefault(exponents, []).append((coefficient, 1))
        self.terms = {}
        for exponents, group in groups.items():
            mv = combination(frame.algebra, group, group[0][0].backend)
            if not mv.is_zero():
                self.terms[exponents] = mv

    @classmethod
    def constant(cls, frame: NullFrame, mv: Multivector) -> "PolyField":
        return cls(frame, [(mv, (0,) * frame.size)])

    @classmethod
    def monomial(cls, frame: NullFrame, exponents) -> "PolyField":
        return cls(frame, [(frame.algebra.scalar(1), exponents)])

    @classmethod
    def linear(cls, frame: NullFrame, coefficients) -> "PolyField":
        """sum_i c_i x_i, or sum_i c_i d_i for an operator.

        With fewer coefficients than coordinates the tail is left out.
        """
        return cls(frame, (
            (c, (0,) * i + (1,) + (0,) * (frame.size - i - 1))
            for i, c in enumerate(coefficients)
        ))

    @classmethod
    def identity(cls, frame: NullFrame) -> "PolyField":
        """The position field sum_i x_i a_i."""
        return cls.linear(frame, frame.vectors)

    def __add__(self, other: "PolyField") -> "PolyField":
        if self.frame is not other.frame:
            raise AlgebraError("polynomials over different frames")
        return type(self)(self.frame, (
            (mv, exp) for terms in (self.terms, other.terms)
            for exp, mv in terms.items()
        ))

    def __sub__(self, other: "PolyField") -> "PolyField":
        if self.frame is not other.frame:
            raise AlgebraError("polynomials over different frames")
        return type(self)(self.frame, itertools.chain(
            ((mv, exp) for exp, mv in self.terms.items()),
            ((-mv, exp) for exp, mv in other.terms.items()),
        ))

    def scale(self, value) -> "PolyField":
        return type(self)(
            self.frame, ((mv * value, exp) for exp, mv in self.terms.items())
        )

    def left_multiply(self, mv: Multivector) -> "PolyField":
        return type(self)(
            self.frame, ((mv * coeff, exp) for exp, coeff in self.terms.items())
        )

    def multiply(self, other: "PolyField") -> "PolyField":
        """Product polynomial; coefficients multiply geometrically, self first."""
        if self.frame is not other.frame:
            raise AlgebraError("polynomials over different frames")
        return type(self)(self.frame, (
            (m1 * m2, tuple(a + b for a, b in zip(e1, e2)))
            for e1, m1 in self.terms.items()
            for e2, m2 in other.terms.items()
        ))

    def partial(self, i: int) -> "PolyField":
        """Exact formal partial derivative in x_i (1-based)."""
        size = self.frame.size
        if not 1 <= i <= size:
            raise ValueError(f"coordinate index {i} outside 1..{size}")
        alpha = (0,) * (i - 1) + (1,) + (0,) * (size - i)
        return type(self)(self.frame, derivative_terms(self, alpha))

    def is_scalar_valued(self) -> bool:
        return all(mv.grades() <= {0} for mv in self.terms.values())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.frame is other.frame and self.terms == other.terms


def derivative_terms(field: PolyField, alpha):
    """The terms of d^alpha field, in closed form.

    d^alpha x^beta = prod_i beta_i! / (beta_i - alpha_i)! x^(beta - alpha),
    and zero where some beta_i < alpha_i.
    """
    for beta, mv in field.terms.items():
        if all(b >= a for a, b in zip(alpha, beta)):
            yield (mv * math.prod(map(math.perm, beta, alpha)),
                   tuple(b - a for a, b in zip(alpha, beta)))


def square_field(frame: NullFrame) -> PolyField:
    x = PolyField.identity(frame)
    return x.multiply(x)


class DiffOperator(PolyField):
    """sum_alpha d_alpha d^alpha: the terms read as (multi-index, direction).

    The directions are constant and the partials commute, so composing
    two operators is multiplying their polynomials.
    """

    __slots__ = ()

    def apply(self, field: PolyField) -> PolyField:
        if field.frame is not self.frame:
            raise AlgebraError("field over a different frame")
        return PolyField(self.frame, (
            (direction * coefficient, exponents)
            for alpha, direction in self.terms.items()
            for coefficient, exponents in derivative_terms(field, alpha)
        ))

    # self after other: directions multiply in application order
    compose = PolyField.multiply

    def dot_contract(self, vector: Multivector) -> "DiffOperator":
        """Replace each direction d by vector . d (scalar directions)."""
        return type(self)(
            self.frame, ((vector.dot(d), mi) for mi, d in self.terms.items())
        )


def make_nabla(frame: NullFrame) -> DiffOperator:
    """The vector derivative: reciprocal directions a^i with d/dx_i."""
    return DiffOperator.linear(frame, reciprocal_frame(frame))


def make_dual_nabla(frame: NullFrame) -> DiffOperator:
    """Dual-sum gradient: directions are the dual n-sums."""
    return DiffOperator.linear(
        frame, [dual_sum(frame, i) for i in range(1, frame.size + 1)]
    )


def make_null_nabla(frame: NullFrame) -> DiffOperator:
    """Null gradient: directions are the frame vectors themselves."""
    return DiffOperator.linear(frame, frame.vectors)


def make_flat_partial(frame: NullFrame) -> DiffOperator:
    """The plain sum of partials (scalar directions)."""
    return DiffOperator.linear(frame, [frame.algebra.scalar(1)] * frame.size)


def monomial_fields(frame: NullFrame, max_degree: int = 3):
    """All scalar monomial fields of total degree <= max_degree."""
    for exp in itertools.product(range(max_degree + 1), repeat=frame.size):
        if sum(exp) <= max_degree:
            yield PolyField.monomial(frame, exp)


# -- coefficient operators and the dual-sum oracle -------------------------------------------


def scalar_operator(frame, coeff_squares, coeff_crosses) -> DiffOperator:
    """Build c1 * sum_i d_i^2 + c2 * sum_{i<j} d_i d_j."""
    one = frame.algebra.scalar(1)
    return DiffOperator(frame, (
        (one * (coeff_squares if i == j else coeff_crosses),
         tuple(int(t == i) + int(t == j) for t in range(frame.size)))
        for i, j in itertools.combinations_with_replacement(range(frame.size), 2)
    ))


def dual_sum_dot_oracle(frame: NullFrame):
    """Brute-force dual-sum dot products straight from the frame vectors.

    Expands dual_i . dual_j as a double sum of pair dots and checks the
    values are index-independent; returns (diagonal, off_diagonal).
    """
    size = frame.size
    diag = None
    off = None
    for i in range(1, size + 1):
        di = dual_sum(frame, i)
        for j in range(1, size + 1):
            value = di.dot(dual_sum(frame, j))
            if not value.grades() <= {0}:
                raise AlgebraError("dual-sum dot is not scalar")
            scalar = value.scalar_part()
            if i == j:
                if diag is None:
                    diag = scalar
                elif diag != scalar:
                    raise AlgebraError("dual-sum squares differ by index")
            else:
                if off is None:
                    off = scalar
                elif off != scalar:
                    raise AlgebraError("dual-sum dots differ by index pair")
    return diag, off


# -- finite differences for the non-polynomial identities ------------------------------------



STEP = 1e-5


def finite_difference_error(frame: NullFrame, tag: str, point) -> float:
    """Largest coefficient error of a central finite-difference gradient.

    The gradient of the field named by ``tag`` (``x``, ``x2``, ``abs_x``
    or ``unit_x``) is contracted with the reciprocal frame and compared
    with its closed form.  The frame is exact; its vectors and reciprocal
    vectors are converted to floats here, at the boundary of the numeric
    work.
    """
    coords = [float(c) for c in point]
    size = frame.size
    if len(coords) != size:
        raise ValueError(f"expected {size} coordinates")

    def norm_sq(coords):
        return sum(
            coords[i] * coords[j] for i in range(size) for j in range(i + 1, size)
        )

    if norm_sq(coords) <= 0:
        raise ValueError("point lies on or inside the light cone (|x|^2 <= 0)")
    scalar = frame.algebra.scalar
    vectors = [a.to_backend(APPROX) for a in frame.vectors]
    recip = [r.to_backend(APPROX) for r in reciprocal_frame(frame)]

    def position(coords):
        return combination(frame.algebra, zip(vectors, coords), APPROX)

    norm = math.sqrt(norm_sq(coords))
    x_mv = position(coords)
    try:
        fn, expected = {  # tag: (field, its gradient)
            "x": (position, scalar(float(size))),
            "x2": (lambda c: scalar(float(norm_sq(c))), x_mv * 2.0),
            "abs_x": (lambda c: scalar(math.sqrt(norm_sq(c))), x_mv / norm),
            "unit_x": (lambda c: position(c) / math.sqrt(norm_sq(c)),
                       scalar(frame.n / norm)),
        }[tag]
    except KeyError:
        raise ValueError(f"unsupported tag {tag!r}") from None

    def delta(i):
        up, down = list(coords), list(coords)
        up[i] += STEP
        down[i] -= STEP
        return (fn(up) - fn(down)) / (2 * STEP)

    gradient = combination(frame.algebra, (
        (recip[i] * delta(i), 1) for i in range(size)), APPROX)
    return gradient.max_abs_difference(expected)
