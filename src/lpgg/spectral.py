"""Endomorphisms by blade multiplication and their spectral structure.

Covers the rank-two wedge endomorphism on a two-vector frame (whose
eigenvalues are +-det of the coefficient matrix), the Cayley-Grassmann
identity, the central pseudoscalar endomorphism on a three-vector frame,
scalar-plus-bivector operators with their minimal polynomial and
spectral idempotents, and 2x2 matrix representations taken in the
spectral basis {a2 a1, a2; a1, a1 a2}: real for G(1,1), and complex,
P + iQ, for G(1,2), written exactly as the real [[P, -Q], [Q, P]].
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from .algebra import AlgebraError, Multivector, combination
from .frames import NullFrame, wedge_list
from .scalars import (
    APPROX,
    COMPLEX,
    EXACT,
    Radical,
    coerce,
    exact_value,
    is_zero,
    widest_backend,
)


class DegenerateSpectrumError(ValueError):
    """g1^2 + g2^2 + g3^2 = 0: the idempotents are undefined."""


def _require_frame_size(frame: NullFrame, size: int):
    if frame.size != size:
        raise AlgebraError(f"operation needs a frame with n+1 = {size}")


def _require_grade_one(*mvs: Multivector):
    for mv in mvs:
        if not mv.grades() <= {1}:
            raise AlgebraError("grade-1 elements required")


# -- wedge endomorphism on two vectors -------------------------------------------------


def wedge_endo_2d(
    frame: NullFrame, v1: Multivector, v2: Multivector, x: Multivector
) -> Multivector:
    """f(x) = 2 (v1 ^ v2) x, the basic rank-two endomorphism."""
    _require_frame_size(frame, 2)
    _require_grade_one(v1, v2, x)
    return (v1.wedge(v2) * x) * 2


def wedge_endo_2d_expanded(
    frame: NullFrame, v1: Multivector, v2: Multivector, x: Multivector
) -> Multivector:
    """The same map written as 2((x.v2)v1 - (x.v1)v2)."""
    _require_frame_size(frame, 2)
    return (v1 * x.dot(v2).scalar_part() - v2 * x.dot(v1).scalar_part()) * 2


def cayley_grassmann_residual(
    frame: NullFrame, v1: Multivector, v2: Multivector, x: Multivector
) -> Multivector:
    """f(f(x)) - 2(f(x).v2) v1 + 2(f(x).v1) v2; identically zero."""
    _require_frame_size(frame, 2)
    fx = wedge_endo_2d(frame, v1, v2, x)
    ffx = wedge_endo_2d(frame, v1, v2, fx)
    return (
        ffx
        - v1 * (fx.dot(v2).scalar_part() * 2)
        + v2 * (fx.dot(v1).scalar_part() * 2)
    )


def projective_coordinates(
    frame: NullFrame, v1: Multivector, v2: Multivector, x: Multivector
):
    """Recover (c1, c2) with x = c1 v1 + c2 v2 from wedge ratios."""
    _require_frame_size(frame, 2)
    pivot = frame.algebra.dim - 1  # the single bivector blade
    denominator = v1.wedge(v2).coefficient(pivot)
    if not denominator:
        raise AlgebraError("v1 ^ v2 = 0: projective coordinates undefined")
    c1 = x.wedge(v2).coefficient(pivot) / denominator
    c2 = v1.wedge(x).coefficient(pivot) / denominator
    return c1, c2


# -- pseudoscalar endomorphism on three vectors ------------------------------------------


def pseudoscalar_endo_3d(frame: NullFrame, x: Multivector) -> Multivector:
    """f(x) = 2 (a1 ^ a2 ^ a3) x = -i x with i the central pseudoscalar."""
    _require_frame_size(frame, 3)
    _require_grade_one(x)
    return (wedge_list(frame.vectors) * x) * 2


def pseudoscalar_endo_3d_expanded(frame: NullFrame, coords) -> Multivector:
    """Bivector expansion (x1+x2) a1^a2 + (x2+x3) a2^a3 + (x1+x3) a3^a1."""
    _require_frame_size(frame, 3)
    x1, x2, x3 = (coerce(c, EXACT) for c in coords)
    a1, a2, a3 = frame.vectors
    return (
        a1.wedge(a2) * (x1 + x2)
        + a2.wedge(a3) * (x2 + x3)
        + a3.wedge(a1) * (x1 + x3)
    )


# -- scalar-plus-bivector operators ------------------------------------------------------


class BivectorOperator:
    """Operator G = (1/2) tr + g1 a2^a3 + g2 a3^a1 + g3 a1^a2 on a 3-frame."""

    def __init__(self, frame: NullFrame, coefficients: dict):
        self.frame = frame
        self.coefficients = coefficients  # (i, j) 1-based, i != j
        self._element = None
        _require_frame_size(frame, 3)
        for (i, j) in coefficients:
            if not (1 <= i <= 3 and 1 <= j <= 3 and i != j):
                raise ValueError(f"bad coefficient index ({i}, {j})")

    def entry(self, i: int, j: int):
        return self.coefficients.get((i, j), 0)

    def trace(self):
        return sum(self.entry(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j)

    def bivector_components(self):
        g1 = self.entry(2, 3) - self.entry(3, 2)
        g2 = self.entry(3, 1) - self.entry(1, 3)
        g3 = self.entry(1, 2) - self.entry(2, 1)
        return g1, g2, g3

    def backend(self) -> str:
        return widest_backend(self.coefficients.values())

    def element(self) -> Multivector:
        """The multivector G, assembled once from the trace and bivector parts."""
        if self._element is None:
            backend = self.backend()
            a1, a2, a3 = (a.to_backend(backend) for a in self.frame.vectors)
            g1, g2, g3 = self.bivector_components()
            half_tr = coerce(self.trace(), backend) * coerce(
                Fraction(1, 2), backend
            )
            self._element = combination(self.frame.algebra, (
                (self.frame.algebra.scalar(half_tr, backend), 1),
                (a2.wedge(a3), coerce(g1, backend)),
                (a3.wedge(a1), coerce(g2, backend)),
                (a1.wedge(a2), coerce(g3, backend))), backend)
        return self._element

    def element_from_matrix(self) -> Multivector:
        """The same element as sum g_ij a_i a_j (cross-check route)."""
        from .star import from_coefficient_matrix
        matrix = [
            [self.entry(i, j) for j in (1, 2, 3)] for i in (1, 2, 3)
        ]
        return from_coefficient_matrix(self.frame, matrix)


class SpectralDecomposition(namedtuple("SpectralDecomposition", (
        "root_minus root_plus idempotent_1 idempotent_2 claimed_discriminant discriminant"))):
    __slots__ = ()

    @property
    def discriminant_corrected(self) -> bool:
        return self.claimed_discriminant != self.discriminant

    def reconstruct(self) -> Multivector:
        return (
            self.idempotent_1 * self.root_minus
            + self.idempotent_2 * self.root_plus
        )

    def to_json(self) -> dict:
        from .textform import format_multivector

        return {
            "roots": [str(self.root_minus), str(self.root_plus)],
            "idempotents": [
                format_multivector(self.idempotent_1),
                format_multivector(self.idempotent_2),
            ],
            "checks": {
                "claimed_discriminant": str(self.claimed_discriminant),
                "derived_discriminant": str(self.discriminant),
                "discriminant_corrected": self.discriminant_corrected,
            },
        }


def discriminants(op: BivectorOperator):
    """(claimed, derived) discriminants of the minimal polynomial.

    The stated value is g1^2+g2^2+g3^2, as if the three basis bivectors
    anticommuted; they do not (each pair shares a null vector, so
    B_i . B_j = -1/4), and squaring the traceless part of G directly
    gives the working discriminant with the -2 g_i g_j cross terms.
    """
    g1, g2, g3 = op.bivector_components()
    claimed = g1 * g1 + g2 * g2 + g3 * g3
    backend = op.backend()
    g = op.element()
    trace = coerce(op.trace(), backend)
    one = g.algebra.scalar(coerce(1, backend))
    traceless = g - one * (trace * coerce(Fraction(1, 2), backend))
    square = traceless * traceless
    if not square.grades() <= {0}:
        raise AlgebraError("traceless square is not scalar")
    derived = square.scalar_part() * 4
    if isinstance(claimed, (int, Fraction)) and backend == EXACT:
        claimed = Radical(claimed)
    return claimed, derived


def spectral_decompose(op: BivectorOperator) -> SpectralDecomposition:
    """Roots and spectral idempotents of G = (1/2)tr + bivector part.

    The traceless part squares to a scalar D/4, so the minimal
    polynomial is (G - tr/2)^2 - D/4 with roots (tr -+ sqrt(D))/2 and
    idempotents p1 = (-2G + tr + sqrt(D))/(2 sqrt(D)) and
    p2 = (2G - tr + sqrt(D))/(2 sqrt(D)).  D is computed by actually
    squaring the traceless part; the decomposition records the stated
    g1^2+g2^2+g3^2 alongside for comparison.  Real inputs with D < 0
    decompose over the complex backend; D = 0, a double root, raises
    ``DegenerateSpectrumError``, the one degeneracy test.  A float
    coefficient stands for the decimal it prints as
    (``scalars.exact_value``), so every decision on real input is exact
    and a decimal of up to 15 significant digits in the normal float range
    is decided as typed; the printed values of float input are floats.
    Float input whose discriminants leave the float range, or whose float
    D has not the sign of the exact D, raises ``ValueError``.
    """
    backend = op.backend()
    claimed, derived = discriminants(op if backend != APPROX else BivectorOperator(
        op.frame, {k: exact_value(v) for k, v in op.coefficients.items()}))
    if backend == APPROX:
        for name, value in zip(("claimed", "derived"), (claimed, derived)):
            d = value.as_fraction()
            try:
                kind = "underflow" if d and not float(d) else None
            except OverflowError:
                kind = "overflow"
            if kind:
                raise ValueError(f"the {name} discriminant leaves the float range ({kind})")
    if is_zero(derived):
        raise DegenerateSpectrumError(
            "traceless part of G squares to zero: double root, "
            "idempotents undefined"
        )

    if backend == COMPLEX:
        root = cmath.sqrt(complex(derived))
    else:
        d = derived.as_fraction()
        if backend == APPROX:
            claimed, derived = discriminants(op)
            if not (derived > 0 if d > 0 else derived < 0):
                raise ValueError(f"the derived discriminant rounds to {derived!r}, "
                                 "against the sign of its exact value")
            d = derived
        if d > 0:
            root = Radical.sqrt(d) if backend == EXACT else math.sqrt(d)
        else:
            backend = COMPLEX
            root = 1j * math.sqrt(float(-d))

    trace = coerce(op.trace(), backend)
    half = coerce(Fraction(1, 2), backend)
    r_minus = (trace - root) * half
    r_plus = (trace + root) * half

    g = op.element().to_backend(backend)
    one = g.algebra.scalar(coerce(1, backend))
    root_inv = root.inverse() if isinstance(root, Radical) else 1 / root
    p1 = (one * (trace + root) - g * 2) * (root_inv * half)
    p2 = (g * 2 - one * trace + one * root) * (root_inv * half)
    return SpectralDecomposition(
        r_minus, r_plus, p1, p2,
        claimed_discriminant=claimed, discriminant=derived,
    )


# -- matrix representations ----------------------------------------------------------------


def _spectral_matrix(s, u, v, w):
    """The spectral-basis matrix of s + u e1 + v f1 + w e1^f1."""
    return [
        [s + w, u - v],
        [u + v, s - w],
    ]


def rep_g11(mv: Multivector):
    """2x2 matrix of an element of G(1,1) in the spectral basis.

    The basis grid is [[a2 a1, a2], [a1, a1 a2]]: these four products
    multiply exactly like the matrix units, so the map is an exact
    algebra isomorphism.  Writing mv = s + u e1 + v f1 + w e1^f1 and
    using a1 = (e1+f1)/2, a2 = (e1-f1)/2 gives the closed form of
    ``_spectral_matrix``.
    """
    if (mv.algebra.p, mv.algebra.q) != (1, 1):
        raise AlgebraError("rep_g11 expects an element of G(1,1)")
    return _spectral_matrix(*(mv.coefficient(b) for b in range(4)))


def rep_g12(mv: Multivector):
    """The complex 2x2 matrix P + iQ of G(1,2), as real [[P, -Q], [Q, P]].

    The central pseudoscalar i = e1 f1 f2 squares to -1 and maps to the
    imaginary unit.  Writing mv = P + i Q with P and Q on the blades
    {1, e1, f1, e1^f1}: i times those blades gives e1^f1^f2, f1^f2, e1^f2
    and f2, all with sign +1, so Q reads blades 7, 6, 5, 4 of mv.  P and Q
    take the G(1,1) closed form: read P off the top-left 2x2 block of the
    4x4 result and Q off the bottom-left one.  The real form multiplies as
    P + iQ does, with trace 2 Re tr(P + iQ) and determinant |det(P + iQ)|^2.
    """
    if (mv.algebra.p, mv.algebra.q) != (1, 2):
        raise AlgebraError("expected an element of G(1,2)")
    p = _spectral_matrix(*(mv.coefficient(b) for b in (0, 1, 2, 3)))
    q = _spectral_matrix(*(mv.coefficient(b) for b in (7, 6, 5, 4)))
    return ([p_row + [-y for y in q_row] for p_row, q_row in zip(p, q)]
            + [q_row + p_row for p_row, q_row in zip(p, q)])


def regular_representation(mv: Multivector) -> list[list]:
    """Matrix of left multiplication on the blade basis (bitmask order).

    Entry (b ^ c, c) is the blade sign times the coefficient of blade b,
    so the entries are exact for an exact element.
    """
    algebra = mv.algebra
    if algebra.n_generators > 8:
        raise AlgebraError("regular representation limited to p+q <= 8")
    if mv.backend == COMPLEX:
        raise AlgebraError("regular representation emits a real matrix")
    dim = algebra.dim
    zero = coerce(0, mv.backend)
    matrix = [[zero] * dim for _ in range(dim)]
    for b, cb in mv.items():
        for col in range(dim):
            matrix[b ^ col][col] = cb * algebra.product_sign(b, col)
    return matrix
