"""Scalar backends for the algebra kernel.

Three coefficient domains are supported:

* ``exact``   -- :class:`Radical`, finite sums ``sum_m r_m * sqrt(m)`` with
  rational ``r_m`` and squarefree positive ``m`` (the rational part lives
  under the key ``m = 1``).  Closed under ``+``, ``-``, ``*``; division is
  exact when the divisor has at most two terms.
* ``approx``  -- IEEE binary64 floats.
* ``complex`` -- pairs of binary64 (Python ``complex``).

The exact class is precisely what the change-of-basis matrices for
correlated null frames need: entries such as ``sqrt(3)/2`` or
``-1/sqrt(21)`` normalize to a single ``r*sqrt(m)`` term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

EXACT = "exact"
APPROX = "approx"
COMPLEX = "complex"

BACKENDS = (EXACT, APPROX, COMPLEX)  # narrowest first

RationalLike = Union[int, Fraction]

# Relative/absolute tolerances for approx comparisons.  Double precision
# leaves ample headroom for products with <= 2^12 blade terms.
REL_TOL = 1e-10
ABS_TOL = 1e-12


class InexactDivisionError(ArithmeticError):
    """Division result is not representable in the radical class."""


class InexactSqrtError(ArithmeticError):
    """Square root is not representable in the radical class."""


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return ``(s, u)`` with ``n = s*s*u`` and ``u`` squarefree (n > 0)."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, u = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                u *= d
        d += 1 if d == 2 else 2
    return s, u * n


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


class Radical:
    """An exact scalar ``sum_m terms[m] * sqrt(m)``.

    Keys are squarefree positive integers, values nonzero Fractions.
    Instances are immutable by convention; all operators return new values.
    """

    __slots__ = ("_terms",)

    def __init__(self, value: "Radical | RationalLike" = 0):
        if isinstance(value, Radical):
            self._terms = value._terms
        else:
            q = _as_fraction(value)
            self._terms = {1: q} if q else {}

    @classmethod
    def _raw(cls, terms: dict[int, Fraction]) -> "Radical":
        self = object.__new__(cls)
        self._terms = {m: c for m, c in terms.items() if c}
        return self

    @classmethod
    def sqrt(cls, value: "Radical | RationalLike") -> "Radical":
        """Exact square root of a nonnegative rational-valued scalar."""
        if isinstance(value, Radical):
            if not value._terms:
                return cls(0)
            if not value.is_rational():
                raise InexactSqrtError(f"sqrt({value}) leaves the radical class")
            value = value._terms[1]
        q = _as_fraction(value)
        if q < 0:
            raise InexactSqrtError("sqrt of a negative scalar")
        if q == 0:
            return cls(0)
        s, u = squarefree_decompose(q.numerator * q.denominator)
        return cls._raw({u: Fraction(s, q.denominator)})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_rational(self) -> bool:
        return all(m == 1 for m in self._terms)

    def rational_part(self) -> Fraction:
        return self._terms.get(1, Fraction(0))

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.rational_part()

    def sign(self) -> int:
        """Exact sign for <= 2 terms; float-based beyond (with a guard)."""
        n = len(self._terms)
        if n == 0:
            return 0
        if n == 1:
            ((_, c),) = self._terms.items()
            return 1 if c > 0 else -1
        if n == 2:
            (m1, c1), (m2, c2) = sorted(self._terms.items())
            if c1 > 0 and c2 > 0:
                return 1
            if c1 < 0 and c2 < 0:
                return -1
            # c1*sqrt(m1) vs -c2*sqrt(m2): compare squares (signs differ).
            lhs, rhs = c1 * c1 * m1, c2 * c2 * m2
            bigger_first = lhs > rhs  # cannot tie: m1 != m2 squarefree
            return (1 if c1 > 0 else -1) if bigger_first else (1 if c2 > 0 else -1)
        x = float(self)
        if abs(x) < 1e-9:
            raise ValueError(f"sign of {self!r} numerically ambiguous")
        return 1 if x > 0 else -1

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, Radical):
            return other
        if isinstance(other, (int, Fraction)):
            return Radical(other)
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Radical._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return Radical._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                # sqrt(m1)*sqrt(m2) = g*sqrt(u*v) with m1 = g*u, m2 = g*v.
                g = math.gcd(m1, m2)
                key = (m1 // g) * (m2 // g)
                coeff = c1 * c2 * g
                terms[key] = terms.get(key, Fraction(0)) + coeff
        return Radical._raw(terms)

    __rmul__ = __mul__

    def inverse(self) -> "Radical":
        n = len(self._terms)
        if n == 0:
            raise ZeroDivisionError("radical division by zero")
        if n == 1:
            ((m, c),) = self._terms.items()
            return Radical._raw({m: Fraction(1) / (c * m)})
        if n == 2:
            # Rationalize by the conjugate: the cross terms cancel and the
            # denominator c1^2*m1 - c2^2*m2 is a nonzero rational.
            (m1, c1), (m2, c2) = self._terms.items()
            conj = Radical._raw({m1: c1, m2: -c2})
            denom = c1 * c1 * m1 - c2 * c2 * m2
            return conj * (Fraction(1) / denom)
        raise InexactDivisionError(
            f"cannot invert {self!r} exactly (more than two radical terms)"
        )

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    # -- conversions and comparisons ----------------------------------------

    def __float__(self) -> float:
        return float(sum(float(c) * math.sqrt(m) for m, c in self._terms.items()))

    def __complex__(self) -> complex:
        return complex(float(self))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"Radical({str(self)!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for m, c in sorted(self._terms.items()):
            if m == 1:
                text = str(c)
            elif c == 1:
                text = f"sqrt({m})"
            elif c == -1:
                text = f"-sqrt({m})"
            else:
                text = f"{c}*sqrt({m})"
            if parts and not text.startswith("-"):
                parts.append("+" + text)
            else:
                parts.append(text)
        return "".join(parts)

    # -- serialization -------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        return [
            {"rational": str(c), "sqrt": m} for m, c in sorted(self._terms.items())
        ]

    @classmethod
    def from_json_terms(cls, items: list[dict]) -> "Radical":
        terms: dict[int, Fraction] = {}
        for item in items:
            m = int(item["sqrt"])
            c = Fraction(item["rational"])
            terms[m] = terms.get(m, Fraction(0)) + c
        return cls._raw(terms)


def backend_of(value) -> str:
    """Classify a raw coefficient value into one of the three backends."""
    if isinstance(value, (Radical, Fraction, int)):
        return EXACT
    if isinstance(value, float):
        return APPROX
    if isinstance(value, complex):
        return COMPLEX
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


def widest_backend(values) -> str:
    """The widest backend among raw values (exact < approx < complex)."""
    return max(map(backend_of, values), key=BACKENDS.index, default=EXACT)


def coerce(value, backend: str):
    """Coerce a raw value into the given backend, widening only."""
    if backend == EXACT:
        if isinstance(value, Radical):
            return value
        if isinstance(value, (int, Fraction)):
            return Radical(value)
        raise TypeError(f"cannot use {type(value).__name__} in the exact backend")
    if backend == APPROX:
        if isinstance(value, Radical):
            return float(value)
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        raise TypeError(f"cannot use {type(value).__name__} in the approx backend")
    if backend == COMPLEX:
        if isinstance(value, Radical):
            return complex(value)
        if isinstance(value, (int, float, Fraction, complex)):
            return complex(value)
        raise TypeError(f"cannot use {type(value).__name__} in the complex backend")
    raise ValueError(f"unknown backend {backend!r}")


def is_zero(value) -> bool:
    if isinstance(value, Radical):
        return not value
    return value == 0


def approx_equal(a, b, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    """Tolerant comparison used by the approx/complex backends."""
    if isinstance(a, complex) or isinstance(b, complex):
        return abs(complex(a) - complex(b)) <= max(
            rel * max(abs(complex(a)), abs(complex(b))), abs_tol
        )
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)
