"""Scalar backends for the algebra kernel.

Three coefficient domains are supported:

* ``exact``   -- :class:`Radical`, finite sums ``sum_m r_m * sqrt(m)`` with
  rational ``r_m`` and squarefree positive ``m`` (the rational part lives
  under the key ``m = 1``).  Stored as integer numerators over one common
  denominator, ``(sum_m n_m * sqrt(m)) / den``, in a unique normal form, so
  arithmetic runs on Python ints and builds no ``Fraction`` until a value
  is printed or read out.  Closed under ``+``, ``-``, ``*``; division is
  exact when the divisor has at most two terms; ``sign`` is exact.
* ``approx``  -- IEEE binary64 floats.
* ``complex`` -- pairs of binary64 (Python ``complex``).

The exact class is precisely what the change-of-basis matrices for
correlated null frames need: entries such as ``sqrt(3)/2`` or
``-1/sqrt(21)`` normalize to a single ``r*sqrt(m)`` term.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
APPROX = "approx"
COMPLEX = "complex"

BACKENDS = (EXACT, APPROX, COMPLEX)  # narrowest first

# Relative/absolute tolerances for approx comparisons.  Double precision
# leaves ample headroom for products with <= 2^12 blade terms.
REL_TOL = 1e-10
ABS_TOL = 1e-12


class InexactDivisionError(ArithmeticError):
    """Division result is not representable in the radical class."""


class InexactSqrtError(ArithmeticError):
    """Square root is not representable in the radical class."""


# Trial division stops here; see squarefree_decompose.
TRIAL_DIVISION_LIMIT = 10 ** 6


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return ``(s, u)`` with ``n = s*s*u`` and ``u`` squarefree (n > 0).

    Trial division stops at ``TRIAL_DIVISION_LIMIT``.  A cofactor left
    below the cube of that limit has at most two prime factors, so it is
    a square or squarefree; a larger one raises ``InexactSqrtError``
    instead of being factored further.
    """
    if n <= 0:
        raise ValueError("positive integer required")
    s, u = 1, 1
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_LIMIT:
            if n >= TRIAL_DIVISION_LIMIT ** 3:
                raise InexactSqrtError(
                    f"radicand has a {len(str(n))}-digit cofactor with no "
                    f"prime factor up to {TRIAL_DIVISION_LIMIT}; too large "
                    "to reduce")
            r = math.isqrt(n)
            if r * r == n:
                return s * r, u
            break
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


def add_products(acc: dict[int, int], a: dict[int, int], b: dict[int, int],
                 negate: bool = False) -> None:
    """Add ``a*b`` (``-a*b`` when ``negate``) into ``acc``.

    All three map a squarefree key ``m`` to the numerator of ``sqrt(m)``
    (an int, or a float or complex under key 1); ``acc`` may be left
    holding zeros.  The first term under a key is stored as is, not as
    ``0 + c``, which would turn a complex ``-0.0`` part into ``0.0``.
    """
    for m1, c1 in a.items():
        if negate:
            c1 = -c1
        for m2, c2 in b.items():
            if m1 == 1:
                key, c = m2, c1 * c2
            elif m2 == 1:
                key, c = m1, c1 * c2
            else:
                # sqrt(m1)*sqrt(m2) = g*sqrt(u*v) with m1 = g*u, m2 = g*v.
                g = math.gcd(m1, m2)
                key, c = (m1 // g) * (m2 // g), c1 * c2 * g
            old = acc.get(key)
            acc[key] = c if old is None else old + c


def _sign_of_terms(terms: dict[int, int]) -> int:
    """Exact sign of ``sum_m c_m * sqrt(m)`` with nonzero integers ``c_m``.

    Pick ``p > 1`` dividing some key such that every key is a multiple of
    ``p`` or coprime to it: start from the largest key and replace ``p``
    by ``gcd(p, m)`` for each key ``m`` sharing a factor with it.  Write
    the value as ``a + b*sqrt(p)`` with ``a``, ``b`` over keys coprime to
    ``p``.  When ``a`` and ``b`` have opposite signs, the sign is
    ``sign(a) * sign(a^2 - p*b^2)``, a value whose keys miss the primes of
    ``p``.  That value is never zero: square roots of distinct squarefree
    integers are linearly independent over the rationals (Besicovitch,
    1940).  Only gcds are taken, so no key is ever factored.
    """
    if len(terms) <= 1:
        for c in terms.values():
            return 1 if c > 0 else -1
        return 0
    p = max(terms)
    for m in terms:
        g = math.gcd(p, m)
        if g > 1:
            p = g
    a: dict[int, int] = {}
    b: dict[int, int] = {}
    for m, c in terms.items():
        if m % p:
            a[m] = c
        else:
            b[m // p] = c
    sa, sb = _sign_of_terms(a), _sign_of_terms(b)
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    norm: dict[int, int] = {}
    add_products(norm, a, a)
    add_products(norm, b, {m: p * c for m, c in b.items()}, negate=True)
    return sa * _sign_of_terms({m: c for m, c in norm.items() if c})


class Radical:
    """An exact scalar ``(sum_m terms[m] * sqrt(m)) / den``.

    Keys are squarefree positive integers, numerators nonzero ints, and
    ``den`` a positive int with ``gcd(den, *numerators) == 1``; zero is
    ``({}, 1)``.  That normal form is unique, so ``==`` compares
    ``(den, terms)`` directly.  Instances are immutable by convention; all
    operators return new values.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, value: "Radical | int | Fraction" = 0):
        if isinstance(value, Radical):
            self._terms, self._den = value._terms, value._den
        elif isinstance(value, int):
            self._terms, self._den = ({1: value} if value else {}), 1
        elif isinstance(value, Fraction):
            self._terms = {1: value.numerator} if value else {}
            self._den = value.denominator
        else:
            raise TypeError(f"expected a rational value, got {type(value).__name__}")

    @classmethod
    def from_numerators(cls, terms: dict[int, int], den: int) -> "Radical":
        """The normal form of ``terms / den`` (``den > 0``; zeros allowed).

        ``terms`` must be a fresh dict: the result may keep it.
        """
        self = object.__new__(cls)
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        if not terms:
            den = 1
        elif den != 1:
            # Folded pairwise: a star-args call builds a tuple of every
            # size, and CPython keeps up to 2,000 freed tuples per size,
            # about 1 MB of peak RSS per verify report.
            g = den
            for c in terms.values():
                g = math.gcd(g, c)
            if g != 1:
                den //= g
                terms = {m: c // g for m, c in terms.items()}
        self._terms, self._den = terms, den
        return self

    @classmethod
    def sqrt(cls, value: "Radical | int | Fraction") -> "Radical":
        """Exact square root of a nonnegative rational-valued scalar."""
        if isinstance(value, Radical):
            if not value.is_rational():
                raise InexactSqrtError(f"sqrt({value}) leaves the radical class")
            value = value.rational_part()
        q = _as_fraction(value)
        if q < 0:
            raise InexactSqrtError("sqrt of a negative scalar")
        if q == 0:
            return cls(0)
        s, u = squarefree_decompose(q.numerator * q.denominator)
        return cls.from_numerators({u: s}, q.denominator)

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[int, Fraction]:
        den = self._den
        return {m: Fraction(c, den) for m, c in self._terms.items()}

    def is_rational(self) -> bool:
        terms = self._terms
        return not terms or (len(terms) == 1 and 1 in terms)

    def rational_part(self) -> Fraction:
        return Fraction(self._terms.get(1, 0), self._den)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.rational_part()

    def sign(self) -> int:
        """Exact sign, by peeling off one prime square root at a time."""
        return _sign_of_terms(self._terms)

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
        da, db = self._den, other._den
        g = math.gcd(da, db)
        scale_a, scale_b = db // g, da // g
        terms = {m: c * scale_a for m, c in self._terms.items()}
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c * scale_b
        return Radical.from_numerators(terms, da * scale_a)

    __radd__ = __add__

    def __neg__(self):
        result = object.__new__(Radical)
        result._terms = {m: -c for m, c in self._terms.items()}
        result._den = self._den
        return result

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        terms: dict[int, int] = {}
        add_products(terms, self._terms, other._terms)
        return Radical.from_numerators(terms, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "Radical":
        n = len(self._terms)
        if n == 0:
            raise ZeroDivisionError("radical division by zero")
        den = self._den
        if n == 1:
            # (c/den)*sqrt(m) has inverse den*sqrt(m) / (c*m).
            ((m, c),) = self._terms.items()
            return Radical.from_numerators({m: den if c > 0 else -den}, abs(c) * m)
        if n == 2:
            # Rationalize by the conjugate: the cross terms cancel and the
            # denominator c1^2*m1 - c2^2*m2 is a nonzero integer.
            (m1, c1), (m2, c2) = self._terms.items()
            norm = c1 * c1 * m1 - c2 * c2 * m2
            if norm < 0:
                norm, den = -norm, -den
            return Radical.from_numerators({m1: den * c1, m2: -den * c2}, norm)
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
        # fsum rounds the exact sum of the float terms once, so equal values
        # convert alike whatever order their terms were added in.
        den = self._den
        return math.fsum(c / den * math.sqrt(m) for m, c in self._terms.items())

    def __complex__(self) -> complex:
        return complex(float(self))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, (float, complex)):
            # Exactly as the rational value compares; never for irrationals.
            return self.is_rational() and self.rational_part() == other
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        # A rational value hashes like the int, Fraction or float it equals.
        if self.is_rational():
            return hash(self.rational_part())
        return hash((self._den, frozenset(self._terms.items())))

    def __repr__(self):
        return f"Radical({str(self)!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms().items()):
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
            {"rational": str(c), "sqrt": m} for m, c in sorted(self.terms().items())
        ]


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


def to_numerators(value) -> tuple[dict, int]:
    """``(terms, den)`` with ``value == sum_m terms[m] * sqrt(m) / den``.

    ``value`` is a backend value: a ``Radical`` gives its normal form, a
    float or complex ``({1: value}, 1)``.  ``terms`` may be the value's own
    dict, so it must not be changed.
    """
    if isinstance(value, Radical):
        return value._terms, value._den
    return {1: value}, 1


def from_numerators(terms: dict, den: int, backend: str):
    """The ``backend`` value ``sum_m terms[m] * sqrt(m) / den``, the inverse
    of :func:`to_numerators` (zero for empty ``terms``)."""
    if backend == EXACT:
        # A fresh dict: Radical.from_numerators may keep the one it is given.
        return Radical.from_numerators(dict(terms), den)
    return terms[1] if terms else coerce(0, backend)


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
