"""Dense Clifford-algebra arithmetic for G(p,q).

Blades are bitmasks over the generator list ``e1..ep, f1..fq`` (bit ``k``
set means generator ``k`` is a factor; generators with index ``< p``
square to ``+1``, the rest to ``-1``).  All coefficients of a multivector
are drawn from a single backend (exact radicals, floats, or complex
floats).

An exact multivector is stored as a :class:`Radical` one level up: one
positive denominator and, per blade, a map from squarefree key to a
nonzero int numerator, with ``gcd(den, *all numerators) == 1``.
Arithmetic runs on the numerators and normalizes once per result; a
``Radical`` is built only when a coefficient is read.  A float or complex
multivector stores each nonzero coefficient itself, ``{blade: c}`` over
denominator 1; its operations build that form directly, and a float
result is never normalized.  Zero is ``({}, 1)`` in both shapes.  A raw
coefficient picks its backend by ``scalars.widest_backend``.

Everything here is immutable and pure: values can be shared freely.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import (BACKENDS, COMPLEX, EXACT, Radical, add_products, coerce,
                      from_numerators, is_zero, to_numerators, widest_backend)

DIMENSION_LIMIT = 12

# Generator-count parity of every blade below the limit, so a product sign
# is one table read.  Module level: an ``Algebra`` holds no containers.
_PARITY = bytes(b.bit_count() & 1 for b in range(1 << DIMENSION_LIMIT))


class AlgebraError(ValueError):
    pass


class DimensionLimitError(AlgebraError):
    pass


class ContextMismatchError(AlgebraError):
    pass


class BackendMismatchError(AlgebraError):
    pass


class Algebra:
    """The algebra G(p,q): generator metric and blade product signs."""

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise AlgebraError("signature counts must be nonnegative")
        if p + q > DIMENSION_LIMIT:
            raise DimensionLimitError(
                f"p+q = {p + q} exceeds the dense-representation limit "
                f"{DIMENSION_LIMIT}"
            )
        self.p = p
        self.q = q
        self.n_generators = p + q
        self.dim = 1 << (p + q)
        self._negative = ((1 << q) - 1) << p

    def __eq__(self, other):
        return isinstance(other, Algebra) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"Algebra({self.p}, {self.q})"

    def generator_square(self, k: int) -> int:
        return 1 if k < self.p else -1

    def generator_name(self, k: int) -> str:
        return f"e{k + 1}" if k < self.p else f"f{k - self.p + 1}"

    def blade_name(self, blade: int) -> str:
        if blade == 0:
            return "1"
        return "^".join(
            self.generator_name(k) for k in range(self.n_generators) if blade >> k & 1
        )

    def blade_from_name(self, name: str) -> int:
        name = name.strip()
        if name == "1":
            return 0
        blade = 0
        for part in name.split("^"):
            part = part.strip()
            kind, digits = part[:1], part[1:]
            if kind not in ("e", "f") or not (digits.isascii() and digits.isdigit()):
                raise AlgebraError(f"bad generator name {part!r}")
            k = int(digits) - 1 + (self.p if kind == "f" else 0)
            if not (0 <= k < self.p if kind == "e" else self.p <= k < self.n_generators):
                raise AlgebraError(f"no generator {part} in {self!r}")
            if blade >> k & 1:
                raise AlgebraError(f"repeated generator in blade {name!r}")
            blade |= 1 << k
        return blade

    def product_sign(self, a: int, b: int) -> int:
        """Sign of ``blade_a * blade_b`` (the result blade is ``a ^ b``)."""
        return -1 if _PARITY[b & self._sign_mask(a)] else 1

    def _sign_mask(self, a: int) -> int:
        """Bitmap ``m`` with ``blade_a * blade_b`` negative iff ``b & m`` has
        odd parity, so the product kernel computes it once per left blade.

        Bit j of ``t`` is the parity of the bits of ``a`` above j, so
        ``b & t`` counts the transpositions that sort ``a b``; the shared
        generators that square to -1 contribute the metric sign (the bitmap
        method of Dorst, Fontijne and Mann, *Geometric Algebra for Computer
        Science*, ch. 19).
        """
        t = a >> 1
        t ^= t >> 1
        t ^= t >> 2
        t ^= t >> 4
        t ^= t >> 8
        return t ^ (a & self._negative)

    # -- constructors -------------------------------------------------------

    def multivector(self, coeffs: dict, backend: str | None = None) -> "Multivector":
        if backend is None:
            backend = widest_backend(coeffs.values())
        converted = {}
        for blade, value in coeffs.items():
            if not 0 <= blade < self.dim:
                raise AlgebraError(f"blade {blade:#x} outside {self!r}")
            value = coerce(value, backend)
            if not is_zero(value):
                converted[blade] = value
        if backend != EXACT:
            return Multivector(self, converted, backend)
        converted = {blade: to_numerators(value) for blade, value in converted.items()}
        den = 1
        for _, d in converted.values():
            den = math.lcm(den, d)
        # Each value is in normal form, so over the lcm of their
        # denominators no prime divides the denominator and every numerator.
        return Multivector(self, {
            blade: terms if d == den else {m: c * (den // d) for m, c in terms.items()}
            for blade, (terms, d) in converted.items()
        }, backend, den)

    def _from_integers(self, numerators: dict, den: int) -> "Multivector":
        """The exact ``{blade: int numerator} / den``, in normal form."""
        return _normalized(self, {b: {1: c} for b, c in numerators.items()}, den)

    def zero(self, backend: str = EXACT) -> "Multivector":
        return Multivector(self, {}, backend)

    def scalar(self, value, backend: str | None = None) -> "Multivector":
        return self.multivector({0: value}, backend)

    def blade(self, blade: int, value=1) -> "Multivector":
        return self.multivector({blade: value})

    def generator(self, k: int) -> "Multivector":
        return self.blade(1 << k)

    def e(self, i: int) -> "Multivector":
        if not 1 <= i <= self.p:
            raise AlgebraError(f"e{i} not present in {self!r}")
        return self.generator(i - 1)

    def f(self, j: int) -> "Multivector":
        if not 1 <= j <= self.q:
            raise AlgebraError(f"f{j} not present in {self!r}")
        return self.generator(self.p + j - 1)

    def pseudoscalar(self) -> "Multivector":
        return self.blade(self.dim - 1)


def _normalized(algebra: Algebra, coeffs: dict, den: int) -> "Multivector":
    """The exact multivector ``coeffs / den`` in normal form.

    ``coeffs`` maps blade to ``{key: numerator}`` and may hold zero
    numerators and empty blades.  The result may keep its inner dicts, so
    they must not be changed.  Float and complex results never pass
    through here: ``combination`` and ``_product`` build them directly.
    """
    out = {}
    g = den
    for blade, terms in coeffs.items():
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        out[blade] = terms
        if g != 1:
            for c in terms.values():
                g = math.gcd(g, c)
    if not out:
        den = 1
    elif g != 1:
        den //= g
        out = {blade: {m: c // g for m, c in terms.items()}
               for blade, terms in out.items()}
    return Multivector(algebra, out, EXACT, den)


def combination(algebra: Algebra, pairs, backend: str = EXACT) -> "Multivector":
    """``sum(c * mv for mv, c in pairs)``: the one routine behind ``+``,
    ``-``, scaling and every linear combination of multivectors.

    Every term is added blade by blade, in order, into one running sum.
    Three rules keep a float or complex result bitwise equal to chaining
    ``mv * c`` with ``+`` from left to right:

    - an int ``c`` of 1 or -1 copies or negates ``mv``, as ``+`` and ``-``
      do; any other ``c`` is coerced and multiplied, as ``*`` does, since
      ``c * (1+0j)`` can flip a complex zero part;
    - the first term under a blade is stored as is, never as ``0 + c``;
    - a blade whose running sum reaches exactly zero is dropped, so a
      later term under it is again stored as is.

    An exact sum does not depend on the order of its terms, so it keeps
    none of these rules: each term goes over the lcm of the denominators
    and is accumulated by ``scalars.add_products`` (an int ``c`` as
    ``{1: c}``), and ``_normalized`` drops what cancelled, once.  Its
    blades, and the keys within a blade, sit in the order they first
    appear among the terms.
    """
    if backend != EXACT:
        sums = {}
        for mv, c in pairs:
            _check_compatible(algebra, backend, mv)
            unit = type(c) is int and c in (1, -1)
            if not unit:
                c = coerce(c, backend)
            for blade, term in mv._coeffs.items():
                if unit:
                    term = term if c == 1 else -term
                elif not (term := term * c):  # ``mv * c`` drops an exact zero
                    continue
                acc = sums.get(blade)
                if acc is not None and not (term := acc + term):
                    del sums[blade]
                else:
                    sums[blade] = term
        return Multivector(algebra, sums, backend)
    scaled = []  # (coeffs, factor numerators, denominator)
    den = 1
    for mv, c in pairs:
        _check_compatible(algebra, backend, mv)
        c, d = ({1: c}, 1) if type(c) is int else to_numerators(coerce(c, backend))
        d *= mv._den
        scaled.append((mv._coeffs, c, d))
        den = math.lcm(den, d)
    sums: dict[int, dict] = {}
    for coeffs, factor, d in scaled:
        if (k := den // d) != 1:
            factor = {m: c * k for m, c in factor.items()}
        for blade, terms in coeffs.items():
            acc = sums.get(blade)
            if acc is None:
                acc = sums[blade] = {}
            add_products(acc, terms, factor)
    return _normalized(algebra, sums, den)


def _check_compatible(algebra: Algebra, backend: str, mv: "Multivector"):
    if mv.algebra is not algebra and mv.algebra != algebra:
        raise ContextMismatchError(f"mixed algebras {algebra!r} and {mv.algebra!r}")
    if mv.backend != backend:
        raise BackendMismatchError(f"mixed backends {backend!r} and {mv.backend!r}")


def _wedge_keep(ga: int, gb: int, gout: int) -> bool:
    return gout == ga + gb


def _dot_keep(ga: int, gb: int, gout: int) -> bool:
    return gout == abs(ga - gb)


def _submasks(m: int, memo: dict) -> list:
    """The submasks of ``m`` in ascending order, built by doubling: those
    of ``m`` without its top bit, then each of them with it.  ``memo``
    starts as ``{0: [0]}`` and keeps only such prefix lists, so at most
    3^(n-1) entries for ``n`` generators."""
    subs = memo.get(m)
    if subs is None:
        top = 1 << (m.bit_length() - 1)
        low = memo.get(m ^ top)
        if low is None:
            low = memo[m ^ top] = _submasks(m ^ top, memo)
        subs = low + [s | top for s in low]
    return subs


def _rows_by_blade(rows: list, dim: int):
    """A list indexed by blade that holds the blade's float or complex row
    (None for an absent blade); None unless the blades of ``rows`` ascend."""
    by_blade = [None] * dim
    last = -1
    for row in rows:
        b = row[0]
        if b < last:
            return None
        by_blade[b] = row
        last = b
    return by_blade


def _subset_rows(a: int, wedge: bool, by_blade: list, memo: dict) -> list:
    """The float or complex rows of ``by_blade`` that a wedge (``b`` inside
    ``~a``) or a dot (``b`` inside ``a``, then ``a`` inside ``b``) keeps
    for left blade ``a``, in ascending blade order."""
    outside = _submasks((len(by_blade) - 1) ^ a, memo)
    if wedge:
        return [row for s in outside if (row := by_blade[s])]
    rows = [row for s in _submasks(a, memo) if (row := by_blade[s])]
    rows += [row for s in outside[1:] if (row := by_blade[a | s])]
    return rows


class Multivector:
    """Immutable element of G(p,q) over one scalar backend.

    ``_coeffs`` maps blade to ``{key: numerator}`` over ``_den`` (exact)
    or to value over 1 (float, complex), in the normal forms of the module
    docstring, so ``==`` compares ``(_den, _coeffs)`` directly.
    """

    __slots__ = ("algebra", "_coeffs", "_den", "backend")

    def __init__(self, algebra: Algebra, coeffs: dict, backend: str, den: int = 1):
        self.algebra = algebra
        self._coeffs = coeffs
        self._den = den
        self.backend = backend

    # -- bookkeeping ---------------------------------------------------------

    def coefficients(self) -> dict:
        return dict(self.items())

    def coefficient(self, blade: int):
        if self.backend == EXACT:
            return from_numerators(self._coeffs.get(blade, {}), self._den)
        return self._coeffs.get(blade, coerce(0, self.backend))

    def items(self):
        if self.backend != EXACT:
            return list(self._coeffs.items())
        den = self._den
        return [(blade, from_numerators(terms, den)) for blade, terms in self._coeffs.items()]

    def is_zero(self) -> bool:
        return not self._coeffs

    def grades(self) -> set[int]:
        return {blade.bit_count() for blade in self._coeffs}

    # -- linear structure ------------------------------------------------------

    def _combine(self, other, sign: int):
        """``self + sign * other`` for a multivector or raw scalar ``other``."""
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return combination(self.algebra, ((self, 1), (other, sign)), self.backend)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return combination(self.algebra, ((self, -1),), self.backend)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other._combine(self, -1)

    def _lift(self, value):
        """Lift a raw scalar to a multivector of this backend."""
        if isinstance(value, Multivector):
            return value
        try:
            return self.algebra.scalar(coerce(value, self.backend), self.backend)
        except TypeError:
            return NotImplemented

    def scale(self, value) -> "Multivector":
        return combination(self.algebra, ((self, coerce(value, self.backend)),),
                           self.backend)

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            try:
                return self.scale(other)
            except TypeError:
                return NotImplemented
        _check_compatible(self.algebra, self.backend, other)
        return self._product(other, keep=None)

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Multivector):
            return NotImplemented
        if isinstance(other, Radical):
            return self.scale(other.inverse())
        other = coerce(other, self.backend)
        if isinstance(other, Radical):
            return self.scale(other.inverse())
        return self.scale(1 / other)

    # -- products ----------------------------------------------------------------

    def _product(self, other: "Multivector", keep) -> "Multivector":
        """Blade-pair accumulation over ``(blade, key, numerator)`` rows,
        ``(blade, value)`` for floats; ``keep(ga, gb, gout)`` filters blade
        pairs by their grades.

        Every exact row pair adds one product per output blade and key (the
        key rule of ``scalars.add_products``, inlined).  Float and complex
        products sum in a list indexed by output blade; the first term of
        each output blade is stored as is, never as ``0 + c``, which would
        lose a complex ``-0.0`` part, and the output blades keep the order
        in which they first appear.  The result is over the product of the
        two denominators and is normalized once.  The sign mask of each left
        blade is computed once, and each sign is one ``_PARITY`` read.

        ``keep`` is asked once per grade triple, not per pair: blades of
        grades ``ga`` and ``gb`` that share ``k`` generators multiply to
        grade ``ga + gb - 2k``, for ``k`` in ``max(0, ga + gb - n) ..
        min(ga, gb)``.  So for each left grade the kernel asks ``keep``
        about every feasible overlap of every right grade, drops the right
        rows of a grade with no kept overlap, and a left blade ``a`` takes
        the remaining rows ``b`` whose ``(a & b).bit_count()`` is kept.
        The rows keep their order, so every output blade sums its terms,
        and the result lists its blades, as a per-pair filter would.

        Wedge and dot pass ``_wedge_keep`` and ``_dot_keep``, which keep
        known right blades: the submasks of ``~a`` for a wedge, the
        submasks and the supermasks of ``a`` for a dot.  In a float or
        complex product (an exact one always takes the filter), a left
        grade reads them from ascending submask lists (``_submasks``,
        built per product; its memo keeps only prefix lists, at most
        3^(n-1) entries), not through the filter, when the right blades
        ascend and there are fewer of them, 2^(n-|a|) for a wedge and
        2^|a| + 2^(n-|a|) - 1 for a dot, than right blades.  Each left
        blade then visits its kept rows in the right operand's own order,
        so the sums and the blade order are the filter's.  The route is
        chosen once per left grade.
        """
        algebra = self.algebra
        right = other._coeffs
        exact = self.backend == EXACT
        if exact:
            rows_b = [(b, m, c) for b, terms in right.items() for m, c in terms.items()]
            sums: dict[int, dict[int, int]] = {}
        else:
            rows_b = list(right.items())
            running = [None] * algebra.dim  # output blade -> running sum
            order = []  # output blades in order of first appearance
        if keep is not None:
            n = algebra.n_generators
            grades_b = {b.bit_count() for b in right}
            # left grade -> [(row, kept overlaps)], or True on the submask route
            rows_for_grade = {}
            wedge = keep is _wedge_keep
            # the submask route is open to float and complex products only
            subsets = not exact and (wedge or keep is _dot_keep)
            by_blade = None  # built when the first left grade takes the route
        gcd = math.gcd
        parity = _PARITY
        for a, terms_a in self._coeffs.items():
            mask = algebra._sign_mask(a)
            rows = rows_b
            if keep is not None:
                ga = a.bit_count()
                candidates = rows_for_grade.get(ga)
                if candidates is None:
                    route = subsets and (
                        (1 << (n - ga)) + (0 if wedge else (1 << ga) - 1) < len(right))
                    if route and by_blade is None:
                        by_blade = _rows_by_blade(rows_b, algebra.dim)
                        subsets = route = by_blade is not None
                        submasks = {0: [0]}
                    if route:
                        candidates = True
                    else:
                        overlaps = {gb: {k for k in range(max(0, ga + gb - n), min(ga, gb) + 1)
                                         if keep(ga, gb, ga + gb - 2 * k)}
                                    for gb in grades_b}
                        candidates = [(row, kept) for row in rows_b
                                      if (kept := overlaps[row[0].bit_count()])]
                    rows_for_grade[ga] = candidates
                if candidates is True:
                    rows = _subset_rows(a, wedge, by_blade, submasks)
                else:
                    rows = [row for row, kept in candidates
                            if (a & row[0]).bit_count() in kept]
            if not exact:
                for b, c2 in rows:
                    c = terms_a * c2
                    if parity[b & mask]:
                        c = -c
                    out = a ^ b
                    v = running[out]
                    if v is None:
                        running[out] = c
                        order.append(out)
                    else:
                        running[out] = v + c
                continue
            for m1, c1 in terms_a.items():
                for b, m2, c2 in rows:
                    if m1 == 1:
                        key, c = m2, c1 * c2
                    elif m2 == 1:
                        key, c = m1, c1 * c2
                    else:
                        g = gcd(m1, m2)
                        key, c = (m1 // g) * (m2 // g), c1 * c2 * g
                    if parity[b & mask]:
                        c = -c
                    out = a ^ b
                    acc = sums.get(out)
                    if acc is None:
                        sums[out] = {key: c}
                    else:
                        acc[key] = acc.get(key, 0) + c
        if not exact:
            return Multivector(algebra, {out: c for out in order if (c := running[out])},
                               self.backend)
        return _normalized(algebra, sums, self._den * other._den)

    def geometric(self, other: "Multivector") -> "Multivector":
        _check_compatible(self.algebra, self.backend, other)
        return self._product(other, keep=None)

    def wedge(self, other: "Multivector") -> "Multivector":
        """Outer product: grade r+s part per blade pair."""
        _check_compatible(self.algebra, self.backend, other)
        return self._product(other, keep=_wedge_keep)

    def dot(self, other: "Multivector") -> "Multivector":
        """Grade |r-s| part per blade pair (general inputs grade-by-grade)."""
        _check_compatible(self.algebra, self.backend, other)
        return self._product(other, keep=_dot_keep)

    # -- involutions and projections ------------------------------------------------

    def reverse(self) -> "Multivector":
        coeffs = {}
        exact = self.backend == EXACT
        for blade, v in self._coeffs.items():
            k = blade.bit_count()
            if (k * (k - 1) // 2) & 1:
                v = {m: -c for m, c in v.items()} if exact else -v
            coeffs[blade] = v
        return Multivector(self.algebra, coeffs, self.backend, self._den)

    def scalar_part(self):
        return self.coefficient(0)

    # -- conversions ------------------------------------------------------------------

    def to_backend(self, backend: str) -> "Multivector":
        if BACKENDS.index(backend) < BACKENDS.index(self.backend):
            raise BackendMismatchError(f"cannot narrow {self.backend} to {backend}")
        return self.algebra.multivector(
            {blade: coerce(v, backend) for blade, v in self.items()}, backend
        )

    # -- comparisons --------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Radical, float, complex)):
            # A raw number equals a scalar with its value, as ``__hash__``
            # assumes; converting it to this backend first would round it.
            return (not self._coeffs.keys() - {0}
                    and self.coefficient(0) == other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.backend == other.backend
            and self._den == other._den
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        if not self._coeffs.keys() - {0}:
            # A scalar equals its raw value (``mv == 1``), so hash like it.
            return hash(self.coefficient(0))
        if self.backend != EXACT:
            return hash((self.algebra, frozenset(self._coeffs.items())))
        return hash((self.algebra, self._den, frozenset(
            (blade, frozenset(terms.items()))
            for blade, terms in self._coeffs.items())))

    def max_abs_difference(self, other: "Multivector") -> float:
        blades = set(self._coeffs) | set(other._coeffs)
        if not blades:
            return 0.0
        return max(
            abs(complex(self.coefficient(b)) - complex(other.coefficient(b)))
            for b in blades
        )

    def __repr__(self):
        from .textform import format_multivector

        return f"<{format_multivector(self)}>"


def wedge_list(vectors: list[Multivector]) -> Multivector:
    if not vectors:
        raise AlgebraError("wedge_list needs at least one factor")
    result = vectors[0]
    for v in vectors[1:]:
        result = result.wedge(v)
    return result

