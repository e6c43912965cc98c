"""Differential test of ``Radical`` against sympy's algebraic numbers.

sympy reduces ``sqrt(6)*sqrt(10)`` to ``2*sqrt(15)`` on its own, so an
expanded sympy expression is a sum of ``rational * sqrt(m)`` terms that
can be read back into a ``Radical`` and compared with ``==``.  The keys
share primes (6, 10, 15, 21, 35) and the rationals have mixed
denominators, so the normalization of every result is exercised.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lpgg.scalars import (TRIAL_DIVISION_LIMIT, InexactSqrtError, Radical,
                          squarefree_decompose)

sympy = pytest.importorskip("sympy")

KEYS = [1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 35]

rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=24
).filter(bool)


@st.composite
def radicals(draw, max_terms=3):
    terms = draw(st.dictionaries(st.sampled_from(KEYS), rationals, max_size=max_terms))
    value = Radical(0)
    for m, c in terms.items():
        value = value + Radical.sqrt(m) * c
    return value


def to_sympy(value: Radical):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(m)
        for m, c in value.terms().items()
    ))


def from_sympy(expr) -> Radical:
    total = Radical(0)
    for term in sympy.Add.make_args(sympy.expand(expr)):
        coeff, root = term.as_coeff_Mul()
        if root == 1:
            m = 1
        else:
            assert root.is_Pow and root.exp == sympy.Rational(1, 2), term
            m = int(root.base)
        total = total + Radical.sqrt(m) * Fraction(int(coeff.p), int(coeff.q))
    return total


def assert_normal(value: Radical):
    terms, den = value._terms, value._den
    assert den > 0 and all(terms.values())
    assert math.gcd(den, *terms.values()) == 1 if terms else den == 1


oracle = settings(max_examples=60, deadline=None)


@oracle
@given(radicals(), radicals())
def test_ring_operations_match_sympy(a, b):
    x, y = to_sympy(a), to_sympy(b)
    for result, expected in ((a + b, x + y), (a - b, x - y), (a * b, x * y)):
        assert_normal(result)
        assert result == from_sympy(expected)
        assert (result == a) == (sympy.expand(expected - x) == 0)


@oracle
@given(radicals(), radicals(max_terms=2).filter(bool))
def test_division_matches_sympy(a, b):
    quotient = a / b
    assert_normal(quotient)
    # sympy does not rationalize 1/(p + q*sqrt(m)); multiply back instead.
    assert sympy.expand(to_sympy(quotient) * to_sympy(b) - to_sympy(a)) == 0
    assert b.inverse() == from_sympy(sympy.radsimp(1 / to_sympy(b)))


@oracle
@given(radicals(max_terms=4))
def test_sign_and_float_match_sympy(a):
    x = to_sympy(a)
    assert a.sign() == int(sympy.sign(x))
    magnitude = sum(abs(float(c)) * math.sqrt(m) for m, c in a.terms().items())
    assert abs(float(a) - float(x.evalf(40))) <= 8 * 2.0 ** -52 * magnitude


@oracle
@given(radicals(), st.sampled_from([0, 1, -3, Fraction(1, 2), Fraction(-7, 6)]))
def test_hash_and_eq_match_sympy(a, q):
    x = to_sympy(a)
    assert from_sympy(x) == a
    assert hash(from_sympy(x)) == hash(a)
    rational = Radical(q)
    assert (a == rational) == (sympy.expand(x - sympy.Rational(str(q))) == 0)
    assert (a == q) == (a == rational)
    if a.is_rational():
        value = Fraction(int(x.p), int(x.q))
        assert a == value and hash(a) == hash(value)
        assert (a == float(value)) == (Fraction(float(value)) == value)
    else:
        assert a != float(a)


def test_sign_with_a_large_prime_key_returns_quickly():
    # 999999999999999989 is prime: trial division up to its square root
    # would take about 10^9 steps, so the sign must not factor any key.
    value = Radical.sqrt(999999999999999989) - Radical.sqrt(2) * 700000000
    start = time.perf_counter()
    sign = value.sign()
    assert time.perf_counter() - start < 1
    assert sign == int(sympy.sign(to_sympy(value))) == 1


# Primes above the trial-division limit; products of up to three of them
# leave cofactors on both sides of TRIAL_DIVISION_LIMIT ** 3.
LARGE_PRIMES = [1000003, 1000033, 999999937, 1000000007, 1000000000039]


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 10 ** 6), st.lists(st.sampled_from(LARGE_PRIMES), max_size=3))
@example(12, [1000003, 1000003])            # a square cofactor
@example(1, [1000003, 1000000007])          # two primes, below the bound
@example(1, [1000003, 1000033, 999999937])  # three primes, above it
def test_squarefree_decompose_matches_factorint(small, large):
    n = small * math.prod(large)
    s, u, cofactor = 1, 1, 1
    for prime, exponent in sympy.factorint(n).items():
        s *= prime ** (exponent // 2)
        u *= prime ** (exponent % 2)
        if prime > TRIAL_DIVISION_LIMIT:
            cofactor *= prime ** exponent
    if cofactor >= TRIAL_DIVISION_LIMIT ** 3:
        with pytest.raises(InexactSqrtError):
            squarefree_decompose(n)
    else:
        assert squarefree_decompose(n) == (s, u)
