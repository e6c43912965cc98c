import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lpgg.scalars import (
    InexactDivisionError,
    InexactSqrtError,
    Radical,
    approx_equal,
    coerce,
    exact_value,
    squarefree_decompose,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
squarefree_keys = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 21])


def radical_strategy():
    return st.dictionaries(squarefree_keys, rationals, max_size=3).map(
        lambda terms: sum(
            (Radical.sqrt(m) * c for m, c in terms.items()), Radical(0)
        )
    )


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(360) == (6, 10)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_sqrt_key_reduction():
    assert Radical.sqrt(2) * Radical.sqrt(3) * Radical.sqrt(6) == Radical(6)
    assert Radical.sqrt(8) == Radical(2) * Radical.sqrt(2)
    assert Radical.sqrt(Fraction(2, 3)) == Radical.sqrt(6) / 3
    assert Radical.sqrt(Fraction(9, 4)) == Radical(Fraction(3, 2))


def test_sqrt_of_negative_rejected():
    with pytest.raises(InexactSqrtError):
        Radical.sqrt(-2)
    with pytest.raises(InexactSqrtError):
        Radical.sqrt(Radical.sqrt(2))


def test_division_single_and_double_term():
    assert Radical(1) / (2 * Radical.sqrt(3)) == Radical.sqrt(3) / 6
    x = Radical(1) + Radical.sqrt(2)
    assert x / x == Radical(1)
    y = Radical.sqrt(2) + Radical.sqrt(3) * Fraction(1, 2)
    assert (y * y) / y == y


def test_division_three_terms_signals():
    z = Radical(1) + Radical.sqrt(2) + Radical.sqrt(3)
    with pytest.raises(InexactDivisionError):
        Radical(1) / z


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Radical(1) / Radical(0)


def test_sign():
    assert Radical(0).sign() == 0
    assert (Radical.sqrt(2) - 1).sign() == 1
    assert (Radical(Fraction(3, 2)) - Radical.sqrt(2)).sign() == 1
    assert (Radical(Fraction(7, 5)) - Radical.sqrt(2)).sign() == -1
    assert (-Radical.sqrt(5)).sign() == -1


def test_float_round_trip():
    value = Radical(Fraction(3, 7)) + Radical.sqrt(5) * Fraction(2, 3)
    expected = 3 / 7 + (2 / 3) * 5 ** 0.5
    assert approx_equal(float(value), expected, rel=1e-15)


def test_coerce_widening_only():
    assert coerce(Fraction(1, 2), "approx") == 0.5
    assert coerce(Radical.sqrt(2), "complex") == complex(2 ** 0.5)
    with pytest.raises(TypeError):
        coerce(0.5, "exact")
    with pytest.raises(TypeError):
        coerce(1j, "approx")


def test_a_float_stands_for_the_decimal_it_prints_as():
    assert exact_value(0.1) == Fraction(1, 10)
    assert exact_value(1e-13) == Fraction(1, 10 ** 13)
    assert exact_value(-3e-7) == Fraction(-3, 10 ** 7)
    for value in (3, Fraction(2, 7), Radical.sqrt(2), 1j):
        assert exact_value(value) is value


@given(radical_strategy(), radical_strategy(), radical_strategy())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(radical_strategy())
def test_float_consistency(a):
    direct = float(a)
    doubled = float(a + a)
    assert approx_equal(doubled, 2 * direct, rel=1e-12, abs_tol=1e-12)


@given(radical_strategy(), rationals)
def test_scalar_multiplication_matches_float(a, q):
    assert approx_equal(float(a * q), float(a) * float(q), rel=1e-12,
                        abs_tol=1e-12)


def assert_normal(value):
    """The stored form is the unique one: den > 0, gcd 1, no zero numerators."""
    terms, den = value._terms, value._den
    assert isinstance(den, int) and den > 0
    assert all(isinstance(c, int) and c for c in terms.values())
    assert all(squarefree_decompose(m)[0] == 1 for m in terms)
    if terms:
        assert math.gcd(den, *terms.values()) == 1
    else:
        assert den == 1


@given(radical_strategy(), radical_strategy())
def test_results_are_in_normal_form(a, b):
    for value in (a, b, a + b, a - b, a * b, -a, a * Fraction(6, 4)):
        assert_normal(value)
    if b and len(b.terms()) <= 2:
        assert_normal(b.inverse())
        assert_normal(a / b)


def test_normal_form_cancels_common_factors():
    value = Radical.sqrt(2) * Fraction(2, 3) + Radical.sqrt(3) * Fraction(4, 3)
    assert (value._terms, value._den) == ({2: 2, 3: 4}, 3)
    half = value * Fraction(3, 2)
    assert (half._terms, half._den) == ({2: 1, 3: 2}, 1)
    zero = value - value
    assert (zero._terms, zero._den) == ({}, 1)


def test_rational_radical_hashes_like_its_fraction():
    assert {Radical(1): 0}.get(1) == 0
    assert {Radical(Fraction(1, 2)): 0}.get(Fraction(1, 2)) == 0
    assert {1: 0}.get(Radical(1)) == 0
    assert hash(Radical(0)) == hash(0)
    assert hash(Radical(Fraction(-7, 3))) == hash(Fraction(-7, 3))
    assert len({Radical(2), 2, Fraction(2), 2.0}) == 1


def test_float_comparison_is_exact():
    assert Radical(1) == 1.0
    assert Radical(Fraction(1, 2)) == 0.5
    assert Radical(0) == 0.0
    assert Radical(Fraction(1, 3)) != 1 / 3
    assert Radical.sqrt(2) != 2 ** 0.5
    assert Radical.sqrt(4) == 2.0
    assert Radical(1) != float("nan")


def test_float_does_not_depend_on_term_order():
    # 19/3*sqrt(2) - 69/16*sqrt(3) + sqrt(13): its terms summed left to
    # right in these two insertion orders give 5.09276806285281 and
    # 5.092768062852809.
    parts = [Radical.sqrt(2) * Fraction(19, 3), Radical.sqrt(13),
             Radical.sqrt(3) * Fraction(-69, 16)]
    forward = parts[0] + parts[1] + parts[2]
    backward = parts[2] + parts[1] + parts[0]
    assert forward == backward
    assert float(forward) == float(backward)


def test_sign_of_three_or_more_terms_is_exact():
    # sqrt(2) + sqrt(3) - sqrt(10) + delta, with delta a 30-digit rational
    # approximation of sqrt(10) - sqrt(2) - sqrt(3): the sum is within
    # 1e-30 of zero, far below what a float can resolve.
    with localcontext(prec=80):
        gap = Decimal(10).sqrt() - Decimal(2).sqrt() - Decimal(3).sqrt()
        deltas = [gap.quantize(Decimal(1).scaleb(-d)) for d in (10, 20, 30)]
    base = Radical.sqrt(2) + Radical.sqrt(3) - Radical.sqrt(10)
    for delta in deltas:
        expected = 1 if delta > gap else -1
        assert (base + Fraction(delta)).sign() == expected
        assert (-(base + Fraction(delta))).sign() == -expected
    assert (base + Fraction(1, 10)).sign() == 1
    assert (Radical.sqrt(6) - Radical.sqrt(2) - Radical.sqrt(3) + 1).sign() == 1
    assert (Radical.sqrt(2) + Radical.sqrt(3) + Radical.sqrt(5)
            - Radical.sqrt(30)).sign() == -1


@given(radical_strategy())
def test_sign_matches_high_precision_value(a):
    with localcontext(prec=60):
        value = sum(
            (Decimal(c.numerator) / c.denominator * Decimal(m).sqrt()
             for m, c in a.terms().items()),
            Decimal(0),
        )
    assert a.sign() == (value > 0) - (value < 0)
