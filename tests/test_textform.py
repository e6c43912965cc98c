import random
from fractions import Fraction

import pytest

from lpgg.algebra import Algebra
from lpgg.scalars import Radical
from lpgg.textform import ParseError, format_multivector, parse_multivector


@pytest.fixture(scope="module")
def g12():
    return Algebra(1, 2)


def test_format_basics(g12):
    assert format_multivector(g12.zero()) == "0"
    assert format_multivector(g12.scalar(1)) == "1"
    assert format_multivector(g12.e(1)) == "e1"
    assert format_multivector(-g12.f(2)) == "-f2"
    mv = g12.scalar(Fraction(1, 2)) - g12.blade(0b011, Fraction(1, 2))
    assert format_multivector(mv) == "1/2 - 1/2*e1^f1"


def test_format_radical_coefficients(g12):
    mv = g12.blade(0b100, Radical.sqrt(3) / 2)
    assert format_multivector(mv) == "1/2*sqrt(3)*f2"
    mv = g12.blade(0b100, Radical(1) + Radical.sqrt(2))
    assert format_multivector(mv) == "(1+sqrt(2))*f2"
    mv = g12.blade(0b100, -Radical(1) - Radical.sqrt(2))
    assert format_multivector(mv) == "-(1+sqrt(2))*f2"


def test_parse_round_trip_random(g12):
    rng = random.Random(17)
    keys = [1, 2, 3, 5, 6]
    for _ in range(50):
        coeffs = {}
        for _ in range(4):
            value = Radical(Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
            if rng.random() < 0.5:
                value = value + Radical.sqrt(rng.choice(keys)) * \
                    Fraction(rng.randint(-3, 3), rng.randint(1, 5))
            coeffs[rng.randrange(g12.dim)] = value
        mv = g12.multivector(coeffs)
        text = format_multivector(mv)
        assert parse_multivector(text, g12) == mv


def test_parse_errors(g12):
    with pytest.raises(Exception):
        parse_multivector("1*e9", g12)
    # empty factors, empty groups and zero denominators are parse errors too
    for text in ("huh*e1", "*", "-", "+", "2*", "*e1", "(+)", "1/0*e1", "0/0",
                 "(1/0)*e1", "()", "( )"):
        with pytest.raises(ParseError):
            parse_multivector(text, g12)


@pytest.mark.parametrize("text, expected", [
    ("2*-3*e1", "-6*e1"),
    ("sqrt(2)*-1/2", "-1/2*sqrt(2)"),
    ("e1 - -e2", "e1 + e2"),
    ("--e1", "e1"),
    ("sqrt( 2 )*e1", "sqrt(2)*e1"),
    ("2 * e1", "2*e1"),
    ("-(1+sqrt(2))*f2", "-(1+sqrt(2))*f2"),
    ("(1+sqrt(2))*2*f2", None),
    ("2*(1)*e1", None),
    ("2*-e1", None),
    ("e1*2", None),
    ("((1))", None),
    ("1 / 2", None),
    ("e1 ^ f2", None),
    ("3-", None),
])
def test_parse_grammar_edges(text, expected):
    """A factor after ``*`` may carry signs, and so may a term; a group is a
    whole coefficient; whitespace may not split a rational or a blade name.
    ``None`` marks text the parser rejects."""
    g22 = Algebra(2, 2)
    if expected is None:
        with pytest.raises(ParseError):
            parse_multivector(text, g22)
    else:
        assert format_multivector(parse_multivector(text, g22)) == expected


def test_zero_round_trip(g12):
    assert parse_multivector("0", g12).is_zero()
