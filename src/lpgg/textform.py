"""Text form for multivectors: sums of ``coef*blade`` terms.

Blades are named ``1, e1, f1, e1^f1, ...`` in the standard basis.  Exact
coefficients print as rationals and ``sqrt(m)`` products, e.g.::

    1/2*e1 + 1/2*f1
    -2*e1^f1
    (1+1/3*sqrt(6))*f2

The parser reads the grammar given in :func:`parse_multivector`: all the
formatter emits, and also forms such as ``2*3*e1`` and ``--e1``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Algebra, Multivector
from .scalars import Radical, format_terms


def _format_coefficient(value) -> str:
    """The text of one coefficient, parenthesized when it is a sum of
    radical terms, with the sign outside when all of them are negative.
    An exact value's terms are read once."""
    if isinstance(value, Radical):
        terms = value.terms()
        if len(terms) <= 1:
            return format_terms(terms)
        if all(c < 0 for c in terms.values()):
            return f"-({format_terms({m: -c for m, c in terms.items()})})"
        return f"({format_terms(terms)})"
    if isinstance(value, complex):
        return f"({value.real!r}{value.imag:+}j)"
    return repr(value)


def format_multivector(mv: Multivector) -> str:
    if mv.is_zero():
        return "0"
    parts = []
    for blade, value in sorted(mv.items(), key=lambda item: (item[0].bit_count(), item[0])):
        coef_text = _format_coefficient(value)
        name = mv.algebra.blade_name(blade)
        if blade == 0:
            term = coef_text
        elif coef_text == "1":
            term = name
        elif coef_text == "-1":
            term = f"-{name}"
        else:
            term = f"{coef_text}*{name}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rational>[0-9]+(?:/[0-9]+)?)|(?P<sqrt>sqrt\(\s*[0-9]+\s*\))"
    r"|(?P<blade>[ef][0-9]+(?:\^[ef][0-9]+)*)|(?P<op>[-+*()])|(?P<bad>\S))")


class ParseError(ValueError):
    pass


def _take(tokens: list, *kinds: str) -> str:
    """Pop the next token, which must be of one of ``kinds``; its text."""
    kind, text = tokens.pop()
    if kind not in kinds:
        found = repr(text) if text else "the end"
        raise ParseError(f"expected {' or '.join(kinds)}, found {found}")
    return text


def _signs(tokens: list) -> int:
    """Pop a run of ``+`` and ``-`` tokens; the sign they make."""
    sign = 1
    while tokens[-1][0] in ("+", "-"):
        sign = -sign if tokens.pop()[0] == "-" else sign
    return sign


def _factor(tokens: list) -> Radical:
    text = _take(tokens, "rational", "sqrt")
    try:
        if text.startswith("sqrt"):
            return Radical.sqrt(int(text[5:-1]))
        return Radical(Fraction(text))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"unreadable number: {exc}") from None


def _product(tokens: list) -> Radical:
    """``sign* factor ("*" sign* factor)*``, leaving a ``"*" blade`` unread."""
    sign, value = _signs(tokens), _factor(tokens)
    while tokens[-1][0] == "*" and tokens[-2][0] != "blade":
        tokens.pop()
        sign *= _signs(tokens)
        value = value * _factor(tokens)
    return value if sign > 0 else -value


def parse_multivector(text: str, algebra: Algebra) -> Multivector:
    """Inverse of :func:`format_multivector`; coefficients are exact.

    The text form's grammar, where whitespace may separate tokens but not
    split a rational or a blade name, and terms on one blade add up::

        text    := "" | term (("+" | "-") term)*
        term    := sign* (blade | coef ["*" blade])
        coef    := "(" product (("+" | "-") product)* ")" | product
        product := sign* factor ("*" sign* factor)*
        factor  := digits ["/" digits] | "sqrt(" digits ")"
        blade   := [ef]digits ("^" [ef]digits)*     (read by Algebra.blade_from_name)
    """
    # The tokens in reverse above an end marker, so each is popped off the end.
    tokens = [("end", "")] + [(m["op"] or m.lastgroup, m[m.lastgroup])
                              for m in _TOKEN_RE.finditer(text)][::-1]
    coeffs: dict[int, Radical] = {}
    while tokens[-1][0] != "end":
        sign, name = _signs(tokens), "1"
        if tokens[-1][0] == "blade":
            value, name = Radical(1), tokens.pop()[1]
        elif tokens[-1][0] == "(":
            tokens.pop()
            value = _product(tokens)
            while tokens[-1][0] in ("+", "-"):
                value = value + _product(tokens)
            _take(tokens, ")")
        else:
            value = _product(tokens)
        if name == "1" and tokens[-1][0] == "*":  # coef "*" blade
            tokens.pop()
            name = _take(tokens, "blade")
        if tokens[-1][0] not in ("+", "-", "end"):
            _take(tokens, "+", "-", "end")  # raises: the term must end here
        blade = algebra.blade_from_name(name)
        coeffs[blade] = coeffs.get(blade, Radical(0)) + (value if sign > 0 else -value)
    return algebra.multivector(coeffs)
