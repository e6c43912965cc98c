"""Text form for multivectors: sums of ``coef*blade`` terms.

Blades are named ``1, e1, f1, e1^f1, ...`` in the standard basis.  Exact
coefficients print as rationals and ``sqrt(m)`` products, e.g.::

    1/2*e1 + 1/2*f1
    -2*e1^f1
    (1+1/3*sqrt(6))*f2

The parser accepts exactly what the formatter emits (whitespace-tolerant).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Algebra, Multivector
from .scalars import Radical


def _format_coefficient(value) -> tuple[str, bool]:
    """Return (text, needs_parens_when_multiplied)."""
    if isinstance(value, Radical):
        text = str(value)
        simple = len(value.terms()) <= 1
        return text, not simple
    if isinstance(value, complex):
        return f"({value.real!r}{value.imag:+}j)", False
    return repr(value), False


def format_multivector(mv: Multivector) -> str:
    if mv.is_zero():
        return "0"
    parts = []
    for blade, value in sorted(mv.items(), key=lambda item: (item[0].bit_count(), item[0])):
        if isinstance(value, Radical) and len(value.terms()) > 1:
            if all(c < 0 for c in value.terms().values()):
                value = -value
                coef_text, needs_parens = _format_coefficient(value)
                parts.append(f"-({coef_text})*{mv.algebra.blade_name(blade)}"
                             if blade else f"-({coef_text})")
                continue
        coef_text, needs_parens = _format_coefficient(value)
        if needs_parens:
            coef_text = f"({coef_text})"
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


_SQRT_RE = re.compile(r"sqrt\(\s*([0-9]+)\s*\)")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_BLADE_RE = re.compile(r"[ef][0-9]+(?:\^[ef][0-9]+)*")


class ParseError(ValueError):
    pass


def _parse_exact_factor(text: str) -> Radical:
    """Parse ``rational``, ``sqrt(m)`` or ``rational*sqrt(m)``."""
    text = text.strip()
    sign = 1
    while text[:1] in ("+", "-"):
        if text[0] == "-":
            sign = -sign
        text = text[1:].strip()
    if "*" in text:
        left, right = text.split("*", 1)
        value = _parse_exact_factor(left) * _parse_exact_factor(right)
    else:
        m = _SQRT_RE.fullmatch(text)
        if not (m or _RATIONAL_RE.fullmatch(text)):
            raise ParseError(f"bad exact coefficient {text!r}")
        try:
            value = Radical.sqrt(int(m.group(1))) if m else Radical(Fraction(text))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {text!r}") from None
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"unreadable number: {exc}") from None
    return -value if sign < 0 else value


def _split_top_level_sum(text: str) -> list[str]:
    parts, depth, current = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and current.strip() and current.rstrip()[-1:] not in "*(/+-":
            parts.append(current)
            current = ch
        else:
            current += ch
    if current.strip():
        parts.append(current)
    return parts


def _parse_exact_coefficient(text: str) -> Radical:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        pieces = _split_top_level_sum(text[1:-1])
        if not pieces:
            raise ParseError(f"empty group {text!r}")
        total = Radical(0)
        for piece in pieces:
            total = total + _parse_exact_factor(piece)
        return total
    return _parse_exact_factor(text)


def parse_multivector(text: str, algebra: Algebra) -> Multivector:
    """Inverse of :func:`format_multivector`; coefficients are exact."""
    text = text.strip()
    if text in ("0", ""):
        return algebra.zero()
    coeffs: dict[int, object] = {}
    for piece in _split_top_level_sum(text):
        piece = piece.strip()
        sign = 1
        while piece[:1] in ("+", "-"):
            if piece[0] == "-":
                sign = -sign
            piece = piece[1:].strip()
        # Separate trailing blade name (after the last '*' at depth 0), if any.
        blade_text, coef_text = None, piece
        depth, split_at = 0, None
        for idx, ch in enumerate(piece):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 0:
                tail = piece[idx + 1 :].strip()
                if _BLADE_RE.fullmatch(tail):
                    split_at = idx
        if split_at is not None:
            coef_text = piece[:split_at]
            blade_text = piece[split_at + 1 :]
        elif _BLADE_RE.fullmatch(piece):
            coef_text = "1"
            blade_text = piece
        blade = algebra.blade_from_name(blade_text) if blade_text else 0
        value = _parse_exact_coefficient(coef_text)
        if sign < 0:
            value = -value
        coeffs[blade] = coeffs.get(blade, Radical(0)) + value
    return algebra.multivector(coeffs)
