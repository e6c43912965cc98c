"""Independent blade-product oracle for the dense-float workload.

It recomputes single output coefficients of a geometric, wedge or inner
product from the operands' coefficient maps.  The sign of each blade pair
comes from an explicit count of the transpositions that sort the
concatenated generator lists, not from ``Algebra.product_sign``.
"""

from __future__ import annotations


def _generators(blade: int) -> list[int]:
    return [k for k in range(blade.bit_length()) if blade >> k & 1]


def blade_sign(a: int, b: int, p: int) -> int:
    """Sign of ``e_a * e_b`` in G(p, q): swaps to sort, then squares."""
    left, right = _generators(a), _generators(b)
    swaps = sum(1 for i in left for j in right if i > j)
    sign = -1 if swaps % 2 else 1
    for k in set(left) & set(right):
        if k >= p:
            sign = -sign
    return sign


def _kept(kind: str, ga: int, gb: int, gout: int) -> bool:
    if kind == "geometric":
        return True
    if kind == "wedge":
        return gout == ga + gb
    if kind == "dot":
        return gout == abs(ga - gb)
    raise ValueError(f"unknown product {kind!r}")


def coefficient(kind: str, p: int, x: dict, y: dict, out: int):
    """Coefficient of blade ``out`` in the ``kind`` product of ``x`` and ``y``."""
    total = 0
    for a, ca in x.items():
        b = a ^ out
        cb = y.get(b)
        if cb is None or not _kept(kind, a.bit_count(), b.bit_count(), out.bit_count()):
            continue
        total += blade_sign(a, b, p) * ca * cb
    return total
