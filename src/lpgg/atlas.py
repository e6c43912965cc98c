"""Pseudoscalar-square signs across signatures (the periodicity atlas).

Every sign is computed by actually squaring the top blade in the dense
product kernel, never by a closed-form lookup, so the atlas doubles as
a regression suite for the blade product signs.  Levels are the totals
p+q; within a level rows run from the all-positive signature down to
the all-negative one.
"""

from __future__ import annotations

from collections import namedtuple

from . import ATLAS_LIMIT
from .algebra import Algebra, DimensionLimitError

AtlasRow = namedtuple("AtlasRow", "p q blade square_sign generator_sign_product")


def pseudoscalar_square_sign(p: int, q: int) -> int:
    """Sign s with (e1...ep f1...fq)^2 = s, from the actual product."""
    if p + q > ATLAS_LIMIT:
        raise DimensionLimitError(f"p+q = {p + q} exceeds the atlas limit")
    algebra = Algebra(p, q)
    top = algebra.pseudoscalar()
    square = top * top
    value = square.scalar_part()
    if square.grades() > {0} or value not in (1, -1):
        raise ArithmeticError("pseudoscalar square is not +-1")
    return 1 if value == 1 else -1


def _generator_sign_product(algebra: Algebra) -> int:
    product = 1
    for k in range(algebra.n_generators):
        g = algebra.generator(k)
        square = (g * g).scalar_part()
        product *= 1 if square == 1 else -1
    return product


def atlas(n_max: int) -> dict:
    """Rows plus the level strings and the two aggregate sequences.

    ``levels[k]`` concatenates the square signs for p = k..0; the
    ``sign_sequence`` splits level 1 into its two entries and then
    joins the rest, and ``product_sequence`` carries the per-level
    product of all generator square signs.
    """
    if n_max > ATLAS_LIMIT:
        raise DimensionLimitError(f"n_max = {n_max} exceeds the atlas limit")
    rows: list[AtlasRow] = []
    levels: dict[int, str] = {}
    products: dict[int, int] = {}
    for level in range(1, n_max + 1):
        signs = []
        level_product = 1
        for p in range(level, -1, -1):
            q = level - p
            sign = pseudoscalar_square_sign(p, q)
            algebra = Algebra(p, q)
            gen_product = _generator_sign_product(algebra)
            level_product *= gen_product
            rows.append(
                AtlasRow(
                    p=p,
                    q=q,
                    blade=algebra.blade_name(algebra.dim - 1).replace("^", ""),
                    square_sign=sign,
                    generator_sign_product=gen_product,
                )
            )
            signs.append("+" if sign > 0 else "-")
        levels[level] = "".join(signs)
        products[level] = level_product
    sequence_parts: list[str] = []
    if n_max >= 1:
        sequence_parts.extend(levels[1])  # level one splits into "+", "-"
    for level in range(2, n_max + 1):
        sequence_parts.append(levels[level])
    return {
        "rows": rows,
        "levels": levels,
        "sign_sequence": ",".join(sequence_parts),
        "product_sequence": "".join(
            "+" if products[level] > 0 else "-" for level in range(1, n_max + 1)
        ),
    }


def periodicity_classes(max_total: int = ATLAS_LIMIT) -> dict[int, set[int]]:
    """The square signs of every signature p+q <= max_total, keyed by (p-q) mod 8."""
    classes: dict[int, set[int]] = {}
    for total in range(1, max_total + 1):
        for p in range(total + 1):
            q = total - p
            classes.setdefault((p - q) % 8, set()).add(pseudoscalar_square_sign(p, q))
    return classes
