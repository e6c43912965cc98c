"""The atlas suite: pseudoscalar sign strings and their periodicity."""
from __future__ import annotations

import itertools

from . import DEFAULT_N_MAX, DEFAULT_SEED
from . import atlas as atlas_mod
from .algebra import Algebra
from .reporting import VerificationReport


ATLAS_LEVEL_FIXTURES = {
    1: "+-",
    2: "-+-",
    3: "-+-+",
    4: "+-+-+",
    5: "+-+-+-",
    6: "-+-+-+-",
}

PRINTED_SIGN_SEQUENCE = "+,-,-+-,-+-+,+-+-+,-+-+-+"
PRINTED_PRODUCT_SEQUENCE = "--++--"


def _pair_sign_product(level: int) -> int:
    """Product over p+q = level and i < j of the sign of (g_i g_j)^2, each
    square taken in the product kernel."""
    sign = 1
    for p in range(level, -1, -1):
        algebra = Algebra(p, level - p)
        for i, j in itertools.combinations(range(level), 2):
            blade = algebra.blade((1 << i) | (1 << j))
            sign *= 1 if (blade * blade).scalar_part() == 1 else -1
    return sign


def _pair_sign_closed_form(level: int) -> int:
    """Product over p+q = level and i < j of (g_i g_j)^2 = -g_i^2 g_j^2."""
    sign = 1
    for p in range(level + 1):
        squares = [1] * p + [-1] * (level - p)
        for gi, gj in itertools.combinations(squares, 2):
            sign *= -gi * gj
    return sign


def suite_atlas(n_max: int = DEFAULT_N_MAX,
                seed: int = DEFAULT_SEED) -> VerificationReport:
    report = VerificationReport("atlas", seed)
    levels = min(max(n_max, 6), atlas_mod.ATLAS_LIMIT)
    data = atlas_mod.atlas(levels)

    with report.check(
        "level-strings",
        "computed pseudoscalar sign strings match the itemized levels 1..6",
    ) as check:
        for level, fixture in ATLAS_LEVEL_FIXTURES.items():
            check(data["levels"][level] == fixture, f"level {level}")

    with report.check(
        "aggregate-sign-sequence",
        "the concatenated sign sequence agrees with the printed aggregate",
        "printed item 6 (-+-+-+) contradicts the itemized level-5 list; "
        "computed +-+-+- follows the items",
    ) as check:
        computed = data["sign_sequence"].split(",")[:6]
        itemized = list(ATLAS_LEVEL_FIXTURES[1]) + [
            ATLAS_LEVEL_FIXTURES[level] for level in range(2, 6)
        ]
        for item, (got, printed, listed) in enumerate(
            zip(computed, PRINTED_SIGN_SEQUENCE.split(","), itemized), 1
        ):
            check(got in (printed, listed), f"item {item}: {got}",
                  stated=got == printed)

    with report.check(
        "product-sequence",
        "per-level products of generator square signs give --,++,--",
    ) as check:
        check(data["product_sequence"][:6] == PRINTED_PRODUCT_SEQUENCE,
              data["product_sequence"])

    with report.check(
        "eightfold-periodicity",
        "the pseudoscalar square sign depends only on (p-q) mod 8, "
        f"exhaustively for p+q <= {atlas_mod.ATLAS_LIMIT}",
    ) as check:
        classes = atlas_mod.periodicity_classes(atlas_mod.ATLAS_LIMIT)
        check(len(classes) == 8 and all(len(signs) == 1 for signs in classes.values()),
              f"{len(classes)} classes")

    with report.check(
        "pair-sign-products",
        "products of generator-pair square signs per level (data only)",
    ) as check:
        pairs = [(level, _pair_sign_product(level)) for level in range(1, levels + 1)]
        for level, sign in pairs:
            check(sign == _pair_sign_closed_form(level), f"level {level}")
        check.details = ", ".join(
            f"level {level}: {'+' if sign > 0 else '-'}" for level, sign in pairs
        )
    return report
