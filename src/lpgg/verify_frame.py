"""The frame suite: null frames, their tables, transitions and canonical forms."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import DEFAULT_N_MAX, DEFAULT_SEED
from . import frames, linalg
from .reporting import VerificationReport
from .scalars import Radical
from .verify_draws import _frames, _rational, _sizes, random_multivector


def _t3_fixture():
    h = Fraction(1, 2)
    t3 = [[h, h, 0], [h, -h, 0], [1, 0, 1]]
    t3_inv = [[1, 1, 0], [1, -1, 0], [-1, -1, 1]]
    return t3, t3_inv


def _t8_fixture():
    """Entry-for-entry transcription of the n+1 = 8 change-of-basis pair."""
    h = Fraction(1, 2)
    rt = Radical.sqrt

    t8 = [
        [h, h, 0, 0, 0, 0, 0, 0],
        [h, -h, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 0, 0],
        [1, 0, h, rt(3) / 2, 0, 0, 0, 0],
        [1, 0, h, 1 / (2 * rt(3)), rt(Fraction(2, 3)), 0, 0, 0],
        [1, 0, h, 1 / (2 * rt(3)), 1 / (2 * rt(6)), rt(5) / (2 * rt(2)), 0, 0],
        [1, 0, h, 1 / (2 * rt(3)), 1 / (2 * rt(6)), 1 / (2 * rt(10)),
            rt(Fraction(3, 5)), 0],
        [1, 0, h, 1 / (2 * rt(3)), 1 / (2 * rt(6)), 1 / (2 * rt(10)),
            1 / (2 * rt(15)), rt(7) / (2 * rt(3))],
    ]
    # The (4,4) entry is printed as -2/sqrt(3); that sign breaks T T^-1 = I
    # and contradicts the defining combination for the fourth basis vector
    # (f_3 = -(a1+a2+a3-2a4)/sqrt(3)), so +2/sqrt(3) is used here and the
    # discrepancy is reported by the transition-8 check.
    t8_inv = [
        [1, 1, 0, 0, 0, 0, 0, 0],
        [1, -1, 0, 0, 0, 0, 0, 0],
        [-1, -1, 1, 0, 0, 0, 0, 0],
        [-1 / rt(3), -1 / rt(3), -1 / rt(3), 2 / rt(3), 0, 0, 0, 0],
        [-1 / rt(6), -1 / rt(6), -1 / rt(6), -1 / rt(6), rt(Fraction(3, 2)),
            0, 0, 0],
        [-1 / rt(10), -1 / rt(10), -1 / rt(10), -1 / rt(10), -1 / rt(10),
            2 * rt(Fraction(2, 5)), 0, 0],
        [-1 / rt(15), -1 / rt(15), -1 / rt(15), -1 / rt(15), -1 / rt(15),
            -1 / rt(15), rt(Fraction(5, 3)), 0],
        [-1 / rt(21), -1 / rt(21), -1 / rt(21), -1 / rt(21), -1 / rt(21),
            -1 / rt(21), -1 / rt(21), 2 * rt(Fraction(3, 7))],
    ]
    return t8, t8_inv


def suite_frame(n_max: int = DEFAULT_N_MAX,
                seed: int = DEFAULT_SEED) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport("frame", seed)
    top = _sizes(n_max).stop - 1

    with report.check(
        "frame-axioms",
        "a_i^2 = 0, a_i.a_j = sign/2, wedge of the frame nonzero "
        f"(both signs, sizes 2..{top})",
    ) as check:
        for sign in (1, -1):
            for fr in _frames(n_max, sign=sign):
                half = fr.algebra.scalar(Fraction(sign, 2))
                where = f"size {fr.size}, sign {sign}"
                for i, a in enumerate(fr.vectors):
                    check((a * a).is_zero(), f"a_{i+1}^2 != 0 at {where}")
                for i, j in itertools.combinations(range(fr.size), 2):
                    check(fr.vectors[i].dot(fr.vectors[j]) == half,
                          f"a_{i+1}.a_{j+1} mismatch at {where}")
                check(not frames.wedge_list(fr.vectors).is_zero(),
                      f"dependent frame at {where}")

    with report.check(
        "multiplication-tables",
        "all sixteen pair products match the correlated table, both signs",
    ) as check:
        for sign in (1, -1):
            for fr in _frames(n_max, sign=sign):
                table = frames.verify_multiplication_table(fr)
                check(table.ok, f"size {fr.size}, sign {sign}: {table.violations}")

    with report.check(
        "transition-3", "T and T^-1 for n+1 = 3 match the stated 3x3 matrices",
    ) as check:
        for fr3 in _frames(n_max, 3, 3):
            t3, t3_inv = _t3_fixture()
            check(fr3.t_matrix == t3, "T")
            check(fr3.t_inverse == t3_inv, "T^-1")

    with report.check(
        "transition-8",
        "T and T^-1 for n+1 = 8 match the stated 8x8 matrices entry-for-entry",
        "the stated T^-1 entry (4,4) is -2/sqrt(3); TT^-1 = I and the "
        "defining combination force +2/sqrt(3); all 127 other entries "
        "match verbatim",
    ) as check:
        for fr8 in _frames(n_max, 8, 8):
            t8, t8_inv = _t8_fixture()
            check(fr8.t_matrix == t8, "T")
            check(fr8.t_inverse == t8_inv, "T^-1")

    with report.check("transition-inverse", "T T^-1 = I exactly for every size") \
            as check:
        for fr in _frames(n_max):
            product = linalg.matmul(fr.t_matrix, fr.t_inverse)
            check(product == linalg.identity(fr.size), f"size {fr.size}")

    with report.check(
        "coordinate-round-trip",
        "standard -> null -> standard coordinates is the identity",
    ) as check:
        for fr in _frames(n_max):
            rows = [tuple(_rational(rng) for _ in range(fr.size)) for _ in range(5)]
            for row in rows:
                s = frames.CoordinateRow(row, "standard")
                x = frames.to_null_coordinates(fr, s)
                back = frames.to_standard_coordinates(fr, x)
                check(back.entries == row, f"size {fr.size}, row {row}")

    ks = _sizes(n_max, hi=8)
    with report.check(
        "k-sum-squares",
        f"A_k^2 = k(k-1)/2 and the unit k-sum squares to 1, k = 2..{ks.stop - 1}",
    ) as check:
        if ks:
            fr = frames.build_null_frame(ks[-1], 1)
        for k in ks:
            ak = frames.k_sum(fr, k)
            check(ak * ak == fr.algebra.scalar(Fraction(k * (k - 1), 2)),
                  f"A_{k}^2")
            unit = frames.unit_k_sum(fr, k)
            check(unit * unit == fr.algebra.scalar(1), f"unit A_{k}")

    with report.check(
        "reciprocal-frame",
        "a^i . a_j = delta_ij; A . a^i = 1; a^i = (2/n)(dual_i - (n-1) a_i)",
    ) as check:
        for fr in _frames(n_max):
            size = fr.size
            recip = frames.reciprocal_frame(fr)
            for i, r in enumerate(recip):
                for j, a in enumerate(fr.vectors):
                    expected = fr.algebra.scalar(1 if i == j else 0)
                    check(r.dot(a) == expected,
                          f"a^{i+1}.a_{j+1} at size {size}")
            big = frames.k_sum(fr, size)
            check(all(big.dot(r) == fr.algebra.scalar(1) for r in recip),
                  f"A.a^i at size {size}")
            n = size - 1
            for i, r in enumerate(recip):
                alt = (frames.dual_sum(fr, i + 1) - fr.vectors[i] * (n - 1)) \
                    * Fraction(2, n)
                check(alt == r, f"dual form of a^{i+1} at size {size}")

    with report.check(
        "pseudoscalar-relation",
        "e1 f1..fn = -(sqrt2)^(n+1)/sqrt(n) a_1^..^a_{n+1}, "
        f"n = 1..{top - 1}"
        + ("; the n = 2 case is -2 a1^a2^a3" if top >= 3 else ""),
    ) as check:
        for fr in _frames(n_max):
            check(fr.algebra.pseudoscalar() == frames.pseudoscalar_relation(fr),
                  f"size {fr.size}")
        for fr3 in _frames(n_max, 3, 3):
            check(fr3.algebra.pseudoscalar()
                  == frames.wedge_list(fr3.vectors) * (-2), "n = 2")

    with report.check(
        "canonical-basis-invertible",
        "the 2^(n+1) canonical null products are a basis (round-trips exactly)",
    ) as check:
        for fr in _frames(n_max, hi=frames.CANONICAL_BASIS_LIMIT):
            for _ in range(3):
                mv = random_multivector(fr.algebra, rng, terms=6)
                coeffs = frames.express_in_null_basis(fr, mv)
                check(frames.reconstruct_from_null_basis(fr, coeffs) == mv,
                      f"size {fr.size}")

    with report.check_group(
        ("canonical-form-e1f1", "e1 f1 = 1 - 2 a1 a2"),
        ("canonical-form-e1f2", "e1 f2 expands over the null products",
         "stated 1 + a1a3 - a2a3 has scalar part 1, impossible for a "
         "bivector; both routes give -1 + a1a3 + a2a3 exactly"),
        ("canonical-form-e1f1f2", "e1 f1 f2 expands over the null products",
         "stated a1 + a3 - 2 a1a2a3 drops the -a2 term; the expansion "
         "a1 - a2 + a3 - 2 a1a2a3 equals the central pseudoscalar exactly"),
    ) as (form_e1f1, form_e1f2, form_e1f1f2):
        for fr3 in _frames(n_max, 3, 3):
            g = fr3.algebra
            subsets = frames.canonical_subsets(3)

            def matches(mv, derived):
                coeffs = dict(zip(subsets, frames.express_in_null_basis(fr3, mv)))
                return all(coeffs.get(k, Radical(0)) == v
                           for k, v in derived.items()) \
                    and sum(1 for c in coeffs.values() if c) == len(derived)

            form_e1f1(matches(g.e(1) * g.f(1), {0b000: 1, 0b011: -2}))

            e1f2 = g.e(1) * g.f(2)
            form_e1f2(matches(e1f2, {0b000: -1, 0b101: 1, 0b110: 1}), "expansion")
            dual_route = (fr3.vectors[0] + fr3.vectors[1]) * (
                -fr3.vectors[0] - fr3.vectors[1] + fr3.vectors[2]
            )
            form_e1f2(dual_route == e1f2, "dual route")

            e1f1f2 = g.e(1) * g.f(1) * g.f(2)
            form_e1f1f2(matches(e1f1f2, {0b001: 1, 0b010: -1, 0b100: 1, 0b111: -2}),
                        "expansion")
            form_e1f1f2(e1f1f2 == frames.wedge_list(fr3.vectors) * (-2),
                        "pseudoscalar")

    return report
