"""Verification suites: every stated identity, checked mechanically.

Each suite returns a :class:`~lpgg.reporting.VerificationReport` whose
checks are exact wherever the claim is exact.  Every suite works over
the exact backend.  Each check feeds its samples to
:meth:`~lpgg.reporting.VerificationReport.check` (or ``check_group``),
which alone decides the status.  A sample reports whether the claim held
as stated or only as corrected, and each corrected sample checks the
value its details state: a claim that needs its correction somewhere is
``pass-corrected``, one that holds neither way is ``fail``.  Random
sampling is seeded and reproducible.  ``n_max`` bounds every size a check
examines, a frame's n+1 and a signature's p+q alike (:func:`_sizes`); a
check left with no size reports ``skipped``.  Only the atlas suite keeps
its own stated levels.
"""
from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction

from . import DEFAULT_N_MAX, DEFAULT_SEED, SUITES
from . import atlas as atlas_mod
from . import calculus, frames, linalg, simplex, spectral, star
from .algebra import Algebra, Multivector, combination
from .reporting import VerificationReport, merge_reports
from .scalars import EXACT, Radical, is_zero
from .textform import format_multivector


def _rational(rng: random.Random) -> Fraction:
    """A random p/q with p in -9..9 and q in 1..9."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_multivector(algebra: Algebra, rng: random.Random,
                       terms=5) -> Multivector:
    """``terms`` times, a value drawn as :func:`_rational` draws it, then a
    blade; a later draw on a blade replaces its value and keeps its place.
    Built from the integer numerators over their lcm, with no ``Fraction``."""
    draws = {}
    for _ in range(terms):
        value = rng.randint(-9, 9), rng.randint(1, 9)
        draws[rng.randrange(algebra.dim)] = value
    den = math.lcm(*(d for _, d in draws.values()))
    return algebra._from_integers({b: n * (den // d) for b, (n, d) in draws.items()}, den)


def random_vector(vectors, rng: random.Random) -> Multivector:
    """A random rational combination of the given grade-1 vectors."""
    return combination(vectors[0].algebra, [(a, _rational(rng)) for a in vectors])


def _sizes(n_max: int, lo: int = 2, hi: int = frames.FRAME_LIMIT) -> range:
    """Sizes lo..hi cut at ``n_max``; a size is a frame's n+1 or a G(p,q)'s p+q."""
    return range(lo, min(hi, n_max) + 1)


def _frames(n_max: int, lo: int = 2, hi: int = frames.FRAME_LIMIT, sign: int = 1):
    """The null frames of ``_sizes(n_max, lo, hi)``, built one at a time."""
    for size in _sizes(n_max, lo, hi):
        yield frames.build_null_frame(size, sign)


# -- core ---------------------------------------------------------------------------------


def suite_core(n_max: int = DEFAULT_N_MAX,
               seed: int = DEFAULT_SEED) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport("core", seed)

    totals = _sizes(n_max, 0, 4)
    signatures = [(p, total - p) for total in totals for p in range(total + 1)]

    draws = 200
    with report.check(
        "associativity",
        f"(uv)w = u(vw) on {draws} random multivectors per signature, "
        f"p+q <= {totals.stop - 1}",
    ) as check:
        for p, q in signatures:
            algebra = Algebra(p, q)
            for _ in range(draws):
                u = random_multivector(algebra, rng)
                v = random_multivector(algebra, rng)
                w = random_multivector(algebra, rng)
                check((u * v) * w == u * (v * w), f"G({p},{q})")

    with report.check(
        "generator-metric", "g_i^2 = +-1 by signature and g_i g_j = -g_j g_i",
    ) as check:
        for p, q in signatures:
            algebra = Algebra(p, q)
            for i in range(p + q):
                gi = algebra.generator(i)
                expected = algebra.scalar(1 if i < p else -1)
                check(gi * gi == expected, f"g_{i} in G({p},{q})")
                for j in range(i + 1, p + q):
                    gj = algebra.generator(j)
                    check(gi * gj == -(gj * gi), f"g_{i} g_{j} in G({p},{q})")

    with report.check("vector-product-split", "uv = u.v + u^v for grade-1 u, v") \
            as check:
        for p, q in signatures:
            if p + q == 0:
                continue
            algebra = Algebra(p, q)
            generators = [algebra.generator(k) for k in range(p + q)]
            for _ in range(20):
                u = random_vector(generators, rng)
                v = random_vector(generators, rng)
                check(u * v == u.dot(v) + u.wedge(v), f"G({p},{q})")

    tolerance = 1e-15
    with report.check(
        "radical-arithmetic",
        f"(sqrt2*sqrt3)*sqrt6 = 6 exactly; float round-trip within {tolerance}",
    ) as check:
        r = (Radical.sqrt(2) * Radical.sqrt(3)) * Radical.sqrt(6)
        check(r == Radical(6), f"product {r}")
        sample = Radical(Fraction(3, 7)) + Radical.sqrt(5) * Fraction(2, 3)
        check(abs(float(sample) - (3 / 7 + 2 / 3 * 5**0.5)) < tolerance,
              f"float {float(sample)!r}")

    with report.check("reverse-antiautomorphism",
                      "reverse(uv) = reverse(v) reverse(u)") as check:
        for total in _sizes(n_max, 2, 4):  # G(1,1), G(1,2), G(2,2)
            p, q = total // 2, (total + 1) // 2
            algebra = Algebra(p, q)
            for _ in range(30):
                u = random_multivector(algebra, rng)
                v = random_multivector(algebra, rng)
                check((u * v).reverse() == v.reverse() * u.reverse(),
                      f"G({p},{q})")
    return report


# -- frame --------------------------------------------------------------------------------


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


# -- star ----------------------------------------------------------------------------------


def suite_star(n_max: int = DEFAULT_N_MAX,
               seed: int = DEFAULT_SEED) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport("star", seed)

    sizes, per_size = _sizes(n_max, hi=4), 40
    with report.check_group(
        ("involution", f"(g*)* = g for all k, {per_size * len(sizes)} random elements"),
        ("homomorphism", "(gh)* = g* h* exactly"),
        ("contraction-normalization",
         "the all-ones contraction of [g] equals ((n+1)n/2) g*",
         "the unnormalized display omits the factor 2/((n+1)n)"),
        ("mediated-product",
         "gh is recovered from [g],[h] with the squared normalization",
         "raw contraction equals ((n+1)n/2)^2 gh; the factor is required"),
    ) as (involution, homomorphism, contraction, mediated):
        for size in sizes:
            fr = frames.build_null_frame(size, 1)
            for sample in range(per_size):
                where = f"size {size}, sample {sample}"
                g = random_multivector(fr.algebra, rng)
                h = random_multivector(fr.algebra, rng)
                for k in range(2, size + 1):
                    involution(star.star(fr, star.star(fr, g, k), k) == g,
                               f"k = {k}, {where}")
                homomorphism(star.star(fr, g * h) ==
                             star.star(fr, g) * star.star(fr, h), where)
                am = star.a_matrix(fr, g)
                contraction(am.contraction_as_star() == star.star(fr, g), where)
                gh = g * h
                raw = star.mediated_product(fr, g, h)
                mediated(raw * star.star_normalization(fr) ** 2 == gh, where)
                if size > 2 and not gh.is_zero():
                    mediated(raw != gh, f"raw product, {where}")

    with report.check(
        "a-matrix-diagonal",
        "diagonal entries vanish for g = 1 and follow 2(a_i.v) a_i for vectors",
    ) as check:
        for fr3 in _frames(n_max, 3, 3):
            am = star.a_matrix(fr3, fr3.algebra.scalar(1))
            for i in range(3):
                check(am.entries[i][i].is_zero(), f"g = 1, entry {i}")
            v = random_vector(fr3.vectors, rng)
            amv = star.a_matrix(fr3, v)
            for i in range(3):
                check(amv.entries[i][i] == fr3.vectors[i] * (
                    (fr3.vectors[i].dot(v)).scalar_part() * 2
                ), f"vector, entry {i}")

    with report.check(
        "coefficient-matrix",
        "sum m_ij a_i a_j has grades {0, 2}; diagonal is ignored",
    ) as check:
        for fr3 in _frames(n_max, 3, 3):
            m = [[0] * 3 for _ in range(3)]
            m[0][1] = 1
            expected = fr3.algebra.scalar(Fraction(1, 2)) + fr3.vectors[0].wedge(
                fr3.vectors[1]
            )
            check(star.from_coefficient_matrix(fr3, m) == expected, "m_12 = 1")
            ones = [[1] * 3 for _ in range(3)]
            check(star.from_coefficient_matrix(fr3, ones) == fr3.algebra.scalar(3),
                  "all ones")
            ident = [[int(i == j) for j in range(3)] for i in range(3)]
            check(star.from_coefficient_matrix(fr3, ident).is_zero(), "identity")
            for sample in range(20):
                mat = [[_rational(rng) for _ in range(3)] for _ in range(3)]
                check(star.from_coefficient_matrix(fr3, mat).grades() <= {0, 2},
                      f"random sample {sample}")
    return report


# -- calculus -------------------------------------------------------------------------------


def suite_calculus(n_max: int = DEFAULT_N_MAX,
                   seed: int = DEFAULT_SEED) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport("calculus", seed)

    with report.check_group(
        ("gradient-of-x",
         f"nabla x = n+1 exactly, n = 1..{_sizes(n_max).stop - 2}"),
        ("gradient-of-x-squared", "nabla x^2 = 2x exactly"),
    ) as (gradient_x, gradient_x2):
        for fr in _frames(n_max):
            x = calculus.PolyField.identity(fr)
            nabla = calculus.make_nabla(fr)
            gradient_x(nabla.apply(x) == calculus.PolyField.constant(
                fr, fr.algebra.scalar(fr.size)
            ), f"size {fr.size}")
            gradient_x2(nabla.apply(calculus.square_field(fr)) == x.scale(2),
                        f"size {fr.size}")

    with report.check_group(
        ("gradient-via-flat-sum", "nabla = (2/n)(A d_flat - n nabla_null)"),
        ("gradient-via-dual", "nabla = (2/n)(nabla_dual - (n-1) nabla_null)"),
        ("A-dot-gradient", "A . nabla = (n+1) d_flat - 2 A . nabla_null"),
        ("dual-plus-null", "nabla_dual + nabla_null = A d_flat"),
        ("A-dot-dual-plus-null",
         "A . nabla_dual + A . nabla_null = ((n+1)n/2) d_flat"),
        ("null-laplacian", "nabla_null^2 = sum_{i<j} d_i d_j"),
        ("dual-laplacian",
         "nabla_dual^2 = c_sq sum d_i^2 + c_cross sum_{i<j} d_i d_j",
         "square coefficient from the dual-sum oracle is n(n-1)/2; "
         "the cross coefficient n^2-n+1 is confirmed"),
        ("gradient-laplacian",
         "nabla^2 = nabla_dual^2 - 2(n-1) nabla_dual.nabla_null + nabla_null^2",
         "expansion of (2/n)^2 (nabla_dual - (n-1) nabla_null)^2; "
         "derived {'prefactor': '4/n^2', 'null_sq': '(n-1)^2'}"),
        ("dual-dot-null", "nabla_dual . nabla_null = (n/2) X - nabla_null^2",
         "as printed X is grade-1 valued and cannot equal the scalar left "
         "side; X = d_flat^2 makes the identity exact"),
        ("vector-dot-full-sum", "a_i . A = n/2",
         "a vector dotted with a vector is a scalar; the scalar value n/2 "
         "is exact for every i"),
        ("dual-dot-dual", "dual_i . dual_j = n^2 - n + 1 for i != j",
         "brute-force expansion of the double pair-dot sum"),
    ) as (via_flat, via_dual, a_dot, dual_plus_null, a_dot_sum, null_lap,
          dual_lap, gradient_lap, dual_dot_null, vector_dot, dual_dot):
        for fr in _frames(n_max, hi=5):
            size = fr.size
            n = Fraction(size - 1)
            where = f"n+1 = {size}"
            nabla = calculus.make_nabla(fr)
            dual = calculus.make_dual_nabla(fr)
            null = calculus.make_null_nabla(fr)
            flat = calculus.make_flat_partial(fr)
            big_a = frames.k_sum(fr, size)

            via_flat(nabla == (flat.left_multiply(big_a) - null.scale(n))
                     .scale(2 / n), where)
            via_dual(nabla == (dual - null.scale(n - 1)).scale(2 / n), where)
            a_dot(nabla.dot_contract(big_a) == flat.scale(n + 1)
                  - null.dot_contract(big_a).scale(2), where)
            dual_plus_null(dual + null == flat.left_multiply(big_a), where)
            a_dot_sum(dual.dot_contract(big_a) + null.dot_contract(big_a)
                      == flat.scale(n * (n + 1) / 2), where)
            null_sq = null.compose(null)
            null_lap(null_sq == calculus.scalar_operator(fr, 0, 1), where)

            dual_sq = dual.compose(dual)
            diag, off = calculus.dual_sum_dot_oracle(fr)
            stated = dual_sq == calculus.scalar_operator(
                fr, n * (n + 1) / 2, n * n - n + 1)
            corrected = (diag, off * 2) == (n * (n - 1) / 2, n * n - n + 1) \
                and dual_sq == calculus.scalar_operator(fr, diag, off * 2)
            dual_lap(stated or corrected, where, stated=stated)

            dual_dot_null_op = calculus.DiffOperator(fr, [
                (frames.dual_sum(fr, i + 1).dot(fr.vectors[j]),
                 tuple(int(t == i) + int(t == j) for t in range(size)))
                for i in range(size) for j in range(size)
            ])
            cross = dual_sq - dual_dot_null_op.scale(2 * (n - 1))
            nabla_sq = nabla.compose(nabla)
            stated = nabla_sq == cross + null_sq
            corrected = nabla_sq == (cross + null_sq.scale((n - 1) ** 2)) \
                .scale(4 / n**2)
            gradient_lap(stated or corrected, where, stated=stated)

            flat_sq = flat.compose(flat)
            dual_dot_null(dual_dot_null_op == flat_sq.scale(n / 2) - null_sq,
                          where)
            vector_dot(all(a.dot(big_a) == fr.algebra.scalar(n / 2)
                           for a in fr.vectors), where)
            stated = off == n * n - n + 1
            dual_dot(stated or off == (n * n - n + 1) / 2, where, stated=stated)

            if size == 2:  # the details quote the values derived at n = 1
                for check, derived in (
                    (dual_lap, {"c_sq": diag, "c_cross": off * 2}),
                    (dual_dot_null, {"X": "d_flat^2", "factor": n / 2}),
                    (vector_dot, {"value": n / 2}),
                    (dual_dot, {"value": off}),
                ):
                    check.details += f"; derived {derived}"

    with report.check("mixed-partials", "partial derivatives commute exactly") \
            as check:
        for fr in _frames(n_max, 4, 4):
            for _ in range(10):
                exp = tuple(rng.randint(0, 2) for _ in range(fr.size))
                f = calculus.PolyField.monomial(fr, exp)
                for i, j in itertools.combinations(range(1, fr.size + 1), 2):
                    check(f.partial(i).partial(j) == f.partial(j).partial(i),
                          f"monomial {exp}, d{i} d{j}")

    with report.check(
        "laplacians-scalar-valued",
        "dual and null Laplacians map scalar fields to scalar fields",
    ) as check:
        for fr in _frames(n_max, 3, 4):
            dual = calculus.make_dual_nabla(fr)
            null = calculus.make_null_nabla(fr)
            for op in (dual.compose(dual), null.compose(null)):
                for f in calculus.monomial_fields(fr, 2):
                    check(op.apply(f).is_scalar_valued(), f"size {fr.size}")

    with report.check(
        "finite-differences",
        "nabla|x| = unit x, nabla unit x = n/|x|, nabla x^2 = 2x, "
        "nabla x = n+1 at 20 random interior points (h = 1e-5, tol 1e-6)",
    ) as check:
        worst = 0.0
        points_checked = 0
        for fr in _frames(n_max, 3, 4):
            while points_checked < 10 * (fr.size - 2) + 10:
                raw = [rng.uniform(0.05, 1.0) for _ in range(fr.size)]
                total = sum(raw)
                coords = [v / total for v in raw]
                points_checked += 1
                for tag in ("abs_x", "x", "x2", "unit_x"):
                    error = calculus.finite_difference_error(fr, tag, coords)
                    worst = max(worst, error)
                    check(error <= 1e-6, f"{tag} at {coords}")
            check.details = f"max abs error {worst:.2e}"
    return report


# -- spectral -------------------------------------------------------------------------------


def suite_spectral(n_max: int = DEFAULT_N_MAX,
                   seed: int = DEFAULT_SEED) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport("spectral", seed)
    fr2s, fr3s = list(_frames(n_max, 2, 2)), list(_frames(n_max, 3, 3))

    triples = 100
    with report.check_group(
        ("wedge-endo-eigenvalues",
         "f(a1) = det a1 and f(a2) = -det a2 with det = v11 v22 - v12 v21",
         "the stated determinant matrix repeats v12 where v21 belongs; "
         "the expansion 2((x.v2)v1 - (x.v1)v2) forces v21"),
        ("cayley-grassmann",
         f"f(f(x)) - 2(f(x).v2)v1 + 2(f(x).v1)v2 = 0 on {triples} random triples"),
        ("projective-reconstruction",
         "x is recovered from its two wedge ratios when v1^v2 != 0"),
    ) as (eigen, residual, projective):
        for fr2 in fr2s:
            a1, a2 = fr2.vectors
            for sample in range(triples):
                c = [_rational(rng) for _ in range(4)]
                v1 = a1 * c[0] + a2 * c[1]
                v2 = a1 * c[2] + a2 * c[3]
                det = spectral.coefficient_determinant((c[0], c[1]), (c[2], c[3]))
                where = f"sample {sample}, coefficients {c}"
                eigen(spectral.wedge_endo_2d(fr2, v1, v2, a1) == a1 * det, where)
                eigen(spectral.wedge_endo_2d(fr2, v1, v2, a2) == a2 * (-det),
                      where)
                x = random_vector(fr2.vectors, rng)
                eigen(spectral.wedge_endo_2d(fr2, v1, v2, x) ==
                      spectral.wedge_endo_2d_expanded(fr2, v1, v2, x), where)
                residual(spectral.cayley_grassmann_residual(
                    fr2, v1, v2, x
                ).is_zero(), where)
                if det:
                    l1, l2 = spectral.projective_coordinates(fr2, v1, v2, x)
                    projective(v1 * l1 + v2 * l2 == x, where)

    with report.check_group(
        ("pseudoscalar-endo",
         "2(a1^a2^a3)x = -ix with the stated bivector expansion"),
        ("pseudoscalar-central", "i = e1 f1 f2 commutes with vectors"),
    ) as (endo, central):
        for fr3 in fr3s:
            g12 = fr3.algebra
            i_ps = g12.e(1) * g12.f(1) * g12.f(2)
            for _ in range(30):
                coords = [_rational(rng) for _ in range(3)]
                x = frames.vector_from_null_coordinates(fr3, coords)
                fx = spectral.pseudoscalar_endo_3d(fr3, x)
                where = f"null coordinates {coords}"
                endo(fx == -(i_ps * x), where)
                endo(fx == spectral.pseudoscalar_endo_3d_expanded(fr3, coords),
                     where)
                central(i_ps * x == x * i_ps, where)

    with report.check_group(
        ("bivector-gram",
         "the three basis bivectors square to 1/4; pairwise symmetrized "
         "products are stated to vanish",
         "each pair shares a null vector: B_i B_j + B_j B_i = -1/2, not 0"),
        ("pauli-normalization",
         "(1/2 a_i^a_j)^2 compared with the unit square a Pauli vector needs"),
    ) as (gram, pauli):
        for fr3 in fr3s:
            a = fr3.vectors
            bivs = [a[1].wedge(a[2]), a[2].wedge(a[0]), a[0].wedge(a[1])]
            for i, b in enumerate(bivs):
                gram(b * b == fr3.algebra.scalar(Fraction(1, 4)), f"B_{i + 1}^2",
                     stated=True)
            for i, j in itertools.combinations(range(3), 2):
                symmetrized = bivs[i] * bivs[j] + bivs[j] * bivs[i]
                stated = symmetrized.is_zero()
                gram(stated or symmetrized == fr3.algebra.scalar(Fraction(-1, 2)),
                     f"B_{i + 1} B_{j + 1} + B_{j + 1} B_{i + 1}", stated=stated)

            one = fr3.algebra.scalar(1)
            halves = [b * Fraction(1, 2) for b in bivs]
            for b, half in zip(bivs, halves):
                stated = half * half == one
                pauli(stated or (b * 2) * (b * 2) == one, format_multivector(b),
                      stated=stated)
            pauli.details = (f"computed ({format_multivector(halves[0] * halves[0])}); "
                             "square 1 needs the factor 2 a_i^a_j instead")

    operators = 100
    with report.check(
        "spectral-idempotents",
        f"p1+p2 = 1, p1 p2 = 0, p_i^2 = p_i, G = r- p1 + r+ p2 on {operators} "
        "non-degenerate operators",
        "discriminant needs the -2 g_i g_j cross terms",
    ) as check:
        for fr3 in fr3s:
            corrected_count = 0
            complex_count = 0
            count = 0
            while count < operators:
                coeffs = {}
                for i in (1, 2, 3):
                    for j in (1, 2, 3):
                        if i != j and rng.random() < 0.8:
                            coeffs[(i, j)] = Fraction(rng.randint(-6, 6),
                                                      rng.randint(1, 4))
                op = spectral.BivectorOperator(fr3, coeffs)
                _, derived = spectral.discriminants(op)
                if is_zero(derived):
                    continue
                count += 1
                dec = spectral.spectral_decompose(op)
                if dec.discriminant_corrected:
                    corrected_count += 1
                p1, p2 = dec.idempotent_1, dec.idempotent_2
                g = op.element()
                where = f"operator {coeffs}"
                if p1.backend == EXACT:
                    check(p1 + p2 == fr3.algebra.scalar(1), where)
                    check((p1 * p2).is_zero() and (p2 * p1).is_zero(), where)
                    check(p1 * p1 == p1 and p2 * p2 == p2, where)
                    check(dec.reconstruct() == g, where)
                else:
                    complex_count += 1
                    check((p1 + p2).isclose(fr3.algebra.scalar(complex(1))), where)
                    check((p1 * p2).isclose(fr3.algebra.zero("complex")), where)
                    check((p1 * p1).isclose(p1), where)
                    check(dec.reconstruct().isclose(g.to_backend("complex")), where)
            check.details += (f" (corrected on {corrected_count} samples; "
                              f"{complex_count} complexified)")

    with report.check("rep-a1-a2",
                      "[a1] and [a2] match the stated spectral-basis matrices") \
            as check:
        for fr2 in fr2s:
            check(spectral.rep_g11(fr2.vectors[0]) == [[0, 0], [1, 0]], "[a1]")
            check(spectral.rep_g11(fr2.vectors[1]) == [[0, 1], [0, 0]], "[a2]")

    with report.check(
        "rep-position-vector",
        "[x] = [[x3 i, x2+x3], [x1+x3, -x3 i]] in null coordinates",
        "the stated matrix prints x2-x3 and x1-x3, which contradicts "
        "[a1], [a2] and the standard-coordinate display (s1-s2 = x2+x3)",
    ) as check:
        for fr3 in fr3s:
            x = frames.vector_from_null_coordinates(
                fr3, [Fraction(2), Fraction(-3), Fraction(5)]
            )
            check(spectral.rep_g12(x) == [[0, 2, -5, 0], [7, 0, 0, 5],
                                          [5, 0, 0, 2], [0, -5, 7, 0]],
                  "x = (2, -3, 5)")

    pairs = 100
    reps = ((fr2s, spectral.rep_g11, 4, "G(1,1)"),
            (fr3s, spectral.rep_g12, 5, "G(1,2)"))
    with report.check(
        "rep-homomorphism",
        f"rep(uv) = rep(u) rep(v) on {pairs} random pairs in G(1,1) and G(1,2)",
    ) as check:
        for frs, rep, terms, label in reps:
            for fr in frs:
                for sample in range(pairs):
                    u = random_multivector(fr.algebra, rng, terms=terms)
                    v = random_multivector(fr.algebra, rng, terms=terms)
                    check(linalg.matmul(rep(u), rep(v)) == rep(u * v),
                          f"{label} sample {sample}")

    with report.check(
        "regular-representation-faithful",
        "left multiplication on the blade basis has trivial kernel "
        "(the first column recovers the element)",
    ) as check:
        for fr3 in fr3s:
            for blade in range(8):
                reg = spectral.regular_representation(fr3.algebra.blade(blade, 1))
                recovered = [reg[row][0] for row in range(8)]
                check(recovered == [int(row == blade) for row in range(8)],
                      f"blade {blade}")
            for sample in range(20):
                u = random_multivector(fr3.algebra, rng, terms=5)
                reg = spectral.regular_representation(u)
                check([reg[row][0] for row in range(8)]
                      == [u.coefficient(row) for row in range(8)],
                      f"sample {sample}")

    with report.check(
        "rep-regular-similarity",
        "regular-representation traces and determinants match the 2x2 "
        "reps up to the block multiplicity",
    ) as check:
        for frs, rep, terms, label in reversed(reps):
            for fr in frs:
                for sample in range(25):
                    u = random_multivector(fr.algebra, rng, terms=terms)
                    reg, m = spectral.regular_representation(u), rep(u)
                    where = f"{label} sample {sample}"
                    check(linalg.trace(reg) == linalg.trace(m) * 2, where)
                    check(linalg.determinant(reg) == linalg.determinant(m) ** 2, where)
    return report


# -- simplex --------------------------------------------------------------------------------


def suite_simplex(n_max: int = DEFAULT_N_MAX,
                  seed: int = DEFAULT_SEED) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport("simplex", seed)

    sizes, per_size = _sizes(n_max, hi=6), 10
    with report.check_group(
        ("content-forms",
         "both content expressions agree with the 1/n! normalization"),
        ("barycentric-wedge",
         f"x ^ content = (1/n!) full wedge on {per_size * len(sizes)} barycentric "
         "points"),
    ) as (content_forms, wedge):
        for size in sizes:
            fr = frames.build_null_frame(size, 1)
            scale = Fraction(1, math.factorial(size - 1))
            target = frames.wedge_list(fr.vectors) * scale
            content = simplex.content_null(fr)
            alternating = combination(fr.algebra, (
                (frames.wedge_list(fr.vectors[:i] + fr.vectors[i + 1:]), (-1) ** i)
                for i in range(size))) * scale
            content_forms(content == alternating and not content.is_zero(),
                          f"size {size}")
            for _ in range(per_size):
                weights = [rng.randint(0, 9) for _ in range(size)]
                if not sum(weights):
                    weights[0] = 1
                coords = tuple(
                    Fraction(w, sum(weights)) for w in weights
                )
                point = simplex.SimplexPoint(fr, coords)
                wedge(simplex.content_point_wedge(fr, point) == target,
                      f"size {size}, weights {weights}")

    with report.check(
        "centroid-norm",
        "|centroid|^2 = 1/3 for the triangle and the unit squares to 1",
    ) as check:
        for fr in _frames(n_max, 3, 3):
            check(simplex.centroid(fr).norm_squared() == Fraction(1, 3), "|c|^2")
            u = simplex.centroid(fr).unit()
            check(u * u == fr.algebra.scalar(1), "unit")

    with report.check(
        "vertices-on-cone",
        "frame vertices lie on the light cone (|x|^2 = 0 and x^2 = 0)",
    ) as check:
        for fr in _frames(n_max, 3, 4):
            for i in range(1, fr.size + 1):
                v = simplex.vertex(fr, i)
                check(v.is_on_cone(), f"vertex {i} at size {fr.size}")
                sq = v.to_multivector() * v.to_multivector()
                check(sq.is_zero(), f"vertex {i} at size {fr.size}")

    with report.check(
        "grid-nonnegative",
        "|x|^2 >= 0 on a rational grid, vanishing exactly at the vertices",
    ) as check:
        for fr_g in _frames(n_max, 3, 4):
            denominator = 6
            for combo in itertools.product(range(denominator + 1),
                                           repeat=fr_g.size - 1):
                if sum(combo) > denominator:
                    continue
                coords = tuple(
                    Fraction(c, denominator) for c in combo
                ) + (Fraction(denominator - sum(combo), denominator),)
                value = simplex.SimplexPoint(fr_g, coords).norm_squared()
                on_cone = value == 0
                boundary_null = sum(1 for c in coords if c) <= 1
                check(value >= 0 and on_cone == boundary_null,
                      f"size {fr_g.size}, grid point {combo}")

    with report.check_group(
        ("simplicial-rows", "barycentric rows are nonnegative and sum to 1"),
        ("order-equals-rank", "wedge order equals the exact matrix rank"),
        ("closed-graphs", "difference cycles are closed; the vertex set is not"),
    ) as (rows_check, order_check, closed_check):
        for fr_m in _frames(n_max, 3, 4):
            size = fr_m.size
            for _ in range(10):
                rows = []
                for _ in range(size):
                    weights = [rng.randint(0, 6) for _ in range(size)]
                    if not sum(weights):
                        weights[0] = 1
                    rows.append([Fraction(w, sum(weights)) for w in weights])
                matrix = simplex.SimplicialMatrix(fr_m, rows)
                rows_check(all(
                    sum(row) == 1 and all(v >= 0 for v in row)
                    for row in matrix.rows
                ), f"rows {rows}")
                order_check(simplex.order(matrix) == linalg.rank(rows),
                            f"rows {rows}")
            closed = simplex.SimplicialMatrix(
                fr_m,
                [
                    [Fraction(int(j == i) - int(j == (i + 1) % size))
                     for j in range(size)]
                    for i in range(size)
                ],
                barycentric=False,
            )
            closed_check(simplex.is_closed(closed), f"cycle at size {size}")
            vertices = simplex.SimplicialMatrix(
                fr_m,
                [[Fraction(int(i == j)) for j in range(size)]
                 for i in range(size)],
            )
            closed_check(not simplex.is_closed(vertices),
                         f"vertex set at size {size}")

    with report.check(
        "content-alternating",
        "vertex swaps flip the content sign; duplicates degenerate to zero",
    ) as check:
        for fr_s in _frames(n_max, 3, 3):
            base_rows = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
            c_base, _ = simplex.content_vertices(
                simplex.SimplicialMatrix(fr_s, base_rows)
            )
            swapped = [base_rows[1], base_rows[0], base_rows[2]]
            c_swap, _ = simplex.content_vertices(
                simplex.SimplicialMatrix(fr_s, swapped)
            )
            check(c_base == -c_swap, "swap")
            dup, degenerate = simplex.content_vertices(
                simplex.SimplicialMatrix(fr_s,
                                         [base_rows[0], base_rows[0], base_rows[2]])
            )
            check(degenerate and dup.is_zero(), "duplicate")

    for fr in _frames(n_max, 3, 4):
        _laplacian_checks(report, fr)
    return report


def _scalar_constant(field):
    """The constant term of a field if it is a scalar, else None."""
    const = field.terms.get((0,) * field.frame.size)
    if const is None:
        return Fraction(0)
    return const.scalar_part() if const.grades() <= {0} else None


def _laplacian_checks(report, fr):
    """The printed dual-gradient displays on the n-simplex, n = fr.n.

    The dual gradient as defined sums i = 1..n+1; the displays stop at
    i = n, so every line checks the stated value and the full-sum one.
    """
    n = fr.n
    display = [(
        "three-simplex-display",
        "nabla_dual^2 = d1^2+d2^2+d3^2 + d2d3+d1d3+d1d2 on the 3-simplex",
        "instance of the general expansion at n = 3",
    )] if n == 3 else []
    specs = [
        ("dual-gradient-of-x", "nabla_dual x = n(n-1)/2",
         "summing all n+1 terms gives the scalar (n+1)n/2; stopping at n "
         "leaves a bivector remainder"),
        ("dual-laplacian-scalar-valued",
         "nabla_dual^2 maps scalar fields to scalar fields"),
        ("dual-laplacian-expansion",
         "nabla_dual^2 = sum_{i<=n} d_i^2 + C(n,2) sum_{i<=j<=n} d_i d_j",
         "computed from the dual-sum dot oracle: squares n(n-1)/2, "
         "crosses n^2-n+1, all n+1 coordinates participate"),
        *display,
        ("dual-laplacian-of-x-squared", "nabla_dual^2 x^2 = C(n,2)^2",
         "(n^2-n+1) C(n+1,2) over all terms; (n^2-n+1) C(n,2) truncated"),
    ]
    with report.check_group(
        *((f"laplacian-{name}-n{n}", *rest) for name, *rest in specs)
    ) as (gradient, scalar_valued, expansion, *display_checks, x_squared):
        full = calculus.make_dual_nabla(fr)
        truncated = simplex.truncated_dual_nabla(fr)
        x = calculus.PolyField.identity(fr)

        value_full = _scalar_constant(full.apply(x))
        value_truncated = _scalar_constant(truncated.apply(x))
        stated = value_full == Fraction(n * (n - 1), 2)
        gradient(stated or (value_full == Fraction((n + 1) * n, 2)
                            and value_truncated is None),
                 f"sum-to-n+1 {value_full}, sum-to-n {value_truncated}",
                 stated=stated)

        laplacian = full.compose(full)
        for f in calculus.monomial_fields(fr, 3):
            scalar_valued(laplacian.apply(f).is_scalar_valued(),
                          f"monomial {next(iter(f.terms))}")

        diag, off = calculus.dual_sum_dot_oracle(fr)
        squares, crosses = diag, off * 2
        corrected = (squares, crosses) == (Fraction(n * (n - 1), 2), n * n - n + 1) \
            and laplacian == calculus.scalar_operator(fr, squares, crosses)
        where = f"squares {squares}, crosses {crosses}"
        stated = (squares, crosses) == (1, Fraction(n * (n - 1), 2))
        expansion(stated or corrected, where, stated=stated)
        for check in display_checks:
            stated = (squares, crosses) == (1, 1)
            check(stated or corrected, where, stated=stated)

        x2 = calculus.square_field(fr)
        value_full = _scalar_constant(laplacian.apply(x2))
        value_truncated = _scalar_constant(truncated.compose(truncated).apply(x2))
        stated = Fraction(math.comb(n, 2) ** 2) in (value_full, value_truncated)
        x_squared(stated or (value_full, value_truncated) == (
            (n * n - n + 1) * math.comb(n + 1, 2),
            (n * n - n + 1) * math.comb(n, 2),
        ), f"sum-to-n+1 {value_full}, sum-to-n {value_truncated}", stated=stated)


# -- atlas ----------------------------------------------------------------------------------


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
    data = atlas_mod.atlas(min(max(n_max, 6), atlas_mod.ATLAS_LIMIT))

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
        pairs = sorted(data["pair_products"].items())
        for level, sign in pairs:
            check(sign == _pair_sign_closed_form(level), f"level {level}")
        check.details = ", ".join(
            f"level {level}: {'+' if sign > 0 else '-'}" for level, sign in pairs
        )
    return report


# -- dispatch -------------------------------------------------------------------------------


SUITE_FUNCTIONS = {
    "core": suite_core,
    "frame": suite_frame,
    "star": suite_star,
    "calculus": suite_calculus,
    "spectral": suite_spectral,
    "simplex": suite_simplex,
    "atlas": suite_atlas,
}


def run_suite(name: str, n_max: int = DEFAULT_N_MAX,
              seed: int = DEFAULT_SEED) -> VerificationReport:
    """One suite's report; ``"all"`` merges the seven in ``SUITES`` order.

    ``"all"`` runs each suite in a worker process, one worker per usable
    CPU and at most one per suite.  Every suite seeds its own generator and
    no module keeps a cache, so the merged report is the one the suites
    give run in order.  Workers are forked where the platform can, so they
    inherit the modules as the caller left them; the pool starts its
    threads only after its forks.  A worker that dies raises
    ``BrokenProcessPool``.  The pool modules are imported here, so that
    importing this module loads none of them.
    """
    if name == "all":
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        with ProcessPoolExecutor(min(cpus, len(SUITES)), mp_context=context) as pool:
            futures = [pool.submit(run_suite, suite, n_max, seed) for suite in SUITES]
            reports = [future.result() for future in futures]
        return merge_reports("all", seed, reports)
    if name not in SUITE_FUNCTIONS:
        raise KeyError(name)
    return SUITE_FUNCTIONS[name](n_max=n_max, seed=seed)
