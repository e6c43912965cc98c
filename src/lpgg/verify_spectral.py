"""The spectral suite: wedge endomorphisms, idempotents and matrix representations."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import DEFAULT_N_MAX, DEFAULT_SEED
from . import frames, linalg, spectral
from .reporting import VerificationReport
from .scalars import Radical
from .textform import format_multivector
from .verify_draws import _frames, _rational, random_multivector, random_vector


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
                det = linalg.determinant([[c[0], c[1]], [c[2], c[3]]])
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
            one = fr3.algebra.scalar(1)
            i_ps = fr3.algebra.e(1) * fr3.algebra.f(1) * fr3.algebra.f(2)
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
                try:
                    dec = spectral.spectral_decompose(op)
                except spectral.DegenerateSpectrumError:
                    continue
                count += 1
                if dec.discriminant_corrected:
                    corrected_count += 1
                p1, p2 = dec.idempotent_1, dec.idempotent_2
                r_minus, r_plus = dec.root_minus, dec.root_plus
                g = op.element()
                d = dec.discriminant.as_fraction()
                if d < 0:
                    # The central i squares to -1, so sqrt(D) = i sqrt(-D)
                    # and 1/(2 sqrt(D)) = sqrt(D)/(2D): the complex roots
                    # and idempotents are exact elements of G(1,2).
                    complex_count += 1
                    root = i_ps * Radical.sqrt(-d)
                    tr = one * op.trace()
                    r_minus, r_plus = (tr - root) / 2, (tr + root) / 2
                    scale = root / (2 * d)
                    p1 = (tr + root - g * 2) * scale
                    p2 = (g * 2 - tr + root) * scale
                where = f"operator {coeffs}"
                check(p1 + p2 == one, where)
                check((p1 * p2).is_zero() and (p2 * p1).is_zero(), where)
                check(p1 * p1 == p1 and p2 * p2 == p2, where)
                check(p1 * r_minus + p2 * r_plus == g, where)
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
