"""The star suite: the star operation, the A-matrix and coefficient matrices."""
from __future__ import annotations

import random
from fractions import Fraction

from . import DEFAULT_N_MAX, DEFAULT_SEED
from . import frames, star
from .reporting import VerificationReport
from .verify_draws import _frames, _rational, _sizes, random_multivector, random_vector


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
