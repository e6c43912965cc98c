"""The core suite: the product, the generators and exact radicals."""
from __future__ import annotations

import random
from fractions import Fraction

from . import DEFAULT_N_MAX, DEFAULT_SEED
from .algebra import Algebra
from .reporting import VerificationReport
from .scalars import Radical
from .verify_draws import _sizes, random_multivector, random_vector


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
