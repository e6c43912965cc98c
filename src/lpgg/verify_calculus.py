"""The calculus suite: gradients, Laplacians and finite differences."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import DEFAULT_N_MAX, DEFAULT_SEED
from . import calculus, frames
from .reporting import VerificationReport
from .verify_draws import _frames, _sizes


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
