"""The simplex suite: content, barycentric points, simplicial matrices and Laplacians."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import DEFAULT_N_MAX, DEFAULT_SEED
from . import calculus, frames, linalg, simplex
from .algebra import combination
from .reporting import VerificationReport
from .verify_draws import _frames, _sizes


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
