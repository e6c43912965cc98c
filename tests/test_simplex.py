import io
import math
import random
import re
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

from lpgg import calculus, frames, linalg, simplex, spectral


@pytest.fixture(scope="module")
def fr3():
    return frames.build_null_frame(3, 1)


def random_barycentric(size, rng):
    weights = [rng.randint(0, 9) for _ in range(size)]
    if not sum(weights):
        weights[0] = 1
    return tuple(Fraction(w, sum(weights)) for w in weights)


def test_centroid(fr3):
    c = simplex.centroid(fr3)
    assert c.is_barycentric()
    assert c.norm_squared() == Fraction(1, 3)
    unit = c.unit()
    assert unit * unit == fr3.algebra.scalar(1)


def test_vertices_on_cone(fr3):
    for i in (1, 2, 3):
        v = simplex.vertex(fr3, i)
        assert v.is_barycentric()
        assert v.is_on_cone()
        assert v.norm_squared() == 0
        mv = v.to_multivector()
        assert (mv * mv).is_zero()
        with pytest.raises(simplex.LightConeError):
            v.unit()


def test_norm_squared_matches_multivector_square():
    """Both correlation signs, so the negative frame's branch runs too."""
    for sign in (1, -1):
        frame = frames.build_null_frame(3, sign)
        rng = random.Random(3)
        for _ in range(25):
            coords = random_barycentric(3, rng)
            point = simplex.SimplexPoint(frame, coords)
            mv = point.to_multivector()
            assert (mv * mv) == frame.algebra.scalar(
                Fraction(0) + point.norm_squared()
            )


def test_float_points(fr3):
    point = simplex.SimplexPoint(fr3, (0.3333333, 0.3333333, 0.3333334))
    assert point.is_barycentric()
    assert abs(float(point.norm_squared()) - 1 / 3) < 1e-6
    unit = point.unit()
    assert abs(float((unit * unit).scalar_part()) - 1.0) < 1e-10


@pytest.mark.parametrize("coords, barycentric, on_cone, norm_error", [
    # |x|^2 = 1e-13 > 0 and the sum is 1 + 1e-13: no tolerance rounds either
    ((1e-13, 1.0), False, False, None),
    # |x|^2 = -3e-13 < 0, as for 3/10000000, -1/1000000
    ((3e-7, -1e-6), False, False, "|x|^2 < 0"),
    # |x|^2 = 1e-400 > 0, which is 0.0 in floats
    ((1e-200, 1e-200), False, False, "rounds to 0.0 in floats"),
    # the float sum is 0.9999999999999999; the decimals sum to 1
    ((0.2, 0.7, 0.1), True, False, None),
    ((0.5, 0.5, -0.25), False, True, None),
])
def test_decimal_points_are_decided_as_written(coords, barycentric, on_cone, norm_error):
    point = simplex.SimplexPoint(frames.build_null_frame(len(coords), 1), coords)
    exact = simplex.SimplexPoint(point.frame, tuple(Fraction(repr(c)) for c in coords))
    assert point.is_barycentric() is exact.is_barycentric() is barycentric
    assert point.is_on_cone() is exact.is_on_cone() is on_cone
    if norm_error:
        with pytest.raises(simplex.LightConeError, match=re.escape(norm_error)):
            point.norm()
    elif not on_cone:
        assert point.norm() == pytest.approx(float(exact.norm()))


def test_no_float_literal_in_simplex_or_spectral():
    """Their decisions are exact, so neither module holds a tolerance."""
    for module in (simplex, spectral):
        text = Path(module.__file__).read_bytes()
        literals = [tok.string for tok in tokenize.tokenize(io.BytesIO(text).readline)
                    if tok.type == tokenize.NUMBER
                    and re.fullmatch(r"[0-9.]+[eE][-+]?[0-9]+", tok.string)]
        assert literals == [], (module.__name__, literals)


def test_content_forms_and_normalization():
    for size in range(2, 7):
        fr = frames.build_null_frame(size, 1)
        content = simplex.content_null(fr)
        n = size - 1
        direct = frames.wedge_list(
            [a - fr.vectors[0] for a in fr.vectors[1:]]
        ) * Fraction(1, math.factorial(n))
        assert content == direct
        assert not content.is_zero()


def test_point_wedge_content():
    rng = random.Random(5)
    for size in range(2, 7):
        fr = frames.build_null_frame(size, 1)
        target = frames.wedge_list(fr.vectors) * Fraction(
            1, math.factorial(size - 1)
        )
        for _ in range(10):
            point = simplex.SimplexPoint(fr, random_barycentric(size, rng))
            assert simplex.content_point_wedge(fr, point) == target


def test_content_vertices(fr3):
    identity_rows = [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]
    matrix = simplex.SimplicialMatrix(fr3, identity_rows)
    content, degenerate = simplex.content_vertices(matrix)
    assert not degenerate
    assert content == simplex.content_null(fr3) * 2  # n! with n = 2

    duplicated = simplex.SimplicialMatrix(
        fr3, [identity_rows[0], identity_rows[0], identity_rows[2]]
    )
    content, degenerate = simplex.content_vertices(duplicated)
    assert degenerate and content.is_zero()


def test_content_alternating(fr3):
    rows = [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]
    base, _ = simplex.content_vertices(simplex.SimplicialMatrix(fr3, rows))
    swapped, _ = simplex.content_vertices(
        simplex.SimplicialMatrix(fr3, [rows[1], rows[0], rows[2]])
    )
    assert base == -swapped


def test_random_triangle_content_vs_det(fr3):
    rng = random.Random(7)
    for _ in range(20):
        rows = [random_barycentric(3, rng) for _ in range(3)]
        matrix = simplex.SimplicialMatrix(fr3, [list(r) for r in rows])
        content, degenerate = simplex.content_vertices(matrix)
        diffs = [
            [rows[i][j] - rows[0][j] for j in range(3)] for i in (1, 2)
        ]
        # cofactor expansion of the 2x(3) difference rows against the
        # basis wedges a_i ^ a_j
        cof = {}
        for i in range(3):
            for j in range(i + 1, 3):
                cof[(i, j)] = diffs[0][i] * diffs[1][j] - \
                    diffs[0][j] * diffs[1][i]
        expected = fr3.algebra.zero()
        for (i, j), c in cof.items():
            expected = expected + fr3.vectors[i].wedge(fr3.vectors[j]) * c
        assert content == expected
        assert degenerate == content.is_zero()


def test_barycentric_row_validation(fr3):
    with pytest.raises(ValueError):
        simplex.SimplicialMatrix(
            fr3, [[Fraction(1, 2), Fraction(1, 2), Fraction(1)]] * 3
        )
    with pytest.raises(ValueError):
        simplex.SimplicialMatrix(
            fr3,
            [[Fraction(3, 2), Fraction(-1, 2), Fraction(0)]] * 3,
        )
    simplex.SimplicialMatrix(
        fr3, [[Fraction(3, 2), Fraction(-1, 2), Fraction(0)]] * 3,
        barycentric=False,
    )


def test_closed_graphs(fr3):
    diffs = simplex.SimplicialMatrix(
        fr3,
        [[Fraction(1), Fraction(-1), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(-1)],
         [Fraction(-1), Fraction(0), Fraction(1)]],
        barycentric=False,
    )
    assert simplex.is_closed(diffs)
    vertices = simplex.SimplicialMatrix(
        fr3, [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    )
    assert not simplex.is_closed(vertices)


def test_order(fr3):
    rng = random.Random(11)
    dependent = simplex.SimplicialMatrix(
        fr3,
        [[Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(1), Fraction(0)]],
        barycentric=False,
    )
    assert simplex.order(dependent) == 2
    for _ in range(15):
        rows = [list(random_barycentric(3, rng)) for _ in range(3)]
        matrix = simplex.SimplicialMatrix(fr3, rows)
        assert simplex.order(matrix) == linalg.rank(rows)


@pytest.mark.parametrize("text", ["1e400", "-1e400", "1.5e999",
                                  "\u0661/3", "\u0661.5", "\uff11"])
def test_parse_coordinate_rejects_non_finite_and_non_ascii(text):
    with pytest.raises(ValueError):
        simplex.parse_coordinate(text)


def test_grid_norm_nonnegative():
    fr = frames.build_null_frame(3, 1)
    denominator = 8
    for i in range(denominator + 1):
        for j in range(denominator + 1 - i):
            coords = (
                Fraction(i, denominator),
                Fraction(j, denominator),
                Fraction(denominator - i - j, denominator),
            )
            point = simplex.SimplexPoint(fr, coords)
            value = point.norm_squared()
            assert value >= 0
            nonzero = sum(1 for c in coords if c)
            assert (value == 0) == (nonzero <= 1)


def test_laplacian_report_statuses(suite_report):
    statuses = {c.name: c.status for c in suite_report("simplex", 4).checks}
    for n in (2, 3):
        assert statuses[f"laplacian-dual-gradient-of-x-n{n}"] == "pass-corrected"
        assert statuses[f"laplacian-dual-laplacian-scalar-valued-n{n}"] == "pass"
        assert statuses[f"laplacian-dual-laplacian-expansion-n{n}"] == \
            "pass-corrected"
        assert statuses[f"laplacian-dual-laplacian-of-x-squared-n{n}"] == \
            "pass-corrected"
    assert statuses["laplacian-three-simplex-display-n3"] == "pass-corrected"
    assert "laplacian-three-simplex-display-n2" not in statuses


def test_laplacian_derived_values():
    fr = frames.build_null_frame(4, 1)  # n = 3
    zero = (0,) * fr.size
    full = calculus.make_dual_nabla(fr)
    truncated = simplex.truncated_dual_nabla(fr)
    x = calculus.PolyField.identity(fr)
    assert full.apply(x).terms[zero] == fr.algebra.scalar(6)  # (n+1)n/2
    assert not truncated.apply(x).terms[zero].grades() <= {0}
    x2 = calculus.square_field(fr)
    # (n^2-n+1) C(n+1,2) over all terms, (n^2-n+1) C(n,2) truncated
    assert full.compose(full).apply(x2).terms[zero] == fr.algebra.scalar(42)
    assert truncated.compose(truncated).apply(x2).terms[zero] == \
        fr.algebra.scalar(21)
