import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from lpgg import frames, linalg, star
from lpgg.algebra import AlgebraError, wedge_list
from lpgg.scalars import Radical


@pytest.fixture(scope="module")
def fr3():
    return frames.build_null_frame(3, 1)


@pytest.fixture(scope="module")
def fr8():
    return frames.build_null_frame(8, 1)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("size", range(2, 9))
def test_frame_axioms(size, sign):
    fr = frames.build_null_frame(size, sign)
    half = fr.algebra.scalar(Fraction(sign, 2))
    for a in fr.vectors:
        assert (a * a).is_zero()
    for i, j in itertools.combinations(range(size), 2):
        assert fr.vectors[i].dot(fr.vectors[j]) == half
    assert not wedge_list(list(fr.vectors)).is_zero()


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("size", [2, 4, 7])
def test_multiplication_table(size, sign):
    report = frames.verify_multiplication_table(
        frames.build_null_frame(size, sign)
    )
    assert report.ok
    assert report.checked == 16 * size * (size - 1) // 2


@pytest.mark.parametrize("size, sign", [(3, 1), (4, -1)])
def test_multiplication_table_checks_the_pair_products(size, sign):
    """a_i a_j and a_j a_i are compared with s/2 +- a_i^a_j, not with
    themselves: doubling a_1 breaks a_1 . a_j, so both cells fail."""
    fr = frames.build_null_frame(size, sign)
    doubled = frames.NullFrame(fr.algebra, fr.sign, (fr.vectors[0] * 2,) + fr.vectors[1:],
                               fr.t_matrix, fr.t_inverse)
    failed = {cell for _, _, cell in frames.verify_multiplication_table(doubled).violations}
    assert {"a_i * a_j", "a_j * a_i"} <= failed


def test_frame_size_limits():
    with pytest.raises(AlgebraError):
        frames.build_null_frame(1, 1)
    with pytest.raises(AlgebraError):
        frames.build_null_frame(13, 1)
    with pytest.raises(ValueError):
        frames.build_null_frame(3, 2)


def test_first_vectors_match_construction(fr3):
    g = fr3.algebra
    e1, f1, f2 = g.e(1), g.f(1), g.f(2)
    assert fr3.vector(1) == (e1 + f1) * Fraction(1, 2)
    assert fr3.vector(2) == (e1 - f1) * Fraction(1, 2)
    assert fr3.vector(3) == e1 + f2


def test_t3_matrix(fr3):
    h = Fraction(1, 2)
    expected = [[h, h, 0], [h, -h, 0], [1, 0, 1]]
    expected_inv = [[1, 1, 0], [1, -1, 0], [-1, -1, 1]]
    assert all(isinstance(v, Radical)
               for row in fr3.t_matrix + fr3.t_inverse for v in row)
    assert fr3.t_matrix == expected
    assert fr3.t_inverse == expected_inv


def test_t8_row4(fr8):
    row = fr8.t_matrix[3]
    expected = [Radical(1), Radical(0), Radical(Fraction(1, 2)),
                Radical.sqrt(3) / 2, Radical(0), Radical(0), Radical(0),
                Radical(0)]
    assert row == expected


def test_t_times_t_inverse_identity():
    for size in range(2, 13):
        fr = frames.build_null_frame(size, 1)
        assert all(isinstance(v, Radical)
                   for row in fr.t_matrix + fr.t_inverse for v in row)
        product = linalg.matmul(fr.t_matrix, fr.t_inverse)
        assert product == linalg.identity(size)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("size", range(2, 13))
def test_t_inverse_from_definition_matches_gauss_jordan(size, sign):
    fr = frames.build_null_frame(size, sign)
    assert fr.t_inverse == linalg.invert(fr.t_matrix)


def test_frames_build_without_inverting(monkeypatch):
    def refuse(matrix):
        raise AssertionError("build_null_frame inverted a matrix")

    monkeypatch.setattr(linalg, "invert", refuse)
    for size in range(2, 13):
        for sign in (1, -1):
            assert frames.build_null_frame(size, sign).size == size


def test_coordinate_conversions(fr3):
    s = frames.CoordinateRow((Fraction(1), Fraction(1), Fraction(0)),
                             "standard")
    x = frames.to_null_coordinates(fr3, s)
    assert x.entries == (Radical(2), Radical(0), Radical(0))
    unit = frames.CoordinateRow((Fraction(1), Fraction(0), Fraction(0)),
                                "null")
    back = frames.to_standard_coordinates(fr3, unit)
    assert list(back.entries) == list(fr3.t_matrix[0])
    with pytest.raises(ValueError):
        frames.to_null_coordinates(fr3, unit)
    with pytest.raises(ValueError):
        frames.to_null_coordinates(
            fr3, frames.CoordinateRow((Fraction(1),), "standard")
        )


def test_coordinate_round_trip(fr8):
    rng = random.Random(3)
    for _ in range(50):
        row = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(8))
        s = frames.CoordinateRow(row, "standard")
        back = frames.to_standard_coordinates(
            fr8, frames.to_null_coordinates(fr8, s)
        )
        assert all(Radical(0) + a == Radical(0) + b
                   for a, b in zip(back.entries, row))


def test_k_sum_squares(fr8):
    for k in range(2, 9):
        ak = frames.k_sum(fr8, k)
        assert ak * ak == fr8.algebra.scalar(Fraction(k * (k - 1), 2))
        unit = frames.unit_k_sum(fr8, k)
        assert unit * unit == fr8.algebra.scalar(1)
    with pytest.raises(ValueError):
        frames.unit_k_sum(fr8, 1)


def test_unit_2_sum_is_first_basis_vector():
    fr2 = frames.build_null_frame(2, 1)
    assert frames.unit_k_sum(fr2, 2) == fr2.algebra.e(1)


def test_dual_sums(fr3):
    total = frames.k_sum(fr3, 3)
    for i in (1, 2, 3):
        assert frames.dual_sum(fr3, i) == total - fr3.vector(i)
    d1, d2 = frames.dual_sum(fr3, 1), frames.dual_sum(fr3, 2)
    assert d1.dot(d2) == fr3.algebra.scalar(Fraction(3, 2))


@pytest.mark.parametrize("size", range(2, 9))
def test_reciprocal_frame(size):
    fr = frames.build_null_frame(size, 1)
    recip = frames.reciprocal_frame(fr)
    for i, r in enumerate(recip):
        for j, a in enumerate(fr.vectors):
            assert r.dot(a) == fr.algebra.scalar(1 if i == j else 0)
    big = frames.k_sum(fr, size)
    for r in recip:
        assert big.dot(r) == fr.algebra.scalar(1)
    n = size - 1
    for i, r in enumerate(recip):
        alt = (frames.dual_sum(fr, i + 1) - fr.vectors[i] * (n - 1)) \
            * Fraction(2, n)
        assert alt == r


def test_reciprocal_frame_2():
    fr2 = frames.build_null_frame(2, 1)
    recip = frames.reciprocal_frame(fr2)
    assert recip[0] == fr2.vector(2) * 2
    assert recip[1] == fr2.vector(1) * 2



def test_a_frame_builds_what_it_derives_once(monkeypatch):
    """A second star on the same frame takes no square root, and a second
    reciprocal frame builds no dual basis but is a new list; every
    derivation of every k keeps at most 2*size + 2 entries."""
    calls = Counter()
    sqrt, dual_basis = Radical.sqrt, frames.NullFrame.metric_dual_basis

    def counted_sqrt(value):
        calls["sqrt"] += 1
        return sqrt(value)

    def counted_dual_basis(frame):
        calls["dual"] += 1
        return dual_basis(frame)

    monkeypatch.setattr(Radical, "sqrt", staticmethod(counted_sqrt))
    monkeypatch.setattr(frames.NullFrame, "metric_dual_basis", counted_dual_basis)
    fr = frames.build_null_frame(4, -1)
    g = fr.algebra.multivector({0: 1, 3: Fraction(1, 2), 6: -2})
    first = star.star(fr, g, 3)
    calls.clear()
    assert star.star(fr, g, 3) == first
    assert calls["sqrt"] == 0
    recip = frames.reciprocal_frame(fr)
    again = frames.reciprocal_frame(fr)
    assert again == recip and again is not recip
    assert calls["dual"] == 1
    for k in range(1, fr.size + 1):
        frames.k_sum(fr, k)
        if k >= 2:
            frames.unit_k_sum(fr, k)
    frames.null_canonical_basis(fr)
    assert len(fr._derived) <= 2 * fr.size + 2

@pytest.mark.parametrize("size", range(2, 9))
def test_pseudoscalar_relation(size):
    fr = frames.build_null_frame(size, 1)
    assert frames.pseudoscalar_relation(fr) == fr.algebra.pseudoscalar()


def test_pseudoscalar_relation_small_cases():
    fr2 = frames.build_null_frame(2, 1)
    g11 = fr2.algebra
    assert g11.e(1) * g11.f(1) == wedge_list(list(fr2.vectors)) * (-2)
    fr3 = frames.build_null_frame(3, 1)
    g12 = fr3.algebra
    assert g12.e(1) * g12.f(1) * g12.f(2) == \
        wedge_list(list(fr3.vectors)) * (-2)


def test_canonical_basis_ordering(fr3):
    subsets, products = frames.null_canonical_basis(fr3)
    assert subsets[0] == 0
    assert [s.bit_count() for s in subsets] == sorted(
        s.bit_count() for s in subsets
    )
    assert products[0] == fr3.algebra.scalar(1)
    assert len(products) == 8


def test_canonical_expressions(fr3):
    g = fr3.algebra
    subsets, _ = frames.null_canonical_basis(fr3)

    def expand(mv):
        return {
            s: c for s, c in zip(subsets, frames.express_in_null_basis(fr3, mv))
            if c
        }

    assert expand(g.scalar(1)) == {0: Radical(1)}
    assert expand(g.e(1) * g.f(1)) == {0b000: Radical(1), 0b011: Radical(-2)}
    assert expand(g.e(1) * g.f(2)) == {
        0b000: Radical(-1), 0b101: Radical(1), 0b110: Radical(1)
    }
    assert expand(g.e(1) * g.f(1) * g.f(2)) == {
        0b001: Radical(1), 0b010: Radical(-1), 0b100: Radical(1),
        0b111: Radical(-2),
    }


@pytest.mark.parametrize("size", [2, 3, 4, 8])
def test_canonical_basis_round_trip(size):
    rng = random.Random(size)
    fr = frames.build_null_frame(size, 1)
    for _ in range(3):
        coeffs = {
            rng.randrange(fr.algebra.dim):
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(6)
        }
        mv = fr.algebra.multivector(coeffs)
        expressed = frames.express_in_null_basis(fr, mv)
        assert frames.reconstruct_from_null_basis(fr, expressed) == mv


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("size", range(2, 7))
def test_every_blade_round_trips_through_the_null_basis(size, sign):
    # 2^(n+1) products that span all 2^(n+1) blades are a basis.
    fr = frames.build_null_frame(size, sign)
    subsets, products = frames.null_canonical_basis(fr)
    assert sorted(subsets) == list(range(fr.algebra.dim))
    assert len(products) == fr.algebra.dim
    for blade in range(fr.algebra.dim):
        mv = fr.algebra.blade(blade)
        expressed = frames.express_in_null_basis(fr, mv)
        assert frames.reconstruct_from_null_basis(fr, expressed) == mv


def test_canonical_basis_limit():
    with pytest.raises(AlgebraError):
        frames.null_canonical_basis(frames.build_null_frame(9, 1))
