import random
from fractions import Fraction

import pytest

from lpgg import frames, star
from lpgg.scalars import Radical


def random_mv(algebra, rng, terms=5):
    return algebra.multivector({
        rng.randrange(algebra.dim): Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 9))
        for _ in range(terms)
    })


@pytest.fixture(scope="module")
def fr2():
    return frames.build_null_frame(2, 1)


@pytest.fixture(scope="module")
def fr3():
    return frames.build_null_frame(3, 1)


def test_star_swaps_the_null_pair(fr2):
    assert star.star(fr2, fr2.vector(1), 2) == fr2.vector(2)
    assert star.star(fr2, fr2.vector(2), 2) == fr2.vector(1)


def test_star_range_check(fr3):
    with pytest.raises(ValueError):
        star.star(fr3, fr3.algebra.scalar(1), 1)
    with pytest.raises(ValueError):
        star.star(fr3, fr3.algebra.scalar(1), 4)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_star_involution_and_homomorphism(size):
    rng = random.Random(size * 17)
    fr = frames.build_null_frame(size, 1)
    for _ in range(40):
        g, h = random_mv(fr.algebra, rng), random_mv(fr.algebra, rng)
        for k in range(2, size + 1):
            assert star.star(fr, star.star(fr, g, k), k) == g
        assert star.star(fr, g * h) == star.star(fr, g) * star.star(fr, h)


def test_a_matrix_structure(fr3):
    am = star.a_matrix(fr3, fr3.algebra.scalar(1))
    for i in range(3):
        assert am.entries[i][i].is_zero()
        for j in range(3):
            assert am.entries[i][j] == fr3.vectors[i] * fr3.vectors[j]


def test_a_matrix_vector_diagonal(fr3):
    rng = random.Random(19)
    v = sum(
        (a * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
         for a in fr3.vectors),
        fr3.algebra.zero(),
    )
    am = star.a_matrix(fr3, v)
    for i in range(3):
        scale = (fr3.vectors[i].dot(v)).scalar_part() * 2
        assert am.entries[i][i] == fr3.vectors[i] * scale
    # a2 (a1) a1 has a right factor squaring to zero
    assert (fr3.vectors[1] * fr3.vectors[0] * fr3.vectors[0]).is_zero()


def test_a_matrix_linearity(fr3):
    rng = random.Random(23)
    g, h = random_mv(fr3.algebra, rng), random_mv(fr3.algebra, rng)
    lam = Fraction(3, 7)
    combo = star.a_matrix(fr3, g * lam + h)
    for i in range(3):
        for j in range(3):
            expected = star.a_matrix(fr3, g).entries[i][j] * lam + \
                star.a_matrix(fr3, h).entries[i][j]
            assert combo.entries[i][j] == expected


@pytest.mark.parametrize("size", [2, 3, 4])
def test_contraction_matches_star(size):
    rng = random.Random(size * 5)
    fr = frames.build_null_frame(size, 1)
    for _ in range(20):
        g = random_mv(fr.algebra, rng)
        am = star.a_matrix(fr, g)
        assert am.contraction_as_star() == star.star(fr, g)
        expected_factor = Fraction(size * (size - 1), 2)
        assert am.contraction() == star.star(fr, g) * expected_factor


@pytest.mark.parametrize("size", [2, 3])
def test_mediated_product(size):
    rng = random.Random(size * 7)
    fr = frames.build_null_frame(size, 1)
    for _ in range(25):
        g, h = random_mv(fr.algebra, rng), random_mv(fr.algebra, rng)
        raw = star.mediated_product(fr, g, h)
        assert raw * star.star_normalization(fr) ** 2 == g * h
        if size > 2 and not (g * h).is_zero():
            assert raw != g * h
    zero = fr.algebra.zero()
    assert star.mediated_product(fr, zero, zero) == zero


def test_from_coefficient_matrix_examples(fr3):
    m = [[0] * 3 for _ in range(3)]
    m[0][1] = 1
    g = star.from_coefficient_matrix(fr3, m)
    expected = fr3.algebra.scalar(Fraction(1, 2)) + \
        fr3.vectors[0].wedge(fr3.vectors[1])
    assert g == expected

    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert star.from_coefficient_matrix(fr3, identity).is_zero()

    ones = [[1] * 3 for _ in range(3)]
    assert star.from_coefficient_matrix(fr3, ones) == fr3.algebra.scalar(3)


def test_from_coefficient_matrix_grades(fr3):
    rng = random.Random(29)
    for _ in range(25):
        matrix = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(3)]
            for _ in range(3)
        ]
        g = star.from_coefficient_matrix(fr3, matrix)
        assert g.grades() <= {0, 2}
        off_total = sum(
            matrix[i][j] for i in range(3) for j in range(3) if i != j
        )
        assert g.scalar_part() == Radical(off_total) * Fraction(1, 2)


def test_from_coefficient_matrix_size_check(fr3):
    with pytest.raises(ValueError):
        star.from_coefficient_matrix(fr3, [[1, 2], [3, 4]])
