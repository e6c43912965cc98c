"""The exact elimination in ``linalg`` against sympy's exact matrices.

``rank`` and ``determinant`` of seeded rational matrices, singular ones
built on purpose, are compared with ``sympy.Matrix``; ``invert`` of every
frame's T is compared with sympy's exact inverse, and checked by
T T^-1 = I on the frames too large to hand to sympy quickly.
"""

import random
from fractions import Fraction

import pytest

from lpgg import FRAME_LIMIT, frames, linalg
from lpgg.scalars import InexactDivisionError, Radical

sympy = pytest.importorskip("sympy")
from test_scalars_oracle import to_sympy  # noqa: E402 (needs sympy)


def sympy_matrix(matrix):
    return sympy.Matrix([[to_sympy(Radical(v)) for v in row] for row in matrix])


def random_matrix(rng, size, rank):
    """A size x size rational matrix of rank at most ``rank``, with zeros
    mixed in so that the elimination has to swap rows."""
    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    basis = [[entry() for _ in range(size)] for _ in range(rank)]
    rows = basis + [
        [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(size)]
        for _ in range(size - rank)
    ]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("size", range(1, 7))
def test_rank_and_determinant_match_sympy(size):
    rng = random.Random(size)
    deficient = 0
    for sample in range(30):
        rank = rng.randint(0, size) if sample % 3 == 0 else size
        matrix = random_matrix(rng, size, rank)
        expected = sympy_matrix(matrix)
        assert linalg.rank(matrix) == expected.rank()
        det = expected.det()
        assert linalg.determinant(matrix) == Fraction(int(det.p), int(det.q))
        deficient += expected.rank() < size
    assert deficient >= 3  # the singular branch is exercised at every size


def test_rank_of_a_wide_matrix():
    assert linalg.rank([[0, 1, 2], [0, 2, 4]]) == 1
    assert linalg.rank([[0, 0, 1], [0, 1, 0]]) == 2


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("size", range(2, 9))
def test_invert_matches_sympy_on_every_frame(size, sign):
    fr = frames.build_null_frame(size, sign)
    inverse = linalg.invert(fr.t_matrix)
    difference = sympy_matrix(fr.t_matrix).inv() - sympy_matrix(inverse)
    assert difference.applyfunc(sympy.radsimp).is_zero_matrix


@pytest.mark.parametrize("size", range(9, FRAME_LIMIT + 1))
def test_invert_is_exact_on_the_largest_frames(size):
    t = frames.build_null_frame(size, 1).t_matrix
    assert linalg.matmul(t, linalg.invert(t)) == linalg.identity(size)


def test_singular_matrix_has_no_inverse():
    with pytest.raises(ZeroDivisionError, match="singular"):
        linalg.invert([[1, 2], [Fraction(1, 2), 1]])


def test_pivot_with_three_radical_terms_is_inexact():
    three_terms = Radical(1) + Radical.sqrt(2) + Radical.sqrt(3)
    with pytest.raises(InexactDivisionError):
        linalg.invert([[three_terms]])
    with pytest.raises(InexactDivisionError):
        linalg.rank([[three_terms, 1], [three_terms * 2, 1]])


def test_pivot_with_fewest_radical_terms_is_chosen():
    three_terms = Radical(1) + Radical.sqrt(2) + Radical.sqrt(3)
    matrix = [[three_terms, 1], [Radical.sqrt(2), 0]]
    assert linalg.matmul(matrix, linalg.invert(matrix)) == linalg.identity(2)
    assert linalg.rank(matrix) == 2
