"""Symbolic proofs, for every n, of the frame's grade-1 identities.

The report checks frames up to n+1 = 8; these proofs hold for all n.  A
correlated null frame has a_i . a_i = 0 and a_i . a_j = s/2 for i != j,
so for x = sum x_i a_i and y = sum y_i a_i

    x . y = (s/2) ((sum x_i)(sum y_i) - sum x_i y_i).

Each vector below is written on a partition of the indices 1..n+1 into
blocks of symbolic length, with one coefficient per block.  Both sums
are then sums over the blocks, and sympy simplifies the dot product with
n, k and l as symbols.  s = 1 gives the values of G(1,n), s = -1 those
of its twin G(n,1).  The last tests tie the proofs to the code: the
premise holds for the built frames, and each row of T^-1 holds the
alpha_k that the b_k proofs use.
"""

from fractions import Fraction

import pytest

from lpgg import FRAME_LIMIT, frames

sympy = pytest.importorskip("sympy")
from test_scalars_oracle import to_sympy  # noqa: E402 (needs sympy)

n, k, l = sympy.symbols("n k l", positive=True, integer=True)
s = sympy.Symbol("s")


def alpha(k):
    return -sympy.sqrt(2) / sympy.sqrt(k * (k - 1))


def dot(blocks, x, y):
    """x . y for coefficients x and y, one per block of the given lengths."""
    assert sympy.simplify(sum(blocks) - (n + 1)) == 0
    sum_x = sum(b * c for b, c in zip(blocks, x))
    sum_y = sum(b * c for b, c in zip(blocks, y))
    sum_xy = sum(b * c * d for b, c, d in zip(blocks, x, y))
    return sympy.simplify(s / 2 * (sum_x * sum_y - sum_xy))


def proved(value, expected):
    return sympy.simplify(value - expected) == 0


def test_dual_dot_dual():
    # Blocks {i}, {j}, the other n-1 indices; dual_i leaves out a_i.
    blocks = [1, 1, n - 1]
    assert proved(dot(blocks, [0, 1, 1], [1, 0, 1]), s * (n**2 - n + 1) / 2)


def test_vector_dot_full_sum():
    # Blocks {i}, the other n indices; A = a_1 + ... + a_{n+1}.
    assert proved(dot([1, n], [1, 0], [1, 1]), s * n / 2)


def test_dual_square():
    assert proved(dot([1, n], [0, 1], [0, 1]), s * n * (n - 1) / 2)


def test_b_k_square():
    # b_k = alpha_k (A_k - (k-1) a_{k+1}) on blocks 1..k, {k+1}, the rest.
    b_k = [alpha(k), -(k - 1) * alpha(k), 0]
    assert proved(dot([k, 1, n - k], b_k, b_k), -s)


def test_b_k_dot_b_l():
    # k < l: blocks 1..k, {k+1}, k+2..l, {l+1}, the rest.
    blocks = [k, 1, l - k - 1, 1, n - l]
    b_k = [alpha(k), -(k - 1) * alpha(k), 0, 0, 0]
    b_l = [alpha(l), alpha(l), alpha(l), -(l - 1) * alpha(l), 0]
    assert proved(dot(blocks, b_k, b_l), 0)


@pytest.mark.parametrize("sign", [1, -1])
def test_the_premise_and_a_proof_hold_on_the_built_frames(sign):
    for size in range(2, 7):
        fr = frames.build_null_frame(size, sign)
        for i, a_i in enumerate(fr.vectors):
            for j, a_j in enumerate(fr.vectors):
                expected = 0 if i == j else Fraction(sign, 2)
                assert a_i.dot(a_j).scalar_part() == expected
        duals = [frames.dual_sum(fr, i) for i in (1, 2)]
        expected = Fraction(sign * ((size - 1) ** 2 - (size - 1) + 1), 2)
        assert duals[0].dot(duals[1]).scalar_part() == expected


@pytest.mark.parametrize("sign", [1, -1])
def test_rows_of_t_inverse_hold_alpha_k(sign):
    for size in range(3, FRAME_LIMIT + 1):
        t_inverse = frames.build_null_frame(size, sign).t_inverse
        for row in range(2, size):
            a = alpha(sympy.Integer(row))
            expected = [a] * row + [-(row - 1) * a] + [0] * (size - row - 1)
            got = [to_sympy(v) for v in t_inverse[row]]
            assert all(sympy.radsimp(g - e) == 0 for g, e in zip(got, expected)), \
                f"size {size}, row {row}"
