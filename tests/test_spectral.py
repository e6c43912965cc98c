import random
from fractions import Fraction

import pytest

from lpgg import frames, linalg, spectral
from lpgg.algebra import Algebra, AlgebraError, Multivector
from lpgg.scalars import Radical, is_zero


@pytest.fixture(scope="module")
def fr2():
    return frames.build_null_frame(2, 1)


@pytest.fixture(scope="module")
def fr3():
    return frames.build_null_frame(3, 1)


def rmv(algebra, rng, terms=5):
    return algebra.multivector({
        rng.randrange(algebra.dim): Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 9))
        for _ in range(terms)
    })


def test_wedge_endo_example(fr2):
    a1, a2 = fr2.vectors
    v1 = a1 + a2 * 2
    v2 = a1 - a2
    assert spectral.wedge_endo_2d(fr2, v1, v2, a1) == a1 * (-3)
    assert spectral.wedge_endo_2d(fr2, v1, v2, a2) == a2 * 3


def test_wedge_endo_parallel_vectors(fr2):
    a1, a2 = fr2.vectors
    v = a1 * 2 + a2
    x = a1 - a2 * 5
    assert spectral.wedge_endo_2d(fr2, v, v * Fraction(7, 3), x).is_zero()


def test_wedge_endo_eigenvalues_random(fr2):
    rng = random.Random(41)
    a1, a2 = fr2.vectors
    for _ in range(50):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        v1 = a1 * c[0] + a2 * c[1]
        v2 = a1 * c[2] + a2 * c[3]
        det = linalg.determinant([[c[0], c[1]], [c[2], c[3]]])
        assert spectral.wedge_endo_2d(fr2, v1, v2, a1) == a1 * det
        assert spectral.wedge_endo_2d(fr2, v1, v2, a2) == a2 * (-det)
        x = a1 * c[1] + a2 * c[2]
        assert spectral.wedge_endo_2d(fr2, v1, v2, x) == \
            spectral.wedge_endo_2d_expanded(fr2, v1, v2, x)


def test_cayley_grassmann_residual(fr2):
    rng = random.Random(43)
    a1, a2 = fr2.vectors
    assert spectral.cayley_grassmann_residual(
        fr2, a1, a2, a1 + a2
    ).is_zero()
    assert spectral.cayley_grassmann_residual(
        fr2, a1, a2, fr2.algebra.zero()
    ).is_zero()
    for _ in range(100):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
        v1 = a1 * c[0] + a2 * c[1]
        v2 = a1 * c[2] + a2 * c[3]
        x = a1 * c[4] + a2 * c[5]
        assert spectral.cayley_grassmann_residual(fr2, v1, v2, x).is_zero()


def test_projective_coordinates(fr2):
    rng = random.Random(47)
    a1, a2 = fr2.vectors
    for _ in range(30):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
        v1 = a1 * c[0] + a2 * c[1]
        v2 = a1 * c[2] + a2 * c[3]
        if v1.wedge(v2).is_zero():
            continue
        x = a1 * c[4] + a2 * c[5]
        l1, l2 = spectral.projective_coordinates(fr2, v1, v2, x)
        assert v1 * l1 + v2 * l2 == x
    with pytest.raises(AlgebraError):
        spectral.projective_coordinates(fr2, a1, a1, a2)


def test_pseudoscalar_endo(fr3):
    g12 = fr3.algebra
    i_ps = g12.e(1) * g12.f(1) * g12.f(2)
    coords = (Fraction(1), Fraction(1), Fraction(0))
    x = frames.vector_from_null_coordinates(fr3, coords)
    fx = spectral.pseudoscalar_endo_3d(fr3, x)
    assert fx == -(i_ps * x)
    assert fx == spectral.pseudoscalar_endo_3d_expanded(fr3, coords)
    # coefficient of a1^a2 is x1 + x2 = 2
    biv = fr3.vectors[0].wedge(fr3.vectors[1])
    a2a3 = fr3.vectors[1].wedge(fr3.vectors[2])
    a3a1 = fr3.vectors[2].wedge(fr3.vectors[0])
    assert fx == biv * 2 + a2a3 * 1 + a3a1 * 1
    assert spectral.pseudoscalar_endo_3d(fr3, fr3.algebra.zero()).is_zero()


def test_pseudoscalar_is_central(fr3):
    rng = random.Random(53)
    g12 = fr3.algebra
    i_ps = g12.e(1) * g12.f(1) * g12.f(2)
    for _ in range(20):
        u = rmv(g12, rng)
        assert i_ps * u == u * i_ps


def test_bivector_operator_element_routes(fr3):
    rng = random.Random(59)
    for _ in range(20):
        coeffs = {
            (i, j): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for i in (1, 2, 3) for j in (1, 2, 3) if i != j
        }
        op = spectral.BivectorOperator(fr3, coeffs)
        assert op.element() == op.element_from_matrix()
        assert op.element().grades() <= {0, 2}


def test_bivector_operator_assembles_its_element_once(fr3, monkeypatch):
    """Once G is assembled, the decomposition and later ``element()`` calls
    read it and build no bivector again."""
    op = spectral.BivectorOperator(fr3, {(1, 2): 1, (2, 3): Fraction(1, 2), (3, 1): -2})
    g = op.element()
    wedges = []
    wedge = Multivector.wedge

    def counted(self, other):
        wedges.append(other)
        return wedge(self, other)

    monkeypatch.setattr(Multivector, "wedge", counted)
    dec = spectral.spectral_decompose(op)
    assert op.element() == g
    assert len(wedges) == 0
    assert dec.reconstruct() == g


def test_spectral_example_unit_coefficient(fr3):
    op = spectral.BivectorOperator(fr3, {(1, 2): 1})
    g = op.element()
    assert g == fr3.algebra.scalar(Fraction(1, 2)) + \
        fr3.vectors[0].wedge(fr3.vectors[1])
    dec = spectral.spectral_decompose(op)
    assert (str(dec.root_minus), str(dec.root_plus)) == ("0", "1")
    assert g * g == g
    assert not dec.discriminant_corrected


def test_spectral_example_doubled(fr3):
    dec = spectral.spectral_decompose(
        spectral.BivectorOperator(fr3, {(1, 2): 2})
    )
    assert (str(dec.root_minus), str(dec.root_plus)) == ("0", "2")


def test_spectral_degenerate(fr3):
    with pytest.raises(spectral.DegenerateSpectrumError):
        spectral.spectral_decompose(
            spectral.BivectorOperator(fr3, {(1, 2): 1, (2, 1): 1})
        )
    # nonzero stated discriminant can still degenerate once the cross
    # terms are accounted for: g = (1, 1, 4) squares to zero
    op = spectral.BivectorOperator(fr3, {(2, 3): 1, (3, 1): 1, (1, 2): 4})
    claimed, derived = spectral.discriminants(op)
    assert claimed == Radical(18)
    assert not derived
    with pytest.raises(spectral.DegenerateSpectrumError):
        spectral.spectral_decompose(op)


def test_spectral_identities_random(fr3):
    rng = random.Random(61)
    one = fr3.algebra.scalar(1)
    seen_corrected = 0
    count = 0
    while count < 60:
        coeffs = {
            (i, j): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for i in (1, 2, 3) for j in (1, 2, 3)
            if i != j and rng.random() < 0.8
        }
        op = spectral.BivectorOperator(fr3, coeffs)
        _, derived = spectral.discriminants(op)
        if is_zero(derived):
            continue
        count += 1
        dec = spectral.spectral_decompose(op)
        seen_corrected += dec.discriminant_corrected
        p1, p2 = dec.idempotent_1, dec.idempotent_2
        g = op.element()
        if p1.backend == "exact":
            assert p1 + p2 == one
            assert (p1 * p2).is_zero() and (p2 * p1).is_zero()
            assert p1 * p1 == p1 and p2 * p2 == p2
            assert dec.reconstruct() == g
            tr = Radical(op.trace())
            half_tr = one * (tr * Fraction(1, 2))
            phi = (g - half_tr) * (g - half_tr) - \
                one * (dec.discriminant * Fraction(1, 4))
            assert phi.is_zero()
        else:
            one_c = fr3.algebra.scalar(complex(1))
            assert (p1 + p2).max_abs_difference(one_c) <= 1e-12
            assert (p1 * p2).max_abs_difference(fr3.algebra.zero("complex")) <= 1e-12
            assert (p1 * p1).max_abs_difference(p1) <= 1e-12
            assert (p2 * p2).max_abs_difference(p2) <= 1e-12
            assert dec.reconstruct().max_abs_difference(g.to_backend("complex")) <= 1e-12
    assert seen_corrected > 0


def test_complex_idempotents_are_the_exact_ones_over_i(fr3):
    """For D < 0 the library's idempotents are complex floats.  Over the
    central i = e1 f1 f2, which squares to -1, sqrt(D) = i sqrt(-D) and the
    same idempotents are exact.  Split one into its even part P and its odd
    part O = iQ, Q = -iO: then P + 1j Q is the library's value on every
    blade."""
    rng = random.Random(3)
    algebra = fr3.algebra
    one = algebra.scalar(1)
    i_ps = algebra.e(1) * algebra.f(1) * algebra.f(2)
    count = 0
    while count < 200:
        coeffs = {
            (i, j): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for i in (1, 2, 3) for j in (1, 2, 3)
            if i != j and rng.random() < 0.8
        }
        op = spectral.BivectorOperator(fr3, coeffs)
        d = spectral.discriminants(op)[1].as_fraction()
        if d >= 0:
            continue
        count += 1
        dec = spectral.spectral_decompose(op)
        root = i_ps * Radical.sqrt(-d)
        tr, g = one * op.trace(), op.element()
        scale = root / (2 * d)
        exact = ((tr + root - g * 2) * scale, (g * 2 - tr + root) * scale)
        for x, library in zip(exact, (dec.idempotent_1, dec.idempotent_2)):
            even = algebra.multivector({b: c for b, c in x.items() if b.bit_count() % 2 == 0})
            q = -(i_ps * (x - even))
            assert all(abs(complex(even.coefficient(b)) + 1j * complex(q.coefficient(b))
                           - library.coefficient(b)) <= 1e-12
                       for b in range(algebra.dim)), coeffs


def test_spectral_complex_coefficients(fr3):
    op = spectral.BivectorOperator(
        fr3, {(1, 2): 1 + 2j, (2, 3): 0.5j, (3, 1): -1.0 + 0j}
    )
    dec = spectral.spectral_decompose(op)
    p1, p2 = dec.idempotent_1, dec.idempotent_2
    assert (p1 + p2).max_abs_difference(fr3.algebra.scalar(complex(1))) <= 1e-12
    assert (p1 * p2).max_abs_difference(fr3.algebra.zero("complex")) <= 1e-12
    assert dec.reconstruct().max_abs_difference(op.element()) <= 1e-12


def test_rep_g11_fixed_matrices(fr2):
    a1, a2 = fr2.vectors
    zero, one = Radical(0), Radical(1)
    assert spectral.rep_g11(a1) == [[zero, zero], [one, zero]]
    assert spectral.rep_g11(a2) == [[zero, one], [zero, zero]]
    x = a1 * Fraction(3) + a2 * Fraction(-2)
    assert spectral.rep_g11(x) == [[zero, Radical(-2)], [Radical(3), zero]]
    assert spectral.rep_g11(fr2.algebra.scalar(1)) == [[one, zero], [zero, one]]


def test_rep_g11_wrong_algebra(fr3):
    with pytest.raises(AlgebraError):
        spectral.rep_g11(fr3.algebra.scalar(1))


def test_rep_g11_homomorphism():
    rng = random.Random(67)
    g11 = Algebra(1, 1)
    for _ in range(100):
        u, v = rmv(g11, rng, 4), rmv(g11, rng, 4)
        prod = linalg.matmul(spectral.rep_g11(u), spectral.rep_g11(v))
        assert prod == spectral.rep_g11(u * v)


def complex_form(real_form):
    """P + iQ read off [[P, -Q], [Q, P]]: P top left, Q bottom left."""
    return [[complex(real_form[r][c]) + 1j * complex(real_form[r + 2][c])
             for c in range(2)] for r in range(2)]


def test_rep_g12_position_vector(fr3):
    x1, x2, x3 = Fraction(2), Fraction(-3), Fraction(5)
    x = frames.vector_from_null_coordinates(fr3, (x1, x2, x3))
    matrix = spectral.rep_g12(x)
    assert matrix == [[0, 2, -5, 0], [7, 0, 0, 5], [5, 0, 0, 2], [0, -5, 7, 0]]
    assert all(isinstance(entry, Radical) for row in matrix for entry in row)
    assert complex_form(matrix) == [[5j, 2], [7, -5j]]


def test_rep_g12_central_pseudoscalar():
    g12 = Algebra(1, 2)
    i_ps = g12.e(1) * g12.f(1) * g12.f(2)
    unit = spectral.rep_g12(i_ps)
    assert unit == [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert complex_form(unit) == [[1j, 0], [0, 1j]]
    minus_one = [[-v for v in row] for row in linalg.identity(4)]
    assert linalg.matmul(unit, unit) == minus_one
    assert spectral.rep_g12(i_ps * i_ps) == minus_one


def test_rep_g12_homomorphism():
    rng = random.Random(71)
    g12 = Algebra(1, 2)
    for _ in range(100):
        u, v = rmv(g12, rng), rmv(g12, rng)
        prod = linalg.matmul(spectral.rep_g12(u), spectral.rep_g12(v))
        assert prod == spectral.rep_g12(u * v)


def test_rep_g12_multiplies_every_blade_pair_exactly():
    g12 = Algebra(1, 2)
    blades = [g12.blade(b, 1) for b in range(8)]
    for u in blades:
        for v in blades:
            prod = linalg.matmul(spectral.rep_g12(u), spectral.rep_g12(v))
            assert prod == spectral.rep_g12(u * v), (u, v)


def test_rep_g12_blade_images_are_independent():
    g12 = Algebra(1, 2)
    images = [[entry for row in spectral.rep_g12(g12.blade(b, 1)) for entry in row]
              for b in range(8)]
    assert linalg.rank(images) == 8


def test_regular_representation():
    rng = random.Random(73)
    g12 = Algebra(1, 2)
    ident = spectral.regular_representation(g12.scalar(1))
    assert ident == linalg.identity(8)
    e1 = spectral.regular_representation(g12.e(1))
    assert linalg.matmul(e1, e1) == ident
    for _ in range(30):
        u, v = rmv(g12, rng), rmv(g12, rng)
        left = linalg.matmul(spectral.regular_representation(u),
                             spectral.regular_representation(v))
        assert left == spectral.regular_representation(u * v)


def test_regular_representation_faithful():
    g12 = Algebra(1, 2)
    for blade in range(8):
        matrix = spectral.regular_representation(g12.blade(blade, 1))
        column = [matrix[row][0] for row in range(8)]
        assert column == [int(row == blade) for row in range(8)]
