import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lpgg import (
    Algebra,
    BackendMismatchError,
    ContextMismatchError,
    DimensionLimitError,
    Radical,
    wedge_list,
)
from lpgg import algebra as algebra_module
from lpgg.algebra import DIMENSION_LIMIT, Multivector, combination
from lpgg.scalars import coerce


def random_mv(algebra, rng, terms=5, backend="exact"):
    coeffs = {}
    for _ in range(terms):
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        coeffs[rng.randrange(algebra.dim)] = (
            value if backend == "exact" else float(value)
        )
    return algebra.multivector(coeffs, backend)


def test_make_algebra_examples():
    g12 = Algebra(1, 2)
    assert g12.e(1) * g12.e(1) == g12.scalar(1)
    assert g12.f(1) * g12.f(1) == g12.scalar(-1)
    assert g12.f(2) * g12.f(2) == g12.scalar(-1)
    reals = Algebra(0, 0)
    assert reals.dim == 1
    assert reals.scalar(3) * reals.scalar(2) == reals.scalar(6)
    with pytest.raises(DimensionLimitError):
        Algebra(13, 0)


def test_generators_anticommute():
    g = Algebra(2, 2)
    for i in range(4):
        for j in range(i + 1, 4):
            gi, gj = g.generator(i), g.generator(j)
            assert gi * gj == -(gj * gi)


def test_null_vector_square_is_zero():
    g11 = Algebra(1, 1)
    a1 = (g11.e(1) + g11.f(1)) * Fraction(1, 2)
    assert (a1 * a1).is_zero()


def test_e1f1_in_null_coordinates():
    g12 = Algebra(1, 2)
    e1, f1 = g12.e(1), g12.f(1)
    a1 = (e1 + f1) * Fraction(1, 2)
    a2 = (e1 - f1) * Fraction(1, 2)
    assert e1 * f1 == g12.scalar(1) - (a1 * a2) * 2


@pytest.mark.parametrize("backend", ["exact", "approx"])
def test_associativity_exact(backend):
    rng = random.Random(5)
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2), (0, 3)]:
        algebra = Algebra(p, q)
        for _ in range(50):
            u, v, w = (random_mv(algebra, rng, backend=backend) for _ in range(3))
            left, right = (u * v) * w, u * (v * w)
            if backend == "exact":
                assert left == right
            else:
                assert left.max_abs_difference(right) <= 1e-12


def test_vector_product_splits_into_dot_and_wedge():
    rng = random.Random(7)
    g12 = Algebra(1, 2)
    for _ in range(40):
        u = sum(
            (g12.generator(k) * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for k in range(3)),
            g12.zero(),
        )
        v = sum(
            (g12.generator(k) * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for k in range(3)),
            g12.zero(),
        )
        assert u * v == u.dot(v) + u.wedge(v)
        assert u.wedge(v) == (u * v - v * u) * Fraction(1, 2)


def test_wedge_antisymmetry_and_dependence():
    g12 = Algebra(1, 2)
    x = g12.e(1) + g12.f(2) * 3
    assert x.wedge(x).is_zero()
    assert wedge_list([x, x * Fraction(5, 2)]).is_zero()


def test_wedge_determinant_identities():
    rng = random.Random(11)
    g11 = Algebra(1, 1)
    a1 = (g11.e(1) + g11.f(1)) * Fraction(1, 2)
    a2 = (g11.e(1) - g11.f(1)) * Fraction(1, 2)
    for _ in range(25):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        v1 = a1 * c[0] + a2 * c[1]
        v2 = a1 * c[2] + a2 * c[3]
        det = c[0] * c[3] - c[1] * c[2]
        assert v1.wedge(v2) == a1.wedge(a2) * det
        # (x^y)^2 = det [[y.x, y^2], [x^2, x.y]]
        sq = v1.wedge(v2) * v1.wedge(v2)
        dots = [
            (v2.dot(v1)).scalar_part(), (v2.dot(v2)).scalar_part(),
            (v1.dot(v1)).scalar_part(), (v1.dot(v2)).scalar_part(),
        ]
        expected = dots[0] * dots[3] - dots[1] * dots[2]
        assert sq == g11.scalar(Radical(0) + expected)


def test_dot_examples():
    g11 = Algebra(1, 1)
    a1 = (g11.e(1) + g11.f(1)) * Fraction(1, 2)
    a2 = (g11.e(1) - g11.f(1)) * Fraction(1, 2)
    assert a1.dot(a2) == g11.scalar(Fraction(1, 2))
    x = a1 * 3 + a2 * Fraction(5, 7)
    assert x.dot(x) == g11.scalar(3 * Fraction(5, 7))
    b = a1.wedge(a2)
    assert b.dot(b) == g11.scalar(Fraction(1, 4))


def test_grade_projection_and_reverse():
    g12 = Algebra(1, 2)
    e1, f1 = g12.e(1), g12.f(1)
    a1 = (e1 + f1) * Fraction(1, 2)
    a2 = (e1 - f1) * Fraction(1, 2)
    assert g12.scalar(7).reverse() == g12.scalar(7)
    biv = a1.wedge(a2)
    assert biv.reverse() == -biv


def test_reverse_antiautomorphism():
    rng = random.Random(13)
    g = Algebra(2, 1)
    for _ in range(30):
        u, v = random_mv(g, rng), random_mv(g, rng)
        assert (u * v).reverse() == v.reverse() * u.reverse()


def test_context_and_backend_mismatch():
    g11, g12 = Algebra(1, 1), Algebra(1, 2)
    with pytest.raises(ContextMismatchError):
        g11.e(1) * g12.e(1)
    exact = g11.e(1)
    approx = g11.multivector({1: 1.0}, "approx")
    with pytest.raises(BackendMismatchError):
        exact * approx
    with pytest.raises(BackendMismatchError):
        approx.to_backend("exact")
    assert exact.to_backend("approx") == approx


def test_backend_scalar_coercion():
    g11 = Algebra(1, 1)
    exact = g11.e(1)
    with pytest.raises(TypeError):
        exact * 0.5
    assert (exact * Fraction(1, 2)) * 2 == exact


@pytest.mark.parametrize("first, second, backend", [
    (1, 0.5, "approx"),
    (Fraction(1, 3), 2j, "complex"),
    (0.5, -1j, "complex"),
])
def test_raw_coefficients_pick_the_widest_backend_in_either_order(first, second, backend):
    g11 = Algebra(1, 1)
    forward = g11.multivector({0: first, 1: second})
    backward = g11.multivector({1: second, 0: first})
    assert forward.backend == backward.backend == backend
    assert forward == backward
    assert forward.coefficient(0) == coerce(first, backend)


def swap_count_sign(a, b, p):
    """Sign of blade_a * blade_b by sorting the generator list pair by pair."""
    factors = [k for k in range(16) if a >> k & 1] + \
        [k for k in range(16) if b >> k & 1]
    sign = 1
    for i in range(len(factors)):
        for j in range(len(factors) - 1 - i):
            if factors[j] > factors[j + 1]:
                factors[j], factors[j + 1] = factors[j + 1], factors[j]
                sign = -sign
    for k in range(len(factors) - 1):
        if factors[k] == factors[k + 1] and factors[k] >= p:
            sign = -sign
    return sign


def test_product_sign_matches_swap_count():
    for total in range(7):
        for p in range(total + 1):
            algebra = Algebra(p, total - p)
            for a in range(algebra.dim):
                for b in range(algebra.dim):
                    assert algebra.product_sign(a, b) == \
                        swap_count_sign(a, b, p), (p, total - p, a, b)


@pytest.mark.parametrize("backend", ["approx", "complex"])
def test_float_multivectors_store_their_coefficients(backend):
    """A float or complex multivector holds its values themselves, one per
    blade: a dense G(4,5) operand built from a prebuilt dict is its blade
    dict and little more, and every result keeps that shape."""
    algebra = Algebra(4, 5)
    rng = random.Random(45)
    coeffs = [{b: coerce(rng.uniform(-1, 1) + rng.uniform(-1, 1) * 1j
                         if backend == "complex" else rng.uniform(-1, 1), backend)
               for b in range(algebra.dim)} for _ in range(2)]
    tracemalloc.start()
    try:
        x = algebra.multivector(coeffs[0], backend)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, held
    y = algebra.multivector(coeffs[1], backend)
    kind = float if backend == "approx" else complex
    for mv in (x, y, x * y, x.wedge(y), x.dot(y), x + y, x - y, x * 3, x / 2,
               -x, x.reverse(), combination(algebra, ((x, 2), (y, -1)), backend)):
        assert mv._den == 1 and mv._coeffs
        assert all(type(value) is kind and value for value in mv._coeffs.values())
        assert_normal_form(mv)


def test_dense_product_leaves_algebra_stateless():
    algebra = Algebra(3, 3)
    x = algebra.multivector({blade: blade + 1 for blade in range(algebra.dim)})
    y = algebra.multivector({blade: 2 - blade for blade in range(algebra.dim)})
    x * y
    for name, value in vars(algebra).items():
        assert not isinstance(value, (dict, list, set, tuple)), name


def random_radical(rng):
    """One to three terms over keys that share primes, mixed denominators."""
    value = Radical(0)
    for m in rng.sample([1, 2, 3, 6, 10, 15], rng.randint(1, 3)):
        value = value + Radical.sqrt(m) * Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 12))
    return value


def random_coefficient(rng, backend):
    """A random ``Radical``, float, or complex whose parts may be signed zeros."""
    if backend == "exact":
        return random_radical(rng)
    if backend == "approx":
        return rng.uniform(-9, 9)
    return complex(*(rng.choice([0.0, -0.0, rng.uniform(-9, 9)]) for _ in range(2)))


def random_backend_mv(algebra, rng, backend, terms):
    return algebra.multivector(
        {rng.randrange(algebra.dim): random_coefficient(rng, backend)
         for _ in range(terms)}, backend)


def bits(value):
    """A float or complex by its bits, so ``-0.0`` differs from ``0.0``."""
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return value.hex()
    return value


def bitwise(coeffs):
    return {blade: bits(value) for blade, value in coeffs.items()}


def reference_product(x, y, keep):
    """Per-pair products with the swap-count sign, summed in (a, b) order."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            if not keep(a.bit_count(), b.bit_count(), (a ^ b).bit_count()):
                continue
            term = ca * cb
            if swap_count_sign(a, b, x.algebra.p) < 0:
                term = -term
            out[a ^ b] = out[a ^ b] + term if a ^ b in out else term
    return {blade: v for blade, v in out.items() if v}


PRODUCTS = {
    "geometric": lambda ga, gb, gout: True,
    "wedge": lambda ga, gb, gout: gout == ga + gb,
    "dot": lambda ga, gb, gout: gout == abs(ga - gb),
}

# Exact cases keep their plain "p-q" ids.
BACKEND_CASES = [
    pytest.param(p, t - p, backend,
                 id=f"{p}-{t - p}" if backend == "exact" else f"{backend}-{p}-{t - p}")
    for backend in ("exact", "approx", "complex")
    for t in range(6) for p in range(t + 1)
]


@pytest.mark.parametrize("p,q,backend", BACKEND_CASES)
def test_exact_kernel_matches_per_pair_reference(p, q, backend):
    """The one product kernel, for every backend, against a per-pair loop."""
    algebra = Algebra(p, q)
    rng = random.Random(1000 * p + q)
    for _ in range(6):
        x, y = (random_backend_mv(algebra, rng, backend, rng.randint(1, 6))
                for _ in range(2))
        for name, keep in PRODUCTS.items():
            result = getattr(x, name)(y)
            assert bitwise(result.coefficients()) == \
                bitwise(reference_product(x, y, keep)), name
            assert_normal_form(result)
            if backend != "exact":
                continue
            for value in result.coefficients().values():
                terms, den = value._terms, value._den
                assert den > 0 and all(terms.values())
                assert math.gcd(den, *terms.values()) == 1


def assert_normal_form(mv):
    """One positive denominator, no empty blade, no zero numerator; exact
    numerators are ints with gcd(den, all numerators) == 1, a float or
    complex blade holds its value itself, over denominator 1; zero is
    ({}, 1)."""
    den, coeffs = mv._den, mv._coeffs
    assert isinstance(den, int) and den > 0
    assert all(coeffs.values())
    if mv.backend == "exact":
        numerators = [c for terms in coeffs.values() for c in terms.values()]
        assert all(numerators) and all(isinstance(c, int) for c in numerators)
        assert math.gcd(den, *numerators) == 1
    else:
        kind = float if mv.backend == "approx" else complex
        assert den == 1 and all(type(c) is kind for c in coeffs.values())
    if not coeffs:
        assert den == 1


def reference_sum(x, y, sign):
    """``x + sign*y`` blade by blade; a blade of one operand alone is
    copied (negated), not added to a zero."""
    out = dict(x.items())
    for b, c in y.items():
        if sign < 0:
            c = -c
        out[b] = out[b] + c if b in out else c
    return {b: v for b, v in out.items() if v}


def per_blade_map(x, op):
    return {b: v for b, v in ((b, op(b, c)) for b, c in x.items()) if v}


def backend_scalars(rng, backend):
    """Ints (zero too), Fractions and Radicals of one to three terms, and a
    float and a signed-zero complex where the backend holds them."""
    values = [rng.randint(-4, 4), 0, Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
              random_radical(rng), random_radical(rng)]
    if backend != "exact":
        values.append(rng.uniform(-3, 3))
    if backend == "complex":
        values.append(complex(-0.0, rng.uniform(-3, 3)))
    return values


def invertible(value):
    return value != 0 and not (isinstance(value, Radical) and len(value._terms) > 2)


def reciprocal(value, backend):
    """The factor ``x / value`` scales by: an exact inverse when there is one."""
    if isinstance(value, Radical) or backend == "exact":
        return coerce(Radical(value).inverse(), backend)
    return 1 / coerce(value, backend)


@pytest.mark.parametrize("p,q,backend", BACKEND_CASES)
def test_exact_operations_match_per_blade_reference(p, q, backend):
    """Linear operations and products, for every backend, against
    blade-by-blade and per-pair references."""
    algebra = Algebra(p, q)
    rng = random.Random(2000 * p + q)
    for _ in range(6):
        x, y = (random_backend_mv(algebra, rng, backend, rng.randint(0, 6))
                for _ in range(2))
        results = [
            (x + y, reference_sum(x, y, 1)),
            (x - y, reference_sum(x, y, -1)),
            (x - x, {}),
            (-x, per_blade_map(x, lambda b, c: -c)),
            (x.reverse(), per_blade_map(
                x, lambda b, c: -c if b.bit_count() % 4 in (2, 3) else c)),
        ]
        for scalar in backend_scalars(rng, backend):
            factor = coerce(scalar, backend)
            results.append((x * scalar, per_blade_map(x, lambda b, c: c * factor)))
            results.append((scalar * x, per_blade_map(x, lambda b, c: c * factor)))
            results.append((scalar - x, reference_sum(algebra.scalar(factor, backend), x, -1)))
            if invertible(scalar):
                inverse = reciprocal(scalar, backend)
                results.append((x / scalar, per_blade_map(x, lambda b, c: c * inverse)))
        for name, keep in PRODUCTS.items():
            results.append((getattr(x, name)(y), reference_product(x, y, keep)))
        results.append((x * y, reference_product(x, y, PRODUCTS["geometric"])))
        for result, expected in results:
            assert bitwise(result.coefficients()) == bitwise(expected)
            assert_normal_form(result)


def chained(algebra, pairs, backend):
    """``sum(c * mv)`` by ``+`` from left to right; an int ``c`` of 1 or -1
    adds or subtracts ``mv``."""
    acc = algebra.zero(backend)
    for mv, c in pairs:
        if type(c) is int and c in (1, -1):
            acc = acc + mv if c == 1 else acc - mv
        else:
            acc = acc + mv * c
    return acc


def storage_order(mv):
    """The stored blades in order, with each exact blade's keys in order."""
    if mv.backend != "exact":
        return list(mv._coeffs)
    return [(blade, list(terms)) for blade, terms in mv._coeffs.items()]


@pytest.mark.parametrize("backend", ["exact", "approx", "complex"])
def test_combination_matches_chained_addition(backend):
    """The one linear-combination routine against chained ``+``, bit for
    bit and with blades and keys in the same order."""
    algebra = Algebra(2, 2)
    rng = random.Random(16)
    x, y = (random_backend_mv(algebra, rng, backend, 6) for _ in range(2))
    one = coerce(1, backend)
    # Negating 0.0 - 1j and multiplying 0.0 - 1j by -1+0j differ in the
    # real zero; so do copying -0.0 - 1j and multiplying it by 1+0j.
    if backend == "complex":
        z_value, w_value = complex(0.0, -1.0), complex(-0.0, -1.0)
    else:
        z_value = w_value = coerce(-1, backend)
    z = algebra.multivector({1: z_value}, backend)
    w = algebra.multivector({2: w_value}, backend)
    cases = [
        [],
        [(x, 1), (x, -1), (y, rng.choice(backend_scalars(rng, backend)))],
        [(z, -1), (w, one)],
        [(x, one), (y, -1), (x, Fraction(-1)), (y, 1)],
    ]
    if backend == "complex":
        cases.append([(x, complex(-0.0, 2.0)), (y, complex(-0.0, -0.5))])
    pool = [x, y, -x, z, w]
    for _ in range(40):
        cases.append([(rng.choice(pool), rng.choice(backend_scalars(rng, backend) + [1, -1]))
                      for _ in range(rng.randint(1, 6))])
    for pairs in cases:
        result = combination(algebra, pairs, backend)
        expected = chained(algebra, pairs, backend)
        assert bitwise(result.coefficients()) == bitwise(expected.coefficients()), pairs
        assert storage_order(result) == storage_order(expected), pairs
        assert_normal_form(result)
    with pytest.raises(BackendMismatchError):
        combination(algebra, [(x, 1)], "exact" if backend != "exact" else "approx")
    with pytest.raises(ContextMismatchError):
        combination(Algebra(1, 1), [(x, 1)], backend)


# Grade filters for ``_product``: the two products and one that is neither
# (it keeps every overlap of two equal grades).
FILTERS = {
    "wedge": PRODUCTS["wedge"],
    "dot": PRODUCTS["dot"],
    "equal-grades": lambda ga, gb, gout: ga == gb,
}


def filtered_product(x, y, name):
    return getattr(x, name)(y) if name in PRODUCTS else x._product(y, FILTERS[name])


def dense_mv(algebra, rng, backend):
    """A nonzero coefficient on every blade."""
    def value():
        if backend == "exact":
            return random_radical(rng) + Fraction(1, rng.randint(1, 9))
        if backend == "approx":
            return rng.uniform(0.1, 9) * rng.choice([1, -1])
        return complex(rng.uniform(0.1, 9), rng.uniform(-9, 9))
    return algebra.multivector({b: value() for b in range(algebra.dim)}, backend)


@pytest.mark.parametrize("p,q,backend", [
    (3, 4, "approx"), (3, 4, "complex"), (5, 3, "approx"), (5, 3, "complex"),
    (2, 3, "exact"),
])
def test_dense_filtered_products_match_per_pair_reference(p, q, backend):
    """The grade filter against a per-pair filter on dense operands, bit
    for bit, and with the output blades in the same order."""
    algebra = Algebra(p, q)
    rng = random.Random(100 * p + q)
    x, y = dense_mv(algebra, rng, backend), dense_mv(algebra, rng, backend)
    assert len(x._coeffs) == len(y._coeffs) == algebra.dim
    if backend == "exact":  # rows with several radical keys per blade
        assert len({m for terms in x._coeffs.values() for m in terms}) >= 5
    for name, keep in FILTERS.items():
        result = filtered_product(x, y, name)
        expected = reference_product(x, y, keep)
        assert list(result.coefficients()) == list(expected), name
        assert bitwise(result.coefficients()) == bitwise(expected), name
        assert_normal_form(result)


@pytest.mark.parametrize("p,q,backend", [
    (3, 4, "approx"), (3, 4, "complex"), (5, 3, "approx"), (5, 3, "complex"),
    (2, 3, "exact"),
])
def test_dense_geometric_product_matches_per_pair_reference(p, q, backend):
    """The unfiltered kernel on dense operands, bit for bit, with the
    output blades in the same order."""
    algebra = Algebra(p, q)
    rng = random.Random(100 * p + q)
    x, y = dense_mv(algebra, rng, backend), dense_mv(algebra, rng, backend)
    result = x * y
    expected = reference_product(x, y, PRODUCTS["geometric"])
    assert list(result.coefficients()) == list(expected)
    assert bitwise(result.coefficients()) == bitwise(expected)
    assert_normal_form(result)


@pytest.mark.parametrize("backend", ["approx", "complex"])
def test_geometric_method_is_the_product_operator(backend):
    """``x.geometric(y)`` is ``x * y`` bit for bit, with the output blades in
    the same order: the dense-float benchmark calls each product by name."""
    algebra = Algebra(3, 3)
    rng = random.Random(33)
    x, y = dense_mv(algebra, rng, backend), dense_mv(algebra, rng, backend)
    result, expected = x.geometric(y), x * y
    assert list(result.coefficients()) == list(expected.coefficients())
    assert bitwise(result.coefficients()) == bitwise(expected.coefficients())


@pytest.mark.parametrize("backend", ["exact", "approx", "complex"])
@pytest.mark.parametrize("p", [0, 5, 12])
def test_products_at_the_dimension_limit_match_per_pair_reference(p, backend):
    """Sparse operands in G(p, 12 - p) that hold the pseudoscalar, so a
    sign reaches the top entries of the parity table."""
    algebra = Algebra(p, DIMENSION_LIMIT - p)
    top = algebra.dim - 1
    rng = random.Random(p)
    for _ in range(3):
        operands = []
        for _ in range(2):
            coeffs = {rng.randrange(algebra.dim): random_coefficient(rng, backend)
                      for _ in range(8)}
            while not (value := random_coefficient(rng, backend)):
                pass
            coeffs[top] = value
            operands.append(algebra.multivector(coeffs, backend))
        x, y = operands
        assert top in x._coeffs and top in y._coeffs
        for name, keep in PRODUCTS.items():
            result = getattr(x, name)(y)
            expected = reference_product(x, y, keep)
            assert list(result.coefficients()) == list(expected), name
            assert bitwise(result.coefficients()) == bitwise(expected), name
            assert_normal_form(result)


@st.composite
def grade_filtered_operands(draw):
    """Two operands of one algebra and backend, and a set of kept
    ``(ga, gb, gout)`` triples, feasible or not."""
    n = draw(st.integers(0, 5))
    p = draw(st.integers(0, n))
    algebra = Algebra(p, n - p)
    backend = draw(st.sampled_from(["exact", "approx", "complex"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    x, y = (random_backend_mv(algebra, rng, backend, draw(st.integers(0, 12)))
            for _ in range(2))
    grades = st.integers(0, n)
    kept = draw(st.frozensets(st.tuples(grades, grades, grades), max_size=40))
    return x, y, kept


@settings(max_examples=80, deadline=None)
@given(grade_filtered_operands())
def test_any_grade_filter_matches_per_pair_reference(case):
    x, y, kept = case

    def keep(ga, gb, gout):
        return (ga, gb, gout) in kept

    result = x._product(y, keep)
    expected = reference_product(x, y, keep)
    assert list(result.coefficients()) == list(expected)
    assert bitwise(result.coefficients()) == bitwise(expected)
    assert_normal_form(result)


@pytest.mark.parametrize("name", list(FILTERS))
def test_keep_is_asked_once_per_grade_triple(name):
    """One call per left grade, right grade and overlap, not per blade pair."""
    algebra = Algebra(3, 3)
    rng = random.Random(11)
    x, y = dense_mv(algebra, rng, "approx"), dense_mv(algebra, rng, "approx")
    calls = Counter()

    def keep(ga, gb, gout):
        overlap, odd = divmod(ga + gb - gout, 2)
        assert not odd and max(0, ga + gb - algebra.n_generators) <= overlap <= min(ga, gb)
        calls[ga, gb, overlap] += 1
        return FILTERS[name](ga, gb, gout)

    result = x._product(y, keep)
    assert calls and max(calls.values()) == 1
    assert result == filtered_product(x, y, name)


@pytest.fixture
def submask_grades(monkeypatch):
    """The left grades that take the submask route of wedge and dot, as a
    set that each product adds to."""
    grades = set()
    subset_rows = algebra_module._subset_rows

    def spy(a, *args):
        grades.add(a.bit_count())
        return subset_rows(a, *args)

    monkeypatch.setattr(algebra_module, "_subset_rows", spy)
    return grades


def assert_matches_reference(x, y, name):
    """``x.name(y)`` against the per-pair loop, bit for bit and in blade order."""
    result = getattr(x, name)(y)
    expected = reference_product(x, y, PRODUCTS[name])
    assert list(result.coefficients()) == list(expected), name
    assert bitwise(result.coefficients()) == bitwise(expected), name
    assert_normal_form(result)


def reordered(mv, blades):
    """``mv`` with its blades stored in the order of ``blades``."""
    return Multivector(mv.algebra, {b: mv._coeffs[b] for b in blades}, mv.backend, mv._den)


@pytest.mark.parametrize("p,q,backend", [
    (3, 4, "approx"), (3, 4, "complex"), (2, 3, "exact"),
])
def test_dense_wedge_and_dot_route_by_right_blade_order(p, q, backend, submask_grades):
    """Dense operands: right blades in ascending order send some left
    grades to the submask route; shuffled, every grade keeps the grade
    filter, so the sums still run in the right operand's own order."""
    algebra = Algebra(p, q)
    rng = random.Random(11 * p + q)
    x, y = dense_mv(algebra, rng, backend), dense_mv(algebra, rng, backend)
    if backend == "exact":
        assert max(len(terms) for terms in y._coeffs.values()) >= 3
    blades = list(y._coeffs)
    rng.shuffle(blades)
    for name in ("wedge", "dot"):
        submask_grades.clear()
        assert_matches_reference(x, y, name)
        assert submask_grades, name
        submask_grades.clear()
        assert_matches_reference(x, reordered(y, blades), name)
        assert not submask_grades, name


@pytest.mark.parametrize("backend", ["exact", "approx", "complex"])
@pytest.mark.parametrize("n", [7, 8, 9])
def test_sparse_wedge_and_dot_split_left_grades_between_routes(n, backend, submask_grades):
    """Sparse operands at p+q = 7..9: the high left grades of a wedge and
    the middle ones of a dot take submasks, the others the grade filter."""
    algebra = Algebra(n // 2, n - n // 2)
    rng = random.Random(n)

    def sparse_mv(blades):
        coeffs = {}
        for b in blades:
            while not (value := random_coefficient(rng, backend)):
                pass
            coeffs[b] = value
        return algebra.multivector(coeffs, backend)

    x = sparse_mv(rng.sample(range(algebra.dim), 30))
    y = sparse_mv(sorted(rng.sample(range(algebra.dim), 60)))
    left_grades = x.grades()
    for name in ("wedge", "dot"):
        submask_grades.clear()
        assert_matches_reference(x, y, name)
        assert submask_grades and left_grades - submask_grades, name


@pytest.mark.parametrize("name", ["wedge", "dot"])
def test_dense_submask_memo_keeps_only_prefix_lists(name, monkeypatch):
    """The per-product memo of ``_submasks`` holds masks below 2^(n-1)
    only, at most 3^(n-1) list entries, however many lists it returns."""
    algebra = Algebra(4, 4)
    n = algebra.n_generators
    rng = random.Random(44)
    x, y = dense_mv(algebra, rng, "approx"), dense_mv(algebra, rng, "approx")
    memos = {}
    submasks = algebra_module._submasks

    def spy(m, memo):
        memos[id(memo)] = memo
        return submasks(m, memo)

    monkeypatch.setattr(algebra_module, "_submasks", spy)
    assert_matches_reference(x, y, name)
    [memo] = memos.values()
    assert max(memo) < 1 << (n - 1)
    assert sum(map(len, memo.values())) <= 3 ** (n - 1)


@pytest.mark.parametrize("name", [
    "", "e1^", "e", "ex", "e+1", "e 1", "e١", "e1_0", "e1^^f1", "x1", "e0", "f3",
])
def test_malformed_blade_name_raises_algebra_error(name):
    """Generator indices are ASCII digits; ``int`` would also read signs,
    spaces, underscores and other scripts' digits."""
    with pytest.raises(algebra_module.AlgebraError):
        Algebra(10, 2).blade_from_name(name)


def test_blade_names_round_trip():
    algebra = Algebra(4, 4)
    for blade in range(algebra.dim):
        assert algebra.blade_from_name(algebra.blade_name(blade)) == blade
    assert algebra.blade_from_name(" e1 ^ f2 ") == 0b100001


@st.composite
def wedge_dot_operands(draw):
    """Two operands of random density, stored in ascending, descending or
    random blade order."""
    n = draw(st.integers(0, 7))
    p = draw(st.integers(0, n))
    algebra = Algebra(p, n - p)
    backend = draw(st.sampled_from(["exact", "approx", "complex"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    operands = []
    for _ in range(2):
        density = draw(st.floats(0, 1))
        coeffs = {b: random_coefficient(rng, backend)
                  for b in range(algebra.dim) if rng.random() < density}
        blades = list(coeffs)
        order = draw(st.sampled_from(["ascending", "descending", "random"]))
        if order == "descending":
            blades.reverse()
        elif order == "random":
            rng.shuffle(blades)
        operands.append(algebra.multivector({b: coeffs[b] for b in blades}, backend))
    return operands


@settings(max_examples=80, deadline=None)
@given(wedge_dot_operands())
def test_wedge_and_dot_match_per_pair_reference_at_any_density_and_order(operands):
    x, y = operands
    for name in ("wedge", "dot"):
        assert_matches_reference(x, y, name)


def test_dense_wedge_and_dot_leave_the_module_containers_unchanged():
    def sizes():
        return {name: len(value) for name, value in vars(algebra_module).items()
                if isinstance(value, (dict, list, set, tuple, bytes))}

    algebra = Algebra(4, 4)
    rng = random.Random(3)
    x, y = dense_mv(algebra, rng, "approx"), dense_mv(algebra, rng, "approx")
    before = sizes()
    x.wedge(y)
    x.dot(y)
    assert sizes() == before


def test_complex_signed_zero_survives_sums_scaling_and_products():
    g = Algebra(1, 1)
    value = complex(-0.0, 1.0)
    x = g.multivector({1: value}, "complex")
    zero, one = g.zero("complex"), g.scalar(1, "complex")
    for result in (x + zero, zero + x, x - zero, -(zero - x), x.scale(1),
                   x * 1, x * one, one * x):
        assert bits(result.coefficient(1)) == bits(value)


def test_equal_exact_values_hash_equal():
    rng = random.Random(31)
    for p, q in [(1, 1), (1, 2), (2, 2), (1, 4)]:
        algebra = Algebra(p, q)
        for _ in range(10):
            u, v = (
                algebra.multivector({rng.randrange(algebra.dim): random_radical(rng)
                                     for _ in range(4)})
                for _ in range(2)
            )
            pairs = [((u + v) - v, u), ((u * 2) / 2, u),
                     ((u * Fraction(3, 7)) / Fraction(3, 7), u),
                     ((u * 2) * (v * 3), (u * v) * 6),
                     (u.reverse().reverse(), u), (-(-u), u)]
            for left, right in pairs:
                assert left == right
                assert hash(left) == hash(right)
                assert left._den == right._den and left._coeffs == right._coeffs
            assert len({(u + v) - v, u, (u * 2) / 2}) == 1
    # Dyadic parts keep the float sums exact, so the float pairs are equal too.
    for backend in ("approx", "complex"):
        for p, q in [(1, 1), (1, 2), (2, 2), (1, 4)]:
            algebra = Algebra(p, q)
            for _ in range(10):
                u, v = (
                    algebra.multivector({rng.randrange(algebra.dim): coerce(complex(
                        rng.randint(-64, 64) / 8, rng.randint(-64, 64) / 8)
                        if backend == "complex" else rng.randint(-64, 64) / 8, backend)
                        for _ in range(4)}, backend)
                    for _ in range(2)
                )
                pairs = [((u + v) - v, u), ((u * 2) / 2, u),
                         (u.reverse().reverse(), u), (-(-u), u)]
                for left, right in pairs:
                    assert left == right
                    assert hash(left) == hash(right)
                    assert left._den == right._den and left._coeffs == right._coeffs
                assert len({(u + v) - v, u, (u * 2) / 2}) == 1
    g = Algebra(1, 1)
    half = g.scalar(Fraction(1, 2))
    assert hash((g.e(1) * g.e(1)) / 2) == hash(half) == hash(Fraction(1, 2))
    assert hash(g.e(1) - g.e(1)) == hash(g.zero()) == hash(0)


def test_scalar_multivector_hashes_like_the_scalar_it_equals():
    g = Algebra(1, 1)
    assert {g.scalar(1): 0}.get(1) == 0
    assert {g.scalar(Fraction(1, 2)): 0}.get(Fraction(1, 2)) == 0
    assert {g.zero(): 0}.get(0) == 0
    assert {g.scalar(0.5): 0}.get(0.5) == 0
    assert g.scalar(Radical.sqrt(2)) == Radical.sqrt(2)
    assert hash(g.scalar(Radical.sqrt(2))) == hash(Radical.sqrt(2))
    assert len({g.e(1), g.e(1) * 1, g.f(1)}) == 2


@pytest.mark.parametrize("backend, value, number, equal", [
    ("approx", 1 / 3, Fraction(1, 3), False),
    ("approx", 1 / 3, Radical(Fraction(1, 3)), False),
    ("approx", float(Radical.sqrt(2)), Radical.sqrt(2), False),
    ("complex", 1 / 3, Fraction(1, 3), False),
    ("complex", float(Radical.sqrt(2)), Radical.sqrt(2), False),
    ("approx", 0.5, Fraction(1, 2), True),
    ("approx", 0.5, Radical(Fraction(1, 2)), True),
    ("complex", 0.5, Fraction(1, 2), True),
    ("complex", 0.5, Radical(Fraction(1, 2)), True),
    ("complex", -2.0, -2, True),
])
def test_float_scalar_multivector_equals_a_number_by_value(
        backend, value, number, equal):
    mv = Algebra(1, 1).scalar(value, backend)
    assert (mv == number) is equal
    assert (number == mv) is equal
    assert len({mv, number}) == (1 if equal else 2)
    if equal:
        assert hash(mv) == hash(number)


def test_exact_scalar_multivector_equals_the_float_it_equals():
    g = Algebra(1, 1)
    assert g.scalar(1) == 1.0
    assert g.zero() == 0.0
    assert g.scalar(Fraction(1, 2)) == 0.5
    assert g.scalar(Radical.sqrt(2)) != 2 ** 0.5
    assert g.e(1) != 1.0
    assert g.e(1) + 1 != 1.0
    assert g.scalar(1) != 2.0
