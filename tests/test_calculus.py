import random
from fractions import Fraction

import pytest

from lpgg import calculus, frames, simplex, verify_draws
from lpgg.calculus import DiffOperator, PolyField


@pytest.fixture(scope="module")
def fr3():
    return frames.build_null_frame(3, 1)


@pytest.fixture(scope="module")
def fr4():
    return frames.build_null_frame(4, 1)


def test_partial_of_identity_field(fr3):
    x = PolyField.identity(fr3)
    for i in (1, 2, 3):
        assert x.partial(i) == PolyField.constant(fr3, fr3.vector(i))
    with pytest.raises(ValueError):
        x.partial(0)
    with pytest.raises(ValueError):
        x.partial(4)


def test_partial_of_constant(fr3):
    const = PolyField.constant(fr3, fr3.algebra.scalar(5))
    assert const.partial(1) == PolyField(fr3, {})


def test_square_field_is_pairwise_sum(fr3):
    x2 = calculus.square_field(fr3)
    assert x2.is_scalar_valued()
    # x^2 = x1 x2 + x1 x3 + x2 x3
    expected_exponents = {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert set(x2.terms) == expected_exponents
    for mv in x2.terms.values():
        assert mv == fr3.algebra.scalar(1)
    d1 = x2.partial(1)
    assert set(d1.terms) == {(0, 1, 0), (0, 0, 1)}


def test_gradient_of_x(fr3, fr4):
    for fr in (fr3, fr4):
        nabla = calculus.make_nabla(fr)
        x = PolyField.identity(fr)
        assert nabla.apply(x) == PolyField.constant(
            fr, fr.algebra.scalar(fr.size)
        )


def test_gradient_of_x_squared(fr3):
    nabla = calculus.make_nabla(fr3)
    assert nabla.apply(calculus.square_field(fr3)) == \
        PolyField.identity(fr3).scale(2)


def test_null_gradient_annihilates_x(fr3):
    null = calculus.make_null_nabla(fr3)
    assert null.apply(PolyField.identity(fr3)) == PolyField(fr3, {})


def test_null_laplacian_of_x_squared(fr4):
    null = calculus.make_null_nabla(fr4)
    value = null.compose(null).apply(calculus.square_field(fr4))
    assert value == PolyField.constant(fr4, fr4.algebra.scalar(6))


def test_compose_order_matters(fr3):
    a1 = fr3.vector(1)
    a2 = fr3.vector(2)
    mi = (1, 0, 0)
    op1 = DiffOperator(fr3, [(a1, mi)])
    op2 = DiffOperator(fr3, [(a2, mi)])
    left = op1.compose(op2)
    right = op2.compose(op1)
    ((_, d_left),) = [(k, v) for k, v in left.terms.items()]
    ((_, d_right),) = [(k, v) for k, v in right.terms.items()]
    assert d_left == a1 * a2
    assert d_right == a2 * a1
    assert d_left != d_right


def test_operator_identities(fr3, fr4):
    for fr in (fr3, fr4):
        n = Fraction(fr.n)
        nabla = calculus.make_nabla(fr)
        dual = calculus.make_dual_nabla(fr)
        null = calculus.make_null_nabla(fr)
        flat = calculus.make_flat_partial(fr)
        big_a = frames.k_sum(fr, fr.size)

        assert dual + null == flat.left_multiply(big_a)
        assert nabla == (flat.left_multiply(big_a) - null.scale(n)).scale(2 / n)
        assert nabla == (dual - null.scale(n - 1)).scale(2 / n)
        lhs = nabla.dot_contract(big_a)
        rhs = flat.scale(n + 1) - null.dot_contract(big_a).scale(2)
        assert lhs == rhs


@pytest.fixture(scope="module")
def identity_checks(suite_report):
    report = suite_report("calculus", 3, 1)
    return {c.name: c for c in report.checks}


def printed_gradient_laplacian(fr):
    """nabla_dual^2 - 2(n-1) nabla_dual.nabla_null + nabla_null^2, as printed."""
    n = fr.n
    dual = calculus.make_dual_nabla(fr)
    null = calculus.make_null_nabla(fr)
    dual_dot_null = DiffOperator(fr, [
        (frames.dual_sum(fr, i + 1).dot(fr.vectors[j]),
         tuple(int(t == i) + int(t == j) for t in range(fr.size)))
        for i in range(fr.size) for j in range(fr.size)
    ])
    return (dual.compose(dual) - dual_dot_null.scale(2 * (n - 1))
            + null.compose(null))


def test_identity_report_statuses(fr3, identity_checks):
    statuses = {name: check.status for name, check in identity_checks.items()}
    assert statuses["gradient-via-flat-sum"] == "pass"
    assert statuses["gradient-via-dual"] == "pass"
    assert statuses["A-dot-gradient"] == "pass"
    assert statuses["dual-plus-null"] == "pass"
    assert statuses["A-dot-dual-plus-null"] == "pass"
    assert statuses["null-laplacian"] == "pass"
    assert statuses["dual-laplacian"] == "pass-corrected"
    assert statuses["dual-dot-null"] == "pass-corrected"
    assert statuses["vector-dot-full-sum"] == "pass-corrected"
    assert statuses["dual-dot-dual"] == "pass-corrected"
    # at n = 2 the stated coefficients already fail
    n = fr3.n
    dual = calculus.make_dual_nabla(fr3)
    assert dual.compose(dual) != calculus.scalar_operator(
        fr3, Fraction(n * (n + 1), 2), n * n - n + 1)
    _, off = calculus.dual_sum_dot_oracle(fr3)
    assert off != n * n - n + 1


def test_identity_report_corrected_coefficients(fr4, identity_checks):
    n = fr4.n
    dual = calculus.make_dual_nabla(fr4)
    assert dual.compose(dual) == calculus.scalar_operator(
        fr4, Fraction(n * (n - 1), 2), n * n - n + 1)
    diag, off = calculus.dual_sum_dot_oracle(fr4)
    assert (diag, off * 2) == (Fraction(n * (n - 1), 2), n * n - n + 1)
    assert off == Fraction(n * n - n + 1, 2)
    assert off != n * n - n + 1
    assert identity_checks["dual-dot-dual"].claim == \
        "dual_i . dual_j = n^2 - n + 1 for i != j"
    assert identity_checks["dual-laplacian"].details.endswith(
        "derived {'c_sq': Radical('0'), 'c_cross': Radical('1')}")


def test_gradient_laplacian_exact_at_n2(fr3, fr4, identity_checks):
    for fr, exact in ((fr3, True), (fr4, False)):
        nabla = calculus.make_nabla(fr)
        assert (nabla.compose(nabla) == printed_gradient_laplacian(fr)) is exact
    assert identity_checks["gradient-laplacian"].status == "pass-corrected"


def test_dual_sum_oracle(fr4):
    diag, off = calculus.dual_sum_dot_oracle(fr4)
    n = fr4.n
    assert diag == Fraction(n * (n - 1), 2)
    assert off == Fraction(n * n - n + 1, 2)


def test_mixed_partials_commute(fr3):
    rng = random.Random(37)
    for _ in range(10):
        exponents = tuple(rng.randint(0, 3) for _ in range(3))
        f = PolyField.monomial(fr3, exponents)
        assert f.partial(1).partial(2) == f.partial(2).partial(1)


def test_scalar_valued_laplacians(fr3):
    dual = calculus.make_dual_nabla(fr3)
    null = calculus.make_null_nabla(fr3)
    for op in (dual.compose(dual), null.compose(null)):
        for f in calculus.monomial_fields(fr3, 2):
            assert op.apply(f).is_scalar_valued()


def test_finite_differences(fr3):
    point = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert calculus.finite_difference_error(fr3, "abs_x", point) <= 1e-6
    for tag in ("x", "x2", "unit_x"):
        assert calculus.finite_difference_error(fr3, tag, (0.5, 0.3, 0.2)) \
            <= 1e-6, tag


def test_finite_difference_guards(fr3):
    with pytest.raises(ValueError):
        calculus.finite_difference_error(fr3, "abs_x", (1, 0, 0))
    with pytest.raises(ValueError):
        calculus.finite_difference_error(fr3, "nope", (0.5, 0.3, 0.2))


def test_identity_field_has_the_null_gradient_terms(fr3, fr4):
    for fr in (fr3, fr4):
        assert PolyField.identity(fr).terms == calculus.make_null_nabla(fr).terms


def test_linear_with_n_coefficients_is_the_truncated_dual_gradient(fr3, fr4):
    for fr in (fr3, fr4):
        duals = [frames.dual_sum(fr, i) for i in range(1, fr.size)]
        truncated = simplex.truncated_dual_nabla(fr)
        assert DiffOperator.linear(fr, duals) == truncated
        assert len(truncated.terms) == fr.n
        assert all(mi[-1] == 0 for mi in truncated.terms)
    with pytest.raises(ValueError):
        DiffOperator.linear(fr3, fr4.vectors)


def test_operator_arithmetic_returns_operators(fr3):
    null = calculus.make_null_nabla(fr3)
    flat = calculus.make_flat_partial(fr3)
    a1 = fr3.vector(1)
    for op in (null.scale(2), null.left_multiply(a1), null + flat, null - flat,
               null.compose(flat), null.dot_contract(a1)):
        assert type(op) is DiffOperator
    assert null != PolyField.identity(fr3)


def test_terms_merge_and_exponents_are_checked(fr3):
    a1, a2 = fr3.vector(1), fr3.vector(2)
    op = DiffOperator(fr3, [(a1, (1, 0, 0)), (a2, (1, 0, 0)),
                            (a1, (0, 1, 0)), (-a1, [0, 1, 0])])
    assert op.terms == {(1, 0, 0): a1 + a2}
    for bad in ((1, 0), (1, 0, 0, 0), (0, -1, 1)):
        with pytest.raises(ValueError):
            DiffOperator(fr3, [(a1, bad)])
        with pytest.raises(ValueError):
            PolyField.monomial(fr3, bad)


# -- differential test: closed-form derivatives against chained partials ------


def reference_terms(pairs):
    """Merge (coefficient, exponents) pairs with chained + and drop zeros."""
    merged = {}
    for mv, exp in pairs:
        merged[exp] = merged[exp] + mv if exp in merged else mv
    return {exp: mv for exp, mv in merged.items() if not mv.is_zero()}


def reference_partial(terms, i):
    """d/dx_i (0-based) of a term dict, one power at a time."""
    return reference_terms(
        (mv * exp[i], exp[:i] + (exp[i] - 1,) + exp[i + 1:])
        for exp, mv in terms.items() if exp[i]
    )


def reference_apply(op, field):
    """Chained single partials, left-multiplied by each direction, summed."""
    pairs = []
    for alpha, direction in op.terms.items():
        diffed = field.terms
        for i, reps in enumerate(alpha):
            for _ in range(reps):
                diffed = reference_partial(diffed, i)
        pairs += [(direction * mv, exp) for exp, mv in diffed.items()]
    return reference_terms(pairs)


def random_field(fr, rng):
    """Six random exact multivector coefficients on monomials of degree <= 3."""
    pairs = []
    for _ in range(6):
        exp = [0] * fr.size
        for _ in range(rng.randint(0, 3)):
            exp[rng.randrange(fr.size)] += 1
        pairs.append((verify_draws.random_multivector(fr.algebra, rng, 3), exp))
    return PolyField(fr, pairs)


def operators(fr):
    nabla = calculus.make_nabla(fr)
    dual = calculus.make_dual_nabla(fr)
    null = calculus.make_null_nabla(fr)
    flat = calculus.make_flat_partial(fr)
    d1_cubed = DiffOperator(fr, [(fr.vector(2), (3,) + (0,) * fr.n)])
    return (nabla, dual, null, flat, null.compose(dual), dual.compose(dual),
            nabla.compose(nabla), flat.compose(flat).left_multiply(fr.vector(1)),
            d1_cubed)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_apply_and_partial_match_chained_partials(size):
    fr = frames.build_null_frame(size, 1)
    ops = operators(fr)
    # d_i^2 and d_1^3, where beta!/(beta - alpha)! differs from C(beta, alpha)
    assert any(2 in mi for op in ops for mi in op.terms)
    rng = random.Random(size)
    fields = [random_field(fr, rng) for _ in range(4)]
    # repeated exponents that cancel leave no term to differentiate
    a1, a2, cube = fr.vector(1), fr.vector(2), (3,) + (0,) * fr.n
    cancelled = PolyField(fr, [(a1, cube), (a2, (1,) * size), (-a1, cube)])
    assert cancelled.terms == {(1,) * size: a2}
    for field in fields + [cancelled]:
        for i in range(1, size + 1):
            assert field.partial(i).terms == reference_partial(field.terms, i - 1)
        for op in ops:
            result = op.apply(field)
            assert type(result) is PolyField
            assert result.terms == reference_apply(op, field)
