import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvi.polycore import (
    DegreeOverflowError,
    MomentVector,
    Polynomial,
    basis,
    lift,
    monomial_index,
    pairing,
    violation,
)


def test_basis_order_n2_d3():
    b = basis(2, 3)
    assert tuple(map(tuple, b.tolist())) == (
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
        (3, 0),
        (2, 1),
        (1, 2),
        (0, 3),
    )


def test_basis_sizes():
    assert len(basis(3, 2)) == 10
    assert len(basis(4, 2)) == 15
    assert len(basis(2, 3)) == 10
    for n in range(1, 5):
        for d in range(5):
            assert len(basis(n, d)) == math.comb(n + d, d)


def test_basis_entry0_is_constant():
    for n in range(1, 5):
        assert tuple(basis(n, 3)[0]) == tuple([0] * n)


def test_basis_prefix_property():
    for n in range(1, 5):
        for d in range(4):
            small = basis(n, d).tolist()
            big = basis(n, d + 1).tolist()
            assert big[: len(small)] == small


def test_basis_is_a_shared_read_only_array():
    b = basis(3, 2)
    assert b is basis(3, 2)
    assert b.dtype == np.int64 and b.shape == (10, 3)
    with pytest.raises(ValueError):
        b[0, 0] = 1


def test_monomial_index_matches_basis_order():
    for n in range(1, 6):
        for d in range(5):
            b = basis(n, d)
            assert monomial_index(b).tolist() == list(range(len(b)))
            assert [int(monomial_index(e)) for e in b] == list(range(len(b)))


def test_product_of_monomials():
    # (2*x1*x2) * (3*x2) == 6*x1*x2^2
    p = Polynomial(2, {(1, 1): 2.0})
    q = Polynomial(2, {(0, 1): 3.0})
    assert p * q == Polynomial(2, {(1, 2): 6.0})


def test_evaluate_simple():
    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 3.0})
    assert p.evaluate((1.0, 1.0)) == 4.0


def test_zero_polynomial_degree_and_identity():
    z = Polynomial.zero(3)
    assert z.degree == 0
    assert z.is_zero
    p = Polynomial(3, {(1, 0, 2): 5.0})
    assert p + z == p
    assert (p - p).is_zero
    # cancellation prunes the stored term
    assert (p - p).exps.shape == (0, 3) and (p - p).coefs.shape == (0,)


def test_lift_entry():
    y = lift((2.0, 3.0), 4)
    assert y.values[monomial_index((1, 2))] == pytest.approx(18.0)
    assert y.values[monomial_index((0, 0))] == 1.0


def test_pairing_degree_overflow():
    y = lift((1.0, 1.0), 2)
    f = Polynomial(2, {(3, 0): 1.0})
    with pytest.raises(DegreeOverflowError):
        pairing(f, y)


def test_moment_vector_length_check():
    with pytest.raises(ValueError):
        MomentVector(2, 2, np.zeros(5))


def test_partial_derivative():
    p = Polynomial(2, {(2, 1): 3.0, (0, 1): 1.0})
    assert p.partial(0) == Polynomial(2, {(1, 1): 6.0})
    assert p.partial(1) == Polynomial(2, {(2, 0): 3.0, (0, 0): 1.0})


def test_json_round_trip():
    p = Polynomial(3, {(2, 0, 1): 0.375, (0, 0, 0): -2.0, (1, 1, 1): 1.5})
    again = Polynomial.from_json(3, p.to_json())
    assert again == p


def test_power():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) ** 2
    assert p == Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})
    assert x**0 == Polynomial(2, {(0, 0): 1.0})


# ---- randomized properties ----------------------------------------------

coefs = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def exp_strategy(n: int, max_deg: int = 3):
    return st.tuples(*[st.integers(0, max_deg) for _ in range(n)]).filter(
        lambda e: sum(e) <= max_deg
    )


def poly_strategy(n: int, max_deg: int = 3):
    return st.dictionaries(exp_strategy(n, max_deg), coefs, min_size=0, max_size=6).map(
        lambda terms: Polynomial(n, terms)
    )


def point_strategy(n: int):
    return st.tuples(*[st.floats(-2, 2, allow_nan=False) for _ in range(n)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shuffled_duplicated_rows_give_the_dict_built_polynomial(data):
    n = data.draw(st.integers(1, 3))
    # no subnormals, so that c / 2 + c / 2 == c
    normal = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    terms = data.draw(st.dictionaries(exp_strategy(n), normal, max_size=6))
    # every term as two exact halves, plus rows that cancel to exactly 0
    rows = [(e, c / 2) for e, c in terms.items()] * 2
    gone = data.draw(
        st.lists(exp_strategy(n).filter(lambda e: e not in terms), max_size=3, unique=True)
    )
    for e in gone:
        a = data.draw(normal)
        rows += [(e, a), (e, -a)]
    rows = data.draw(st.permutations(rows))
    p = Polynomial.from_terms(n, [e for e, _ in rows], [c for _, c in rows])
    want = Polynomial(n, terms)
    assert p == want
    x = data.draw(point_strategy(n))
    assert p.evaluate(x) == want.evaluate(x)
    assert (np.diff(monomial_index(p.exps)) > 0).all()
    assert (p.coefs != 0).all()
    assert not p.exps.flags.writeable and not p.coefs.flags.writeable


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pairing_of_lift_is_evaluation(data):
    n = data.draw(st.integers(1, 4))
    f = data.draw(poly_strategy(n))
    x = data.draw(point_strategy(n))
    y = lift(x, max(2, f.degree))
    lhs = pairing(f, y)
    rhs = f.evaluate(x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pairing_is_bilinear(data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(poly_strategy(n))
    g = data.draw(poly_strategy(n))
    a = data.draw(st.floats(-5, 5, allow_nan=False))
    x = data.draw(point_strategy(n))
    two_k = max(2, f.degree, g.degree)
    y = lift(x, two_k)
    lhs = pairing(f.scale(a) + g, y)
    rhs = a * pairing(f, y) + pairing(g, y)
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gradient_matches_central_differences(data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(poly_strategy(n))
    x = np.array(data.draw(point_strategy(n)))
    grad = f.gradient()
    h = 1e-5
    scale = 1.0 + f.max_abs_coeff()
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd = (f.evaluate(x + e) - f.evaluate(x - e)) / (2 * h)
        assert abs(fd - grad[i].evaluate(x)) <= 1e-5 * scale


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_evaluates_correctly(data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(poly_strategy(n, 2))
    g = data.draw(poly_strategy(n, 2))
    x = data.draw(point_strategy(n))
    lhs = (f * g).evaluate(x)
    rhs = f.evaluate(x) * g.evaluate(x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_matches_the_term_loop(data):
    # the reference loop: term i of f times every term of g, then term i + 1,
    # each product added to its monomial's running sum
    n = data.draw(st.integers(1, 3))
    f = data.draw(poly_strategy(n, 2))
    g = data.draw(poly_strategy(n, 2))
    out: dict = {}
    for e1, c1 in zip(f.exps.tolist(), f.coefs.tolist()):
        for e2, c2 in zip(g.exps.tolist(), g.coefs.tolist()):
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    assert f * g == Polynomial(n, out)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quadratic_evaluates_its_form(data):
    n = data.draw(st.integers(1, 5))
    num = st.floats(-5, 5, allow_nan=False)
    c = data.draw(num)
    q = np.array(data.draw(st.lists(num, min_size=n, max_size=n)))
    mat = np.array(data.draw(st.lists(num, min_size=n * n, max_size=n * n))).reshape(n, n)
    x = np.array(data.draw(point_strategy(n)))
    p = Polynomial.quadratic(n, c, q, mat)
    assert p.evaluate(x) == pytest.approx(c + q @ x + x @ mat @ x, rel=1e-9, abs=1e-9)
    # a non-symmetric matrix sums its pairs
    unit = np.eye(n, dtype=int)
    for i in range(n):
        for j in range(i, n):
            want = mat[i, i] if i == j else mat[i, j] + mat[j, i]
            at = (p.exps == unit[i] + unit[j]).all(axis=1)
            assert p.coefs[at].sum() == want


def test_quadratic_term_order():
    p = Polynomial.quadratic(2, 1.0, [2.0, 3.0], [[4.0, 5.0], [6.0, 7.0]])
    assert p.exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert p.coefs.tolist() == [1.0, 2.0, 3.0, 4.0, 11.0, 7.0]
    assert Polynomial.quadratic(3) == Polynomial.zero(3)


def test_violation_takes_the_worst_residual():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert violation((1.0, -2.0), [x - 1.0], [y + 3.0]) == 0.0
    assert violation((1.0, -2.0), [x - 4.0], [y]) == 3.0
    assert violation((1.0, -2.0), [x], [y]) == 2.0
    assert violation((1.0, -2.0), [], []) == 0.0


def test_arithmetic_rejects_mixed_arity():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dilated_polynomial_is_substitution(data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(poly_strategy(n))
    x = np.array(data.draw(point_strategy(n)))
    s = np.array(data.draw(st.tuples(*[st.floats(0.25, 4.0) for _ in range(n)])))
    lhs = f.dilated(s).evaluate(x)
    rhs = f.evaluate(s * x)
    scale = 1.0 + abs(rhs)
    assert abs(lhs - rhs) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dilated_moments_match_lift_of_scaled_point(data):
    n = data.draw(st.integers(1, 3))
    x = np.array(data.draw(point_strategy(n)))
    s = np.array(data.draw(st.tuples(*[st.floats(0.25, 4.0) for _ in range(n)])))
    two_k = 2 * data.draw(st.integers(1, 3))
    got = lift(x, two_k).dilated(s)
    expect = lift(s * x, two_k)
    scale = 1.0 + float(np.abs(expect.values).max())
    assert np.abs(got.values - expect.values).max() <= 1e-9 * scale
