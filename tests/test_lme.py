"""Multiplier templates: exact left-inverse checks and KKT assembly."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from polyvi.cli import load_problem
from polyvi.lme import (
    BALL,
    ORTHANT,
    ORTHANT_PRODUCT,
    QUADRIC_LINEAR,
    RING,
    SOC_QUADRIC,
    ConstraintSystem,
    TemplateMismatch,
    UnknownKind,
    build_kkt_sets,
    catalog_lme,
    lambdas,
    lme_from_spec,
    soc_lme,
    template,
    verify_lme,
)
from polyvi.polycore import Polynomial, violation


def var(n, i):
    return Polynomial.variable(n, i)


def const(n, c):
    return Polynomial.constant(n, c)


def sum_sq(n):
    return Polynomial(n, {tuple(2 if j == i else 0 for j in range(n)): 1.0 for i in range(n)})


def orthant_cs(n):
    return ConstraintSystem(tuple(var(n, i) for i in range(n)), (), tuple(range(n)), n)


def ball_cs(n):
    return ConstraintSystem((const(n, 1.0) - sum_sq(n),), (), (0,), n)


def ring_cs(n):
    s = sum_sq(n)
    return ConstraintSystem((s - 1.0, const(n, 2.0) - s), (), (0, 1), n)


def quadric_linear_cs(b_mat):
    n = b_mat.shape[0]
    quad = Polynomial.zero(n)
    for i in range(n):
        for j in range(n):
            if b_mat[i, j]:
                quad = quad + (var(n, i) * var(n, j)).scale(float(b_mat[i, j]))
    lin = var(n, 0)
    for j in range(1, n):
        lin = lin - var(n, j)
    g = [quad - 1.0, lin] + [var(n, i) for i in range(1, n)]
    return ConstraintSystem(tuple(g), (0,), tuple(range(1, n + 1)), n)


def soc_cs(b_mat):
    n = b_mat.shape[0]
    quad = Polynomial.zero(n)
    for i in range(n):
        for j in range(n):
            if b_mat[i, j]:
                quad = quad + (var(n, i) * var(n, j)).scale(float(b_mat[i, j]))
    cone = var(n, n - 1) * var(n, n - 1)
    for i in range(n - 1):
        cone = cone - var(n, i) * var(n, i)
    return ConstraintSystem((quad - 1.0, cone, var(n, n - 1)), (0,), (1, 2), n)


def orthant_product_cs():
    n = 4
    g0 = const(n, 2.0) - Polynomial(n, {(1, 1, 1, 1): 1.0})
    g = (g0,) + tuple(var(n, i) for i in range(n))
    return ConstraintSystem(g, (0,), (1, 2, 3, 4), n)


B_QUAD = np.array(
    [
        [4.0, 0.0, 3.0, -1.0],
        [0.0, 4.0, -1.0, -2.0],
        [3.0, -1.0, 4.0, 0.0],
        [-1.0, -2.0, 0.0, 2.0],
    ]
)


# -- exact left inverses ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_orthant_matrix_exact(n):
    assert verify_lme(catalog_lme(ORTHANT, orthant_cs(n)), orthant_cs(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_ball_matrix_exact(n):
    assert verify_lme(catalog_lme(BALL, ball_cs(n)), ball_cs(n))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_ring_matrix_exact(n):
    assert verify_lme(catalog_lme(RING, ring_cs(n)), ring_cs(n))


def test_quadric_linear_matrix_exact():
    cs = quadric_linear_cs(B_QUAD)
    assert verify_lme(catalog_lme(QUADRIC_LINEAR, cs), cs)


def test_quadric_linear_random_b_exact():
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = rng.integers(-3, 4, size=(3, 3)).astype(float)
        b_mat = raw + raw.T
        cs = quadric_linear_cs(b_mat)
        assert verify_lme(catalog_lme(QUADRIC_LINEAR, cs), cs)


def test_orthant_product_carrier_not_exact():
    cs = orthant_product_cs()
    mat = catalog_lme(ORTHANT_PRODUCT, cs)
    assert verify_lme(mat, cs) is False


def test_verify_rejects_a_matrix_of_another_shape():
    n = 2
    cs = ball_cs(n)
    rows = catalog_lme(BALL, cs)
    assert verify_lme(rows, cs)
    # m rows of n + m entries each, and nothing else
    assert verify_lme(rows + rows, cs) is False
    assert verify_lme((), cs) is False
    assert verify_lme((rows[0][:-1],), cs) is False
    assert verify_lme((rows[0] + (const(n, 0.0),),), cs) is False


def test_orthant_product_lambda_formulas():
    # carrier rows encode lambda_0 = -x.F/8 and lambda_i = F_i - x.F/8
    cs = orthant_product_cs()
    mat = catalog_lme(ORTHANT_PRODUCT, cs)
    n = 4
    rng = np.random.default_rng(3)
    F = tuple(
        Polynomial(n, {(1, 0, 0, 0): float(rng.integers(-3, 4)), (0, 0, 1, 1): 1.0})
        for _ in range(n)
    )
    lams = lambdas(mat, F)
    x = rng.standard_normal(n)
    fx = np.array([f.evaluate(x) for f in F])
    xdotf = float(x @ fx)
    assert lams[0].evaluate(x) == pytest.approx(-xdotf / 8.0, abs=1e-12)
    for i in range(n):
        assert lams[i + 1].evaluate(x) == pytest.approx(fx[i] - xdotf / 8.0, abs=1e-12)


def test_unknown_kind_raises():
    with pytest.raises(UnknownKind):
        catalog_lme("moebius", orthant_cs(2))
    with pytest.raises(UnknownKind, match="choose from orthant, ball, ring"):
        lme_from_spec({"kind": "simplex"}, (var(2, 0), var(2, 1)), orthant_cs(2))


def test_template_mismatch_raises():
    with pytest.raises(TemplateMismatch):
        catalog_lme(BALL, orthant_cs(2))
    n = 2
    bad = ConstraintSystem((const(n, 2.0) - sum_sq(n),), (), (0,), n)
    with pytest.raises(TemplateMismatch):
        catalog_lme(BALL, bad)
    with pytest.raises(TemplateMismatch):
        catalog_lme(ORTHANT, ball_cs(3))


@pytest.mark.parametrize(
    "kind,n",
    [(k, n) for k in (ORTHANT, BALL, RING, QUADRIC_LINEAR, SOC_QUADRIC) for n in range(2, 6)]
    + [(ORTHANT_PRODUCT, 4)],
)
def test_each_template_passes_its_own_check_and_no_edit_of_it(kind, n):
    b_hat = np.random.default_rng(n).standard_normal((n, n))
    cs = template(kind, n, b_hat.T @ b_hat)
    F = tuple(var(n, i) for i in range(n))
    assert len(lme_from_spec({"kind": kind}, F, cs).lambdas) == cs.m
    for i in range(cs.m):
        g = cs.g[:i] + (cs.g[i] + 1.0,) + cs.g[i + 1:]
        edited = ConstraintSystem(g, cs.eq_idx, cs.ineq_idx, n)
        with pytest.raises(TemplateMismatch, match=f"^constraint {i} is not "):
            lme_from_spec({"kind": kind}, F, edited)


def test_orthant_product_template_needs_four_variables():
    with pytest.raises(TemplateMismatch, match="needs n = 4, got n = 3"):
        template(ORTHANT_PRODUCT, 3)


# -- multipliers and KKT systems ----------------------------------------------


def test_projection_multiplier_is_exact():
    # projecting a=(3,0) onto the unit disk: solution (1,0), multiplier 1
    n = 2
    cs = ball_cs(n)
    F = (var(n, 0) - 3.0, var(n, 1))
    mat = catalog_lme(BALL, cs)
    lams = lambdas(mat, F)
    assert lams[0].evaluate((1.0, 0.0)) == pytest.approx(1.0, abs=1e-14)
    sys = build_kkt_sets(F, cs, catalog_set(mat, F))
    assert violation((1.0, 0.0), sys.equations, sys.inequalities) <= 1e-14
    # interior points of the disk that are not solutions violate stationarity
    assert violation((0.2, 0.1), sys.equations, sys.inequalities) > 0.1


def catalog_set(mat, F):
    from polyvi.lme import LmeSet

    return LmeSet(lambdas(mat, F))


def quartic_ncp_field():
    n = 4
    x1, x2, x3, x4 = (var(n, i) for i in range(n))
    F1 = (x1 * x1).scale(3.0) + (x1 * x2).scale(2.0) + (x2 * x2).scale(2.0) + x3 + x4.scale(3.0) - 6.0
    F2 = (x1 * x1).scale(2.0) + x1 + x2 * x2 + x3.scale(10.0) + x4.scale(2.0) - 2.0
    F3 = (x1 * x1).scale(3.0) + x1 * x2 + (x2 * x2).scale(2.0) + x3.scale(2.0) + x4.scale(9.0) - 9.0
    F4 = x1 * x1 + (x2 * x2).scale(3.0) + x3.scale(2.0) + x4.scale(3.0) - 3.0
    return (F1, F2, F3, F4)


def test_known_complementarity_points_have_zero_residual():
    n = 4
    cs = orthant_cs(n)
    F = quartic_ncp_field()
    mat = catalog_lme(ORTHANT, cs)
    sys = build_kkt_sets(F, cs, catalog_set(mat, F))
    u1 = (math.sqrt(6.0) / 2.0, 0.0, 0.0, 0.5)
    u2 = (1.0, 0.0, 3.0, 0.0)
    assert violation(u1, sys.equations, sys.inequalities) <= 1e-8
    assert violation(u2, sys.equations, sys.inequalities) <= 1e-8
    assert violation((1.0, 1.0, 1.0, 1.0), sys.equations, sys.inequalities) > 1e-2


def test_orthant_kkt_structure():
    # stationarity F_t - lambda_t vanishes identically; E keeps only F_i * x_i
    n = 4
    cs = orthant_cs(n)
    F = quartic_ncp_field()
    sys = build_kkt_sets(F, cs, catalog_set(catalog_lme(ORTHANT, cs), F))
    assert len(sys.equations) == n
    assert len(sys.inequalities) == 2 * n
    for i, eq in enumerate(sys.equations):
        assert eq == F[i] * var(n, i)


def test_ring_kkt_consistency():
    # cleared rows must agree with the naive residual at generic points
    n = 3
    cs = ring_cs(n)
    rng = np.random.default_rng(11)
    F = tuple(
        Polynomial(
            n,
            {
                tuple(1 if j == i else 0 for j in range(n)): float(rng.integers(-2, 3)),
                (0,) * n: float(rng.integers(-2, 3)),
            },
        )
        for i in range(n)
    )
    mat = catalog_lme(RING, cs)
    lams = lambdas(mat, F)
    sys = build_kkt_sets(F, cs, catalog_set(mat, F))
    grads = [g.gradient() for g in cs.g]
    for _ in range(20):
        x = rng.standard_normal(n)
        for t in range(n):
            want = F[t].evaluate(x) - sum(
                lams[i].evaluate(x) * grads[i][t].evaluate(x) for i in range(2)
            )
            assert sys.equations[t].evaluate(x) == pytest.approx(want, abs=1e-9)


def test_soc_rational_clearing():
    cs = soc_cs(B_QUAD)
    n = 4
    a_mat = np.array(
        [
            [-8.0, -4.0, 8.0, -6.0],
            [-8.0, -4.0, 4.0, -9.0],
            [-7.0, -6.0, 1.0, 9.0],
            [-6.0, -5.0, -7.0, 4.0],
        ]
    )
    F = tuple(
        Polynomial(
            n,
            {
                tuple(1 if j == k else 0 for j in range(n)): float(a_mat[i, k])
                for k in range(n)
                if a_mat[i, k]
            },
        )
        for i in range(n)
    )
    lam = soc_lme(F, cs)
    assert lam.denoms[0] is None
    assert lam.denoms[1] == Polynomial(n, {(0, 0, 0, 1): 2.0})
    sys = build_kkt_sets(F, cs, lam)
    # the x4 stationarity row vanishes identically (the multiplier is defined
    # by solving it), leaving 3 cleared rows + complementarity + the equality
    assert len(sys.equations) == (n - 1) + 1 + 1
    grads = [g.gradient() for g in cs.g]
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(n)
        q1 = 2.0 * x[3]
        lam0 = lam.lambdas[0].evaluate(x)
        p1 = lam.lambdas[1].evaluate(x)
        for t in range(n - 1):
            resid = (
                F[t].evaluate(x)
                - lam0 * grads[0][t].evaluate(x)
                - (p1 / q1) * grads[1][t].evaluate(x)
            )
            assert sys.equations[t].evaluate(x) == pytest.approx(q1 * resid, rel=1e-9, abs=1e-9)
        last = (
            F[3].evaluate(x)
            - lam0 * grads[0][3].evaluate(x)
            - (p1 / q1) * grads[1][3].evaluate(x)
        )
        assert last == pytest.approx(0.0, abs=1e-8)
    # sign conditions use the numerator
    assert sys.inequalities[0] == lam.lambdas[1]


def test_orthant_product_rewrite_rows():
    cs = orthant_product_cs()
    n = 4
    rng = np.random.default_rng(9)
    F = tuple(
        Polynomial(n, {tuple(rng.integers(0, 2, size=n)): 1.0, (0,) * n: -1.0})
        for _ in range(n)
    )
    mat = catalog_lme(ORTHANT_PRODUCT, cs)
    lams = lambdas(mat, F)
    from polyvi.lme import LmeSet

    sys = build_kkt_sets(F, cs, LmeSet(lams, None, "orthant_product"))
    # rewrite rows lambda_0 (2 - x_t), then complementarity, then the equality
    for t in range(n):
        assert sys.equations[t] == lams[0] * (const(n, 2.0) - var(n, t))
    assert len(sys.equations) == n + n + 1
    assert len(sys.inequalities) == 2 * n


def test_quadric_linear_multipliers_match_closed_form():
    cs = quadric_linear_cs(B_QUAD)
    n = 4
    rng = np.random.default_rng(13)
    F = tuple(
        Polynomial(n, {tuple(1 if j == i else 0 for j in range(n)): 2.0, (0,) * n: -1.0})
        for i in range(n)
    )
    mat = catalog_lme(QUADRIC_LINEAR, cs)
    lams = lambdas(mat, F)
    for _ in range(10):
        x = rng.standard_normal(n)
        fx = np.array([f.evaluate(x) for f in F])
        bx = B_QUAD @ x
        lam0 = float(x @ fx) / 2.0
        lam1 = fx[0] - 2.0 * lam0 * bx[0]
        assert lams[0].evaluate(x) == pytest.approx(lam0, rel=1e-12, abs=1e-12)
        assert lams[1].evaluate(x) == pytest.approx(lam1, rel=1e-12, abs=1e-12)
        for i in range(2, n + 1):
            want = fx[i - 1] - 2.0 * lam0 * bx[i - 1] + lam1
            assert lams[i].evaluate(x) == pytest.approx(want, rel=1e-11, abs=1e-10)


def test_equal_denominators_from_separate_entries_are_cleared_once():
    # the ring's multipliers written as (q lambda_i) / q, q = 1 + x1^2 given as
    # two separate JSON entries, so the two denominators are equal but are not
    # one object; both constraints are active in every stationarity row, and
    # q clears once: row t is q F_t - sum_i (q lambda_i) d_t g_i
    n = 2
    cs = ring_cs(n)
    F = (var(n, 0) - 3.0, var(n, 0) + var(n, 1))
    q = const(n, 1.0) + var(n, 0) * var(n, 0)
    nums = tuple(q * lam for lam in lambdas(catalog_lme(RING, cs), F))
    spec = json.loads(json.dumps(
        {"lambdas": [p.to_json() for p in nums], "denoms": [q.to_json(), q.to_json()]}
    ))
    lam = lme_from_spec(spec, F, cs)
    assert lam.denoms[0] == lam.denoms[1] and lam.denoms[0] is not lam.denoms[1]
    sys = build_kkt_sets(F, cs, lam)
    grads = [g.gradient() for g in cs.g]
    rows = tuple(q * F[t] - nums[0] * grads[0][t] - nums[1] * grads[1][t] for t in range(n))
    assert sys.equations == rows + (nums[0] * cs.g[0], nums[1] * cs.g[1])
    assert sys.inequalities == nums + cs.g


# -- recipes: the multipliers a problem file's lme object names ---------------


def test_recipe_kind_roundtrip():
    cs = orthant_cs(3)
    F = tuple(var(3, i) - 1.0 for i in range(3))
    lam = lme_from_spec({"kind": "orthant"}, F, cs)
    assert lam.lambdas[1] == F[1]
    assert lam.denoms is None and lam.rewrite is None


def test_recipe_soc_kind():
    cs = soc_cs(B_QUAD)
    F = tuple(var(4, i) for i in range(4))
    lam = lme_from_spec({"kind": "soc_quadric"}, F, cs)
    assert lam.denoms[1] is not None
    # x_4 > 0 on the set, so the multiplier of x_4 >= 0 is zero
    assert lam.lambdas[2].is_zero and lam.denoms[2] is None


def test_soc_kind_needs_the_upper_nappe():
    # both nappes of the cone: the denominator 2 x_n would change sign on K
    cs = soc_cs(B_QUAD)
    both = ConstraintSystem(cs.g[:2], (0,), (1,), 4)
    with pytest.raises(TemplateMismatch, match=r"needs the 3 constraints .*, \+1\*x4 >= 0; got 2"):
        lme_from_spec({"kind": "soc_quadric"}, tuple(var(4, i) for i in range(4)), both)
    flipped = ConstraintSystem(cs.g[:2] + (const(4, 0.0) - var(4, 3),), (0,), (1, 2), 4)
    with pytest.raises(TemplateMismatch, match=r"^constraint 2 is not \+1\*x4$"):
        lme_from_spec({"kind": "soc_quadric"}, tuple(var(4, i) for i in range(4)), flipped)


def test_recipe_explicit_lambdas():
    cs = ball_cs(2)
    lam_json = [{"coef": -0.5, "exp": [2, 0]}, {"coef": -0.5, "exp": [0, 2]}]
    lam = lme_from_spec({"lambdas": [lam_json]}, tuple(var(2, i) for i in range(2)), cs)
    assert lam.lambdas[0].evaluate((1.0, 1.0)) == pytest.approx(-1.0)


def test_recipe_matrix_rejects_inexact():
    cs = ball_cs(2)
    bad_rows = [[p.to_json() for p in (var(2, 0), var(2, 1), const(2, 1.0))]]
    with pytest.raises(TemplateMismatch):
        lme_from_spec({"L": bad_rows}, (var(2, 0), var(2, 1)), cs)


def test_recipe_matrix_accepts_catalog_rows():
    cs = ball_cs(2)
    mat = catalog_lme(BALL, cs)
    rows = [[p.to_json() for p in row] for row in mat]
    F = (var(2, 0) - 3.0, var(2, 1))
    lam = lme_from_spec({"L": rows}, F, cs)
    assert lam.lambdas[0].evaluate((1.0, 0.0)) == pytest.approx(1.0, abs=1e-14)


# -- pinned output --------------------------------------------------------------
#
# The KKT system of every fixture and the catalog's L rows, byte for byte.
# Replacing the orthant_with_product carrier by its exact left inverse
# (ROADMAP item 15) must change exactly the ncp_product_infeasible and
# orthant_with_product digests, and nothing else here.

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _digest(*groups) -> str:
    """sha256 over each group's length and, for each of its polynomials, the
    term count and the bytes of the exponents and coefficients."""
    h = hashlib.sha256()
    for group in groups:
        h.update(np.int64(len(group)).tobytes())
        for p in group:
            h.update(np.int64(len(p.coefs)).tobytes())
            h.update(p.exps.tobytes())
            h.update(p.coefs.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "name,digest",
    [
        ("capital_stock", "a173ed7c5e60a11a5fbecdab147174d26597e331bdc0ab71520e1e06a8cfccea"),
        ("eig_linear_cone", "bc556fbd3ffcfd2e5acc88b85e5f9be681607325924e6a3bd61395a35cca3a29"),
        ("eig_soc", "7d0433579bcf057e441132775915fde52908e428843b9285b71c14a95c658626"),
        ("gnep_shared_ball", "a95c7af2c1427125871ddcb64a43afea51d56ef0890978d55140233cda1d9443"),
        (
            "ncp_product_infeasible",
            "34f9d84f74b1b519cdd883fd8d7e0024b679199adf0df46b84294789484aedf1",
        ),
        ("ncp_quartic", "ac5ddf35e0c6267b55675db7db56bffab30969db7da3f66632de4d0e8cba19ee"),
        ("ring_empty", "e6a6898c0bdb8a8202358877dd6b8ec55f242cf98dcd9929b1835e72dcd91373"),
        (
            "ring_four_solutions",
            "ca19564c1748d0d2395299591d8eeba33cae18468bc644fe03b622a489dfdc80",
        ),
    ],
)
def test_fixture_kkt_system_is_pinned(name, digest):
    problem, _ = load_problem(os.path.join(FIXTURES, f"{name}.json"))
    assert _digest(problem.kkt.equations, problem.kkt.inequalities) == digest


@pytest.mark.parametrize(
    "kind,dims,digest",
    [
        (ORTHANT, range(2, 6), "bacf859477024c521c5aabf553ab5b9f4e84345711a3681a5dc9f73f9aca4b27"),
        (BALL, range(2, 6), "1e4faea0c2399f8663839034720f76d8f2cbc82725c0003d866c9ce903171cfe"),
        (RING, range(2, 6), "a7f3343965a8672869b73cbf3e7d01a0d29c02228527ef9b97ea2a70c77a3796"),
        (
            QUADRIC_LINEAR,
            range(2, 6),
            "9b291cbf0f6e1e8e9256955535ece4c6f0fa3ef72c77f3b2bc7b8bba55eaa352",
        ),
        (ORTHANT_PRODUCT, (4,), "53f5d77b3796d01dd14265c0cbec446b1f3bb73ff859bdf818cf407e16c77b40"),
    ],
)
def test_catalog_rows_are_pinned(kind, dims, digest):
    rows = []
    for n in dims:
        # B = b + b^T needs no BLAS, so its bits do not depend on the library
        b = np.random.default_rng(n).standard_normal((n, n))
        rows += catalog_lme(kind, template(kind, n, b + b.T))
    assert _digest(*rows) == digest
