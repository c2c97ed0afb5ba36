import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_polycore import exp_strategy

from polyvi import momentsdp as ms
from polyvi import sdpbackend as sb
from polyvi.polycore import Polynomial, basis, lift


def poly1(terms):
    return Polynomial(1, terms)


def test_localizing_template_interval():
    # q = 1 - x^2 at order 1 in one variable: a single entry y_0 - y_2
    q = poly1({(0,): 1.0, (2,): -1.0})
    blk = ms.localizing_block(q, 1, 1)
    assert blk.size == 1
    assert list(blk.rows) == [0, 0] and list(blk.cols) == [0, 0]
    # moments y_0 and y_2 in basis(1, 2) = (1, x, x^2)
    assert dict(zip(blk.var_idx.tolist(), blk.vals.tolist())) == {0: 1.0, 2: -1.0}
    y = lift((0.5,), 2)
    assert blk.evaluate(y) == pytest.approx(np.array([[0.75]]))


def test_moment_matrix_at_dirac():
    y = lift((2.0,), 2)
    mat = ms.moment_matrix(y, 1, 1)
    assert mat == pytest.approx(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_moment_matrix_leading_blocks_are_lower_orders():
    # basis(n, t) is a prefix of basis(n, k), so M_t is bitwise M_k's leading block
    rng = np.random.default_rng(4)
    y = rng.standard_normal(len(basis(2, 6)))
    mk = ms.moment_matrix(y, 2, 3)
    for t in range(4):
        size = len(basis(2, t))
        assert np.array_equal(mk[:size, :size], ms.moment_matrix(y, 2, t))


def test_template_identity_at_lifts():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        deg = int(rng.integers(1, 4))
        exps = [tuple(e) for e in basis(n, deg).tolist()]
        take = rng.choice(len(exps), size=min(4, len(exps)), replace=False)
        q = Polynomial(n, {exps[i]: float(rng.standard_normal()) for i in take})
        if q.is_zero:
            continue
        k = (q.degree + 1) // 2 + int(rng.integers(0, 2))
        blk = ms.localizing_block(q, k, n)
        x = rng.uniform(-1.5, 1.5, n)
        y = lift(x, 2 * k)
        got = blk.evaluate(y)
        v = np.prod(np.power(x[None, :], basis(n, k - (q.degree + 1) // 2)), axis=1)
        expect = q.evaluate(x) * np.outer(v, v)
        scale = max(1.0, float(np.abs(expect).max()))
        assert np.abs(got - expect).max() <= 1e-12 * scale


def _random_poly(rng, n, deg, terms=4):
    exps = [tuple(e) for e in basis(n, deg).tolist()]
    take = rng.choice(len(exps), size=min(terms, len(exps)), replace=False)
    return Polynomial(n, {exps[i]: float(rng.standard_normal()) for i in take})


def test_relaxation_matches_direct_evaluation():
    # at the lift of a point every row and block must equal its polynomial
    # evaluated there: the index maps agree with plain exponent arithmetic
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        degs = rng.integers(1, 4, size=4)
        # a zero objective arises when verifying a point where F vanishes
        theta = _random_poly(rng, n, int(degs[0])) if trial % 5 else Polynomial.zero(n)
        phi = (_random_poly(rng, n, int(degs[1])),)
        psi = tuple(q for q in (_random_poly(rng, n, int(d)) for d in degs[2:]) if q.degree)
        prog = ms.PolyProgram(theta, phi, psi, n)
        k = prog.d0 + int(rng.integers(0, 2))
        rel = ms.build_relaxation(prog, k)
        x = rng.uniform(-1.5, 1.5, n)
        y = lift(x, 2 * k)

        def close(got, expect):
            scale = max(1.0, float(np.abs(expect).max()))
            return np.abs(got - expect).max() <= 1e-12 * scale

        assert close(rel.c @ y, theta.evaluate(x))
        expect_rows = [(1.0, 1.0)]
        for p in phi:
            t_p = k - (p.degree + 1) // 2
            for delta in basis(n, 2 * t_p):
                expect_rows.append((p.evaluate(x) * np.prod(x ** np.array(delta)), 0.0))
        assert len(rel.eq_rows) == len(expect_rows)
        for row, rhs, (value, expect_rhs) in zip(rel.eq_rows, rel.eq_rhs, expect_rows):
            assert rhs == expect_rhs
            assert close(row @ y, value)
        assert len(rel.blocks) == 1 + len(psi)
        for blk, q in zip(rel.blocks, (Polynomial.constant(n, 1.0),) + psi):
            v = lift(x, k - (q.degree + 1) // 2)
            assert close(blk.evaluate(y), q.evaluate(x) * np.outer(v, v))
        for t in range(k + 1):
            v = lift(x, t)
            assert close(ms.moment_matrix(y, n, t), np.outer(v, v))


def test_build_relaxation_rejects_low_order():
    theta = poly1({(4,): 1.0})
    prog = ms.PolyProgram(theta, (), (), 1)
    assert prog.d0 == 2
    with pytest.raises(ValueError):
        ms.build_relaxation(prog, 1)


def test_negative_constant_inequality_is_an_order_zero_block():
    # x >= 0 and -1 >= 0: the constant is the 1x1 block [-y_0]
    x, minus_one = poly1({(1,): 1.0}), poly1({(0,): -1.0})
    relaxation = ms.build_relaxation(ms.PolyProgram(x, (), (x, minus_one), 1), 1)
    assert [blk.size for blk in relaxation.blocks] == [2, 1, 1]
    last = relaxation.blocks[-1]
    assert [tuple(a.tolist()) for a in (last.var_idx, last.rows, last.cols, last.vals)] == [
        (0,), (0,), (0,), (-1.0,)
    ]


def test_positive_constant_inequality_adds_no_block():
    x = poly1({(1,): 1.0})
    relaxation = ms.build_relaxation(ms.PolyProgram(x, (), (x, poly1({(0,): 2.0})), 1), 1)
    assert [blk.size for blk in relaxation.blocks] == [2, 1]


def test_minimize_certifies_a_negative_constant_infeasible(sdp_solves):
    x = poly1({(1,): 1.0})
    out = ms.minimize(ms.PolyProgram(x, (), (x, poly1({(0,): -1.0})), 1))
    assert out.status == ms.INFEASIBLE and out.order == 1
    [(_, res)] = sdp_solves
    assert res.exit == "certificate" and "relaxed" not in res.residuals


def test_minimize_interval():
    # min -x over [-1, 1]: value -1 at x = 1
    theta = poly1({(1,): -1.0})
    ball = poly1({(0,): 1.0, (2,): -1.0})
    prog = ms.PolyProgram(theta, (), (ball,), 1)
    out = ms.minimize(prog)
    assert out.status == ms.MINIMIZERS
    assert out.value == pytest.approx(-1.0, abs=1e-6)
    assert len(out.points) >= 1
    assert out.points[0][0] == pytest.approx(1.0, abs=1e-5)


def test_minimize_returns_extracted_atoms(monkeypatch):
    # min -x^2 over [-1, 1]: the degree-one moment is 0, so the point check
    # fails, and at order 2 the moment matrix is flat with the atoms -1 and 1
    calls = []
    original = ms.moment_matrix

    def counting(y, n, t):
        calls.append(t)
        return original(y, n, t)

    monkeypatch.setattr(ms, "moment_matrix", counting)
    theta = poly1({(2,): -1.0})
    ball = poly1({(0,): 1.0, (2,): -1.0})
    out = ms.minimize(ms.PolyProgram(theta, (), (ball,), 1))
    assert out.status == ms.MINIMIZERS
    assert out.order == 2
    assert sorted(float(u[0]) for u in out.points) == pytest.approx([-1.0, 1.0], abs=1e-6)
    # one moment matrix per optimal solve, at the solve's order
    assert calls == [1, 2]


@pytest.mark.parametrize("psi", [(), (poly1({(0,): 4.0, (4,): -1.0}),)])
def test_minimize_extracts_two_minimizers_at_the_first_order(psi):
    # min (x^2 - 1)^2, free or with 4 - x^4 >= 0: the minimizers are -1 and 1,
    # so the degree-one moment is 0 and the point check fails; M_2 is flat
    # over M_1 (rank 2), and both atoms come out at the first order solved
    x = poly1({(1,): 1.0})
    theta = (x * x - 1.0) * (x * x - 1.0)
    prog = ms.PolyProgram(theta, (), psi, 1)
    out = ms.minimize(prog)
    assert out.status == ms.MINIMIZERS
    assert out.order == prog.d0 == 2
    assert sorted(float(u[0]) for u in out.points) == pytest.approx([-1.0, 1.0], abs=1e-4)


def test_point_check_builds_no_moment_matrix(monkeypatch):
    def refuse(y, n, t):
        raise AssertionError("moment matrix built although the point check passed")

    monkeypatch.setattr(ms, "moment_matrix", refuse)
    theta = poly1({(1,): -1.0})
    ball = poly1({(0,): 1.0, (2,): -1.0})
    out = ms.minimize(ms.PolyProgram(theta, (), (ball,), 1))
    assert out.status == ms.MINIMIZERS


def test_minimize_inconclusive_keeps_the_largest_bound(monkeypatch):
    # min -x^2 over [-1, 1] with extraction made to fail: the degree-one
    # moment is 0, so neither order certifies anything
    solves, extractions = [], []
    original = sb.solve

    def recording(problem):
        solves.append(original(problem))
        return solves[-1]

    def failing(*args, **kwargs):
        extractions.append(args)
        raise ms.ExtractionFailed("made to fail")

    monkeypatch.setattr(sb, "solve", recording)
    monkeypatch.setattr(ms, "extract_minimizers", failing)
    theta = poly1({(2,): -1.0})
    ball = poly1({(0,): 1.0, (2,): -1.0})
    prog = ms.PolyProgram(theta, (), (ball,), 1)
    out = ms.minimize(prog, k_max_extra=1)
    assert extractions
    assert [r.status for r in solves] == [sb.OPTIMAL, sb.OPTIMAL]
    assert out.status == ms.INCONCLUSIVE
    assert out.order == prog.d0 + 1
    assert out.value == max(r.objective for r in solves)
    assert out.accuracy == solves[-1].accuracy
    assert out.trusted == (not solves[-1].residuals.get("relaxed", False))
    assert out.points == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dilating_by_ones_changes_no_bit(data):
    # minimize solves every order on a dilated program, the first on ones
    n = data.draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    polys = st.dictionaries(exp_strategy(n), finite, max_size=6).map(lambda t: Polynomial(n, t))
    ones = np.ones(n)
    theta = data.draw(polys)
    assert theta.dilated(ones) == theta
    phi, psi = (tuple(data.draw(st.lists(polys, max_size=2))) for _ in range(2))
    prog = ms.PolyProgram(theta, phi, psi, n)
    assert ms.dilate_program(prog, ones) == prog
    size = len(basis(n, 4))
    values = np.array(data.draw(st.lists(st.floats(allow_nan=False), min_size=size, max_size=size)))
    assert (values * lift(ones, 4)).tobytes() == values.tobytes()


def test_minimize_detects_empty_set():
    # -1 - x^2 >= 0 has no real points
    theta = poly1({(1,): 1.0})
    q = poly1({(0,): -1.0, (2,): -1.0})
    prog = ms.PolyProgram(theta, (), (q,), 1)
    out = ms.minimize(prog)
    assert out.status == ms.INFEASIBLE
    assert out.order == 1


def test_minimize_with_equality():
    # min x2 on the circle x1^2 + x2^2 = 1: value -1 at (0, -1)
    theta = Polynomial(2, {(0, 1): 1.0})
    circle = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    prog = ms.PolyProgram(theta, (circle,), (), 2)
    out = ms.minimize(prog)
    assert out.status == ms.MINIMIZERS
    assert out.value == pytest.approx(-1.0, abs=1e-6)
    u = out.points[0]
    assert u == pytest.approx(np.array([0.0, -1.0]), abs=1e-4)


def test_flat_truncation_two_atoms():
    # moments of (delta_0 + delta_1)/2 in one variable
    y_vals = 0.5 * (lift((0.0,), 4) + lift((1.0,), 4))
    mk = ms.moment_matrix(y_vals, 1, 2)
    r = ms.flat_truncation(mk, 1, 2)
    assert r == 2
    atoms = ms.extract_minimizers(mk, 1, 2, r)
    got = sorted(float(a[0]) for a in atoms)
    assert got == pytest.approx([0.0, 1.0], abs=1e-8)


def test_flat_truncation_not_flat():
    # moments of a 3-atom measure have rank 3 at t=2 but rank 2 at t=1
    pts = [(-0.7,), (0.1,), (0.8,)]
    y_vals = sum(lift(p, 4) for p in pts) / 3.0
    mk = ms.moment_matrix(y_vals, 1, 2)
    assert ms.flat_truncation(mk, 1, 2) is None


def test_extraction_round_trip():
    rng = np.random.default_rng(11)
    cases = 0
    while cases < 10:
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, 4))
        atoms = rng.uniform(-1.0, 1.0, (r, n))
        ones = np.column_stack([np.ones(r), atoms])
        if np.linalg.matrix_rank(ones, tol=0.1) < r:
            continue
        w = rng.uniform(0.2, 1.0, r)
        w /= w.sum()
        y_vals = sum(wi * lift(a, 4) for wi, a in zip(w, atoms))
        mk = ms.moment_matrix(y_vals, n, 2)
        rank = ms.flat_truncation(mk, n, 2)
        if rank != r:
            continue
        got = ms.extract_minimizers(mk, n, 2, rank)
        assert len(got) == r
        for a in atoms:
            assert min(np.linalg.norm(a - g) for g in got) <= 1e-6
        cases += 1


def test_extraction_failure_raises():
    # a moment vector that is not a measure's: rank-2 flat pattern faked to
    # look flat but inconsistent shifts
    y_vals = lift((0.5,), 4)
    y_vals[3] += 0.2  # corrupt y_3
    mk = ms.moment_matrix(y_vals, 1, 2)
    with pytest.raises(ms.ExtractionFailed):
        ms.extract_minimizers(mk, 1, 2, 1)


def test_hierarchy_monotone_and_bounded_by_feasible():
    rng = np.random.default_rng(5)
    n = 3
    ball = Polynomial(n, {tuple([0] * n): 1.0, **{
        tuple(2 if j == i else 0 for j in range(n)): -1.0 for i in range(n)
    }})
    for _ in range(5):
        terms = {}
        for e in basis(n, 2).tolist():
            terms[tuple(e)] = float(rng.standard_normal())
        theta = Polynomial(n, terms)
        prog = ms.PolyProgram(theta, (), (ball,), n)
        r1 = sb.solve(ms.build_relaxation(prog, 1))
        r2 = sb.solve(ms.build_relaxation(prog, 2))
        assert r1.status == sb.OPTIMAL and r2.status == sb.OPTIMAL
        assert r1.objective <= r2.objective + 1e-6
        for _ in range(20):
            x = rng.standard_normal(n)
            x *= rng.random() ** (1 / n) / np.linalg.norm(x)
            assert r2.objective <= theta.evaluate(x) + 1e-6


def test_bound_stop_short_circuits():
    theta = poly1({(2,): 1.0})
    ball = poly1({(0,): 1.0, (2,): -1.0})
    prog = ms.PolyProgram(theta, (), (ball,), 1)
    out = ms.minimize(prog, floor=-1e-6)
    assert out.status == ms.BOUND_REACHED
    assert out.value >= -1e-6


def test_dilated_program_keeps_relaxation_bound():
    # change of variables x = s z is exact: order-k bounds must agree
    n = 2
    x1 = Polynomial.variable(n, 0)
    x2 = Polynomial.variable(n, 1)
    prod_term = x1 * x2 - Polynomial.constant(n, 0.25)
    theta = prod_term * prod_term + x1.scale(0.5)
    circle = x1 * x1 + x2 * x2 - Polynomial.constant(n, 1.0)
    prog = ms.PolyProgram(theta, (circle,), (x1,), n)
    plain = sb.solve(ms.build_relaxation(prog, 2))
    scaled_prog = ms.dilate_program(prog, np.array([3.0, 0.4]))
    scaled = sb.solve(ms.build_relaxation(scaled_prog, 2))
    assert plain.status == sb.OPTIMAL and scaled.status == sb.OPTIMAL
    tol = 1e-6 * max(1.0, abs(plain.objective)) + 10 * (plain.accuracy + scaled.accuracy)
    assert abs(plain.objective - scaled.objective) <= tol
