import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvi import vipsolver as vs
from polyvi.lme import ConstraintSystem
from polyvi.momentsdp import INFEASIBLE, HierarchyOutcome
from polyvi.polycore import Polynomial, violation


def _var(n, i):
    return Polynomial.variable(n, i)


def _const(n, c):
    return Polynomial.constant(n, float(c))


def cut_polynomial(v, F):
    """The cut (v - x) . F(x) of one comparison point v, as the solver builds it."""
    cset = vs.CutSet()
    cset.add(v)
    return cset.polys(F)[0]


def ball_projection_problem(a):
    """F(x) = x - a over the unit ball; the solution is a / |a| when |a| > 1."""
    a = np.asarray(a, dtype=float)
    n = a.size
    F = tuple(_var(n, i) - _const(n, a[i]) for i in range(n))
    g = Polynomial(n, {tuple(0 for _ in range(n)): 1.0})
    for i in range(n):
        e = [0] * n
        e[i] = 2
        g = g - Polynomial(n, {tuple(e): 1.0})
    cs = ConstraintSystem((g,), (), (0,), n)
    return vs.build_problem(F, cs, "ball", name="projection")


def cubic_ncp_problem():
    # F(x) = (x - 1)(x - 2) on x >= 0: solutions {0, 1, 2}
    F = (Polynomial(1, {(2,): 1.0, (1,): -3.0, (0,): 2.0}),)
    cs = ConstraintSystem((_var(1, 0),), (), (0,), 1)
    return vs.build_problem(F, cs, "orthant", name="cubic-ncp")


def test_random_theta_reproducible_and_pd():
    t1 = vs.random_theta(3, seed=11)
    t2 = vs.random_theta(3, seed=11)
    assert t1.poly == t2.poly
    assert np.linalg.eigvalsh(t1.matrix)[0] > 0
    t3 = vs.random_theta(3, seed=12)
    assert t3.poly != t1.poly


def test_theta_poly_matches_matrix_form():
    t = vs.random_theta(4, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-2, 2, 4)
        assert t.poly.evaluate(x) == pytest.approx(t.evaluate(x), rel=1e-12, abs=1e-12)


def test_cutset_rejects_near_duplicates():
    cuts = vs.CutSet()
    v = np.array([0.3, -1.1])
    assert cuts.add(v)
    assert not cuts.add(v + 5e-7)
    assert cuts.add(v + np.array([1e-3, 0.0]))
    assert len(cuts) == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cut_polynomial_matches_inner_product(data):
    n = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    F = []
    for _ in range(n):
        deg = int(rng.integers(0, 3))
        terms = {}
        for _ in range(3):
            e = tuple(int(v) for v in rng.multinomial(deg, np.ones(n) / n))
            terms[e] = terms.get(e, 0.0) + float(rng.standard_normal())
        F.append(Polynomial(n, terms))
    v = rng.uniform(-1, 1, n)
    cut = cut_polynomial(v, tuple(F))
    x = rng.uniform(-2, 2, n)
    fx = np.array([p.evaluate(x) for p in F])
    assert cut.evaluate(x) == pytest.approx(float((v - x) @ fx), rel=1e-10, abs=1e-10)


def test_polish_recovers_projection_solution():
    a = np.array([0.9, 1.2])
    prob = ball_projection_problem(a)
    star = a / np.linalg.norm(a)
    rough = star + np.array([8e-4, -5e-4])
    out = vs.polish_candidate(prob, rough, tol_active=1e-2)
    assert np.max(np.abs(out - star)) <= 1e-9


def test_polish_leaves_interior_points_alone():
    # no constraint active, stationarity unsolvable: safeguards keep the input
    a = np.array([2.0, 0.0])
    prob = ball_projection_problem(a)
    inside = np.array([0.1, 0.2])
    out = vs.polish_candidate(prob, inside, tol_active=1e-4)
    assert np.max(np.abs(out - inside)) <= 1e-2


def test_solve_one_projection():
    a = np.array([0.9, 1.2])
    prob = ball_projection_problem(a)
    res = vs.solve_one(prob)
    assert res.status == vs.SOLUTION
    assert np.max(np.abs(res.point - a / np.linalg.norm(a))) <= 1e-4
    assert abs(res.eps) <= 1e-6
    assert violation(res.point, [], prob.cs.g) <= 1e-6


def test_verify_accepts_solution_and_cuts_imposter():
    a = np.array([0.9, 1.2])
    prob = ball_projection_problem(a)
    star = a / np.linalg.norm(a)
    ver = vs.verify_candidate(prob, star)
    assert ver.status == vs.SOLUTION
    bad = -star
    ver2 = vs.verify_candidate(prob, bad)
    assert ver2.status == "cut"
    assert ver2.eps < -1e-6
    fu = prob.field_at(bad)
    for v in ver2.cut_points:
        # each comparison point witnesses the violation
        assert float((v - bad) @ fu) <= ver2.eps + 1e-5
        # and its cut keeps the true solution feasible
        assert cut_polynomial(v, prob.F).evaluate(star) >= -1e-7


def test_solve_all_enumerates_cubic_ncp():
    prob = cubic_ncp_problem()
    res = vs.solve_all(prob)
    assert res.status == "solutions"
    assert res.complete
    got = sorted(float(s[0]) for s in res.solutions)
    assert np.allclose(got, [0.0, 1.0, 2.0], atol=1e-5)
    assert all(abs(e) <= 1e-6 for e in res.eps)
    assert res.objectives == sorted(res.objectives)


def test_solution_set_is_seed_invariant():
    prob = cubic_ncp_problem()
    sets = []
    for seed in (0, 5):
        res = vs.solve_all(prob, vs.SolverOptions(seed=seed))
        assert res.status == "solutions"
        sets.append(np.array(sorted(float(s[0]) for s in res.solutions)))
    assert sets[0].shape == sets[1].shape
    assert np.max(np.abs(sets[0] - sets[1])) <= 1e-5


def test_empty_solution_set_certified():
    # F = x on the ring 1 <= x^2 <= 2: the zero of F is outside the set and
    # every boundary point fails against the opposite component
    n = 1
    F = (_var(n, 0),)
    g_lo = Polynomial(n, {(2,): 1.0, (0,): -1.0})
    g_hi = Polynomial(n, {(0,): 2.0, (2,): -1.0})
    cs = ConstraintSystem((g_lo, g_hi), (), (0, 1), n)
    prob = vs.build_problem(F, cs, "ring", name="ring-empty")
    res = vs.solve_all(prob)
    assert res.status == vs.NO_SOLUTION
    assert res.complete


def test_find_delta_infeasible_band_is_uncertified(monkeypatch):
    # the band holds x*, so an infeasible band relaxation is numerical; a
    # smaller band is a subset of it, so the gap is left uncertified at once
    prob = ball_projection_problem(np.array([0.9, 1.2]))
    theta = vs.random_theta(prob.n, 0)
    monkeypatch.setattr(vs, "minimize", lambda *args, **kwargs: HierarchyOutcome(INFEASIBLE, 1))
    x_star = np.array([0.6, 0.8])
    _, certified, log = vs.find_delta(prob, theta, vs.CutSet(), x_star, vs.SolverOptions())
    assert not certified
    assert [entry["status"] for entry in log] == [INFEASIBLE]


def test_complete_symmetric_values():
    assert vs.complete_symmetric(0, [3, 7]) == 1
    assert vs.complete_symmetric(2, [1, 2]) == 7
    assert vs.complete_symmetric(3, [1]) == 1
    assert vs.complete_symmetric(2, []) == 0
    with pytest.raises(ValueError):
        vs.complete_symmetric(-1, [1])


def test_algebraic_degree_bound_cases():
    assert vs.algebraic_degree_bound([1, 1], [2]) == 6
    assert vs.algebraic_degree_bound([2, 2], []) == 4
    assert vs.algebraic_degree_bound([1], [1]) == 1
    with pytest.raises(ValueError):
        vs.algebraic_degree_bound([1], [1, 1])
    with pytest.raises(ValueError):
        vs.algebraic_degree_bound([1, 1], [0])


def test_active_subset_bounds_projection():
    prob = ball_projection_problem(np.array([2.0, 0.0]))
    rows, total = vs.active_subset_bounds(prob)
    by_active = {r["active"]: r["bound"] for r in rows}
    assert by_active[()] == 1
    assert by_active[(0,)] == 6
    assert total == 7


def test_duplicate_guard_in_enumeration():
    # single-solution problem: enumeration stops cleanly after one hit
    prob = ball_projection_problem(np.array([0.9, 1.2]))
    res = vs.solve_all(prob)
    assert res.status == "solutions"
    assert len(res.solutions) == 1
    assert res.complete
