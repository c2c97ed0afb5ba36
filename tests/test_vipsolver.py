import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvi import vipsolver as vs
from polyvi.lme import ConstraintSystem
from polyvi.momentsdp import (
    BOUND_REACHED,
    INCONCLUSIVE,
    INFEASIBLE,
    MINIMIZERS,
    HierarchyOutcome,
)
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
    return vs.build_problem(F, cs, "ball")


def cubic_ncp_problem():
    # F(x) = (x - 1)(x - 2) on x >= 0: solutions {0, 1, 2}
    F = (Polynomial(1, {(2,): 1.0, (1,): -3.0, (0,): 2.0}),)
    cs = ConstraintSystem((_var(1, 0),), (), (0,), 1)
    return vs.build_problem(F, cs, "orthant")


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
    (point,) = res.solutions
    assert np.max(np.abs(point - a / np.linalg.norm(a))) <= 1e-4
    assert abs(res.eps[0]) <= 1e-6
    assert violation(point, [], prob.cs.g) <= 1e-6


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


def test_verify_keeps_no_cut_point_that_cuts_nothing(monkeypatch):
    # the relaxation reports a bound below -EPS_TOL, but its one minimizer is
    # the solution u itself, where (v - u) . F(u) = 0: a cut through u
    # excludes nothing, so the verdict is inconclusive, not a cut
    prob = ball_projection_problem(np.array([0.9, 1.2]))
    star = np.array([0.6, 0.8])
    monkeypatch.setattr(
        vs, "minimize",
        lambda *args, **kwargs: HierarchyOutcome(MINIMIZERS, 1, -1e-3, [star.copy()]),
    )
    ver = vs.verify_candidate(prob, star)
    assert ver.status == vs.INCONCLUSIVE_RUN
    assert ver.cut_points == []


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
    prob = vs.build_problem(F, cs, "ring")
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
    log = []
    _, certified = vs.find_delta(prob, theta, vs.CutSet(), x_star, vs.SolverOptions(), log)
    assert not certified
    assert [entry["status"] for entry in log] == [INFEASIBLE]


def _band_run(monkeypatch, bands, verdict):
    """find_delta on the projection problem with scripted band solves.

    `bands(k, theta_star, far)` gives the k-th band's outcome for k = 0, 1, ...;
    far is a point well above x* in theta.  `verdict(k)` gives the k-th
    verification's result.  Polishing is the identity.  Returns the result,
    the log, the cuts, the inequality count of each band program and the
    number of verifications.
    """
    prob = ball_projection_problem(np.array([0.9, 1.2]))
    theta = vs.random_theta(prob.n, 0)
    x_star = np.array([0.6, 0.8])
    theta_star = theta.evaluate(x_star)
    far = x_star + 10.0
    assert theta.evaluate(far) > theta_star + 1.0
    band_ineqs, verified = [], []

    def fake_minimize(prog, *args, **kwargs):
        band_ineqs.append(len(prog.psi))
        return bands(len(band_ineqs) - 1, theta_star, far)

    def fake_verify(problem, u, opts=None):
        verified.append(u)
        return verdict(len(verified) - 1)

    monkeypatch.setattr(vs, "minimize", fake_minimize)
    monkeypatch.setattr(vs, "verify_candidate", fake_verify)
    monkeypatch.setattr(vs, "polish_candidate", lambda problem, u, tol: np.asarray(u, float))
    cuts, log = vs.CutSet(), []
    result = vs.find_delta(prob, theta, cuts, x_star, vs.SolverOptions(), log)
    return result, log, cuts, band_ineqs, len(verified)


def _entries(log):
    return [(e["phase"], e["loop"], e["status"]) for e in log]


def test_find_delta_cuts_a_band_maximizer_and_retries_the_same_delta(monkeypatch):
    def bands(k, theta_star, far):
        if k == 0:
            return HierarchyOutcome(MINIMIZERS, 2, -(theta_star + 5.0), [far])
        return HierarchyOutcome(BOUND_REACHED, 2, -theta_star)

    cut = vs.VerifyResult(vs.CUT, -1.0, [np.array([-0.6, -0.8])], via="points")
    (delta, certified), log, cuts, band_ineqs, n_verified = _band_run(
        monkeypatch, bands, lambda k: cut
    )
    assert (delta, certified) == (vs.DELTA0, True)
    assert len(cuts) == 1 and n_verified == 1
    # the second band carries the new cut
    assert band_ineqs[1] == band_ineqs[0] + 1
    assert _entries(log) == [
        ("delta", 0, MINIMIZERS),
        ("verify", 0, vs.CUT),
        ("delta", 1, BOUND_REACHED),
    ]
    assert [e["delta"] for e in log if e["phase"] == "delta"] == [vs.DELTA0, vs.DELTA0]
    assert all(isinstance(e["time"], float) for e in log)


def test_find_delta_shrinks_when_a_band_maximizer_is_a_solution(monkeypatch):
    def bands(k, theta_star, far):
        if k == 0:
            return HierarchyOutcome(MINIMIZERS, 2, -(theta_star + 5.0), [far])
        return HierarchyOutcome(BOUND_REACHED, 2, -theta_star)

    solution = vs.VerifyResult(vs.SOLUTION, 0.0, via="bound")
    (delta, certified), log, cuts, _, n_verified = _band_run(
        monkeypatch, bands, lambda k: solution
    )
    assert (delta, certified) == (vs.DELTA0 * vs.RHO, True)
    assert len(cuts) == 0 and n_verified == 1
    assert _entries(log) == [
        ("delta", 0, MINIMIZERS),
        ("verify", 0, vs.SOLUTION),
        ("delta", 1, BOUND_REACHED),
    ]


def test_find_delta_does_not_verify_a_maximizer_at_theta_star(monkeypatch):
    # gamma is above theta*, but the extracted point is x* itself
    def bands(k, theta_star, far):
        if k == 0:
            return HierarchyOutcome(MINIMIZERS, 2, -(theta_star + 5.0), [np.array([0.6, 0.8])])
        return HierarchyOutcome(BOUND_REACHED, 2, -theta_star)

    def verdict(k):
        raise AssertionError("x* was verified")

    (delta, certified), log, _, _, n_verified = _band_run(monkeypatch, bands, verdict)
    assert (delta, certified) == (vs.DELTA0 * vs.RHO, True)
    assert n_verified == 0
    assert _entries(log) == [("delta", 0, MINIMIZERS), ("delta", 1, BOUND_REACHED)]


def test_find_delta_fresh_cuts_cannot_exceed_the_band_budget(monkeypatch):
    def bands(k, theta_star, far):
        return HierarchyOutcome(MINIMIZERS, 2, -(theta_star + 5.0), [far])

    def verdict(k):
        return vs.VerifyResult(vs.CUT, -1.0, [np.array([-0.6, -0.8]) * (1.0 + k)], via="points")

    (delta, certified), log, cuts, band_ineqs, n_verified = _band_run(
        monkeypatch, bands, verdict
    )
    assert not certified
    assert delta == vs.DELTA0
    assert len(band_ineqs) == vs.MAX_SHRINKS + 1
    assert len(cuts) == n_verified == vs.MAX_SHRINKS + 1


def _search_run(monkeypatch, searches, verdict, cuts=None):
    """_solve_loop on the projection problem with scripted searches.

    `searches(k)` gives the k-th search's outcome and `verdict(k)` the k-th
    verification's result; polishing is the identity.  Returns the outcome,
    the log and the points verified.
    """
    prob = ball_projection_problem(np.array([0.9, 1.2]))
    theta = vs.random_theta(prob.n, 0)
    n_searched, verified = [], []

    def fake_find(*args, **kwargs):
        n_searched.append(1)
        return searches(len(n_searched) - 1)

    def fake_verify(problem, u, opts=None):
        verified.append(u)
        return verdict(len(verified) - 1)

    monkeypatch.setattr(vs, "find_candidate", fake_find)
    monkeypatch.setattr(vs, "verify_candidate", fake_verify)
    monkeypatch.setattr(vs, "polish_candidate", lambda problem, u, tol: np.asarray(u, float))
    log = []
    cuts = vs.CutSet() if cuts is None else cuts
    out = vs._solve_loop(prob, theta, cuts, [], vs.SolverOptions(), log)
    return out, log, verified


def test_search_checks_the_points_after_an_inconclusive_one(monkeypatch):
    first, second = np.array([0.0, 1.0]), np.array([0.6, 0.8])
    solution = vs.VerifyResult(vs.SOLUTION, 0.0, via="bound")
    verdicts = [vs.VerifyResult(vs.INCONCLUSIVE_RUN, None), solution]
    out, log, verified = _search_run(
        monkeypatch,
        lambda k: HierarchyOutcome(MINIMIZERS, 2, 1.0, [first, second]),
        lambda k: verdicts[k],
    )
    assert out.status == vs.SOLUTION
    assert np.array_equal(out.solutions[0], second) and out.eps == [0.0]
    assert len(verified) == 2
    assert _entries(log) == [
        ("search", 0, MINIMIZERS),
        ("verify", 0, vs.INCONCLUSIVE_RUN),
        ("verify", 0, vs.SOLUTION),
    ]


def test_search_with_only_inconclusive_points_stalls(monkeypatch):
    points = [np.array([0.0, 1.0]), np.array([0.6, 0.8])]
    out, log, verified = _search_run(
        monkeypatch,
        lambda k: HierarchyOutcome(MINIMIZERS, 2, 1.0, points),
        lambda k: vs.VerifyResult(vs.INCONCLUSIVE_RUN, None),
    )
    assert out.status == vs.INCONCLUSIVE_RUN and out.loops == 1
    assert len(verified) == 2
    assert _entries(log) == [
        ("search", 0, MINIMIZERS),
        ("verify", 0, vs.INCONCLUSIVE_RUN),
        ("verify", 0, vs.INCONCLUSIVE_RUN),
        ("search", 0, "stalled"),
    ]


def test_a_point_near_a_solved_point_is_not_verified_again(monkeypatch):
    # a band maximizer verifies as a solution; the search that follows finds
    # it again, a rounding away, and takes the kept verdict
    def bands(k, theta_star, far):
        if k == 0:
            return HierarchyOutcome(MINIMIZERS, 2, -(theta_star + 5.0), [far])
        return HierarchyOutcome(BOUND_REACHED, 2, -theta_star)

    solution = vs.VerifyResult(vs.SOLUTION, -3e-11, via="bound")
    _, band_log, cuts, _, n_verified = _band_run(monkeypatch, bands, lambda k: solution)
    assert n_verified == 1
    (kept, _), = cuts.solved
    near = kept + 5e-7

    def verdict(k):
        raise AssertionError("a solved point was verified again")

    out, log, _ = _search_run(
        monkeypatch, lambda k: HierarchyOutcome(MINIMIZERS, 2, 1.0, [near]), verdict, cuts
    )
    assert out.status == vs.SOLUTION
    assert np.array_equal(out.solutions[0], near) and out.eps == [solution.eps]
    assert _entries(log) == [("search", 0, MINIMIZERS), ("verify", 0, vs.SOLUTION)]
    assert log[1]["eps"] == solution.eps and log[1]["via"] == "bound"
    assert len(cuts.solved) == 1


def test_solve_all_first_pass_inconclusive(monkeypatch):
    # the first pass takes the same path as every later one: an inconclusive
    # search ends the run with nothing certified
    prob = ball_projection_problem(np.array([0.9, 1.2]))
    monkeypatch.setattr(
        vs, "find_candidate", lambda *args, **kwargs: HierarchyOutcome(INCONCLUSIVE, 2)
    )
    res = vs.solve_all(prob)
    assert res.status == vs.INCONCLUSIVE_RUN
    assert not res.complete and res.order is None
    assert res.solutions == []
    assert [(e["phase"], e["loop"], e["status"]) for e in res.log] == [
        ("search", 0, INCONCLUSIVE)
    ]


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


def test_enclosing_ball_of_ring_and_quadric():
    ring = Polynomial.quadratic(3, quad=np.eye(3))
    cs = ConstraintSystem((ring - 1.0, 2.0 - ring), (), (0, 1), 3)
    center, radius = vs.enclosing_ball(cs)
    assert np.allclose(center, 0.0) and radius == pytest.approx(np.sqrt(2.0))
    # an equality x^T B x = 1 holds X with either sign; here with its negation
    b_mat = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    quadric = Polynomial.quadratic(3, -1.0, quad=b_mat)
    cs = ConstraintSystem((quadric, _var(3, 2)), (0,), (1,), 3)
    center, radius = vs.enclosing_ball(cs)
    assert np.allclose(center, 0.0)
    assert radius == pytest.approx(1.0 / np.sqrt(np.linalg.eigvalsh(b_mat)[0]))
    # a shifted ball |x - c|^2 <= 4
    c = np.array([1.0, -2.0, 0.5])
    shifted = Polynomial.quadratic(3, 4.0 - c @ c, 2.0 * c, -np.eye(3))
    center, radius = vs.enclosing_ball(ConstraintSystem((shifted,), (), (0,), 3))
    assert np.allclose(center, c) and radius == pytest.approx(2.0)
    # the orthant holds no ball
    assert vs.enclosing_ball(ConstraintSystem((_var(2, 0), _var(2, 1)), (), (0, 1), 2)) is None


def test_verify_refuses_a_solution_on_a_gapped_set():
    # K = [1, 2] u (-inf, -20] with F = 1: u = 1 is a local minimizer of the
    # comparison function, but y = -20 gives F(u)(y - u) = -21.  K is neither
    # bounded nor convex, so no bound over K cut with a ball may accept u.
    x = _var(1, 0)
    g = -((x - 1.0) * (x - 2.0) * (x + 20.0))
    cs = ConstraintSystem((g,), (), (0,), 1)
    # L is the Bezout row (l1, l2) with l1 g' + l2 g = 1
    l1 = [(-463 / 106722, 2), (-1424 / 17787, 1), (14089 / 106722, 0)]
    l2 = [(463 / 35574, 1), (17761 / 106722, 0)]
    rows = [[[{"coef": c, "exp": [e]} for c, e in cell] for cell in (l1, l2)]]
    prob = vs.build_problem((_const(1, 1.0),), cs, {"L": rows})
    ver = vs.verify_candidate(prob, np.array([1.0]))
    assert ver.status != vs.SOLUTION
    assert ver.via in ("", "points")
    # a cut, when the relaxation finds one, comes from a point of K below u
    for v in ver.cut_points:
        assert g.evaluate(v) >= -1e-6 and v[0] - 1.0 < -1e-6
