"""End-to-end gate: the bundled fixtures, property suites, and batch smoke run.

Every heavy solve happens once inside its own test so `pytest -v` shows a
single pass/fail line per gate item. Budgets are wall-clock seconds on the
reference interior-point backend.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
import scipy.optimize

import test_sdpbackend as toy_sdps
from polyvi import momentsdp as ms
from polyvi import sdpbackend as sb
from polyvi.cli import generate, load_problem, parse_problem
from polyvi.lme import ConstraintSystem, catalog_lme, verify_lme
from polyvi.polycore import Polynomial, basis, lift, monomial_index, violation
from polyvi.vipsolver import (
    SolverOptions,
    algebraic_degree_bound,
    random_theta,
    solve_all,
    solve_one,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name):
    problem, opts = load_problem(os.path.join(FIXTURES, name))
    return problem, opts


def match_set(solutions, references, tol):
    """Each reference matched by exactly one solution, componentwise."""
    sols = [np.asarray(s, dtype=float) for s in solutions]
    assert len(sols) == len(references)
    used = set()
    for ref in references:
        hits = [
            i
            for i, s in enumerate(sols)
            if i not in used and np.max(np.abs(s - np.asarray(ref))) <= tol
        ]
        assert hits, f"no solution within {tol} of {ref}"
        used.add(hits[0])


# -- bundled fixtures ---------------------------------------------------------


def test_orthant_ncp_enumerates_both_solutions(sdp_solves):
    problem, opts = fixture("ncp_quartic.json")
    t0 = time.monotonic()
    res = solve_all(problem, opts)
    elapsed = time.monotonic() - t0
    assert res.status == "solutions"
    assert res.complete
    match_set(
        res.solutions,
        [(math.sqrt(6) / 2, 0.0, 0.0, 0.5), (1.0, 0.0, 3.0, 0.0)],
        1e-4,
    )
    assert all(abs(e) <= 1e-6 for e in res.eps)
    # one search-and-gap loop: each solution's search and verification, the
    # gap bands after it, and the infeasible search that completes the run;
    # the first band's maximizer is the second solution, so it verifies as
    # one and the band shrinks; the search that finds it again reuses that
    # verdict, so its one verification SDP runs once
    assert [(e["phase"], e["loop"], e["status"]) for e in res.log] == [
        ("search", 0, "minimizers"),
        ("verify", 0, "solution"),
        ("delta", 0, "minimizers"),
        ("verify", 0, "solution"),
        ("delta", 1, "minimizers"),
        ("search", 0, "minimizers"),
        ("verify", 0, "solution"),
        ("delta", 0, "minimizers"),
        ("search", 0, "infeasible"),
    ]
    assert len(sdp_solves) == 11
    assert elapsed <= 60.0


def test_unbounded_set_certified_empty_at_low_order(sdp_solves):
    problem, opts = fixture("ncp_product_infeasible.json")
    t0 = time.monotonic()
    res = solve_all(problem, opts)
    elapsed = time.monotonic() - t0
    assert res.status == "no_solution"
    assert res.complete
    kkt = problem.kkt
    prog = ms.PolyProgram(
        random_theta(problem.n, opts.seed).poly,
        kkt.equations,
        tuple(kkt.inequalities),
        problem.n,
    )
    assert res.order is not None and res.order <= prog.d0 + 2
    assert not res.trusted
    # the m=495 search SDP holds a relaxed ray from its 13th iteration on, and
    # its score grows as tau -> 0: it ends once that ray stops improving, not
    # after 30 iterations without a better score (iteration 31).  That is 19
    # iterations at one BLAS thread; a thread variable set to 2-4 moves the
    # relaxation's data in its last bits, and the solve ends at 20
    (last,) = [r for p, r in sdp_solves if p.num_vars == 495]
    assert last.status == "primal_infeasible" and last.residuals.get("relaxed")
    assert last.exit == "stall" and last.iterations <= 20
    assert elapsed <= 120.0


@pytest.mark.slow
def test_ring_enumeration_and_empty_variant():
    t0 = time.monotonic()
    problem, opts = fixture("ring_four_solutions.json")
    res = solve_all(problem, opts)
    assert res.status == "solutions"
    assert res.complete
    match_set(
        res.solutions,
        [
            (-0.2639, 1.3073, -0.4537, -0.1250),
            (0.4365, -1.0536, 0.7694, -0.3279),
            (-0.4108, -0.4710, 1.2655, 0.0899),
            (-0.8126, 0.7417, 0.7227, -0.5169),
        ],
        1e-3,
    )
    # the first gap band's maximizer is cut and the band certified at the
    # same width, so no search rediscovers it: five searches and five bands,
    # each one relaxation at m=495
    assert [(e["phase"], e["loop"], e["status"]) for e in res.log] == [
        ("search", 0, "minimizers"),
        ("verify", 0, "solution"),
        ("delta", 0, "minimizers"),
        ("verify", 0, "cut"),
        ("delta", 1, "minimizers"),
    ] + [
        ("search", 0, "minimizers"),
        ("verify", 0, "solution"),
        ("delta", 0, "minimizers"),
    ] * 3 + [("search", 0, "infeasible")]
    # the hierarchy starts at order 4, the m=495 relaxation in 4 variables
    assert all(e["order"] == 4 for e in res.log if e["phase"] in ("search", "delta"))
    empty, eopts = fixture("ring_empty.json")
    res2 = solve_all(empty, eopts)
    assert res2.status == "no_solution"
    assert res2.complete
    assert time.monotonic() - t0 <= 600.0


def test_eigenvalue_over_polyhedral_cone():
    problem, opts = fixture("eig_linear_cone.json")
    t0 = time.monotonic()
    res = solve_one(problem, opts)
    elapsed = time.monotonic() - t0
    assert res.status == "solution"
    ref = np.array([0.5534, 0.2372, 0.0000, 0.3162])
    assert np.max(np.abs(res.point - ref)) <= 1e-3
    assert elapsed <= 120.0


def test_eigenvalue_over_second_order_cone():
    # rational multipliers with the cleared cone denominator; an inconclusive
    # run is tolerated, a wrong answer is not
    problem, opts = fixture("eig_soc.json")
    res = solve_one(problem, opts)
    assert res.status in ("solution", "inconclusive")
    if res.status == "solution":
        ref = np.array([0.6906, 0.5866, -0.3661, 0.9773])
        assert np.max(np.abs(res.point - ref)) <= 1e-3


def _multistart_comparison_min(problem, u, starts=200, seed=0):
    """min over K of F(u)^T (x - u) by SLSQP from random starts, trusting no
    relaxation: only end points within 1e-8 of K count."""
    cs = problem.cs
    fu = problem.field_at(u)

    def constraint(kind, g):
        grad = g.gradient()
        return {
            "type": kind,
            "fun": g.evaluate,
            "jac": lambda x: np.array([p.evaluate(x) for p in grad]),
        }

    cons = [constraint("eq", cs.g[i]) for i in cs.eq_idx]
    cons += [constraint("ineq", cs.g[i]) for i in cs.ineq_idx]
    phi = [cs.g[i] for i in cs.eq_idx]
    psi = [cs.g[i] for i in cs.ineq_idx]
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(starts):
        out = scipy.optimize.minimize(
            lambda x: float(fu @ (x - u)),
            rng.standard_normal(problem.n),
            jac=lambda x: fu,
            method="SLSQP",
            constraints=cons,
        )
        if violation(out.x, phi, psi) <= 1e-8:
            best = min(best, float(fu @ (out.x - u)))
    return best


@pytest.mark.slow
def test_eig_soc_solutions_survive_an_outside_check():
    # every reported solution of 20 generated eig-soc instances must pass a
    # multi-start local search over K; a comparison point below -1e-6 refutes it
    counts = {}
    for seed in range(20):
        problem, _ = parse_problem(generate("eig-soc", (4,), 2, seed), f"eig-soc-{seed}")
        res = solve_one(problem, SolverOptions(seed=seed))
        counts[res.status] = counts.get(res.status, 0) + 1
        if res.status == "solution":
            gap = _multistart_comparison_min(problem, res.point)
            assert gap >= -1e-6, f"seed {seed}: x in K with F(u)^T (x - u) = {gap}"
    assert counts.get("solution", 0) >= 10


@pytest.mark.slow
def test_capital_stock_equilibrium():
    problem, opts = fixture("capital_stock.json")
    t0 = time.monotonic()
    res = solve_one(problem, opts)
    elapsed = time.monotonic() - t0
    assert res.status == "solution"
    ref = np.array([0.1861, 0.5845, 0.1715, 0.4868, 0.0, 0.2270, 0.0])
    assert np.max(np.abs(res.point - ref)) <= 1e-3
    assert abs(res.eps) <= 1e-6
    assert elapsed <= 600.0


@pytest.mark.slow
def test_gnep_shared_ball_unique_equilibrium():
    problem, opts = fixture("gnep_shared_ball.json")
    t0 = time.monotonic()
    res = solve_all(problem, opts)
    elapsed = time.monotonic() - t0
    assert res.status == "solutions"
    assert len(res.solutions) == 1
    assert res.complete
    ref = np.array([-0.4934] * 3 + [0.2998] * 3)
    assert np.max(np.abs(res.solutions[0] - ref)) <= 1e-3
    assert elapsed <= 600.0


# -- property suite -----------------------------------------------------------


def test_props_pairing_lift_evaluate_consistency():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        deg = int(rng.integers(0, 5))
        exps = [tuple(e) for e in basis(n, deg).tolist()]
        take = rng.choice(len(exps), size=min(5, len(exps)), replace=False)
        p = Polynomial(n, {exps[i]: float(rng.standard_normal()) for i in take})
        x = rng.uniform(-1.5, 1.5, n)
        lifted = lift(x, max(2, 2 * ((deg + 1) // 2)))
        val = p.evaluate(x)
        got = p.coefs @ lifted[monomial_index(p.exps)]
        assert abs(got - val) <= 1e-10 * max(1.0, abs(val))


def test_props_localizing_template_identity():
    rng = np.random.default_rng(202)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        deg = int(rng.integers(1, 5))
        exps = [tuple(e) for e in basis(n, deg).tolist()]
        take = rng.choice(len(exps), size=min(4, len(exps)), replace=False)
        q = Polynomial(n, {exps[i]: float(rng.standard_normal()) for i in take})
        if q.is_zero:
            continue
        k = (q.degree + 1) // 2 + int(rng.integers(0, 2))
        blk = ms.localizing_block(q, k, n)
        x = rng.uniform(-1.2, 1.2, n)
        got = blk.evaluate(lift(x, 2 * k))
        v = np.prod(np.power(x[None, :], basis(n, k - (q.degree + 1) // 2)), axis=1)
        expect = q.evaluate(x) * np.outer(v, v)
        scale = max(1.0, float(np.abs(expect).max()))
        assert np.abs(got - expect).max() <= 1e-12 * scale


def test_props_hierarchy_monotone_and_upper_bounded():
    for seed in range(20):
        data = generate("ball", (2,), 2, seed)
        problem, _ = parse_problem(data, f"ball-{seed}")
        kkt = problem.kkt
        theta = random_theta(problem.n, seed)
        prog = ms.PolyProgram(
            theta.poly, kkt.equations, tuple(kkt.inequalities), problem.n
        )
        bounds = []
        accs = []
        for k in (prog.d0, prog.d0 + 1):
            res = sb.solve(ms.build_relaxation(prog, k))
            assert res.status == sb.OPTIMAL
            bounds.append(res.objective)
            accs.append(res.accuracy)
        scale = max(1.0, abs(bounds[0]), abs(bounds[1]))
        assert bounds[0] <= bounds[1] + (1e-6 + 10 * sum(accs)) * scale
        out = ms.minimize(prog)
        if out.status == ms.MINIMIZERS:
            for u in out.points:
                # extracted atoms are feasible points, so they upper-bound
                for e in prog.psi:
                    assert e.evaluate(u) >= -1e-5
                for e in prog.phi:
                    assert abs(e.evaluate(u)) <= 1e-5
                assert theta.poly.evaluate(u) >= out.value - 1e-5 * scale


def test_props_atom_extraction_round_trip():
    rng = np.random.default_rng(303)
    for trial in range(12):
        n = 2
        r = int(rng.integers(1, 4))
        while True:
            atoms = rng.uniform(-1.0, 1.0, (r, n))
            if r == 1 or min(
                np.linalg.norm(a - b) for a, b in itertools.combinations(atoms, 2)
            ) > 0.3:
                break
        weights = rng.uniform(0.2, 1.0, r)
        weights /= weights.sum()
        vals = sum(w * lift(a, 4) for w, a in zip(weights, atoms))
        mk = ms.moment_matrix(vals, n, 2)
        rank = ms.flat_truncation(mk, n, 2, 1e-6)
        assert rank == r
        got = ms.extract_minimizers(mk, n, 2, rank, seed=trial)
        assert len(got) == r
        for a in atoms:
            assert min(np.max(np.abs(g - a)) for g in got) <= 1e-6


def test_props_catalog_left_inverses_exact(monkeypatch):
    def orthant_cs(n):
        g = tuple(Polynomial.variable(n, i) for i in range(n))
        return ConstraintSystem(g, (), tuple(range(n)), n)

    def unit_ball_cs(n):
        terms = {tuple(0 for _ in range(n)): 1.0}
        for i in range(n):
            e = [0] * n
            e[i] = 2
            terms[tuple(e)] = -1.0
        return ConstraintSystem((Polynomial(n, terms),), (), (0,), n)

    def ring_cs(n):
        lo = {tuple(0 for _ in range(n)): -1.0}
        hi = {tuple(0 for _ in range(n)): 2.0}
        for i in range(n):
            e = [0] * n
            e[i] = 2
            lo[tuple(e)] = 1.0
            hi[tuple(e)] = -1.0
        return ConstraintSystem((Polynomial(n, lo), Polynomial(n, hi)), (), (0, 1), n)

    def quadric_linear_cs(n):
        quad = {tuple(0 for _ in range(n)): -1.0}
        for i in range(n):
            e = [0] * n
            e[i] = 2
            quad[tuple(e)] = 1.0
        lead = {tuple(1 if j == 0 else 0 for j in range(n)): 1.0}
        for i in range(1, n):
            lead[tuple(1 if j == i else 0 for j in range(n))] = -1.0
        g = [Polynomial(n, quad), Polynomial(n, lead)]
        g += [Polynomial.variable(n, i) for i in range(1, n)]
        return ConstraintSystem(tuple(g), (0,), tuple(range(1, n + 1)), n)

    samples = {
        "orthant": orthant_cs(3),
        "ball": unit_ball_cs(3),
        "ring": ring_cs(3),
        "quadric_with_linear": quadric_linear_cs(3),
    }
    # exact: L G - I has no nonzero coefficient at all
    monkeypatch.setattr("polyvi.lme.VERIFY_TOL", 0.0)
    for kind, cs in samples.items():
        mat = catalog_lme(kind, cs)
        assert verify_lme(mat, cs)


def test_props_degree_bound_matches_brute_force():
    def brute(r, letters):
        return sum(
            int(np.prod(combo))
            for combo in itertools.combinations_with_replacement(letters, r)
        )

    checked = 0
    for n in range(1, 8):
        for m in range(0, min(n, 8 - n) + 1):
            for a in range(1, 5):
                for bs in itertools.combinations_with_replacement(range(1, 5), m):
                    expect = int(np.prod(bs, initial=1)) * brute(n - m, [a, *bs])
                    assert algebraic_degree_bound([a] * n, list(bs)) == expect
                    checked += 1
    assert checked > 500


def test_props_backend_toys_to_high_accuracy(monkeypatch):
    # a tenth of the backend's tolerance; its relaxed bounds stay as they are
    monkeypatch.setattr(sb, "_TOL", 1e-9)
    for prob, opt, ystar in toy_sdps.toy_problems():
        res = sb.solve(prob)
        assert res.status == sb.OPTIMAL
        assert abs(res.objective - opt) <= 1e-7 * max(1.0, abs(opt))
        if ystar is not None:
            assert np.allclose(res.y[:len(ystar)], ystar, atol=1e-5)


def test_props_backend_certifies_constructed_infeasible():
    infeasible = toy_sdps.infeasible_problems()
    assert len(infeasible) == 3
    for prob in infeasible:
        res = sb.solve(prob)
        assert res.status == sb.PRIMAL_INFEASIBLE


# -- batch smoke run ----------------------------------------------------------


def test_batch_ball_smoke_success_rate():
    t0 = time.monotonic()
    solved = 0
    for seed in range(10):
        data = generate("ball", (4,), 2, seed)
        problem, _ = parse_problem(data, f"ball-{seed}")
        res = solve_one(problem, SolverOptions(seed=seed))
        if res.status == "solution" and abs(res.eps) <= 1e-6:
            solved += 1
        elif res.status == "no_solution":
            solved += 1
    assert solved == 10
    assert time.monotonic() - t0 <= 900.0
