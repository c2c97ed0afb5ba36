"""Cut-generation solver for polynomial variational inequalities.

A problem asks for x in X with (y - x)^T F(x) >= 0 for all y in X, where X
is a basic closed semialgebraic set and F is a polynomial map.  Solutions
satisfy KKT conditions, and with a multiplier expression (lme module) the
multipliers become functions of x, so the solution set lives inside an
explicit semialgebraic set K.  Searching K alone is not enough: K contains
KKT points that are not solutions.  The loop here minimizes a generic
positive definite quadratic over K, verifies the minimizer by solving the
linear comparison problem min_{y in X} (y - u)^T F(u), and on failure turns
the comparison minimizers into valid cuts (v - x)^T F(x) >= 0, which every
solution satisfies but the rejected candidate does not.

Enumeration orders solutions by the generic quadratic.  After finding x*,
a gap width delta is certified so that no solution has objective value in
(theta(x*), theta(x*) + delta), and the search resumes above the gap.  An
infeasible relaxation then certifies that the enumeration is complete.

All optimization goes through the moment relaxation hierarchy (momentsdp).
Infeasibility certificates are exact up to SDP tolerance; point candidates
are always re-verified against the original problem data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .lme import ConstraintSystem, LmeRecipe, LmeSet, build_kkt_sets, recipe_from_spec
from .momentsdp import (
    BOUND_REACHED,
    INCONCLUSIVE,
    INFEASIBLE,
    MINIMIZERS,
    RANK_WIDENING,
    TOL_FEAS,
    HierarchyOutcome,
    PolyProgram,
    minimize,
)
from .polycore import Polynomial, violation


# a comparison bound >= -EPS_TOL certifies a candidate as a solution
EPS_TOL = 1e-6
# points closer than this in the max norm count as one
DUP_TOL = 1e-6
MAX_SOLUTIONS = 20
# gap widths tried by find_delta: DELTA0, DELTA0 * RHO, ..., MAX_SHRINKS shrinks
DELTA0 = 1.0
RHO = 0.5
MAX_SHRINKS = 20


@dataclass
class SolverOptions:
    """The settings a problem file or the command line may choose."""

    seed: int = 0
    max_loops: int = 10
    k_max_extra: int = 4


class VipProblem:
    """Field F, constraint system, and the multiplier recipe binding them."""

    def __init__(self, F, cs: ConstraintSystem, recipe: LmeRecipe, name: str = ""):
        self.F = tuple(F)
        self.cs = cs
        self.recipe = recipe
        self.name = name
        if len(self.F) != cs.n:
            raise ValueError("field arity does not match the constraint system")

    @property
    def n(self) -> int:
        return self.cs.n

    @cached_property
    def lam(self) -> LmeSet:
        return self.recipe.instantiate(self.F)

    @cached_property
    def kkt(self):
        return build_kkt_sets(self.F, self.cs, self.lam)

    def field_at(self, x) -> np.ndarray:
        return np.array([f.evaluate(x) for f in self.F])

    @cached_property
    def _field_jac(self) -> tuple:
        return tuple(f.gradient() for f in self.F)

    def jacobian_at(self, x) -> np.ndarray:
        return np.array([[p.evaluate(x) for p in row] for row in self._field_jac])


def build_problem(F, cs: ConstraintSystem, lme: dict | str, name: str = "") -> VipProblem:
    """Assemble a problem; lme is a problem file's spec dict or a catalog kind name."""
    if isinstance(lme, str):
        lme = {"kind": lme}
    elif not isinstance(lme, dict):
        raise TypeError(f"cannot interpret lme={lme!r}")
    return VipProblem(F, cs, recipe_from_spec(lme, cs), name)


# -- generic objective ---------------------------------------------------------


@dataclass(frozen=True)
class ThetaForm:
    """theta(x) = [1 x]^T Theta [1 x] with Theta positive definite."""

    matrix: np.ndarray
    poly: Polynomial

    def evaluate(self, x) -> float:
        v = np.concatenate(([1.0], np.asarray(x, dtype=float)))
        return float(v @ self.matrix @ v)


def random_theta(n: int, seed: int = 0) -> ThetaForm:
    rng = np.random.default_rng(seed)
    while True:
        r_mat = rng.standard_normal((n + 1, n + 1))
        theta = r_mat.T @ r_mat
        w = np.linalg.eigvalsh(theta)
        if w[0] > 1e-8 * w[-1]:
            break
    poly = Polynomial.quadratic(n, theta[0, 0], theta[0, 1:] + theta[1:, 0], theta[1:, 1:])
    return ThetaForm(theta, poly)


# -- cuts --------------------------------------------------------------------


class CutSet:
    """Comparison points v; each contributes the cut (v - x)^T F(x) >= 0."""

    def __init__(self):
        self.points: list[np.ndarray] = []

    def add(self, v) -> bool:
        v = np.asarray(v, dtype=float)
        for w in self.points:
            if np.max(np.abs(w - v)) <= DUP_TOL:
                return False
        self.points.append(v)
        return True

    def __len__(self) -> int:
        return len(self.points)

    def polys(self, F: tuple[Polynomial, ...]) -> list[Polynomial]:
        n = F[0].n
        out = []
        for v in self.points:
            acc = Polynomial.zero(n)
            for t in range(n):
                acc = acc + (Polynomial.constant(n, float(v[t])) - Polynomial.variable(n, t)) * F[t]
            out.append(acc)
        return out


# -- outcome records -----------------------------------------------------------


SOLUTION = "solution"
NO_SOLUTION = "no_solution"
INCONCLUSIVE_RUN = "inconclusive"


@dataclass
class VerifyResult:
    status: str  # "solution" | "cut" | "inconclusive"
    eps: float | None
    cut_points: list = field(default_factory=list)
    via: str = ""  # "kkt_bound" | "kkt_points" | "ball_bound" | "ball_points"


@dataclass
class SolveOutcome:
    status: str
    point: np.ndarray | None = None
    eps: float | None = None
    objective: float | None = None
    loops: int = 0
    order: int | None = None
    log: list = field(default_factory=list)


@dataclass
class EnumerationResult:
    status: str  # "solutions" | "no_solution" | "inconclusive"
    solutions: list = field(default_factory=list)
    eps: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    complete: bool = False
    order: int | None = None
    log: list = field(default_factory=list)


# -- search and verification ----------------------------------------------------


def find_candidate(
    problem: VipProblem,
    theta: ThetaForm,
    cuts: CutSet,
    extra_ineqs: list[Polynomial],
    opts: SolverOptions,
) -> HierarchyOutcome:
    kkt = problem.kkt
    ineqs = list(kkt.inequalities) + cuts.polys(problem.F) + list(extra_ineqs)
    prog = PolyProgram(theta.poly, kkt.equations, tuple(ineqs), problem.n)
    return minimize(prog, opts.k_max_extra, opts.seed)


def _kkt_polish(field, jac, cs: ConstraintSystem, x0, tol_active=1e-4, iters=12):
    """Gauss-Newton refinement of an approximate KKT point.

    Stationarity plus the constraints active at x0 form a system with exact
    polynomial data, so a few steps recover far more accuracy than the
    relaxation the point came out of.  Multipliers start from a least-squares
    fit of the stationarity equation.  Returns x0 unchanged when the iteration
    fails to improve, leaves the start's neighborhood, or breaks an inactive
    inequality.
    """
    n = cs.n
    x0 = np.asarray(x0, dtype=float)
    active = list(cs.eq_idx) + [
        i for i in cs.ineq_idx if abs(cs.g[i].evaluate(x0)) <= tol_active
    ]
    g_act = [cs.g[i] for i in active]
    grads = [p.gradient() for p in g_act]
    hesses = [[q.gradient() for q in gr] for gr in grads]
    na = len(active)

    def grad_mat(x):
        if not na:
            return np.zeros((n, 0))
        return np.array([[p.evaluate(x) for p in gr] for gr in grads]).T

    def residual(x, lam):
        r1 = field(x) - grad_mat(x) @ lam
        r2 = np.array([p.evaluate(x) for p in g_act])
        return np.concatenate([r1, r2])

    lam, *_ = np.linalg.lstsq(grad_mat(x0), field(x0), rcond=None)
    x = x0.copy()
    best_x = x.copy()
    best = float(np.linalg.norm(residual(x, lam), np.inf))
    for _ in range(iters):
        if best <= 1e-14:
            break
        gm = grad_mat(x)
        j11 = jac(x)
        for a in range(na):
            h = np.array([[q.evaluate(x) for q in row] for row in hesses[a]])
            j11 = j11 - lam[a] * h
        jmat = np.zeros((n + na, n + na))
        jmat[:n, :n] = j11
        jmat[:n, n:] = -gm
        jmat[n:, :n] = gm.T
        step, *_ = np.linalg.lstsq(jmat, -residual(x, lam), rcond=None)
        x = x + step[:n]
        lam = lam + step[n:]
        err = float(np.linalg.norm(residual(x, lam), np.inf))
        if err < best:
            best, best_x = err, x.copy()
        else:
            break
    x = best_x
    if np.max(np.abs(x - x0)) > max(10 * tol_active, 1e-2):
        return x0
    for i in cs.ineq_idx:
        if i not in active and cs.g[i].evaluate(x) < -tol_active:
            return x0
    return x


def polish_candidate(problem: VipProblem, u0, tol_active=1e-4) -> np.ndarray:
    """Refine an extracted candidate against the original field and constraints.

    Decouples what verification measures from the accuracy of the moment
    relaxation that produced the candidate.
    """
    return _kkt_polish(problem.field_at, problem.jacobian_at, problem.cs, u0, tol_active)


def _polish_comparison_point(problem: VipProblem, fu, v, tol_active=1e-4) -> np.ndarray:
    # minimizers of a linear comparison objective satisfy the same KKT system
    # with the field frozen at fu
    n = problem.n
    return _kkt_polish(
        lambda x: fu, lambda x: np.zeros((n, n)), problem.cs, v, tol_active
    )


def verify_candidate(problem: VipProblem, u, opts: SolverOptions | None = None) -> VerifyResult:
    """Decide whether u solves the problem by bounding min_X (y - u)^T F(u).

    A bound >= -EPS_TOL certifies u.  Otherwise the comparison minimizers
    become cut points.  The primary route substitutes the multiplier
    expression of the comparison problem (same recipe, constant field); when
    that route cannot run or stays inconclusive, a direct relaxation over X
    intersected with a large ball around u is used, trusted only when its
    minimizers land strictly inside the ball.
    """
    opts = opts or SolverOptions()
    u = np.asarray(u, dtype=float)
    n = problem.n
    cs = problem.cs
    fu = problem.field_at(u)
    ell = Polynomial.quadratic(n, -float(fu @ u), fu)  # (x - u)^T F(u)
    phi = tuple(cs.g[i] for i in cs.eq_idx)
    psi = tuple(cs.g[i] for i in cs.ineq_idx)

    def settle(prog: PolyProgram, route: str, radius: float | None = None):
        """The verdict of one route, or None when it decides nothing."""
        out = minimize(prog, opts.k_max_extra, opts.seed, floor=-EPS_TOL)
        if out.status == BOUND_REACHED:
            return VerifyResult(SOLUTION, float(out.value), via=f"{route}_bound")
        if out.status != MINIMIZERS:
            return None
        eps = float(out.value)
        if radius is not None and not all(
            float((p - u) @ (p - u)) <= 0.99 * radius for p in out.points
        ):
            return VerifyResult(INCONCLUSIVE_RUN, eps)
        # the bound only resolves eps down to the solve's accuracy
        if eps >= -EPS_TOL and out.accuracy <= EPS_TOL:
            return VerifyResult(SOLUTION, eps, via=f"{route}_points")
        if eps < -EPS_TOL:
            polished = [
                _polish_comparison_point(problem, fu, p, max(1e-4, RANK_WIDENING * out.accuracy))
                for p in out.points
            ]
            pts = [p for p in polished if violation(p, phi, psi) <= 10 * TOL_FEAS]
            if pts:
                return VerifyResult("cut", eps, pts, via=f"{route}_points")
        return None

    if problem.recipe.can_reinstantiate:
        f_const = tuple(Polynomial.constant(n, float(c)) for c in fu)
        lam_u = problem.recipe.instantiate(f_const)
        kkt_u = build_kkt_sets(f_const, cs, lam_u)
        verdict = settle(PolyProgram(ell, kkt_u.equations, kkt_u.inequalities, n), "kkt")
        if verdict is not None:
            return verdict
        # infeasible or inconclusive: fall through to the direct route

    radius = float(u @ u) + 100.0
    # radius - |x - u|^2
    ball = Polynomial.quadratic(n, radius - float(u @ u), 2.0 * u, -np.eye(n))
    verdict = settle(PolyProgram(ell, phi, psi + (ball,), n), "ball", radius)
    return verdict or VerifyResult(INCONCLUSIVE_RUN, None)


def _log_entry(phase, loop, status, **extra):
    entry = {"phase": phase, "loop": loop, "status": status}
    entry.update(extra)
    return entry


def _solve_loop(
    problem: VipProblem,
    theta: ThetaForm,
    cuts: CutSet,
    extra_ineqs: list[Polynomial],
    opts: SolverOptions,
) -> SolveOutcome:
    log: list = []
    for loop in range(opts.max_loops):
        t0 = time.time()
        cand = find_candidate(problem, theta, cuts, extra_ineqs, opts)
        dt = time.time() - t0
        log.append(
            _log_entry(
                "search",
                loop,
                cand.status,
                order=cand.order,
                value=cand.value,
                cuts=len(cuts),
                time=round(dt, 3),
            )
        )
        if cand.status == INFEASIBLE:
            return SolveOutcome(NO_SOLUTION, order=cand.order, loops=loop + 1, log=log)
        if cand.status != MINIMIZERS:
            return SolveOutcome(INCONCLUSIVE_RUN, loops=loop + 1, log=log)

        added = 0
        for u in cand.points:
            t1 = time.time()
            u = polish_candidate(problem, u, max(1e-4, RANK_WIDENING * cand.accuracy))
            ver = verify_candidate(problem, u, opts)
            log.append(
                _log_entry(
                    "verify",
                    loop,
                    ver.status,
                    eps=ver.eps,
                    via=ver.via,
                    time=round(time.time() - t1, 3),
                )
            )
            if ver.status == SOLUTION:
                return SolveOutcome(
                    SOLUTION,
                    point=np.asarray(u, dtype=float),
                    eps=ver.eps,
                    objective=theta.evaluate(u),
                    loops=loop + 1,
                    order=cand.order,
                    log=log,
                )
            if ver.status == "cut":
                for v in ver.cut_points:
                    if cuts.add(v):
                        added += 1
            else:
                return SolveOutcome(INCONCLUSIVE_RUN, loops=loop + 1, log=log)
        if added == 0:
            # no progress possible: the same candidate would return
            log.append(_log_entry("search", loop, "stalled"))
            return SolveOutcome(INCONCLUSIVE_RUN, loops=loop + 1, log=log)
    return SolveOutcome(INCONCLUSIVE_RUN, loops=opts.max_loops, log=log)


def solve_one(problem: VipProblem, opts: SolverOptions | None = None) -> SolveOutcome:
    """Find one solution or certify that none exists."""
    opts = opts or SolverOptions()
    theta = random_theta(problem.n, opts.seed)
    cuts = CutSet()
    return _solve_loop(problem, theta, cuts, [], opts)


def find_delta(
    problem: VipProblem,
    theta: ThetaForm,
    cuts: CutSet,
    x_star,
    opts: SolverOptions,
) -> tuple[float, bool, list]:
    """Gap width so no solution has objective in (theta(x*), theta(x*)+delta).

    Certified by maximizing theta over the KKT set within the band
    theta <= theta(x*) + delta: the maximum always is >= theta(x*) since x*
    sits in the band, and delta is accepted when it is <= theta(x*) + tol.
    Returns (delta, certified, log).
    """
    kkt = problem.kkt
    theta_star = theta.evaluate(x_star)
    accept = 1e-6 * max(1.0, abs(theta_star))
    base_ineqs = list(kkt.inequalities) + cuts.polys(problem.F)
    delta = DELTA0
    log: list = []
    for shrink in range(MAX_SHRINKS + 1):
        band = Polynomial.constant(problem.n, theta_star + delta) - theta.poly
        prog = PolyProgram(
            theta.poly.scale(-1.0), kkt.equations, tuple(base_ineqs + [band]), problem.n
        )
        out = minimize(prog, opts.k_max_extra, opts.seed, floor=-(theta_star + accept))
        gamma = None if out.value is None else -float(out.value)
        log.append(
            _log_entry("delta", shrink, out.status, delta=delta, gamma=gamma, order=out.order)
        )
        if out.status == BOUND_REACHED:
            return delta, True, log
        if out.status == INFEASIBLE:
            # the band holds x*, so emptiness is numerical, and a smaller band
            # is a subset of this one: the gap stays uncertified
            return delta, False, log
        # a relaxed solve cannot pin gamma tighter than its own accuracy
        accept_eff = max(accept, RANK_WIDENING * out.accuracy * max(1.0, abs(theta_star)))
        if out.status in (MINIMIZERS, INCONCLUSIVE) and gamma is not None:
            if gamma - theta_star <= accept_eff:
                return delta, True, log
        delta *= RHO
    return delta, False, log


def solve_all(problem: VipProblem, opts: SolverOptions | None = None) -> EnumerationResult:
    """Enumerate solutions in increasing generic-objective order."""
    opts = opts or SolverOptions()
    theta = random_theta(problem.n, opts.seed)
    cuts = CutSet()
    log: list = []

    first = _solve_loop(problem, theta, cuts, [], opts)
    log.extend(first.log)
    if first.status == NO_SOLUTION:
        return EnumerationResult(
            NO_SOLUTION, complete=True, order=first.order, log=log
        )
    if first.status != SOLUTION:
        return EnumerationResult(INCONCLUSIVE_RUN, log=log)

    sols = [first.point]
    eps = [first.eps]
    objs = [first.objective]
    complete = False
    order = None

    while len(sols) < MAX_SOLUTIONS:
        # search strictly above the certified gap over theta(x*)
        delta, certified, dlog = find_delta(problem, theta, cuts, sols[-1], opts)
        log.extend(dlog)
        floor = Polynomial.constant(problem.n, -(theta.evaluate(sols[-1]) + delta)) + theta.poly
        nxt = _solve_loop(problem, theta, cuts, [floor], opts)
        log.extend(nxt.log)
        if nxt.status == NO_SOLUTION:
            complete = certified
            order = nxt.order
            break
        if nxt.status != SOLUTION:
            break
        if any(np.max(np.abs(nxt.point - s)) <= DUP_TOL for s in sols):
            log.append(_log_entry("enumerate", len(sols), "duplicate"))
            break
        if nxt.objective < objs[-1] - 1e-6:
            log.append(_log_entry("enumerate", len(sols), "order_violation"))
            break
        if not certified:
            log.append(_log_entry("enumerate", len(sols), "uncertified_gap"))
        sols.append(nxt.point)
        eps.append(nxt.eps)
        objs.append(nxt.objective)

    return EnumerationResult(
        "solutions", sols, eps, objs, complete=complete, order=order, log=log
    )


# -- counting bound -----------------------------------------------------------


def complete_symmetric(r: int, vals) -> int:
    """h_r(vals): sum of all degree-r monomials in the given values."""
    if r < 0:
        raise ValueError("negative degree")
    ways = [0] * (r + 1)
    ways[0] = 1
    for v in vals:
        v = int(v)
        new = [0] * (r + 1)
        new[0] = ways[0]
        for t in range(1, r + 1):
            new[t] = ways[t] + v * new[t - 1]
        ways = new
    return ways[r]


def algebraic_degree_bound(f_degs, g_degs) -> int:
    """Bezout-style count of KKT candidates for one active set.

    With n field components of degree <= a and m active constraints of
    degrees b_1..b_m (m <= n), the bound is b_1 ... b_m * h_{n-m}(a, b).
    """
    f_degs = [int(d) for d in f_degs]
    g_degs = [int(d) for d in g_degs]
    n, m = len(f_degs), len(g_degs)
    if m > n:
        raise ValueError("more active constraints than variables")
    if any(d < 0 for d in f_degs) or any(d < 1 for d in g_degs):
        raise ValueError("degrees must be positive")
    a = max(f_degs) if f_degs else 0
    prod_b = 1
    for b in g_degs:
        prod_b *= b
    return prod_b * complete_symmetric(n - m, [a] + g_degs)


def active_subset_bounds(problem: VipProblem):
    """Per-active-set candidate bounds and their total.

    Active sets keep every equality and any inequality subset small enough
    to stay determined (at most n active constraints).
    """
    cs = problem.cs
    f_degs = [f.degree for f in problem.F]
    eq_degs = [cs.g[i].degree for i in cs.eq_idx]
    rows = []
    total = 0
    max_extra = cs.n - len(cs.eq_idx)
    if max_extra < 0:
        raise ValueError("more equality constraints than variables")
    for size in range(0, max_extra + 1):
        for subset in combinations(cs.ineq_idx, size):
            g_degs = eq_degs + [cs.g[i].degree for i in subset]
            bound = algebraic_degree_bound(f_degs, g_degs)
            rows.append({"active": tuple(cs.eq_idx) + subset, "bound": bound})
            total += bound
    return rows, total
