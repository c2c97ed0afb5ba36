"""Cut-generation solver for polynomial variational inequalities.

A problem asks for x in X with (y - x)^T F(x) >= 0 for all y in X, where X
is a basic closed semialgebraic set and F is a polynomial map.  Solutions
satisfy KKT conditions, and with a multiplier expression (lme module) the
multipliers become functions of x, so the solution set lives inside an
explicit semialgebraic set K.  Searching K alone is not enough: K contains
KKT points that are not solutions.  The loop here minimizes a generic
positive definite quadratic over K, verifies the minimizer by solving the
linear comparison problem min_{y in X} (y - u)^T F(u) with one relaxation
over X itself (no multiplier expression), and on failure turns the
comparison minimizers into valid cuts (v - x)^T F(x) >= 0, which every
solution satisfies but the rejected candidate does not.  Every extracted
point takes this one step (`_check_points`): a point verified INCONCLUSIVE
adds nothing while the points after it are still checked, and a point
within DUP_TOL of a verified solution takes that verdict without a new
verification.

Enumeration orders solutions by the generic quadratic.  After finding x*,
a gap width delta is certified so that no solution has objective value in
(theta(x*), theta(x*) + delta], and the search resumes above the gap.  The
band relaxation that tries delta maximizes the objective over the cut KKT
set; its maximizers above theta(x*) take the same step, and their cut
points, valid for every solution, join the cuts before delta is tried again
or shrunk.  An infeasible relaxation then certifies that the enumeration is
complete.

All optimization goes through the moment relaxation hierarchy (momentsdp).
Infeasibility certificates are exact up to SDP tolerance; point candidates
are always re-verified against the original problem data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .lme import ConstraintSystem, LmeSet, build_kkt_sets, lme_from_spec
from .momentsdp import (
    BOUND_REACHED,
    INCONCLUSIVE,
    INFEASIBLE,
    MINIMIZERS,
    TOL_FEAS,
    HierarchyOutcome,
    PolyProgram,
    minimize,
)
from .polycore import Polynomial, dot, violation


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


@dataclass
class VipProblem:
    """Field F, constraint system, and the multipliers binding them."""

    F: tuple[Polynomial, ...]
    cs: ConstraintSystem
    lam: LmeSet

    @property
    def n(self) -> int:
        return self.cs.n

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


def build_problem(F, cs: ConstraintSystem, lme: dict | str) -> VipProblem:
    """Assemble a problem; lme is a problem file's spec dict or a catalog kind name."""
    if isinstance(lme, str):
        lme = {"kind": lme}
    elif not isinstance(lme, dict):
        raise ValueError(f"cannot interpret lme={lme!r}")
    F = tuple(F)
    # the multipliers read F by position
    if len(F) != cs.n:
        raise ValueError("field arity does not match the constraint system")
    return VipProblem(F, cs, lme_from_spec(lme, F, cs))


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


def _same(a, b) -> bool:
    return np.max(np.abs(a - b)) <= DUP_TOL


class CutSet:
    """Comparison points v, each giving the cut (v - x)^T F(x) >= 0, and the
    points verified as solutions, each with its verdict."""

    def __init__(self):
        self.points: list[np.ndarray] = []
        self.solved: list[tuple[np.ndarray, VerifyResult]] = []

    def add(self, v) -> bool:
        v = np.asarray(v, dtype=float)
        if any(_same(w, v) for w in self.points):
            return False
        self.points.append(v)
        return True

    def verdict(self, u) -> VerifyResult | None:
        """The verdict of a solved point within DUP_TOL of u, if any."""
        return next((ver for w, ver in self.solved if _same(w, u)), None)

    def __len__(self) -> int:
        return len(self.points)

    def polys(self, F: tuple[Polynomial, ...]) -> list[Polynomial]:
        n = F[0].n
        x = [Polynomial.variable(n, t) for t in range(n)]
        return [dot((float(c) - x_t for c, x_t in zip(v, x)), F, n) for v in self.points]


# -- outcome records -----------------------------------------------------------


SOLUTION = "solution"
SOLUTIONS = "solutions"
NO_SOLUTION = "no_solution"
INCONCLUSIVE_RUN = "inconclusive"
CUT = "cut"


@dataclass
class VerifyResult:
    status: str  # SOLUTION | CUT | INCONCLUSIVE_RUN
    eps: float | None
    cut_points: list = field(default_factory=list)
    via: str = ""  # "bound" | "points"


@dataclass
class SolveResult:
    """The solutions a run found, each with its eps and objective, whether
    they are the whole solution set, and the search loops it took."""

    status: str  # SOLUTION | SOLUTIONS | NO_SOLUTION | INCONCLUSIVE_RUN
    solutions: list = field(default_factory=list)
    eps: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    complete: bool = False
    # the order of the infeasibility certificate that ended the run, if any;
    # not trusted when it holds only at the relaxed tolerance
    order: int | None = None
    trusted: bool = True
    loops: int = 0
    log: list = field(default_factory=list)


# -- search and verification ----------------------------------------------------


def _cut_program(problem: VipProblem, objective: Polynomial, cuts: CutSet, extra) -> PolyProgram:
    """Minimize `objective` over the KKT set cut by `cuts` and `extra`."""
    kkt = problem.kkt
    ineqs = list(kkt.inequalities) + cuts.polys(problem.F) + list(extra)
    return PolyProgram(objective, kkt.equations, tuple(ineqs), problem.n)


def find_candidate(
    problem: VipProblem,
    theta: ThetaForm,
    cuts: CutSet,
    extra_ineqs: list[Polynomial],
    opts: SolverOptions,
) -> HierarchyOutcome:
    prog = _cut_program(problem, theta.poly, cuts, extra_ineqs)
    return minimize(prog, opts.k_max_extra, opts.seed)


def _kkt_polish(field, jac, cs: ConstraintSystem, x0, tol_active=1e-4):
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
    for _ in range(12):
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


def enclosing_ball(cs: ConstraintSystem) -> tuple[np.ndarray, float] | None:
    """A ball B(c, r) that holds X, or None when no constraint gives one.

    A degree-2 constraint s g >= 0 (s = 1 for an inequality, either sign for
    an equality) whose quadratic part -A is negative definite reads
    (x - c)^T A (x - c) <= rho, so |x - c|^2 <= rho / lambda_min(A).
    """
    for i, g in enumerate(cs.g):
        if g.degree == 2:
            const, lin, quad = g.quadratic_parts()
            for sign in (1.0, -1.0) if i in cs.eq_idx else (1.0,):
                a_mat = -sign * quad
                low = np.linalg.eigvalsh(a_mat)[0]
                if low > 0:
                    c = np.linalg.solve(a_mat, sign * lin) / 2.0
                    return c, math.sqrt(max(sign * const + float(c @ a_mat @ c), 0.0) / low)
    return None


def _is_convex(cs: ConstraintSystem) -> bool:
    """Every equality affine, every inequality affine or a concave quadratic."""
    for i, g in enumerate(cs.g):
        if g.degree <= 1:
            continue
        if i in cs.eq_idx or g.degree > 2 or np.linalg.eigvalsh(g.quadratic_parts()[2])[-1] > 0:
            return False
    return True


def verify_candidate(problem: VipProblem, u, opts: SolverOptions | None = None) -> VerifyResult:
    """Decide whether u solves the problem by bounding min_X (y - u)^T F(u).

    One relaxation minimizes over X cut with a ball around u.  A bound or
    minimizers at >= -EPS_TOL (via "bound" or "points") certify u only when
    X lies in the ball, which is made to hold `enclosing_ball`, or X is
    convex, so that a point of X below the bound gives one inside the ball;
    else the verdict is INCONCLUSIVE.  Minimizers below -EPS_TOL become cut
    points on any X, once polished, when they still lie in X and compare
    below -EPS_TOL: every such point of X is a valid comparison point.
    """
    opts = opts or SolverOptions()
    u = np.asarray(u, dtype=float)
    n = problem.n
    cs = problem.cs
    fu = problem.field_at(u)
    ell = Polynomial.quadratic(n, -float(fu @ u), fu)  # (x - u)^T F(u)
    phi = tuple(cs.g[i] for i in cs.eq_idx)
    psi = tuple(cs.g[i] for i in cs.ineq_idx)
    radius = float(u @ u) + 100.0
    holder = enclosing_ball(cs)
    if holder is not None:
        c, r = holder
        radius = max(radius, (float(np.linalg.norm(u - c)) + r) ** 2)
    # radius - |x - u|^2
    ball = Polynomial.quadratic(n, radius - float(u @ u), 2.0 * u, -np.eye(n))
    prog = PolyProgram(ell, phi, psi + (ball,), n)
    out = minimize(prog, opts.k_max_extra, opts.seed, floor=-EPS_TOL)
    if out.status == MINIMIZERS and out.value < -EPS_TOL:
        # minimizers of the linear comparison objective satisfy the same
        # KKT system with the field frozen at fu
        tol_active = out.widened(1e-4)
        polished = [
            _kkt_polish(lambda x: fu, lambda x: np.zeros((n, n)), cs, p, tol_active)
            for p in out.points
        ]
        # a polished point stays a cut point only while it lies in X and
        # still compares below u; u itself would cut nothing
        pts = [
            p for p in polished
            if violation(p, phi, psi) <= 10 * TOL_FEAS and ell.evaluate(p) < -EPS_TOL
        ]
        if pts:
            return VerifyResult(CUT, float(out.value), pts, via="points")
        return VerifyResult(INCONCLUSIVE_RUN, None)
    # the bound only resolves eps down to the solve's accuracy
    points = out.status == MINIMIZERS and out.accuracy <= EPS_TOL
    if out.status != BOUND_REACHED and not points:
        return VerifyResult(INCONCLUSIVE_RUN, None)
    if holder is None and not _is_convex(cs):
        return VerifyResult(INCONCLUSIVE_RUN, float(out.value))
    return VerifyResult(SOLUTION, float(out.value), via="points" if points else "bound")


def _check_points(
    problem: VipProblem, theta: ThetaForm, out: HierarchyOutcome, cuts: CutSet,
    opts: SolverOptions, log: list, loop: int, above: float = -math.inf, margin: float = 0.0,
) -> tuple[tuple[np.ndarray, VerifyResult] | None, int]:
    """Polish and verify the points of `out`, turning rejected ones into cuts.

    A polished point u with theta(u) - above <= margin is skipped; every
    other one gets a `verify` entry in `log`.  A point near one in
    `cuts.solved` reuses its verdict, a new SOLUTION is kept there, CUT
    points join `cuts`, and an INCONCLUSIVE point adds nothing.  Returns the
    first solution as (u, verdict), or None, and the number of cuts added.
    """
    added = 0
    for u in out.points:
        t0 = time.perf_counter()
        u = polish_candidate(problem, u, out.widened(1e-4))
        if theta.evaluate(u) - above <= margin:
            continue
        ver = cuts.verdict(u)
        if ver is None:
            ver = verify_candidate(problem, u, opts)
            if ver.status == SOLUTION:
                cuts.solved.append((u, ver))
        log.append({
            "phase": "verify", "loop": loop, "status": ver.status,
            "eps": ver.eps, "via": ver.via, "time": round(time.perf_counter() - t0, 3),
        })
        if ver.status == SOLUTION:
            return (u, ver), added
        if ver.status == CUT:
            added += sum(cuts.add(v) for v in ver.cut_points)
    return None, added


def _solve_loop(
    problem: VipProblem,
    theta: ThetaForm,
    cuts: CutSet,
    extra_ineqs: list[Polynomial],
    opts: SolverOptions,
    log: list,
) -> SolveResult:
    """Search, verify and cut until one pass ends, logging each step to `log`.

    The result holds at most one solution.  Only NO_SOLUTION carries an
    order, that of its infeasibility certificate, whose trust it carries
    too, and only it is complete.
    """
    for loop in range(opts.max_loops):
        t0 = time.perf_counter()
        cand = find_candidate(problem, theta, cuts, extra_ineqs, opts)
        log.append({
            "phase": "search", "loop": loop, "status": cand.status, "order": cand.order,
            "value": cand.value, "trusted": cand.trusted, "cuts": len(cuts),
            "time": round(time.perf_counter() - t0, 3),
        })
        if cand.status == INFEASIBLE:
            return SolveResult(
                NO_SOLUTION, complete=True, order=cand.order, trusted=cand.trusted, loops=loop + 1
            )
        if cand.status != MINIMIZERS:
            return SolveResult(INCONCLUSIVE_RUN, loops=loop + 1)
        found, added = _check_points(problem, theta, cand, cuts, opts, log, loop)
        if found is not None:
            u, ver = found
            return SolveResult(SOLUTION, [u], [ver.eps], [theta.evaluate(u)], loops=loop + 1)
        if not added:
            # no progress possible: the same candidates would return
            log.append({"phase": "search", "loop": loop, "status": "stalled"})
            return SolveResult(INCONCLUSIVE_RUN, loops=loop + 1)
    return SolveResult(INCONCLUSIVE_RUN, loops=opts.max_loops)


def solve_one(problem: VipProblem, opts: SolverOptions | None = None) -> SolveResult:
    """Find one solution or certify that none exists."""
    opts = opts or SolverOptions()
    log: list = []
    res = _solve_loop(problem, random_theta(problem.n, opts.seed), CutSet(), [], opts, log)
    res.log = log
    return res


def find_delta(
    problem: VipProblem,
    theta: ThetaForm,
    cuts: CutSet,
    x_star,
    opts: SolverOptions,
    log: list,
) -> tuple[float, bool]:
    """Gap width so no solution has objective in (theta(x*), theta(x*)+delta].

    Certified by maximizing theta over the KKT set, cut by `cuts`, within
    the band theta <= theta(x*) + delta: the maximum always is >= theta(x*)
    since x* sits in the band, and delta is accepted when it is
    <= theta(x*) + tol.  A band that fails the test at MINIMIZERS has
    extracted the KKT points that block the gap.  Its maximizers more than
    tol above theta(x*) go through `_check_points`, the step every search
    candidate takes: an INCONCLUSIVE one adds nothing, and CUT points go
    into `cuts`, after which the band is solved again at the same delta.
    Only when no maximizer adds a cut, or one is a solution, does delta
    shrink by RHO.  At most MAX_SHRINKS + 1 bands are solved either way.

    The cuts keep the certificate sound: a cut point v lies in X, so every
    solution x satisfies (v - x)^T F(x) >= 0 and stays in the cut band, x*
    included, while the rejected maximizer u, with (v - u)^T F(u) < -EPS_TOL,
    leaves it.  A certified cut band thus still proves that no solution has
    objective in (theta(x*), theta(x*) + delta].  The cuts are shared with
    the searches that follow.

    Appends one entry per band tried, and one per maximizer verified, to
    `log` and returns (delta, certified).
    """
    theta_star = theta.evaluate(x_star)
    accept = 1e-6 * max(1.0, abs(theta_star))
    delta = DELTA0
    for attempt in range(MAX_SHRINKS + 1):
        t0 = time.perf_counter()
        band = Polynomial.constant(problem.n, theta_star + delta) - theta.poly
        prog = _cut_program(problem, theta.poly.scale(-1.0), cuts, [band])
        out = minimize(prog, opts.k_max_extra, opts.seed, floor=-(theta_star + accept))
        gamma = None if out.value is None else -float(out.value)
        log.append({
            "phase": "delta", "loop": attempt, "status": out.status, "delta": delta,
            "gamma": gamma, "order": out.order, "trusted": out.trusted,
            "time": round(time.perf_counter() - t0, 3),
        })
        if out.status == BOUND_REACHED:
            return delta, True
        if out.status == INFEASIBLE:
            # the band holds x*, so emptiness is numerical, and a smaller band
            # is a subset of this one: the gap stays uncertified
            return delta, False
        # a relaxed solve cannot pin gamma tighter than its own accuracy
        accept_eff = out.widened(accept, max(1.0, abs(theta_star)))
        if out.status in (MINIMIZERS, INCONCLUSIVE) and gamma is not None:
            if gamma - theta_star <= accept_eff:
                return delta, True
        # only a MINIMIZERS outcome carries points
        found, added = _check_points(
            problem, theta, out, cuts, opts, log, attempt, theta_star, accept_eff
        )
        # a solution above theta(x*) sits in every band this wide
        if found is not None or not added:
            delta *= RHO
    return delta, False


def solve_all(problem: VipProblem, opts: SolverOptions | None = None) -> SolveResult:
    """Enumerate solutions in increasing generic-objective order.

    Each pass searches strictly above the gap certified over the last
    solution's objective; the first pass has no floor.  A pass without a
    solution ends the run, complete when it is infeasible and the last gap
    is certified.  The loops of all passes add up; completeness and the
    certificate come from the last pass.
    """
    opts = opts or SolverOptions()
    theta = random_theta(problem.n, opts.seed)
    cuts = CutSet()
    res = SolveResult(INCONCLUSIVE_RUN)
    sols, eps, objs, log = res.solutions, res.eps, res.objectives, res.log
    floor: list[Polynomial] = []
    certified = True
    while True:
        nxt = _solve_loop(problem, theta, cuts, floor, opts, log)
        res.loops += nxt.loops
        res.complete, res.order, res.trusted = nxt.complete and certified, nxt.order, nxt.trusted
        if nxt.status != SOLUTION:
            break
        (u,), (e,), (objective,) = nxt.solutions, nxt.eps, nxt.objectives
        if any(_same(u, s) for s in sols):
            log.append({"phase": "enumerate", "loop": len(sols), "status": "duplicate"})
            break
        if objs and objective < objs[-1] - 1e-6:
            log.append({"phase": "enumerate", "loop": len(sols), "status": "order_violation"})
            break
        if not certified:
            log.append({"phase": "enumerate", "loop": len(sols), "status": "uncertified_gap"})
        sols.append(u)
        eps.append(e)
        objs.append(objective)
        if len(sols) == MAX_SOLUTIONS:
            break
        delta, certified = find_delta(problem, theta, cuts, u, opts, log)
        floor = [Polynomial.constant(problem.n, -(objective + delta)) + theta.poly]

    res.status = SOLUTIONS if sols else (NO_SOLUTION if res.complete else INCONCLUSIVE_RUN)
    return res


# -- counting bound -----------------------------------------------------------


def complete_symmetric(r: int, vals) -> int:
    """h_r(vals): sum of all degree-r monomials in the given values."""
    if r < 0:
        raise ValueError("negative degree")
    # in place, t rising: h_t(vals[:i+1]) = h_t(vals[:i]) + v_i h_{t-1}(vals[:i+1])
    ways = [1] + [0] * r
    for v in vals:
        v = int(v)
        for t in range(1, r + 1):
            ways[t] += v * ways[t - 1]
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
    return math.prod(g_degs) * complete_symmetric(n - m, [a] + g_degs)


def active_subset_bounds(problem: VipProblem):
    """Per-active-set candidate bounds and their total.

    Active sets keep every equality and any inequality subset small enough
    to stay determined (at most n active constraints).
    """
    cs = problem.cs
    f_degs = [f.degree for f in problem.F]
    eq_degs = [cs.g[i].degree for i in cs.eq_idx]
    max_extra = cs.n - len(cs.eq_idx)
    if max_extra < 0:
        raise ValueError(f"{len(cs.eq_idx)} equality constraints for n={cs.n} variables")
    # the equalities, and the inequalities when an active set has room for one
    for i in sorted(cs.eq_idx + (cs.ineq_idx if max_extra else ())):
        if cs.g[i].degree == 0:
            raise ValueError(f"constraint {i} has degree 0")
    rows = []
    for size in range(0, max_extra + 1):
        for subset in combinations(cs.ineq_idx, size):
            g_degs = eq_degs + [cs.g[i].degree for i in subset]
            bound = algebraic_degree_bound(f_degs, g_degs)
            rows.append({"active": tuple(cs.eq_idx) + subset, "bound": bound})
    return rows, sum(r["bound"] for r in rows)
