"""Moment relaxations for polynomial programs and the hierarchy driver.

A program is  min theta(x)  over the set cut out by equality generators
(phi, each p = 0) and inequality generators (psi, each q >= 0).  The k-th
relaxation replaces a measure by its pseudo-moment vector y up to degree 2k:

    min  <theta, y>
    s.t. y_0 = 1
         <p * x^delta, y> = 0      for p in phi, |delta| <= 2(k - ceil(deg p / 2))
         M_k[y] >= 0               (moment matrix)
         L_q^k[y] >= 0             for q in psi (localizing matrices)

Relaxation values grow with k and lower-bound the true minimum.  An
infeasible relaxation certifies the program itself is infeasible.  Two
finite-convergence detectors turn an optimal y into candidate minimizers:
the point check (the degree-one moments) and flat extension (Curto &
Fialkow): when rank M_t == rank M_{t-1}, M_t has a unique r-atomic
representing measure, whose atoms are read off a multiplication-operator
eigendecomposition (Henrion & Lasserre).  A candidate counts only when it
is feasible and reaches the bound, so no answer rests on the rank test.

Tolerance contract.  Every accept test has a fixed base tolerance: TOL_FEAS
for constraint violation, TOL_GAP for the distance between a point's value
and the bound, and TOL_RANK both for the singular values that count toward a
rank and for the atom reconstruction residual.  A relaxation solved only
to accuracy a (the worst of the backend's primal, dual and gap residuals)
cannot support tighter tests, so each test takes the larger of its base and
a widened accuracy: GAP_WIDENING * a for the gap (scaled by the bound's
size) and for feasibility, RANK_WIDENING * a for rank and extraction.  A
caller widens its own tests by the accuracy of the outcome it reads, with
`HierarchyOutcome.widened`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from . import sdpbackend as sb
from .polycore import Polynomial, basis, lift, monomial_index, violation

INFEASIBLE = "infeasible"
MINIMIZERS = "minimizers"
INCONCLUSIVE = "inconclusive"
BOUND_REACHED = "bound_reached"

TOL_FEAS = 1e-6
TOL_GAP = 1e-6
TOL_RANK = 1e-6
GAP_WIDENING = 30.0
RANK_WIDENING = 50.0

class ExtractionFailed(RuntimeError):
    """Atom extraction could not reproduce the moment matrix."""


def half_degree(p: Polynomial) -> int:
    return max(1, math.ceil(p.degree / 2))


@dataclass(frozen=True)
class PolyProgram:
    """min theta over {p = 0 for p in phi, q >= 0 for q in psi}."""

    theta: Polynomial
    phi: tuple[Polynomial, ...]
    psi: tuple[Polynomial, ...]
    n: int

    def __post_init__(self):
        for p in (self.theta, *self.phi, *self.psi):
            if p.n != self.n:
                raise ValueError("program mixes polynomials of different arity")

    @property
    def d0(self) -> int:
        degs = [half_degree(self.theta)]
        degs += [half_degree(p) for p in self.phi]
        degs += [half_degree(q) for q in self.psi]
        return max(degs)


@lru_cache(maxsize=None)
def _pair_sums(n: int, t: int):
    """Upper-triangle pairs (i <= j) of basis(n, t) and their exponent sums b_i + b_j."""
    exps = basis(n, t)
    rows, cols = np.triu_indices(len(exps))
    return rows, cols, exps[rows] + exps[cols]


def localizing_block(q: Polynomial, k: int, n: int) -> sb.SdpBlock:
    """Localizing matrix of q at order k as a PSD block over the moments.

    Entry (i, j) is the Riesz functional L_y(q * x^(b_i + b_j)) of moments y;
    the block's triplets list it term by term.  The moment matrix is the
    localizing matrix of the constant 1.
    """
    if q.is_zero:
        raise ValueError("cannot localize the zero polynomial")
    t = k - math.ceil(q.degree / 2)
    if t < 0:
        raise ValueError(f"order {k} too small to localize degree {q.degree}")
    rows, cols, sums = _pair_sums(n, t)
    return sb.SdpBlock(
        len(basis(n, t)),
        monomial_index(sums[:, None, :] + q.exps).ravel(),
        np.repeat(rows, len(q.coefs)),
        np.repeat(cols, len(q.coefs)),
        np.tile(q.coefs, len(rows)),
    )


def build_relaxation(prog: PolyProgram, k: int) -> sb.SdpProblem:
    """The k-th relaxation of prog as an SDP over its moments y."""
    if k < prog.d0:
        raise ValueError(f"relaxation order {k} below the program minimum d0={prog.d0}")
    n = prog.n
    m = len(basis(n, 2 * k))

    c = np.zeros(m)
    c[monomial_index(prog.theta.exps)] = prog.theta.coefs

    # row 0 fixes y_0 = 1; each p in phi adds <p * x^delta, y> = 0 for every
    # delta in basis(n, 2 t_p)
    parts = [np.eye(1, m)]
    for p in prog.phi:
        if p.is_zero:
            continue
        shifts = basis(n, 2 * (k - math.ceil(p.degree / 2)))
        idx = monomial_index(shifts[:, None, :] + p.exps)
        rows = np.zeros((len(idx), m))
        rows[np.arange(len(idx))[:, None], idx] = p.coefs
        parts.append(rows)
    eq_rows = np.vstack(parts)
    eq_rhs = np.eye(1, len(eq_rows)).ravel()

    blocks = [localizing_block(Polynomial.constant(n, 1.0), k, n)]
    for q in prog.psi:
        if q.is_zero:
            continue
        if q.degree == 0:
            if q.coefs[0] < 0:  # the impossible 1x1 block [q * y_0]
                blocks.append(localizing_block(q, 0, n))
            continue
        blocks.append(localizing_block(q, k, n))
    return sb.SdpProblem(m, c, eq_rows, eq_rhs, blocks)


# -- finite convergence detectors ------------------------------------------


def moment_matrix(y: np.ndarray, n: int, t: int) -> np.ndarray:
    """M_t[y] of moments y in n variables.  Every basis is a prefix of the
    next, so M_s[y] for s <= t is its leading len(basis(n, s)) block."""
    return localizing_block(Polynomial.constant(n, 1.0), t, n).evaluate(y)


def _numeric_rank(mat: np.ndarray, tol_rank: float) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if len(sv) == 0:
        return 0
    thr = tol_rank * max(float(sv[0]), 1.0)
    return int((sv > thr).sum())


def _leading(mk: np.ndarray, n: int, t: int) -> np.ndarray:
    """M_t[y] as the leading block of a moment matrix mk = M_k[y] with t <= k."""
    size = len(basis(n, t))
    if size > len(mk):
        raise ValueError(f"M_{t} is larger than the given {len(mk)}x{len(mk)} moment matrix")
    return mk[:size, :size]


def flat_truncation(mk: np.ndarray, n: int, t: int, tol_rank: float = TOL_RANK) -> int | None:
    """Rank r when M_t[y] and M_{t-1}[y], read off mk = M_k[y], agree in numeric rank."""
    r_big = _numeric_rank(_leading(mk, n, t), tol_rank)
    r_small = _numeric_rank(_leading(mk, n, t - 1), tol_rank)
    return r_big if r_big == r_small else None


def _pivot_rows(p_mat: np.ndarray, r: int, tol: float) -> list[int] | None:
    """First r rows of p_mat (in order) that are numerically independent."""
    rows: list[int] = []
    q_basis = np.zeros((p_mat.shape[1], 0))
    for i in range(p_mat.shape[0]):
        v = p_mat[i].copy()
        if q_basis.shape[1]:
            v = v - q_basis @ (q_basis.T @ p_mat[i])
            v = v - q_basis @ (q_basis.T @ v)
        nv = np.linalg.norm(v)
        if nv > tol:
            q_basis = np.column_stack([q_basis, v / nv])
            rows.append(i)
            if len(rows) == r:
                return rows
    return None


def extract_minimizers(
    mk: np.ndarray,
    n: int,
    t: int,
    r: int,
    seed: int = 0,
    tol: float = TOL_RANK,
) -> list[np.ndarray]:
    """Read r atoms out of a flat M_t[y], the leading block of mk = M_k[y].

    Raises ExtractionFailed when the reconstructed atomic measure does not
    reproduce M_t[y] to the requested tolerance.
    """
    mat = _leading(mk, n, t)
    last_err = None
    for attempt_seed in (seed, seed + 1):
        try:
            return _extract_once(mat, n, t, r, attempt_seed, tol)
        except ExtractionFailed as exc:
            last_err = exc
    raise last_err


def _extract_once(mat, n, t, r, seed, tol) -> list[np.ndarray]:
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    vals = vals[order[:r]]
    vecs = vecs[:, order[:r]]
    if vals.min() <= 0:
        raise ExtractionFailed(f"moment matrix has nonpositive retained eigenvalue {vals.min()}")
    p_mat = vecs * np.sqrt(vals)[None, :]

    scale = np.linalg.norm(p_mat) / math.sqrt(max(1, r))
    rows = _pivot_rows(p_mat, r, 1e-6 * max(scale, 1.0))
    if rows is None:
        raise ExtractionFailed("could not find an independent pivot row set")
    try:
        c_mat = np.linalg.solve(p_mat[rows].T, p_mat.T).T
    except np.linalg.LinAlgError:
        c_mat = p_mat @ np.linalg.pinv(p_mat[rows])

    shifted = basis(n, t)[rows][:, None, :] + np.eye(n, dtype=np.int64)[None]
    if shifted.sum(axis=-1).max() > t:
        raise ExtractionFailed("pivot monomial shifts outside the truncation")
    idx = monomial_index(shifted)
    shift_ops = [c_mat[idx[:, i]] for i in range(n)]

    rng = np.random.default_rng(seed)
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    combined = sum(w * op for w, op in zip(weights, shift_ops))
    _, q_mat = sla.schur(combined, output="real")
    atoms = []
    for a in range(r):
        q_a = q_mat[:, a]
        atoms.append(np.array([float(q_a @ op @ q_a) for op in shift_ops]))

    # merge near-duplicate atoms
    merged: list[np.ndarray] = []
    for u in atoms:
        if all(np.linalg.norm(u - v) > 1e-8 for v in merged):
            merged.append(u)

    design = np.column_stack(
        [np.outer(lv := lift(u, t), lv).ravel() for u in merged]
    )
    w, *_ = np.linalg.lstsq(design, mat.ravel(), rcond=None)
    recon = (design @ w).reshape(mat.shape)
    err = np.linalg.norm(mat - recon) / max(1.0, np.linalg.norm(mat))
    if err > tol:
        raise ExtractionFailed(f"atom reconstruction residual {err:.3e} exceeds {tol:.1e}")
    return merged


# -- hierarchy driver ---------------------------------------------------------


@dataclass
class HierarchyOutcome:
    status: str
    order: int
    value: float | None = None
    points: list = field(default_factory=list)
    # accuracy of the solve behind value/points; callers widen their own
    # tolerances accordingly when the backend ran in relaxed mode
    accuracy: float = 0.0
    trusted: bool = True

    def widened(self, base: float, scale: float = 1.0) -> float:
        """A test's tolerance `base`, widened to RANK_WIDENING * accuracy * scale.

        The vipsolver module widens two tests with it: the active-set
        tolerance of its point polish (base 1e-4), for every extracted point,
        and the accept test of its gap width (base 1e-6; base and widening
        both scaled by max(1, |theta(x*)|)), which also decides which band
        maximizers to check.
        """
        return max(base, RANK_WIDENING * self.accuracy * scale)


def dilate_program(prog: PolyProgram, s) -> PolyProgram:
    """The program in z with x = s*z; minimizers and bounds transform exactly."""
    return PolyProgram(
        prog.theta.dilated(s),
        tuple(p.dilated(s) for p in prog.phi),
        tuple(p.dilated(s) for p in prog.psi),
        prog.n,
    )


def _scale_update(s_vec: np.ndarray, y: np.ndarray) -> np.ndarray:
    # grow the dilation toward the diagonal second moments of y; never shrink,
    # so well-scaled problems keep the identity and stay bit-for-bit unchanged
    m2 = y[monomial_index(2 * np.eye(len(s_vec), dtype=np.int64))]
    factors = np.clip(np.sqrt(np.maximum(m2, 1.0)), 1.0, 100.0)
    return np.minimum(s_vec * factors, 1e4)


def minimize(
    prog: PolyProgram, k_max_extra: int = 4, seed: int = 0, floor: float | None = None
) -> HierarchyOutcome:
    """Run relaxations of increasing order until a certificate fires.

    Orders d0 .. d0 + k_max_extra are tried; `seed` picks the extraction's
    random combination.  Each order is solved on dilate_program(prog, s):
    s starts at ones, where the dilation is exact, and grows toward the
    latest moment estimate, since large solution coordinates otherwise blow
    up the moment matrices' dynamic range and stall the backend.  The run
    ends with INFEASIBLE at an infeasible order (trusted unless its
    certificate is relaxed), BOUND_REACHED at a trusted
    bound >= `floor` (without extraction), or MINIMIZERS (in x) once
    candidate points reach the bound: the degree-one moments, else the atoms
    of each flat M_t, t = 1 .. k, in turn; else it is INCONCLUSIVE at order
    d0 + k_max_extra, with the largest bound and the accuracy and trust of
    the last optimal solve.
    """
    d0 = prog.d0
    s_vec = np.ones(prog.n)
    out = HierarchyOutcome(INCONCLUSIVE, d0 + k_max_extra)

    for k in range(d0, d0 + k_max_extra + 1):
        prog_k = dilate_program(prog, s_vec)
        res = sb.solve(build_relaxation(prog_k, k))
        # a solve the backend settled at its relaxed tolerance is not trusted,
        # be it a certificate or a bound
        trusted = not res.residuals.get("relaxed", False)
        if res.status == sb.PRIMAL_INFEASIBLE:
            return HierarchyOutcome(INFEASIBLE, k, trusted=trusted)
        if res.status != sb.OPTIMAL:
            continue

        bound = res.objective
        # an untrusted bound cannot stop the run, and the solve's accuracy
        # widens every test below
        acc = res.accuracy
        out.value = bound if out.value is None else max(out.value, bound)
        out.accuracy, out.trusted = acc, trusted
        s_used, s_vec = s_vec, _scale_update(s_vec, res.y * lift(s_vec, 2 * k))

        gap_eff = max(TOL_GAP, GAP_WIDENING * acc * max(1.0, abs(bound)))
        feas_eff = max(TOL_FEAS, GAP_WIDENING * acc)
        rank_eff = max(TOL_RANK, RANK_WIDENING * acc)

        if trusted and floor is not None and bound >= floor:
            return HierarchyOutcome(BOUND_REACHED, k, value=bound, accuracy=acc)

        def minimizers(candidates) -> HierarchyOutcome | None:
            """MINIMIZERS with the candidates (in z) that reach the bound, or None."""
            good = [
                s_used * u
                for u in candidates
                if violation(u, prog_k.phi, prog_k.psi) <= feas_eff
                and abs(prog_k.theta.evaluate(u) - bound) <= gap_eff
            ]
            return HierarchyOutcome(MINIMIZERS, k, bound, good, acc, trusted) if good else None

        # the point check: the degree-one moments as a candidate minimizer
        found = minimizers([res.y[1 : prog.n + 1]])
        if found:
            return found

        mk = moment_matrix(res.y, prog.n, k)
        for t in range(1, k + 1):
            r = flat_truncation(mk, prog.n, t, rank_eff)
            if r is None:
                continue
            try:
                found = minimizers(extract_minimizers(mk, prog.n, t, r, seed, rank_eff))
            except ExtractionFailed:
                continue
            if found:
                return found

    return out
