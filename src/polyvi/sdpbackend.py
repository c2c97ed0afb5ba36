"""Reference semidefinite solver: dense primal-dual interior point method.

Problem form (the only form the rest of the package produces):

    minimize    c . y                          y in R^m
    subject to  a_i . y  = b_i                 i = 1..p
                sum_j y_j A_jl  >= 0           one PSD constraint per block l

The blocks have no constant term: a moment relaxation fixes y_0 = 1 by an
equality row, and a constant enters as a multiple of y_0.  Internally the
problem is rewritten in conic form  G y + s = 0,  s in a product of PSD
cones.  A cone vector holds each block's symmetric s x s matrix flattened
row-major, so the trace inner product of two blocks is the dot product of
their vectors and the Frobenius norm is the 2-norm.  The problem is solved
on the homogeneous self-dual embedding with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step.  The embedding is what makes
infeasibility detection reliable: instead of diverging, an infeasible
instance drives tau -> 0 and the iterate becomes a primal infeasibility
certificate, a ray (y, z) with A^T y + G^T z = 0, z >= 0 and b . y < 0.
There is no unboundedness certificate, because every relaxation the
package builds is bounded below: a search's theta is positive definite, so
<theta, y> = tr(Theta M_1(y)) >= 0; the gap band's localizer bounds
<theta, y> <= theta* + delta; and the verification ball's localizer bounds
the second moments, so M_1 >= 0 bounds the first.  An unbounded program
ends in a numerical failure.

Per iteration the method

  1. computes the NT scaling point of each block from Cholesky factors of
     the primal and dual slabs (one small SVD per block),
  2. eliminates ds and dz from the Newton system, leaving a saddle system in
     (dy_vars, dy_eq) solved by two Cholesky factorizations.  Its matrix
     H_ab = sum over blocks of <A_a, T^-1 A_b T^-1>, with T = R R^T the NT
     scaling of the block, is assembled from the sparse constraint matrices
     without densifying any A_b.  For a block of size s, where A_b has c_b
     nonzero rows I_b, the compressed rows A_b[I_b, :] T^-1 cost O(s*nnz)
     for all variables together.  Per column chunk of variables b < stop,
     the entries H_ab, a <= b, read T^-1 A_b T^-1 only on the upper
     positions (r <= c) that the A_a of the rows a < stop use, and those lie
     in its rows < r, r the chunk's row bound; on a graded moment block r
     is a short leading range for most chunks, as in the sparse Schur
     formulas of Fujisawa, Kojima & Nakata (Math. Program. 79, 1997).  So
     rows < r of T^-1 A_b T^-1 = T^-1[I_b, :]^T (A_b[I_b, :] T^-1) cost
     r*s*c_b per variable, one index gathers their upper positions, and a
     sparse contraction with the A_a (weighted 2 off the diagonal), O(m*nnz)
     in all, gives H_ab for every a <= b.  A chunk of k variables keeps
     k*r*s and k*stop within `_SCHUR_CHUNK`, which bounds both its stack of
     T^-1 A_b T^-1 and its contraction output.  Each chunk writes its columns
     of H as contiguous rows of one m x m buffer, allocated once per solve,
     and H is that buffer's transpose: a Fortran-ordered view whose upper
     triangle (a <= b), all that the factorization H = R^T R reads, LAPACK's
     potrf factors in place, so an iteration holds one m x m array, as CSDP
     does (Borchers, Optim. Methods Softw. 11, 1999).  With W = R^-T A^T,
     the equality complement A H^-1 A^T is W^T W, factored in place as
     well.  A Cholesky that fails or comes out non-finite ends the solve
     at `scaling` (`initial_factor` before the loop), with no shifted
     retry.  Besides H, an iteration holds two p x m arrays, the equality
     rows A (only the rank's rows of the SVD) and W, and W is dropped
     before the next assembly (`solve` releases the problem and its dense
     rows once setup has copied what it reads).  From m = `_PARALLEL_M` on,
     the Cholesky of H and W run on every OpenBLAS thread, and, when that
     is more than one, the assembly runs on two Python threads, each owning
     a contiguous range of H's columns split where the estimated work
     halves: the two steps SDPARA parallelizes (Yamashita, Fujisawa &
     Kojima, Parallel Comput. 29, 2003).  The split bounds every block's
     chunks on both paths, so each column sums the same products in the
     same order and H is bitwise the same on one thread or two.  W^T W and
     the per-block work stay on the one thread `solve` sets (`blas`),
  3. takes an affine scaling step to pick the centering weight sigma, then a
     combined corrected step damped to 99% of the distance to the boundary.

Equality rows are orthonormalized once by SVD before the main loop; this
removes the redundancy that moment-style relaxations carry in bulk, and an
inconsistent right-hand side short-circuits to primal infeasibility.

The score of an iterate is the worst of its relative primal, dual and gap
residuals.  `SdpResult.exit` records where a solve ended:

  - `optimal`: the residuals and the gap are within `_TOL`.
  - `certificate`: the iterate is a primal infeasibility certificate
    within `_TOL`.
  - `stall`: 30 iterations without cutting the best score by 20 %, or,
    while kappa > 1e4 tau and the iterate is a certificate within
    `_RELAXED_TOL`, `_RAY_PATIENCE` iterations without cutting the best
    certificate residual by 20 %.  A solve heading to a certificate has a
    score that grows as tau -> 0, so only the second trigger watches its
    progress; the post-loop path below returns its relaxed certificate.
  - `diverged`: the best score is within the relaxed band `_RELAXED_BAND`
    and the current one exceeds `_DIVERGE_FACTOR` times it.  Once mu/mu0
    nears 1e-10 the Newton systems lose their accuracy and the score climbs
    by orders of magnitude; on the measured relaxations no later iterate
    beat the best one.
  - `step`: the step length is at most 1e-12 or not finite.
  - `scaling`: the Cholesky factorization of a block of S or Z (for the NT
    scaling), of H or of W^T W failed or came out non-finite (`_potrf`).
    No factorization is retried with a shifted matrix.
  - `collapse`: tau or kappa left their cone, or mu fell below 1e-30 mu0.
  - `max_iters`: the iteration limit ran out.
  - `inconsistent` and `initial_factor`: before the first iteration, the
    latter when H or W^T W of the starting point does not factor.

After every loop exit except `optimal` and `certificate`, an iterate whose
kappa dominates tau is tested as a certificate at the looser tolerance
`_RELAXED_TOL`.  Failing that, the saved best iterate is returned, with
`residuals["relaxed"]` set, when its score is within the relaxed band; so
a `diverged` solve returns that best iterate.  Anything else is a numerical
failure.

No randomness is used here, yet a result can differ in its last bits
between processes: the m=1716 search SDP of large-sdp seed 1 has, likely
through an alignment-dependent BLAS path.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .blas import all_blas_threads, blas_threads, one_blas_thread

OPTIMAL = "optimal"
PRIMAL_INFEASIBLE = "primal_infeasible"
NUMERICAL_FAILURE = "numerical_failure"

# the accuracy of the `optimal` and `certificate` exits, and the looser
# bounds of the exits after a break: the score of a best iterate the
# relaxed exit returns, and the residual of a certificate taken there
_TOL = 1e-8
_RELAXED_BAND = max(1e-4, 100 * _TOL)
_RELAXED_TOL = max(1e-6, 10 * _TOL)
_STEP_DAMP = 0.99
# the `diverged` exit's bound on score / best_score.  On the 214 SDPs of the
# benchmark workloads and the acceptance tests, 100, 1e3 and 1e4 all return
# the answers of running on; 10 cuts one eig_linear_cone solve short of a
# later, better iterate.
_DIVERGE_FACTOR = 1e3
# iterations a relaxed Farkas ray may go without cutting its best residual
# by 20 % before the solve ends at `stall`.  A ray that levels off above
# _TOL is what weak infeasibility leaves in the embedding (Permenter,
# Friberg & Andersen, SIAM J. Optim. 27, 2017).  On ncp_product_infeasible's
# m=495 search SDP the ray is best at iteration 16 (3.4e-8) and stays at
# 1.3-2.1e-7 through iteration 31, where the 30-iteration score stall would
# end it; patience 3 ends it at 19 and 5 at 21, with the same status.
_RAY_PATIENCE = 3


@dataclass
class SdpBlock:
    """One PSD constraint  sum_j y_j A_j >= 0  in sparse triplet form.

    There is no constant term.  The coefficients are triplets
    (var_idx, row, col, val) restricted to the upper triangle (row <= col);
    the symmetric mirror entry is implied, not stored.
    """

    size: int
    var_idx: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """Dense symmetric value of the block map at y."""
        mat = np.zeros((self.size, self.size))
        np.add.at(mat, (self.rows, self.cols), self.vals * y[self.var_idx])
        return mat + mat.T - np.diag(np.diag(mat))


@dataclass
class SdpProblem:
    """`eq_rows` is the (p, num_vars) matrix of the rows a_i, `eq_rhs` the p values b_i."""

    num_vars: int
    c: np.ndarray
    eq_rows: np.ndarray
    eq_rhs: np.ndarray
    blocks: list[SdpBlock]

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.num_vars,):
            raise ValueError("objective length does not match num_vars")
        self.eq_rows = np.asarray(self.eq_rows, dtype=float)
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float)
        if self.eq_rows.shape != (len(self.eq_rhs), self.num_vars):
            raise ValueError("eq_rows must have one row per eq_rhs entry and num_vars columns")
        if not self.blocks:
            raise ValueError("need at least one PSD block")


@dataclass
class SdpResult:
    """`exit` names where the solve ended (the module docstring lists the
    exits); `best_score` is the best score of any iterate and `mu_ratio` is
    mu/mu0 at the last one, both None on the exits before the loop.  No
    status claims unboundedness (the module docstring says why)."""

    status: str
    y: np.ndarray | None
    objective: float | None
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    exit: str = ""
    best_score: float | None = None
    mu_ratio: float | None = None

    @property
    def accuracy(self) -> float:
        """Worst of the primal, dual and gap residuals; 0 when none is recorded."""
        return max(self.residuals.get(k, 0.0) for k in ("primal", "dual", "gap"))


# entries of the largest dense work arrays per column chunk of the Schur
# assembly: the stack Z (k x r x s, r the chunk's row bound) and the
# contraction output (stop x k), as the width k of a chunk [start, stop)
# obeys k*r*s <= chunk and k*stop <= chunk.  A smaller chunk pads fewer rows
# (each chunk pads its variables to its own largest c_b) but makes more
# scipy and numpy calls.  Re-solving captured SDPs at 1 thread (2-core Xeon,
# OpenBLAS 0.3.31) with widths bounded by k*s*s, before the row bound, median
# ms per IPM iteration over 4 interleaved rounds with 1e5 / 2.5e5 / 1e6
# entries: 37.8 / 40.7 / 48.0 on six ring SDPs (m=495 and 210) and 246 / 244 /
# 256 on an m=1716 ball SDP, whose rounds spread by up to 12 %.  H's upper
# triangle came out bitwise the same at every chunk from 1e4 to 1e6 entries,
# and so did the iteration counts.  The row bound took that SDP's 120-block
# from 286 chunks and 285M padded multiply-adds per assembly to 113 and 142M.
_SCHUR_CHUNK = 1.0e5
# the least m at which `_factor` runs the Cholesky of H and W = R^-T A^T on
# every OpenBLAS thread (`blas.all_blas_threads`; the `blas` module has the
# timings), and `_schur` assembles H on two threads when that count exceeds
# one.  At m=495 two threads save 0.7 of the two Cholesky calls' 3.9 ms, 2 %
# of an iteration.  W^T W runs in numpy's OpenBLAS and stays on one thread:
# raising that library too added a second OpenBLAS pool whose idle worker
# spun beside the single-threaded work that follows, and large-sdp's solve
# time no longer fell.  scipy's workers sleep right after each call, as the
# package sets OPENBLAS_THREAD_TIMEOUT (`polyvi/__init__.py`).
_PARALLEL_M = 1000


class _Cone:
    """One PSD block: its span of the cone vector and its Schur assembly data.

    A_b is the block's s x s matrix of variable b in G (the scaled -A_b),
    given by the block's entries of G: their position (rows, cols) in the
    block, variable and value.  Only variables up to the block's last one
    get an entry.  Row a of the upper-triangle contraction `contract` is
    A_a on the positions `upper` (flat r*s + c, r <= c, sorted) that any A_a
    uses, doubled off the diagonal, so that <A_a, Z> = contract[a] .
    Z.flat[upper] for every symmetric Z.
    `chunks` holds one tuple (start, stop, row_idx, a_rows, r, prefix) per
    column range [start, stop) of k variables:

      - row_idx: the nonzero rows I_b of each A_b as a (k, c) index array,
        padded with row 0 to the range's largest count c;
      - a_rows: the compressed rows A_b[I_b, :] as one sparse (k*c, s)
        matrix whose row (b - start)*c + j is row I_b[j] of A_b and whose
        padding rows are empty;
      - r: one past the largest row of any upper position that a variable
        a < stop uses, so that rows < r of Z_b = T^-1 A_b T^-1 are all that
        the range's entries H_ab, a <= b, read;
      - prefix: rows a < stop of `contract` on its first n_up columns,
        upper[:n_up] being the positions of rows < r.

    Each range's Z_b are gathered from their (k, r*s) stack with the one
    index upper[:n_up], a prefix of `upper`, and each prefix shares the
    memory of the next longer one, so a cone holds no index or copy per
    range.  With `split` inside the block's variables, no range crosses it.
    """

    def __init__(self, size: int, span: slice, rows, cols, var, vals):
        self.size = size
        self.span = span
        m_used = int(var.max()) + 1 if len(var) else 0
        up = rows <= cols
        upper, pos = np.unique(rows[up] * size + cols[up], return_inverse=True)
        self.upper = upper
        weight = np.where(rows[up] == cols[up], 1.0, 2.0)
        contract = sp.csr_matrix((weight * vals[up], (var[up], pos)), shape=(m_used, len(upper)))
        # the row bound of a range ending at variable b, and each variable's
        # count c_b of nonzero rows, from its distinct (variable, row) pairs
        self.row_bound = np.zeros(m_used, dtype=np.intp)
        np.maximum.at(self.row_bound, var[up], rows[up] + 1)
        np.maximum.accumulate(self.row_bound, out=self.row_bound)
        pairs, pair_of = np.unique(var * size + rows, return_inverse=True)
        pair_var, pair_row = np.divmod(pairs, size)
        self.counts = np.bincount(pair_var, minlength=m_used)
        # what only `cut` reads
        self._build = (contract, rows, cols, var, vals, pair_var, pair_row, pair_of)
        self.chunks = []

    def work(self) -> np.ndarray:
        """Estimated multiply-adds of each variable's Z_b, r*s*c_b."""
        return self.row_bound * self.size * self.counts

    def cut(self, split: int):
        """Build `chunks`, the widest ranges within `_SCHUR_CHUNK`, with a
        bound at `split`, and drop the data only the build reads."""
        size, m_used = self.size, len(self.counts)
        contract, rows, cols, var, vals, pair_var, pair_row, pair_of = self._build
        slot = np.arange(len(pair_var)) - np.searchsorted(pair_var, pair_var)
        # the larger of r*s and stop for a range ending at each variable;
        # both grow with the variable, so each range's width is the longest
        # run from its start whose width times this stays within the chunk
        per_width = np.maximum(self.row_bound * size, np.arange(1, m_used + 1))
        bounds = [0]
        while bounds[-1] < m_used:
            start = bounds[-1]
            end = split if start < split < m_used else m_used
            most = max(1, int(_SCHUR_CHUNK // per_width[start]))
            run = per_width[start:min(end, start + most)]
            fits = np.arange(1, len(run) + 1) * run <= _SCHUR_CHUNK
            bounds.append(start + max(1, int(np.count_nonzero(fits))))
        # the pairs are sorted by variable, and `by_var` orders the entries
        # by variable, in their own order within one, so a range's pairs and
        # entries are slices, not masks over the whole block
        by_var = np.argsort(var, kind="stable")
        var_sorted = var[by_var]
        # longest prefix first: scipy keeps a prefix built on the arrays of a
        # longer one as a view, and copies it only when it keeps under half
        # of them, so all prefixes together hold at most twice `contract`
        data, indices = contract.data, contract.indices
        chunks = []
        for start, stop in reversed(list(zip(bounds, bounds[1:]))):
            k, c = stop - start, int(self.counts[start:stop].max())
            if c == 0:
                continue
            sel = slice(*np.searchsorted(pair_var, [start, stop]))
            row_idx = np.zeros((k, c), dtype=np.intp)
            row_idx[pair_var[sel] - start, slot[sel]] = pair_row[sel]
            sel = by_var[slice(*np.searchsorted(var_sorted, [start, stop]))]
            a_rows = sp.csr_matrix(
                (vals[sel], ((var[sel] - start) * c + slot[pair_of[sel]], cols[sel])),
                shape=(k * c, size),
            )
            r = int(self.row_bound[stop - 1])
            n_up = int(np.searchsorted(self.upper, r * size))
            prefix = sp.csr_matrix(
                (data, indices, contract.indptr[: stop + 1]), shape=(stop, n_up)
            )
            data, indices = prefix.data, prefix.indices
            chunks.append((start, stop, row_idx, a_rows, r, prefix))
        chunks.reverse()
        self.chunks = chunks
        del self._build


class _ConeState:
    """NT scaling data for one block at the current iterate; T = R R^T."""

    __slots__ = ("r_mat", "r_t", "lam", "t_mat", "t_inv")

    def __init__(self, r_mat, rti, lam):
        self.r_mat = r_mat
        self.r_t = r_mat.T
        self.lam = lam
        self.t_mat = r_mat @ r_mat.T
        self.t_inv = rti @ rti.T  # rti equals R^{-T}


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _potrf(mat: np.ndarray, lower: bool, overwrite: bool = False):
    """LAPACK's Cholesky factor of mat from its `lower` triangle, the other
    triangle zeroed, as scipy's cholesky returns it; None when potrf meets a
    non-positive pivot or the factor's diagonal is not finite.  potrf passes
    a NaN or an inf in mat without an error (info 0) but leaves the diagonal
    non-finite then, so the n reads of the diagonal stand for a scan of mat.
    With overwrite, a Fortran-ordered mat is factored in place and holds the
    result, or a partial factor when it fails; otherwise mat is left
    unchanged.  A failed factorization is not retried with a shift: the
    caller ends the solve (`scaling`)."""
    fac, info = dpotrf(mat, lower=lower, clean=1, overwrite_a=overwrite)
    return None if info or not np.isfinite(fac.diagonal()).all() else fac


def _trtrs(r_mat: np.ndarray, rhs: np.ndarray, trans: int) -> np.ndarray:
    """R^-1 rhs (trans=0) or R^-T rhs (trans=1) for a Fortran-ordered upper
    triangular R, raising LinAlgError on a zero pivot as solve_triangular does."""
    x, info = dtrtrs(r_mat, rhs, lower=0, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


class ReferenceIpm:
    """State for one solve; not reusable across problems."""

    def __init__(self, problem: SdpProblem, max_iters: int, pinned: tuple = ()):
        self.max_iters = max_iters
        self.m = problem.num_vars
        self.c_orig = problem.c.copy()

        blk, pos, rows, cols, var, val = self._gather_cones(problem)
        val, raw_a, raw_b = self._equilibrate(problem, blk, rows, cols, var, val)
        # the scaled rows are read only here, so they die before the buffer
        self._orthonormalize_equalities(raw_a, raw_b)
        del raw_a, raw_b
        self.G = sp.csr_matrix((val, (pos, var)), shape=(self.offsets[-1], self.m))
        self.GT = self.G.T.tocsr()
        ends = np.searchsorted(blk, np.arange(len(self.sizes) + 1))
        self.cones = []
        for b, size in enumerate(self.sizes):
            span = slice(self.offsets[b], self.offsets[b + 1])
            ent = slice(ends[b], ends[b + 1])
            self.cones.append(_Cone(size, span, rows[ent], cols[ent], var[ent], val[ent]))
        # from _PARALLEL_M on, `_factor` raises the libraries `pinned` (as
        # `blas.one_blas_thread` yields them) for H and W, and a helper thread
        # assembles the columns [split, m) of H (`_schur`) when their counts,
        # or without a pin the current ones, exceed one; the split halves the
        # estimated work, and it bounds every cone's ranges either way
        self.split, self._factor_pin, self._helper = self.m, (), False
        if self.m >= _PARALLEL_M:
            counts = [c for *_, c in pinned] if pinned else blas_threads().values()
            self._factor_pin, self._helper = pinned, max(counts, default=1) > 1
            work = np.zeros(self.m)
            for cone in self.cones:
                work[: len(cone.counts)] += cone.work()
            total = np.cumsum(work)
            self.split = int(np.clip(np.searchsorted(total, total[-1] / 2), 1, self.m - 1))
        for cone in self.cones:
            cone.cut(self.split)
        # the Schur buffer: row b holds column b of H (`_schur`), and potrf
        # factors H in place (`_factor`)
        self._h_rows = np.empty((self.m, self.m))

        self.identity = np.concatenate([np.eye(size).ravel() for size in self.sizes])
        self.resx0 = max(1.0, float(np.linalg.norm(self.c)))
        self.resy0 = max(1.0, float(np.linalg.norm(self.b)))
        self.nu = float(self.sizes.sum())

    # -- setup -------------------------------------------------------------

    def _gather_cones(self, problem: SdpProblem):
        """The entries of G, one array per field, in G's row-major order.

        Each block's rows of G hold its s x s matrices row-major, and column j
        of G holds the entries of -A_j, mirrored below the diagonal.  The
        fields are an entry's block, its row of G, its row and column in the
        block, its variable and its value.
        """
        self.sizes = np.array([blk.size for blk in problem.blocks])
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes**2)])
        pos, var, val = [], [], []
        for blk, off in zip(problem.blocks, self.offsets):
            size = blk.size
            lower = blk.rows != blk.cols
            pos += [off + blk.rows * size + blk.cols, off + (blk.cols * size + blk.rows)[lower]]
            var += [blk.var_idx, blk.var_idx[lower]]
            val += [-blk.vals, -blk.vals[lower]]
        g = sp.coo_matrix(
            (np.concatenate(val), (np.concatenate(pos), np.concatenate(var))),
            shape=(self.offsets[-1], self.m),
        )
        g.sum_duplicates()  # also sorts the entries row-major
        blk = np.searchsorted(self.offsets, g.row, side="right") - 1
        rows, cols = np.divmod(g.row - self.offsets[blk], self.sizes[blk])
        return blk, g.row, rows, cols, g.col, g.data

    def _equilibrate(self, problem: SdpProblem, blk, rows, cols, var, val) -> np.ndarray:
        """Ruiz scaling: per-column, per-equality-row, one scalar per block.

        A PSD block only tolerates a uniform positive rescaling (congruence
        by alpha*I), so all its entries share one factor.  Column scaling is a
        diagonal change of variables, undone when results are reported.  An
        off-diagonal a_ij weighs sqrt(2)*|a_ij|, the Frobenius norm of the
        pair (a_ij, a_ji).  Returns the scaled values of G's entries, then the
        scaled equality rows and right-hand side, which only setup reads.
        """
        m = self.m
        raw_a, raw_b = problem.eq_rows, problem.eq_rhs
        weight = np.abs(val) * np.where(rows == cols, 1.0, np.sqrt(2.0))
        col_max = np.zeros((len(self.sizes), m))
        np.maximum.at(col_max, (blk, var), weight)
        e = np.ones(m)
        d_eq = np.ones(len(raw_b))
        d_blk = np.ones(len(self.sizes))
        abs_a = np.abs(raw_a)

        def clipped(v):
            return np.clip(np.sqrt(np.where(v > 0, v, 1.0)), 1e-4, 1e4)

        for _ in range(8):
            col = np.maximum(
                (abs_a * d_eq[:, None]).max(axis=0, initial=0.0),
                (col_max * d_blk[:, None]).max(axis=0),
            )
            e /= clipped(col * e)
            d_eq /= clipped((abs_a * e[None, :]).max(axis=1) * d_eq)
            blk_max = np.zeros(len(self.sizes))
            np.maximum.at(blk_max, blk, weight * e[var])
            d_blk /= clipped(blk_max * d_blk)

        self.var_scale = e
        self.eq_scale = d_eq
        self.blk_scale = d_blk
        c_eff = problem.c * e
        self.c_scale = max(1.0, float(np.abs(c_eff).max()))
        self.c = c_eff / self.c_scale
        return val * e[var] * d_blk[blk], raw_a * d_eq[:, None] * e[None, :], raw_b * d_eq

    def _orthonormalize_equalities(self, raw_a: np.ndarray, raw_b: np.ndarray):
        self.inconsistent = False
        if raw_a.shape[0] == 0:
            self.A = np.zeros((0, self.m))
            self.b = np.zeros(0)
            return
        u_mat, sv, vt = np.linalg.svd(raw_a, full_matrices=False)
        keep = sv > (sv[0] * 1e-12 if len(sv) and sv[0] > 0 else 1e-12)
        rank = int(keep.sum())
        # a copy, so that the rows past the rank die with vt
        self.A = vt[:rank].copy() if rank < len(vt) else vt
        self.b = (u_mat[:, :rank].T @ raw_b) / sv[:rank] if rank else np.zeros(0)
        residual = raw_b - u_mat[:, :rank] @ (u_mat[:, :rank].T @ raw_b)
        if np.linalg.norm(residual) > 1e-9 * max(1.0, np.linalg.norm(raw_b)):
            self.inconsistent = True

    # -- block-wise cone operations ------------------------------------------

    def _mats(self, vec: np.ndarray) -> list[np.ndarray]:
        """Each block's s x s matrix, as a view into the cone vector."""
        return [vec[cone.span].reshape(cone.size, cone.size) for cone in self.cones]

    def _min_eig(self, vec: np.ndarray) -> float:
        return min(float(np.linalg.eigvalsh(mat).min()) for mat in self._mats(vec))

    def _nt_scalings(self, s: np.ndarray, z: np.ndarray):
        states = []
        for s_mat, z_mat in zip(self._mats(s), self._mats(z)):
            ls = _potrf(s_mat, lower=True)
            lz = _potrf(z_mat, lower=True)
            if ls is None or lz is None:
                return None
            u_mat, sv, vt = np.linalg.svd(lz.T @ ls)
            if sv.min() <= 0:
                return None
            inv_sqrt = 1.0 / np.sqrt(sv)
            r_mat = ls @ vt.T * inv_sqrt[None, :]
            rti = lz @ u_mat * inv_sqrt[None, :]
            states.append(_ConeState(r_mat, rti, sv))
        return states

    def _congruence(self, states, which: str, vec: np.ndarray) -> np.ndarray:
        """sym(M^T V M) per block V of vec, M the state's matrix named `which`.

        M = r_mat applies W, r_t applies W^T, t_inv applies (W^T W)^{-1} and
        t_mat applies W^T W.  Without states (the starting point) W = I.
        """
        if states is None:
            return vec
        parts = []
        for st, part in zip(states, self._mats(vec)):
            mat = getattr(st, which)
            parts.append(_sym(mat.T @ part @ mat).ravel())
        return np.concatenate(parts)

    def _lambda_solve(self, states, vec: np.ndarray) -> np.ndarray:
        """Solve (Lambda U + U Lambda)/2 = V blockwise; Lambda is diagonal."""
        parts = []
        for st, part in zip(states, self._mats(vec)):
            denom = 0.5 * (st.lam[:, None] + st.lam[None, :])
            parts.append((part / denom).ravel())
        return np.concatenate(parts)

    def _jordan_product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.concatenate([_sym(a @ b).ravel() for a, b in zip(self._mats(u), self._mats(v))])

    def _step_to_boundary(self, states, vec: np.ndarray) -> float:
        """sup alpha with Lambda + alpha*V >= 0 per block V, in scaled coordinates."""
        alpha = np.inf
        for st, part in zip(states, self._mats(vec)):
            inv_sqrt = 1.0 / np.sqrt(st.lam)
            mat = part * inv_sqrt[:, None] * inv_sqrt[None, :]
            lo = float(np.linalg.eigvalsh(mat).min())
            if lo < 0:
                alpha = min(alpha, -1.0 / lo)
        return alpha

    # -- KKT solves -----------------------------------------------------------

    def _schur(self, states) -> np.ndarray:
        """H = G^T (W^T W)^{-1} G, i.e. H_ab = sum over blocks of <A_a, T^-1 A_b T^-1>.

        Only the upper triangle (a <= b) is complete; `_factor` reads no more.
        H is assembled into the Schur buffer by rows, row b holding column b
        of H, and returned as the transpose of the buffer: a Fortran-ordered
        view.  It is valid only until the next `_schur` or `_factor` call,
        which overwrite the buffer.  Without states (the starting point) H is
        G^T G, scattered from the sparse product.  With `_helper` set, a
        helper thread assembles the rows from the split on while this one
        assembles those before it.
        """
        h_rows = self._h_rows
        if states is None:
            h_rows.fill(0.0)
            gtg = (self.GT @ self.G).tocoo()
            h_rows[gtg.col, gtg.row] = gtg.data
            return h_rows.T
        if not self._helper:
            self._assemble(states, 0, self.m)
            return h_rows.T
        with ThreadPoolExecutor(1, thread_name_prefix="polyvi-schur") as pool:
            upper = pool.submit(self._assemble, states, self.split, self.m)
            self._assemble(states, 0, self.split)
        upper.result()
        return h_rows.T

    def _assemble(self, states, lo: int, hi: int):
        """Zero rows lo..hi-1 of the Schur buffer and assemble them, from
        every cone's ranges within them in cone order; lo and hi are range
        bounds of every cone (0, `split` or m)."""
        h_rows = self._h_rows
        h_rows[lo:hi].fill(0.0)
        for st, cone in zip(states, self.cones):
            s = cone.size
            for start, stop, row_idx, a_rows, r, prefix in cone.chunks:
                if not lo <= start < hi:
                    continue
                k, c = row_idx.shape
                # rows < r of Z_b = T^-1 A_b T^-1 = T^-1[I_b, :]^T (A_b[I_b, :]
                # T^-1), r*s*c multiply-adds per variable.  Each work array is
                # dropped once read, so that the two threads' arrays add up
                # to little
                q = (a_rows @ st.t_inv).reshape(k, c, s)
                z = np.matmul(st.t_inv[row_idx, :r].transpose(0, 2, 1), q)
                del q
                zu = z.reshape(k, r * s).T[cone.upper[: prefix.shape[1]]]
                del z
                h_rows[start:stop, :stop] += (prefix @ zu).T
                del zu

    def _factor(self, states) -> bool:
        """Factor H + shift = R^T R in the Schur buffer: `_hchol` is R, a view
        of the buffer, valid until the next `_schur` or `_factor` call.  With
        equality rows, W = R^-T A^T, and the equality complement A H^-1 A^T =
        W^T W (plus its own shift) is factored in place as `_schur_chol`.

        False when either Cholesky fails or comes out non-finite (`_potrf`),
        which ends the solve at `scaling`, or at `initial_factor` before the
        loop; neither is retried with a larger shift.  At m >= `_PARALLEL_M`
        the Cholesky of H and W run on every OpenBLAS thread, and all else
        on one.
        """
        # W is read only until the next factorization: drop it before H grows
        self._w = self._schur_chol = None
        h_mat = self._schur(states)
        m = self.m
        # static regularization; iterative refinement absorbs the bias
        diag = np.arange(m)
        h_mat[diag, diag] += 1e-10 * max(1.0, float(np.trace(h_mat)) / m)
        # H = R^T R from its upper triangle, then W, in one thread window
        with all_blas_threads(self._factor_pin):
            self._hchol = _potrf(h_mat, lower=False, overwrite=True)
            if self._hchol is None:
                return False
            if not len(self.b):
                return True
            self._w = _trtrs(self._hchol, self.A.T, trans=1)
        schur = self._w.T @ self._w
        p = schur.shape[0]
        schur.flat[:: p + 1] += 1e-12 * max(1.0, float(np.trace(schur)) / p)
        # W^T W is symmetric, so its transpose is the same matrix in Fortran
        # order, which potrf factors in place
        self._schur_chol = _potrf(schur.T, lower=True, overwrite=True)
        return self._schur_chol is not None

    def _solve3(self, states, bx, by, bz):
        """Solve: A^T uy + G^T uz = bx;  A ux = by;  G ux - W^T W uz = bz."""
        rhs_z = self._congruence(states, "t_inv", bz)
        # v = R^-T (bx + G^T rhs_z), then ux = R^-1 (v - W uy); R is finite,
        # since `_potrf` checked its diagonal, so the m x m scan is skipped
        r_mat = self._hchol
        v = _trtrs(r_mat, bx + self.GT @ rhs_z, trans=1)
        if len(self.b):
            rhs_y = self._w.T @ v - by
            if not np.isfinite(rhs_y).all():
                raise ValueError("array must not contain infs or NaNs")
            uy, _ = dpotrs(self._schur_chol, rhs_y, lower=1)
            v = v - self._w @ uy
        else:
            uy = np.zeros(0)
        ux = _trtrs(r_mat, v, trans=0)
        uz = self._congruence(states, "t_inv", self.G @ ux - bz)
        return ux, uy, uz

    def _solve3_refined(self, states, bx, by, bz):
        scale = max(
            1.0,
            float(np.abs(bx).max(initial=0.0)),
            float(np.abs(by).max(initial=0.0)),
            float(np.abs(bz).max(initial=0.0)),
        )
        ux, uy, uz = self._solve3(states, bx, by, bz)
        prev = np.inf
        for _ in range(6):
            rx = bx - self.A.T @ uy - self.GT @ uz
            ry = by - self.A @ ux
            rz = bz - self.G @ ux + self._congruence(states, "t_mat", uz)
            err = max(
                float(np.abs(rx).max(initial=0.0)),
                float(np.abs(ry).max(initial=0.0)),
                float(np.abs(rz).max(initial=0.0)),
            )
            if err <= 1e-13 * scale or err >= 0.5 * prev:
                break
            prev = err
            dx, dy, dz = self._solve3(states, rx, ry, rz)
            ux, uy, uz = ux + dx, uy + dy, uz + dz
        return ux, uy, uz

    # -- main loop --------------------------------------------------------------

    def run(self) -> SdpResult:
        """Iterate to one of the exits the module docstring lists."""
        if self.inconsistent:
            return SdpResult(PRIMAL_INFEASIBLE, None, None, exit="inconsistent")

        m, p = self.m, len(self.b)
        if not self._factor(None):
            return SdpResult(NUMERICAL_FAILURE, None, None, exit="initial_factor")
        zero = np.zeros(self.offsets[-1])
        x, _, z_hat = self._solve3(None, np.zeros(m), self.b, zero)
        s = -z_hat
        lo = self._min_eig(s)
        if lo < 1e-8:
            s = s + (1.0 - lo) * self.identity
        _, y, z = self._solve3(None, -self.c, np.zeros(p), zero)
        lo = self._min_eig(z)
        if lo < 1e-8:
            z = z + (1.0 - lo) * self.identity
        tau, kappa = 1.0, 1.0

        best: SdpResult | None = None
        best_score = np.inf
        best_it = 0
        best_ray, best_ray_it = np.inf, 0
        mu0 = mu = (s @ z + tau * kappa) / (self.nu + 1.0)
        it = 0

        def finish(result: SdpResult, exit_path: str) -> SdpResult:
            result.exit = exit_path
            result.best_score = float(best_score)
            result.mu_ratio = float(mu / mu0)
            return result

        exit_path = "max_iters"
        for it in range(1, self.max_iters + 1):
            rx = self.A.T @ y + self.GT @ z + self.c * tau
            ry = self.A @ x - self.b * tau
            rz = self.G @ x + s
            rt = kappa + self.c @ x + self.b @ y

            gap_sz = float(s @ z)
            mu = (gap_sz + tau * kappa) / (self.nu + 1.0)

            pcost = float(self.c @ x) / tau
            gap = gap_sz / (tau * tau)
            relgap = gap / max(1.0, abs(pcost))
            pres = max(np.linalg.norm(ry) / self.resy0, np.linalg.norm(rz)) / tau
            dres = (np.linalg.norm(rx) / self.resx0) / tau

            score = max(pres, dres, relgap)
            if score < 0.8 * best_score:
                best_it = it
            if score < best_score:
                best_score = score
                y_orig = self.var_scale * (x / tau)
                residuals = {"primal": float(pres), "dual": float(dres), "gap": float(relgap)}
                best = SdpResult(OPTIMAL, y_orig, float(self.c_orig @ y_orig), residuals, it)

            # an optimal iterate scores at most _TOL, and any earlier one that
            # did would have exited here, so it is the saved best one
            if pres <= _TOL and dres <= _TOL and (gap <= _TOL or relgap <= _TOL):
                return finish(best, "optimal")

            ray = self._ray_residual(y, z)
            if ray <= _TOL:
                cert = SdpResult(PRIMAL_INFEASIBLE, None, None, {"certificate_residual": ray}, it)
                return finish(cert, "certificate")
            # a ray that holds at the relaxed tolerance but has stopped
            # improving ends the solve, for the post-loop path to return
            if kappa > 1e4 * max(tau, 1e-300) and ray <= _RELAXED_TOL:
                if ray < 0.8 * best_ray:
                    best_ray_it = it
                best_ray = min(best_ray, ray)
                if it - best_ray_it >= _RAY_PATIENCE:
                    exit_path = "stall"
                    break

            if it - best_it >= 30:
                exit_path = "stall"  # no residual progress for many iterations
                break
            if best_score <= _RELAXED_BAND and score > _DIVERGE_FACTOR * best_score:
                exit_path = "diverged"  # the saved best iterate is the answer
                break

            states = self._nt_scalings(s, z)
            if states is None or not self._factor(states):
                exit_path = "scaling"
                break

            u1 = self._solve3_refined(states, -self.c, self.b, zero)
            denom_u1 = float(self.c @ u1[0] + self.b @ u1[1])

            lam_sq = np.concatenate([np.diag(st.lam**2).ravel() for st in states])

            def step_length(ds_hat, wdz, dtau, dkap):
                """sup alpha keeping s, z, tau and kappa in their cones."""
                return min(
                    self._step_to_boundary(states, ds_hat),
                    self._step_to_boundary(states, wdz),
                    (-tau / dtau) if dtau < 0 else np.inf,
                    (-kappa / dkap) if dkap < 0 else np.inf,
                )

            def newton(ds_scaled, d_kappa, r_weight):
                lam_inv_ds = self._lambda_solve(states, ds_scaled)
                bhat_z = -r_weight * rz - self._congruence(states, "r_t", lam_inv_ds)
                u0 = self._solve3_refined(states, -r_weight * rx, -r_weight * ry, bhat_z)
                numer = -r_weight * rt - d_kappa / tau - float(self.c @ u0[0] + self.b @ u0[1])
                dtau = numer / (denom_u1 - kappa / tau)
                dx = u0[0] + dtau * u1[0]
                dy = u0[1] + dtau * u1[1]
                dz = u0[2] + dtau * u1[2]
                wdz = self._congruence(states, "r_mat", dz)
                ds_hat = lam_inv_ds - wdz
                ds = self._congruence(states, "r_t", ds_hat)
                dkap = (d_kappa - kappa * dtau) / tau
                return dx, dy, dz, ds, dtau, dkap, ds_hat, wdz

            # affine scaling pass fixes the centering weight
            dx, dy, dz, ds, dtau, dkap, ds_hat, wdz = newton(-lam_sq, -tau * kappa, 1.0)
            alpha_aff = min(1.0, step_length(ds_hat, wdz, dtau, dkap))
            sigma = (1.0 - alpha_aff) ** 3

            corr = self._jordan_product(ds_hat, wdz)
            ds_comb = sigma * mu * self.identity - lam_sq - corr
            dkap_comb = sigma * mu - tau * kappa - dtau * dkap
            dx, dy, dz, ds, dtau, dkap, ds_hat, wdz = newton(ds_comb, dkap_comb, 1.0 - sigma)

            step = min(1.0, _STEP_DAMP * step_length(ds_hat, wdz, dtau, dkap))
            if not np.isfinite(step) or step <= 1e-12:
                exit_path = "step"
                break

            x = x + step * dx
            y = y + step * dy
            z = z + step * dz
            s = s + step * ds
            tau += step * dtau
            kappa += step * dkap
            if tau <= 0 or kappa < 0 or mu < 1e-30 * mu0:
                exit_path = "collapse"
                break

        # stalled; when the embedding drove tau to zero the iterate is a
        # near-certificate, which beats reporting a numerical failure
        if kappa > 1e4 * max(tau, 1e-300):
            ray = self._ray_residual(y, z)
            if ray <= _RELAXED_TOL:
                residuals = {"certificate_residual": ray, "relaxed": True}
                return finish(SdpResult(PRIMAL_INFEASIBLE, None, None, residuals, it), exit_path)
        # moment-style instances routinely stall short of full accuracy; the
        # best iterate is still usable when callers read the recorded
        # residuals and treat the value/point accordingly
        if best is not None and best_score <= _RELAXED_BAND:
            best.residuals["relaxed"] = True
            best.iterations = it
            return finish(best, exit_path)
        return finish(SdpResult(NUMERICAL_FAILURE, None, None, iterations=it), exit_path)

    def _ray_residual(self, y, z) -> float:
        """How far (y, z) is from a ray A^T y + G^T z = 0 with b . y < 0:
        |A^T y + G^T z| / resx0 / (-b . y), or inf when b . y >= 0."""
        by = float(self.b @ y)
        if by < 0.0:
            return float(np.linalg.norm(self.A.T @ y + self.GT @ z)) / self.resx0 / (-by)
        return np.inf


def solve(problem: SdpProblem, max_iters: int = 200) -> SdpResult:
    """Solve an SdpProblem with the reference interior point method.

    The set-up IPM holds copies of all it reads, so the problem is released
    before the iterations start.  A caller that passes a temporary, such as
    `solve(build_relaxation(...))`, keeps no reference of its own on CPython
    3.11 and later, so its dense equality rows and block triplets are freed
    before the first Schur assembly rather than held through every one.
    Setup and iterations run under the thread rule of the `blas` module.
    """
    with one_blas_thread() as pinned:
        ipm = ReferenceIpm(problem, max_iters, pinned)
        del problem
        return ipm.run()

