"""Reference semidefinite solver: dense primal-dual interior point method.

Problem form (the only form the rest of the package produces):

    minimize    c . y                          y in R^m
    subject to  a_i . y  = b_i                 i = 1..p
                A0_l + sum_j y_j A_jl  >= 0    one PSD constraint per block l

Internally the problem is rewritten in conic form  G y + s = h,  s in a
product of PSD cones (svec coordinates, off-diagonal entries scaled by
sqrt(2)), and solved on the homogeneous self-dual embedding with
Nesterov-Todd scaling and a Mehrotra predictor-corrector step.  The
self-dual embedding is what makes infeasibility detection reliable: instead
of diverging, an infeasible instance drives tau -> 0 and the iterate itself
becomes a primal or dual infeasibility certificate.

Per iteration the method

  1. computes the NT scaling point of each block from Cholesky factors of
     the primal and dual slabs (one small SVD per block),
  2. eliminates ds and dz from the Newton system, leaving a saddle system in
     (dy_vars, dy_eq) solved by two Cholesky factorizations.  Its matrix
     H_ab = sum over blocks of <A_a, T^-1 A_b T^-1>, with T = R R^T the NT
     scaling of the block, is assembled from the sparse constraint matrices
     without densifying any A_b: for a block of size s whose A_b hold nnz
     entries in all, the products A_b T^-1 cost O(s*nnz), one dense product
     T^-1 (A_b T^-1) costs s^3 per variable, and a sparse contraction with
     every A_a costs O(m*nnz),
  3. takes an affine scaling step to pick the centering weight sigma, then a
     combined corrected step damped to 99% of the distance to the boundary.

Equality rows are orthonormalized once by SVD before the main loop; this
removes the redundancy that moment-style relaxations carry in bulk, and an
inconsistent right-hand side short-circuits to primal infeasibility.

Everything here is deterministic: no randomness anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

OPTIMAL = "optimal"
PRIMAL_INFEASIBLE = "primal_infeasible"
DUAL_INFEASIBLE = "dual_infeasible"
NUMERICAL_FAILURE = "numerical_failure"

_SQRT2 = np.sqrt(2.0)
_STEP_DAMP = 0.99


@dataclass
class SdpBlock:
    """One PSD constraint  A0 + sum_j y_j A_j >= 0  in sparse triplet form.

    `const` is the dense symmetric A0.  Linear coefficients are triplets
    (var_idx, row, col, val) restricted to the upper triangle (row <= col);
    the symmetric mirror entry is implied, not stored.
    """

    size: int
    const: np.ndarray
    var_idx: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @staticmethod
    def from_dense(const: np.ndarray, coeffs: list[tuple[int, np.ndarray]]) -> "SdpBlock":
        """Build from a dense A0 and (variable index, dense symmetric A_j) pairs."""
        const = np.asarray(const, dtype=float)
        size = const.shape[0]
        vi, rr, cc, vv = [], [], [], []
        for j, mat in coeffs:
            mat = np.asarray(mat, dtype=float)
            for r in range(size):
                for c in range(r, size):
                    if mat[r, c] != 0.0:
                        vi.append(j)
                        rr.append(r)
                        cc.append(c)
                        vv.append(mat[r, c])
        return SdpBlock(
            size,
            const,
            np.array(vi, dtype=np.int64),
            np.array(rr, dtype=np.int64),
            np.array(cc, dtype=np.int64),
            np.array(vv, dtype=float),
        )

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """Dense symmetric value of the block map at y."""
        mat = np.zeros((self.size, self.size))
        np.add.at(mat, (self.rows, self.cols), self.vals * y[self.var_idx])
        mat = mat + mat.T - np.diag(np.diag(mat))
        const_sym = np.triu(self.const) + np.triu(self.const, 1).T
        return const_sym + mat


@dataclass
class SdpProblem:
    num_vars: int
    c: np.ndarray
    eq_rows: list[tuple[np.ndarray, float]]
    blocks: list[SdpBlock]

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.num_vars,):
            raise ValueError("objective length does not match num_vars")
        if not self.blocks:
            raise ValueError("need at least one PSD block")


@dataclass
class SdpResult:
    status: str
    y: np.ndarray | None
    objective: float | None
    residuals: dict = field(default_factory=dict)
    iterations: int = 0


def min_block_eigenvalue(problem: SdpProblem, y: np.ndarray) -> float:
    """Smallest eigenvalue over all blocks at y; used by feasibility checks."""
    return min(float(sla.eigvalsh(b.evaluate(y)).min()) for b in problem.blocks)


def equality_violation(problem: SdpProblem, y: np.ndarray) -> float:
    if not problem.eq_rows:
        return 0.0
    return max(abs(float(row @ y) - rhs) for row, rhs in problem.eq_rows)


class _BlockGeometry:
    """Precomputed svec indexing for one block size (row-major upper triangle)."""

    def __init__(self, size: int):
        self.size = size
        self.iu, self.ju = np.triu_indices(size)
        self.dim = len(self.iu)
        self.scale = np.where(self.iu == self.ju, 1.0, _SQRT2)
        self.inv_scale = 1.0 / self.scale
        eye = np.zeros(self.dim)
        eye[self.iu == self.ju] = 1.0
        self.identity = eye
        # flat positions of the svec entries and of their mirror images
        self.upper = self.iu * size + self.ju
        self.lower = self.ju * size + self.iu

    def svec(self, mat: np.ndarray) -> np.ndarray:
        return mat.ravel()[self.upper] * self.scale

    def smat(self, vec: np.ndarray) -> np.ndarray:
        entries = vec * self.inv_scale
        mat = np.empty(self.size * self.size)
        mat[self.lower] = entries
        mat[self.upper] = entries
        return mat.reshape(self.size, self.size)


# entries of each dense work array per column chunk of the Schur assembly;
# about 8 MB per array ran faster than 48 MB on m=495 and m=1716 relaxations
# (2-core Xeon, OpenBLAS 0.3.31)
_SCHUR_CHUNK = 1.0e6


class _SchurOperators:
    """The constraint matrices A_b of one block as two sparse maps.

    Both hold every entry of each symmetric A_b (the svec scaling undone, the
    off-diagonal entries mirrored), so the Schur assembly never forms a dense
    A_b.  `chunks` lists, per column range [start, stop) of k variables, the
    (s*k, s) matrix whose row i*k + (b - start) is row i of A_b.  `flat` is
    (m, s*s) with row a holding A_a row-major.
    """

    def __init__(self, geom: _BlockGeometry, g_blk: sp.csc_matrix, m: int):
        s = geom.size
        coo = g_blk.tocoo()
        i, j = geom.iu[coo.row], geom.ju[coo.row]
        val = coo.data * geom.inv_scale[coo.row]
        off = i != j
        rows = np.concatenate([i, j[off]])
        cols = np.concatenate([j, i[off]])
        var = np.concatenate([coo.col, coo.col[off]])
        val = np.concatenate([val, val[off]])
        self.flat = sp.csr_matrix((val, (var, rows * s + cols)), shape=(m, s * s))
        width = max(1, int(_SCHUR_CHUNK / (s * s)))
        self.chunks = []
        for start in range(0, m, width):
            stop = min(m, start + width)
            k = stop - start
            sel = (var >= start) & (var < stop)
            a_vert = sp.csr_matrix(
                (val[sel], (rows[sel] * k + var[sel] - start, cols[sel])), shape=(s * k, s)
            )
            self.chunks.append((start, stop, a_vert))


class _ConeState:
    """NT scaling data for one block at the current iterate; T = R R^T."""

    __slots__ = ("geom", "r_mat", "r_t", "lam", "t_mat", "t_inv")

    def __init__(self, geom, r_mat, rti, lam):
        self.geom = geom
        self.r_mat = r_mat
        self.r_t = r_mat.T
        self.lam = lam
        self.t_mat = r_mat @ r_mat.T
        self.t_inv = rti @ rti.T  # rti equals R^{-T}


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _chol_with_jitter(mat: np.ndarray):
    jitter = 0.0
    scale = max(1.0, float(np.abs(np.diag(mat)).max()))
    for _ in range(8):
        try:
            return sla.cholesky(mat + jitter * np.eye(mat.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    return None


class ReferenceIpm:
    """State for one solve; not reusable across problems."""

    def __init__(self, problem: SdpProblem, tol: float, max_iters: int):
        self.tol = tol
        self.max_iters = max_iters
        self.m = problem.num_vars
        self.c_orig = problem.c.copy()

        raw_a, raw_b = self._gather_equalities(problem)
        g_parts, h_parts = self._gather_cones(problem)
        self._equilibrate(problem.c, raw_a, raw_b, g_parts, h_parts)
        self.schur_ops = [
            _SchurOperators(geom, g_blk, self.m) for geom, g_blk in zip(self.geoms, self.g_cols)
        ]
        self._orthonormalize_equalities()

        self.resx0 = max(1.0, float(np.linalg.norm(self.c)))
        self.resy0 = max(1.0, float(np.linalg.norm(self.b)))
        self.resz0 = max(1.0, float(np.linalg.norm(self.h)))
        self.nu = float(sum(g.size for g in self.geoms))

    # -- setup -------------------------------------------------------------

    def _gather_equalities(self, problem: SdpProblem):
        if not problem.eq_rows:
            return np.zeros((0, self.m)), np.zeros(0)
        raw_a = np.array([row for row, _ in problem.eq_rows], dtype=float)
        raw_b = np.array([rhs for _, rhs in problem.eq_rows], dtype=float)
        return raw_a, raw_b

    def _gather_cones(self, problem: SdpProblem):
        geom_cache: dict[int, _BlockGeometry] = {}
        self.geoms = []
        g_parts: list[sp.csc_matrix] = []
        h_parts: list[np.ndarray] = []
        self.offsets = [0]
        for blk in problem.blocks:
            geom = geom_cache.setdefault(blk.size, _BlockGeometry(blk.size))
            self.geoms.append(geom)
            const_sym = np.triu(blk.const) + np.triu(blk.const, 1).T
            r, c = blk.rows, blk.cols
            size = blk.size
            svec_idx = (r * (2 * size - r - 1)) // 2 + c
            scale = np.where(r == c, 1.0, _SQRT2)
            g_mat = sp.coo_matrix(
                (-blk.vals * scale, (svec_idx, blk.var_idx)),
                shape=(geom.dim, self.m),
            ).tocsc()
            g_parts.append(g_mat)
            h_parts.append(geom.svec(const_sym))
            self.offsets.append(self.offsets[-1] + geom.dim)
        self.K = self.offsets[-1]
        return g_parts, h_parts

    def _equilibrate(self, c, raw_a, raw_b, g_parts, h_parts):
        """Ruiz scaling: per-column, per-equality-row, one scalar per block.

        A PSD block only tolerates a uniform positive rescaling (congruence
        by alpha*I), so its svec rows share one factor.  Column scaling is a
        diagonal change of variables, undone when results are reported.
        """
        m = self.m
        p = raw_a.shape[0]
        e = np.ones(m)
        d_eq = np.ones(p)
        d_blk = np.ones(len(g_parts))
        abs_a = np.abs(raw_a)
        abs_g = [abs(g) for g in g_parts]

        def clipped(v):
            return np.clip(np.sqrt(np.where(v > 0, v, 1.0)), 1e-4, 1e4)

        for _ in range(8):
            col = np.zeros(m)
            if p:
                col = (abs_a * d_eq[:, None]).max(axis=0)
            for bi, g_abs in enumerate(abs_g):
                blk_col = np.asarray(g_abs.max(axis=0).todense()).ravel() * d_blk[bi]
                col = np.maximum(col, blk_col)
            e /= clipped(col * e)
            if p:
                row = (abs_a * e[None, :]).max(axis=1)
                d_eq /= clipped(row * d_eq)
            for bi, g_abs in enumerate(abs_g):
                scaled = g_abs.multiply(e[None, :])
                blk_max = float(scaled.max()) if scaled.nnz else 0.0
                d_blk[bi] /= float(clipped(np.asarray([blk_max * d_blk[bi]]))[0])

        self.var_scale = e
        self.A_raw = raw_a * d_eq[:, None] * e[None, :] if p else raw_a
        self.b_raw = raw_b * d_eq
        self.g_cols = [
            (g.multiply(e[None, :]) * d_blk[bi]).tocsc() for bi, g in enumerate(g_parts)
        ]
        self.h = np.concatenate([h * d_blk[bi] for bi, h in enumerate(h_parts)])
        self.G = sp.vstack(self.g_cols, format="csr")
        self.GT = self.G.T.tocsr()
        c_eff = c * e
        self.c_scale = max(1.0, float(np.abs(c_eff).max()))
        self.c = c_eff / self.c_scale

    def _orthonormalize_equalities(self):
        self.inconsistent = False
        raw_a, raw_b = self.A_raw, self.b_raw
        if raw_a.shape[0] == 0:
            self.A = np.zeros((0, self.m))
            self.b = np.zeros(0)
            return
        u_mat, sv, vt = np.linalg.svd(raw_a, full_matrices=False)
        keep = sv > (sv[0] * 1e-12 if len(sv) and sv[0] > 0 else 1e-12)
        rank = int(keep.sum())
        self.A = vt[:rank]
        self.b = (u_mat[:, :rank].T @ raw_b) / sv[:rank] if rank else np.zeros(0)
        residual = raw_b - u_mat[:, :rank] @ (u_mat[:, :rank].T @ raw_b)
        if np.linalg.norm(residual) > 1e-9 * max(1.0, np.linalg.norm(raw_b)):
            self.inconsistent = True

    # -- block-wise cone operations ------------------------------------------

    def _views(self, vec: np.ndarray) -> list[np.ndarray]:
        return [vec[self.offsets[i]: self.offsets[i + 1]] for i in range(len(self.geoms))]

    def _min_eig(self, vec: np.ndarray) -> float:
        out = np.inf
        for geom, part in zip(self.geoms, self._views(vec)):
            out = min(out, float(np.linalg.eigvalsh(geom.smat(part)).min()))
        return out

    def _identity_vec(self) -> np.ndarray:
        return np.concatenate([g.identity for g in self.geoms])

    def _nt_scalings(self, s: np.ndarray, z: np.ndarray):
        states = []
        for geom, s_part, z_part in zip(self.geoms, self._views(s), self._views(z)):
            ls = _chol_with_jitter(geom.smat(s_part))
            lz = _chol_with_jitter(geom.smat(z_part))
            if ls is None or lz is None:
                return None
            u_mat, sv, vt = np.linalg.svd(lz.T @ ls)
            if sv.min() <= 0:
                return None
            inv_sqrt = 1.0 / np.sqrt(sv)
            r_mat = ls @ vt.T * inv_sqrt[None, :]
            rti = lz @ u_mat * inv_sqrt[None, :]
            states.append(_ConeState(geom, r_mat, rti, sv))
        return states

    def _congruence(self, states, which: str, vec: np.ndarray) -> np.ndarray:
        """svec(sym(M^T smat(v) M)) per block, M the state's matrix named `which`.

        M = r_mat applies W, r_t applies W^T, t_inv applies (W^T W)^{-1} and
        t_mat applies W^T W.  Without states (the starting point) W = I.
        """
        if states is None:
            return vec
        parts = []
        for st, part in zip(states, self._views(vec)):
            mat = getattr(st, which)
            parts.append(st.geom.svec(_sym(mat.T @ st.geom.smat(part) @ mat)))
        return np.concatenate(parts)

    def _lambda_solve(self, states, vec: np.ndarray) -> np.ndarray:
        """Solve (Lambda U + U Lambda)/2 = smat(vec) blockwise; Lambda is diagonal."""
        parts = []
        for st, part in zip(states, self._views(vec)):
            denom = 0.5 * (st.lam[:, None] + st.lam[None, :])
            parts.append(st.geom.svec(st.geom.smat(part) / denom))
        return np.concatenate(parts)

    def _jordan_product(self, states, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        parts = []
        for st, up, vp in zip(states, self._views(u), self._views(v)):
            parts.append(st.geom.svec(_sym(st.geom.smat(up) @ st.geom.smat(vp))))
        return np.concatenate(parts)

    def _step_to_boundary(self, states, vec: np.ndarray) -> float:
        """sup alpha with Lambda + alpha*smat(vec) >= 0, in scaled coordinates."""
        alpha = np.inf
        for st, part in zip(states, self._views(vec)):
            inv_sqrt = 1.0 / np.sqrt(st.lam)
            mat = st.geom.smat(part) * inv_sqrt[:, None] * inv_sqrt[None, :]
            lo = float(np.linalg.eigvalsh(mat).min())
            if lo < 0:
                alpha = min(alpha, -1.0 / lo)
        return alpha

    # -- KKT solves -----------------------------------------------------------

    def _schur(self, states) -> np.ndarray:
        """H = G^T (W^T W)^{-1} G, i.e. H_ab = sum over blocks of <A_a, T^-1 A_b T^-1>."""
        m = self.m
        h_mat = np.zeros((m, m))
        if states is None:
            for g_blk in self.g_cols:
                h_mat += (g_blk.T @ g_blk).toarray()
            return _sym(h_mat)
        for st, ops in zip(states, self.schur_ops):
            s = st.geom.size
            for start, stop, a_vert in ops.chunks:
                k = stop - start
                # q[i, b, :] is row i of A_b T^-1; one product then gives
                # z[p, b, :], row p of T^-1 A_b T^-1
                q = (a_vert @ st.t_inv).reshape(s, k * s)
                z = (st.t_inv @ q).reshape(s, k, s).transpose(0, 2, 1)
                h_mat[:, start:stop] += ops.flat @ np.ascontiguousarray(z).reshape(s * s, k)
        return _sym(h_mat)

    def _factor(self, states) -> bool:
        h_mat = self._schur(states)
        m = self.m
        # static regularization; iterative refinement absorbs the bias
        h_mat.flat[:: m + 1] += 1e-10 * max(1.0, float(np.trace(h_mat)) / m)
        self._hchol = _chol_with_jitter(h_mat)
        if self._hchol is None:
            return False
        if len(self.b):
            hinv_at = sla.cho_solve((self._hchol, True), self.A.T)
            schur = _sym(self.A @ hinv_at)
            p = schur.shape[0]
            schur.flat[:: p + 1] += 1e-12 * max(1.0, float(np.trace(schur)) / p)
            self._schur_chol = _chol_with_jitter(schur)
            if self._schur_chol is None:
                return False
            self._hinv_at = hinv_at
        return True

    def _solve3(self, states, bx, by, bz):
        """Solve: A^T uy + G^T uz = bx;  A ux = by;  G ux - W^T W uz = bz."""
        rhs_z = self._congruence(states, "t_inv", bz)
        bx_t = bx + self.GT @ rhs_z
        hinv_bx = sla.cho_solve((self._hchol, True), bx_t)
        if len(self.b):
            rhs_y = self.A @ hinv_bx - by
            uy = sla.cho_solve((self._schur_chol, True), rhs_y)
            ux = hinv_bx - self._hinv_at @ uy
        else:
            uy = np.zeros(0)
            ux = hinv_bx
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
            rx = np.asarray(bx - (self.A.T @ uy if len(self.b) else 0.0) - self.GT @ uz)
            ry = by - (self.A @ ux if len(self.b) else np.zeros(0))
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
        if self.inconsistent:
            return SdpResult(PRIMAL_INFEASIBLE, None, None, {"reason": "inconsistent equalities"})

        m, p = self.m, len(self.b)
        if not self._factor(None):
            return SdpResult(NUMERICAL_FAILURE, None, None, {"reason": "initial factorization"})
        x, _, z_hat = self._solve3(None, np.zeros(m), self.b, self.h)
        s = -z_hat
        lo = self._min_eig(s)
        if lo < 1e-8:
            s = s + (1.0 - lo) * self._identity_vec()
        _, y, z = self._solve3(None, -self.c, np.zeros(p), np.zeros(self.K))
        lo = self._min_eig(z)
        if lo < 1e-8:
            z = z + (1.0 - lo) * self._identity_vec()
        tau, kappa = 1.0, 1.0

        best: SdpResult | None = None
        best_score = np.inf
        best_it = 0
        mu0 = (s @ z + tau * kappa) / (self.nu + 1.0)
        it = 0

        for it in range(1, self.max_iters + 1):
            rx = np.asarray((self.A.T @ y if p else 0.0) + self.GT @ z + self.c * tau)
            ry = (self.A @ x if p else np.zeros(0)) - self.b * tau
            rz = self.G @ x + s - self.h * tau
            rt = kappa + self.c @ x + (self.b @ y if p else 0.0) + self.h @ z

            gap_sz = float(s @ z)
            mu = (gap_sz + tau * kappa) / (self.nu + 1.0)

            pcost = float(self.c @ x) / tau
            gap = gap_sz / (tau * tau)
            relgap = gap / max(1.0, abs(pcost))
            pres = max(
                (np.linalg.norm(ry) / self.resy0 if p else 0.0),
                np.linalg.norm(rz) / self.resz0,
            ) / tau
            dres = (np.linalg.norm(rx) / self.resx0) / tau

            score = max(pres, dres, relgap)
            if score < 0.8 * best_score:
                best_it = it
            if score < best_score:
                best_score = score
                best = self._make_result(x / tau, pres, dres, relgap, it)

            if pres <= self.tol and dres <= self.tol and (gap <= self.tol or relgap <= self.tol):
                return self._make_result(x / tau, pres, dres, relgap, it)

            cert = self._certificates(x, y, z, s, self.tol, it)
            if cert is not None:
                return cert

            if it - best_it >= 30:
                break  # no residual progress for many iterations

            states = self._nt_scalings(s, z)
            if states is None or not self._factor(states):
                break

            u1 = self._solve3_refined(states, -self.c, self.b, self.h)
            denom_u1 = float(self.c @ u1[0] + (self.b @ u1[1] if p else 0.0) + self.h @ u1[2])

            lam_sq = np.concatenate([st.geom.svec(np.diag(st.lam**2)) for st in states])

            def newton(ds_scaled, d_kappa, r_weight):
                lam_inv_ds = self._lambda_solve(states, ds_scaled)
                bhat_z = -r_weight * rz - self._congruence(states, "r_t", lam_inv_ds)
                u0 = self._solve3_refined(states, -r_weight * rx, -r_weight * ry, bhat_z)
                numer = (
                    -r_weight * rt
                    - d_kappa / tau
                    - float(self.c @ u0[0] + (self.b @ u0[1] if p else 0.0) + self.h @ u0[2])
                )
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
            alpha_aff = min(
                1.0,
                self._step_to_boundary(states, ds_hat),
                self._step_to_boundary(states, wdz),
                (-tau / dtau) if dtau < 0 else np.inf,
                (-kappa / dkap) if dkap < 0 else np.inf,
            )
            sigma = (1.0 - alpha_aff) ** 3

            corr = self._jordan_product(states, ds_hat, wdz)
            ds_comb = sigma * mu * self._identity_vec() - lam_sq - corr
            dkap_comb = sigma * mu - tau * kappa - dtau * dkap
            dx, dy, dz, ds, dtau, dkap, ds_hat, wdz = newton(ds_comb, dkap_comb, 1.0 - sigma)

            alpha = min(
                self._step_to_boundary(states, ds_hat),
                self._step_to_boundary(states, wdz),
                (-tau / dtau) if dtau < 0 else np.inf,
                (-kappa / dkap) if dkap < 0 else np.inf,
            )
            step = min(1.0, _STEP_DAMP * alpha)
            if not np.isfinite(step) or step <= 1e-12:
                break

            x = x + step * dx
            y = y + step * dy
            z = z + step * dz
            s = s + step * ds
            tau += step * dtau
            kappa += step * dkap
            if tau <= 0 or kappa < 0 or mu < 1e-30 * mu0:
                break

        relaxed = max(1e-6, 10 * self.tol)
        # stalled; when the embedding drove tau to zero the iterate is a
        # near-certificate, which beats reporting a numerical failure
        if kappa > 1e4 * max(tau, 1e-300):
            cert = self._certificates(x, y, z, s, relaxed, it, relaxed_flag=True)
            if cert is not None:
                return cert
        # moment-style instances routinely stall short of full accuracy; the
        # best iterate is still usable when callers read the recorded
        # residuals and treat the value/point accordingly
        if best is not None and best_score <= max(1e-4, 100 * self.tol):
            best.residuals["relaxed"] = True
            best.iterations = it
            return best
        return SdpResult(NUMERICAL_FAILURE, None, None, {"best_score": float(best_score)}, it)

    def _certificates(self, x, y, z, s, tol, it, relaxed_flag=False):
        p = len(self.b)
        hz_by = float((self.b @ y if p else 0.0) + self.h @ z)
        if hz_by < 0.0:
            cert = np.linalg.norm(np.asarray((self.A.T @ y if p else 0.0) + self.GT @ z))
            pinf = cert / self.resx0 / (-hz_by)
            if pinf <= tol:
                info = {"certificate_residual": float(pinf)}
                if relaxed_flag:
                    info["relaxed"] = True
                return SdpResult(PRIMAL_INFEASIBLE, None, None, info, it)
        cx = float(self.c @ x)
        if cx < 0.0:
            ax = np.linalg.norm(self.A @ x) / self.resy0 if p else 0.0
            gx = np.linalg.norm(self.G @ x + s) / self.resz0
            dinf = max(ax, gx) / (-cx)
            if dinf <= tol:
                info = {"certificate_residual": float(dinf)}
                if relaxed_flag:
                    info["relaxed"] = True
                ray = self.var_scale * x
                denom = -float(self.c_orig @ ray)
                if denom > 0:
                    ray = ray / denom
                return SdpResult(DUAL_INFEASIBLE, ray, None, info, it)
        return None

    def _make_result(self, y_vars, pres, dres, relgap, it) -> SdpResult:
        y_orig = self.var_scale * y_vars
        return SdpResult(
            OPTIMAL,
            y_orig,
            float(self.c_orig @ y_orig),
            {"primal": float(pres), "dual": float(dres), "gap": float(relgap)},
            it,
        )


def solve(problem: SdpProblem, tol: float = 1e-8, max_iters: int = 200) -> SdpResult:
    """Solve an SdpProblem with the reference interior point method."""
    return ReferenceIpm(problem, tol, max_iters).run()


def to_sdpa_sparse(problem: SdpProblem) -> str:
    """Serialize in SDPA sparse (.dat-s) format for external cross-checks.

    Equality rows become paired entries of one diagonal block because the
    format has no native equalities.
    """
    lines = []
    m = problem.num_vars
    p = len(problem.eq_rows)
    nblocks = len(problem.blocks) + (1 if p else 0)
    lines.append(f"{m} = mDIM")
    lines.append(f"{nblocks} = nBLOCK")
    sizes = [str(b.size) for b in problem.blocks]
    if p:
        sizes.append(str(-2 * p))
    lines.append(" ".join(sizes) + " = bLOCKsTRUCT")
    lines.append(" ".join(repr(float(v)) for v in problem.c))

    def emit(mat_no, blk_no, i, j, v):
        if v != 0.0:
            lines.append(f"{mat_no} {blk_no} {i + 1} {j + 1} {v!r}")

    for bi, blk in enumerate(problem.blocks, start=1):
        for r in range(blk.size):
            for cc in range(r, blk.size):
                emit(0, bi, r, cc, -float(blk.const[r, cc]))
        for j, r, cc, v in zip(blk.var_idx, blk.rows, blk.cols, blk.vals):
            emit(int(j) + 1, bi, int(r), int(cc), float(v))
    if p:
        dbi = len(problem.blocks) + 1
        for ei, (row, rhs) in enumerate(problem.eq_rows):
            emit(0, dbi, 2 * ei, 2 * ei, float(rhs))
            emit(0, dbi, 2 * ei + 1, 2 * ei + 1, -float(rhs))
            for j in range(m):
                emit(j + 1, dbi, 2 * ei, 2 * ei, float(row[j]))
                emit(j + 1, dbi, 2 * ei + 1, 2 * ei + 1, -float(row[j]))
    return "\n".join(lines) + "\n"
