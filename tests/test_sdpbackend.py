import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from polyvi import blas
from polyvi import momentsdp as ms
from polyvi import sdpbackend as sb
from polyvi.cli import generate, load_problem, parse_problem
from polyvi.polycore import Polynomial
from polyvi.vipsolver import CutSet, _cut_program, random_theta, solve_one

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


# the placeholder variable of a block's constant term; `make` fixes it to 1
ONE = -1


def dense_block(const, coeffs):
    """SdpBlock of A0 + sum_j y_j A_j from a dense A0 and (variable index,
    dense symmetric A_j) pairs; a nonzero A0 is the matrix of variable ONE."""
    const = np.asarray(const, dtype=float)
    if const.any():
        coeffs = [(ONE, const), *coeffs]
    vi, rr, cc, vv = [np.zeros(0, dtype=np.int64)] * 3 + [np.zeros(0)]
    for j, mat in coeffs:
        mat = np.triu(np.asarray(mat, dtype=float))
        r, c = np.nonzero(mat)
        vi = np.concatenate([vi, np.full(len(r), j, dtype=np.int64)])
        rr = np.concatenate([rr, r])
        cc = np.concatenate([cc, c])
        vv = np.concatenate([vv, mat[r, c]])
    return sb.SdpBlock(const.shape[0], vi, rr, cc, vv)


def one_var_block(entries):
    """Helper: 1x1 or small dense block from (const, {var: mat}) style args."""
    const, coeffs = entries
    return dense_block(np.atleast_2d(const), [(j, np.atleast_2d(m)) for j, m in coeffs])


def make(num_vars, c, eq_rows, blocks):
    """SdpProblem over y_0 .. y_{num_vars-1}.  When a block uses ONE, it
    becomes y_{num_vars}, fixed to 1 by one more equality row, with c entry 0."""
    c = np.array(c, dtype=float)
    rows = np.array([a for a, _ in eq_rows], dtype=float).reshape(len(eq_rows), num_vars)
    rhs = [b for _, b in eq_rows]
    if any((blk.var_idx == ONE).any() for blk in blocks):
        for blk in blocks:
            blk.var_idx = np.where(blk.var_idx == ONE, num_vars, blk.var_idx)
        num_vars += 1
        c = np.append(c, 0.0)
        rows = np.hstack([rows, np.zeros((len(rows), 1))])
        rows = np.vstack([rows, np.eye(1, num_vars, num_vars - 1)])
        rhs.append(1.0)
    return sb.SdpProblem(num_vars, c, rows, rhs, blocks)


# Analytic instances: (problem, optimal value, optimal y or None)
def toy_problems():
    toys = []

    # min y s.t. [y] >= 0
    toys.append((make(1, [1.0], [], [one_var_block((0.0, [(0, 1.0)]))]), 0.0, [0.0]))

    # min -y s.t. [1 - y] >= 0
    toys.append((make(1, [-1.0], [], [one_var_block((1.0, [(0, -1.0)]))]), -1.0, [1.0]))

    # separable: min y1 + y2, y1 >= 1, y2 >= 2
    toys.append((
        make(2, [1.0, 1.0], [],
             [one_var_block((-1.0, [(0, 1.0)])), one_var_block((-2.0, [(1, 1.0)]))]),
        3.0, [1.0, 2.0],
    ))

    # min y with [[1, y], [y, 1]] >= 0  ->  y = -1
    a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    toys.append((make(1, [1.0], [], [dense_block(np.eye(2), [(0, a1)])]), -1.0, [-1.0]))

    # min t with [[t, 1], [1, t]] >= 0  ->  t = 1
    toys.append((
        make(1, [1.0], [],
             [dense_block(np.array([[0.0, 1.0], [1.0, 0.0]]), [(0, np.eye(2))])]),
        1.0, [1.0],
    ))

    # equality: min -y2 s.t. y1 = 2, y1 - y2 >= 0
    toys.append((
        make(2, [0.0, -1.0], [([1.0, 0.0], 2.0)],
             [one_var_block((0.0, [(0, 1.0), (1, -1.0)]))]),
        -2.0, [2.0, 2.0],
    ))

    # min y with [[1, y], [y, 4]] >= 0  ->  y = -2
    toys.append((
        make(1, [1.0], [],
             [dense_block(np.diag([1.0, 4.0]), [(0, a1)])]),
        -2.0, [-2.0],
    ))

    # simplex vertex: min y1 + 2 y2, y1 + y2 = 1, y1 >= 0, y2 >= 0
    toys.append((
        make(2, [1.0, 2.0], [([1.0, 1.0], 1.0)],
             [one_var_block((0.0, [(0, 1.0)])), one_var_block((0.0, [(1, 1.0)]))]),
        1.0, [1.0, 0.0],
    ))

    # min t with (t+1) I - 2*offdiag >= 0  ->  t = 1
    toys.append((
        make(1, [1.0], [],
             [dense_block(np.array([[1.0, 2.0], [2.0, 1.0]]), [(0, np.eye(2))])]),
        1.0, [1.0],
    ))

    # largest eigenvalue: min t with t I - C >= 0, C = [[1,2],[2,1]], lam_max = 3
    toys.append((
        make(1, [1.0], [],
             [dense_block(np.array([[-1.0, -2.0], [-2.0, -1.0]]), [(0, np.eye(2))])]),
        3.0, [3.0],
    ))
    return toys


def infeasible_problems():
    probs = []
    # moments of a measure on {x: -1 - x^2 >= 0}: empty set
    m2 = dense_block(
        np.zeros((2, 2)),
        [(0, np.array([[1.0, 0.0], [0.0, 0.0]])),
         (1, np.array([[0.0, 1.0], [1.0, 0.0]])),
         (2, np.array([[0.0, 0.0], [0.0, 1.0]]))],
    )
    lin = one_var_block((0.0, [(0, -1.0), (2, -1.0)]))
    probs.append(make(3, [0.0, 0.0, 0.0], [([1.0, 0.0, 0.0], 1.0)], [m2, lin]))

    # y >= 0 and y <= -1
    probs.append(make(1, [0.0],
                      [],
                      [one_var_block((0.0, [(0, 1.0)])), one_var_block((-1.0, [(0, -1.0)]))]))

    # y1, y2 >= 0 with y1 + y2 = -3
    probs.append(make(2, [1.0, 1.0], [([1.0, 1.0], -3.0)],
                      [one_var_block((0.0, [(0, 1.0)])), one_var_block((0.0, [(1, 1.0)]))]))
    return probs


def unbounded_problems():
    probs = []
    # min -y with y >= 0
    probs.append(make(1, [-1.0], [], [one_var_block((0.0, [(0, 1.0)]))]))
    # min -y1 - y2 with y1, y2 >= 0; the all-ones direction is an improving ray
    probs.append(make(2, [-1.0, -1.0], [],
                      [one_var_block((0.0, [(0, 1.0)])),
                       one_var_block((0.0, [(1, 1.0)]))]))
    return probs


@pytest.mark.parametrize("idx", range(10))
def test_toy_optimal_values(idx):
    prob, opt, ystar = toy_problems()[idx]
    res = sb.solve(prob)
    assert res.status == sb.OPTIMAL
    assert res.exit == "optimal"
    assert res.objective == pytest.approx(opt, abs=1e-7)
    if ystar is not None:
        assert np.allclose(res.y[:len(ystar)], ystar, atol=1e-5)


@pytest.mark.parametrize("idx", range(3))
def test_infeasible_detection(idx):
    prob = infeasible_problems()[idx]
    res = sb.solve(prob)
    assert res.status == sb.PRIMAL_INFEASIBLE
    assert res.exit == "certificate"


@pytest.mark.parametrize("idx", range(2))
def test_unbounded_ends_in_numerical_failure(idx):
    # no relaxation the package builds is unbounded, so the solver has no
    # unboundedness certificate; an unbounded problem must still never be
    # reported optimal
    prob = unbounded_problems()[idx]
    res = sb.solve(prob)
    assert res.status == sb.NUMERICAL_FAILURE
    assert res.exit == "collapse"


def test_unbounded_without_ray_is_not_reported_optimal():
    # min y1 with [[1, y1], [y1, y2]] >= 0 has value -inf but no improving
    # ray; like a problem with one, it ends in a numerical failure
    prob = make(2, [1.0, 0.0], [],
                [dense_block(
                    np.array([[1.0, 0.0], [0.0, 0.0]]),
                    [(0, np.array([[0.0, 1.0], [1.0, 0.0]])),
                     (1, np.array([[0.0, 0.0], [0.0, 1.0]]))])])
    res = sb.solve(prob)
    assert res.status == sb.NUMERICAL_FAILURE


def test_optimal_iterate_quality():
    # on optimal termination the returned point is nearly feasible
    for prob, _, _ in toy_problems():
        res = sb.solve(prob)
        assert res.status == sb.OPTIMAL
        for blk in prob.blocks:
            assert np.linalg.eigvalsh(blk.evaluate(res.y)).min() >= -1e-7
        assert np.abs(prob.eq_rows @ res.y - prob.eq_rhs).max(initial=0.0) <= 1e-7


def test_determinism():
    prob = toy_problems()[3][0]
    r1 = sb.solve(prob)
    r2 = sb.solve(prob)
    assert r1.status == r2.status
    assert np.array_equal(r1.y, r2.y)
    assert r1.objective == r2.objective


def test_weak_duality_gap_reported():
    prob, opt, _ = toy_problems()[4]
    res = sb.solve(prob)
    assert "gap" in res.residuals
    assert res.residuals["gap"] >= -1e-12


def test_inconsistent_equalities_rejected_fast():
    prob = make(2, [1.0, 1.0],
                [([1.0, 1.0], 1.0), ([2.0, 2.0], 5.0)],
                [one_var_block((0.0, [(0, 1.0)]))])
    res = sb.solve(prob)
    assert res.status == sb.PRIMAL_INFEASIBLE
    assert res.exit == "inconsistent"


def test_diverged_exit_returns_the_answer_of_the_iterations_before(sdp_solves, monkeypatch):
    # the diverged exit stops a solve whose iterate fell far behind an
    # acceptable best one.  Stopping it one iteration earlier by the
    # iteration limit, or not stopping it at all, must give the same
    # answer, bit for bit
    problem, opts = load_problem(os.path.join(FIXTURES, "eig_linear_cone.json"))
    solve_one(problem, opts)
    diverged = [(prob, res) for prob, res in sdp_solves if res.exit == "diverged"]
    assert diverged
    earlier = [sb.solve(prob, max_iters=res.iterations - 1) for prob, res in diverged]
    monkeypatch.setattr(sb, "_DIVERGE_FACTOR", np.inf)
    running_on = [sb.solve(prob) for prob, _ in diverged]
    for (_, res), before, after in zip(diverged, earlier, running_on):
        assert res.residuals["relaxed"]
        assert res.best_score <= 1e-4 and res.mu_ratio > 0
        assert before.exit == "max_iters"
        assert after.exit not in ("diverged", "max_iters")
        assert after.iterations > res.iterations
        for ref in (before, after):
            assert ref.status == res.status
            assert np.array_equal(ref.y, res.y)
            assert ref.objective == res.objective
            assert ref.residuals == res.residuals
            assert ref.best_score == res.best_score


def test_problem_rejects_mismatched_equalities():
    blk = one_var_block((0.0, [(0, 1.0)]))
    with pytest.raises(ValueError):
        sb.SdpProblem(2, [1.0, 1.0], np.ones((2, 2)), [1.0], [blk])
    with pytest.raises(ValueError):
        sb.SdpProblem(2, [1.0, 1.0], np.ones((1, 3)), [1.0], [blk])


def test_block_evaluate_matches_dense():
    rng = np.random.default_rng(7)
    mats = [
        np.array([[2.0, 1.0], [1.0, 3.0]]),
        np.array([[0.0, -1.0], [-1.0, 4.0]]),
        np.array([[1.0, 0.5], [0.5, 2.0]]),
    ]
    blk = dense_block(np.zeros((2, 2)), list(enumerate(mats)))
    y = rng.standard_normal(3)
    expect = y[0] * mats[0] + y[1] * mats[1] + y[2] * mats[2]
    assert np.allclose(blk.evaluate(y), expect, atol=1e-14)


@pytest.mark.parametrize("lower", [True, False])
def test_potrf_factors_spd_matrix_like_scipy_and_rejects_non_finite(lower):
    b = np.random.default_rng(3).standard_normal((6, 6))
    mat = b @ b.T + np.eye(6)
    copy = mat.copy()
    assert np.array_equal(sb._potrf(mat, lower), sla.cholesky(mat, lower=lower))
    assert np.array_equal(mat, copy)
    # a NaN or an inf in the triangle potrf reads gives None, not an error
    read = (4, 1) if lower else (1, 4)
    for where, value in [((2, 2), np.nan), (read, np.nan), ((2, 2), np.inf), (read, np.inf)]:
        bad = mat.copy()
        bad[where] = value
        assert sb._potrf(bad, lower) is None
        assert sb._potrf(np.asfortranarray(bad), lower, overwrite=True) is None


@pytest.mark.parametrize("lower", [True, False])
def test_potrf_rejects_singular_psd_matrix_without_a_shift(lower):
    mat = np.ones((4, 4))  # rank 1: the second pivot is exactly zero
    copy = mat.copy()
    assert sb._potrf(mat, lower) is None
    assert np.array_equal(mat, copy)
    assert sb._potrf(np.asfortranarray(mat), lower, overwrite=True) is None


@pytest.mark.parametrize("which", ["s", "z"])
@pytest.mark.parametrize("bad", ["nan", "indefinite"])
def test_nt_scalings_reject_a_nan_or_indefinite_block(which, bad):
    ipm = sb.ReferenceIpm(schur_problems()[1], 200)
    rng = np.random.default_rng(6)
    vecs = {"s": _interior(ipm, rng), "z": _interior(ipm, rng)}
    assert ipm._nt_scalings(vecs["s"], vecs["z"]) is not None
    # the first block, 3 x 3: a NaN on its diagonal, or a negative one
    assert ipm.sizes[0] == 3
    vecs[which][4] = np.nan if bad == "nan" else -1.0
    assert ipm._nt_scalings(vecs["s"], vecs["z"]) is None


def schur_problems():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1.0)
    prog = ms.PolyProgram(
        x1 * x1 * x2 - x2, (x1 * x2 - 0.25 * one,), (one - x1 * x1 - x2 * x2, x1), 2
    )
    relaxation = ms.build_relaxation(prog, 2)
    # 1x1 blocks, off-diagonal entries, and a variable shared by both blocks
    a0 = np.array([[1.0, 2.0, 0.0], [2.0, 0.0, -1.0], [0.0, -1.0, 3.0]])
    a1 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    toy = make(3, [1.0, 0.0, 1.0], [],
               [dense_block(np.eye(3), [(0, a0), (1, a1)]),
                one_var_block((1.0, [(0, 2.0), (2, -1.0)])),
                one_var_block((0.0, [(1, 1.0)]))])
    return [relaxation, toy, ms.build_relaxation(prog, 3)]


def _interior(ipm, rng):
    """A random cone vector whose blocks are positive definite."""
    mats = [rng.standard_normal((size, size)) for size in ipm.sizes]
    return np.concatenate([(b @ b.T + len(b) * np.eye(len(b))).ravel() for b in mats])


def _random_states(ipm, rng):
    return ipm._nt_scalings(_interior(ipm, rng), _interior(ipm, rng))


@pytest.mark.parametrize("chunk", [1.0e6, 100.0])
@pytest.mark.parametrize("idx", range(3))
def test_schur_matches_dense_reference(monkeypatch, idx, chunk):
    # 1e6 entries hold every variable of a block in one column range, as the
    # default does on these problems; 100 splits them into many ranges
    monkeypatch.setattr(sb, "_SCHUR_CHUNK", chunk)
    prob = schur_problems()[idx]
    ipm = sb.ReferenceIpm(prob, 200)
    if idx == 0:
        assert max(ipm.sizes) == 6 and len(prob.eq_rows) > 1
    if idx == 2 and chunk == 100.0:
        # the ranges pad their nonzero rows to different counts
        counts = {row_idx.shape[1] for cone in ipm.cones for _, _, row_idx, *_ in cone.chunks}
        assert len(counts) > 2
    states = _random_states(ipm, np.random.default_rng(idx))
    _assert_schur_matches_dense(ipm, states, ipm._schur(states))


def _assert_schur_matches_dense(ipm, states, h):
    """h's upper triangle, all that _factor reads, stands for the symmetric
    sum over blocks of G_l^T (T^-1 (.) T^-1) G_l, built densely here."""
    ref = np.zeros((ipm.m, ipm.m))
    for st, lo, hi in zip(states, ipm.offsets, ipm.offsets[1:]):
        g = ipm.G[lo:hi].toarray()
        s = len(st.lam)
        cols = [(st.t_inv @ g[:, j].reshape(s, s) @ st.t_inv).ravel() for j in range(ipm.m)]
        ref += g.T @ np.stack(cols, axis=1)
    bound = 1e-12 * np.abs(ref).max()
    assert np.abs(np.triu(h - ref)).max() <= bound
    assert np.abs(np.triu(h) + np.triu(h, 1).T - ref).max() <= bound


def test_schur_does_not_depend_on_the_chunk(monkeypatch):
    # the iteration counts move with the last bit of H (CHANGES.md), so the
    # column ranges must not change it: each entry sums the same products of
    # the same blocks in the same order at every chunk
    prob = schur_problems()[2]
    uppers, factors = [], []
    for chunk in (1.0e6, 1.0e4, 100.0):
        monkeypatch.setattr(sb, "_SCHUR_CHUNK", chunk)
        ipm = sb.ReferenceIpm(prob, 200)
        states = _random_states(ipm, np.random.default_rng(2))
        h = ipm._schur(states)
        uppers.append(np.triu(h))
        # the factor of the row-assembled, Fortran-ordered H equals that of
        # the symmetric C-ordered H with the same diagonal shift; _factor
        # overwrites h, so sym is built first
        sym = np.triu(h) + np.triu(h, 1).T
        sym[np.diag_indices(ipm.m)] += 1e-10 * max(1.0, float(np.trace(sym)) / ipm.m)
        assert ipm._factor(states)
        factors.append(ipm._hchol)
        assert np.array_equal(ipm._hchol, sla.cholesky(sym, lower=False))
    assert ipm.m == 28 and len(ipm.cones[0].chunks) > 1
    for upper, factor in zip(uppers[1:], factors[1:]):
        assert np.array_equal(upper, uppers[0])
        assert np.array_equal(factor, factors[0])


def test_nt_scalings_leave_s_and_z_unchanged():
    # the Cholesky factors of the blocks are taken from views into s and z
    ipm = sb.ReferenceIpm(schur_problems()[0], 200)
    rng = np.random.default_rng(6)
    s, z = _interior(ipm, rng), _interior(ipm, rng)
    s_copy, z_copy = s.copy(), z.copy()
    assert ipm._nt_scalings(s, z) is not None
    assert np.array_equal(s, s_copy) and np.array_equal(z, z_copy)


def _ball_search_program(n=7):
    """The search program of a generated ball problem; at n=7 its order-3
    relaxation has m=1716 moments and 254 equality rows, at n=4 m=210."""
    problem, _ = parse_problem(generate("ball", (n,), 2, 0), "ball")
    return _cut_program(problem, random_theta(n, 0).poly, CutSet(), [])


@pytest.mark.parametrize("chunk", [sb._SCHUR_CHUNK, 100.0])
def test_graded_moment_block_reads_only_its_leading_rows(monkeypatch, chunk):
    # the moment block's early variables sit in its first rows, so their
    # ranges compute only the leading rows of each T^-1 A_b T^-1
    monkeypatch.setattr(sb, "_SCHUR_CHUNK", chunk)
    ipm = sb.ReferenceIpm(ms.build_relaxation(_ball_search_program(4), 3), 200)
    moment = max(ipm.cones, key=lambda cone: cone.size)
    assert ipm.m == 210 and moment.size == 35
    bounds = [r for _, _, _, _, r, _ in moment.chunks]
    assert min(bounds) < moment.size and bounds == sorted(bounds)
    states = _random_states(ipm, np.random.default_rng(7))
    _assert_schur_matches_dense(ipm, states, ipm._schur(states))


def _ncp_product_search_relaxation():
    """ncp_product_infeasible's search relaxation at order 4: m=495, one
    70-block and eight 15-blocks."""
    problem, _ = load_problem(os.path.join(FIXTURES, "ncp_product_infeasible.json"))
    prog = _cut_program(problem, random_theta(problem.n, 0).poly, CutSet(), [])
    return ms.build_relaxation(prog, 4)


def test_cones_hold_no_gather_index_per_width():
    # an index per chunk width took up to _SCHUR_CHUNK/2 entries per block
    # size, 10 times the blocks' triplets on this SDP; the ranges now share
    # one prefix of `upper`, and their sparse rows the arrays of one matrix
    prob = _ncp_product_search_relaxation()
    ipm = sb.ReferenceIpm(prob, 200)
    assert ipm.m == 495

    def owner(arr):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        return arr

    held, triplets = {}, 0
    for blk, cone in zip(prob.blocks, ipm.cones):
        triplets += sum(a.nbytes for a in (blk.var_idx, blk.rows, blk.cols, blk.vals))
        for _, _, row_idx, a_rows, _, prefix in cone.chunks:
            for arr in (row_idx, a_rows.data, a_rows.indices, a_rows.indptr,
                        prefix.data, prefix.indices, prefix.indptr):
                held[id(owner(arr))] = owner(arr).nbytes
    assert sum(held.values()) <= 4 * triplets


def _schur_on_threads(monkeypatch, prob, states, count):
    """H of an IPM set up under the pin of libraries on `count` threads, and
    the set of threads that assembled it."""
    threads, assemble = set(), sb.ReferenceIpm._assemble

    def recording(self, *args):
        threads.add(threading.get_ident())
        return assemble(self, *args)

    with monkeypatch.context() as patch:
        fake = _FakeBlas(patch, count)
        patch.setattr(sb.ReferenceIpm, "_assemble", recording)
        with blas.one_blas_thread() as pinned:
            h = sb.ReferenceIpm(prob, 200, pinned)._schur(states).copy()
        assert set(fake.counts.values()) == {count}
    return h, threads


@pytest.mark.parametrize("which", ["relaxation", "ball"])
def test_two_thread_schur_is_bitwise_the_one_thread_schur(monkeypatch, which):
    # the split is a range bound of every cone on both paths, so each row of
    # H sums the same products in the same cone order
    if which == "relaxation":
        prob = schur_problems()[2]
        monkeypatch.setattr(sb, "_PARALLEL_M", 20)
    else:
        prob = ms.build_relaxation(_ball_search_program(), 3)
    ipm = sb.ReferenceIpm(prob, 200)
    assert 0 < ipm.split < ipm.m
    for cone in ipm.cones:
        if len(cone.counts) > ipm.split:
            assert ipm.split in {start for start, *_ in cone.chunks}
    states = _random_states(ipm, np.random.default_rng(3))
    one, one_threads = _schur_on_threads(monkeypatch, prob, states, 1)
    two, two_threads = _schur_on_threads(monkeypatch, prob, states, 2)
    assert len(one_threads) == 1 and len(two_threads) == 2
    assert np.array_equal(one, two)


@pytest.mark.parametrize("part", ["caller", "helper"])
def test_a_raising_chunk_reraises_and_leaves_no_thread(monkeypatch, part):
    _FakeBlas(monkeypatch, 2)
    monkeypatch.setattr(sb, "_PARALLEL_M", 20)
    with blas.one_blas_thread() as pinned:
        ipm = sb.ReferenceIpm(schur_problems()[2], 200, pinned)
    states = _random_states(ipm, np.random.default_rng(3))
    assert 0 < ipm.split < ipm.m and ipm._helper
    assemble = sb.ReferenceIpm._assemble

    def broken(self, states, lo, hi):
        if (lo == 0) == (part == "caller"):
            raise FloatingPointError(part)
        return assemble(self, states, lo, hi)

    monkeypatch.setattr(sb.ReferenceIpm, "_assemble", broken)
    before = threading.active_count()
    with blas.one_blas_thread():
        with pytest.raises(FloatingPointError, match=part):
            ipm._schur(states)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "env, expect",
    [({}, "4"), ({"OPENBLAS_THREAD_TIMEOUT": "9"}, "9"), ({"GOTO_THREAD_TIMEOUT": "7"}, None)],
)
def test_importing_polyvi_sets_the_openblas_thread_timeout(env, expect):
    # OpenBLAS reads the timeout when it loads, which the import of polyvi
    # precedes; a user's value of either variable stands
    base = {k: v for k, v in os.environ.items() if not k.endswith("THREAD_TIMEOUT")}
    script = "import os, polyvi; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**base, **env}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(expect)


def test_factor_holds_one_schur_array():
    # the search relaxation of a generated ball problem, n=7 at order 3:
    # one H (8 m^2 bytes) is at least four times the assembly's four work
    # arrays of _SCHUR_CHUNK entries, so a second m x m array would show
    ipm = sb.ReferenceIpm(ms.build_relaxation(_ball_search_program(), 3), 200)
    h_bytes = 8 * ipm.m**2
    assert ipm.m == 1716 and h_bytes >= 4 * 4 * 8 * sb._SCHUR_CHUNK
    states = _random_states(ipm, np.random.default_rng(0))
    ipm._schur(states)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert ipm._factor(states)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # H is assembled and factored in the buffer set up with the IPM
    assert peak < h_bytes
    assert np.shares_memory(ipm._hchol, ipm._h_rows)


def test_solve_holds_no_stale_equality_data(monkeypatch):
    # besides H (8 m^2 bytes), a solve's peak holds about 4.2 times 8 p m
    # bytes: A, W, G and the cones' data.  Also holding the problem's dense
    # rows, their scaled copy and the previous iteration's W made it 7.8
    prog = _ball_search_program()
    m, p = 1716, 254
    refs, dead_at_run = [], []
    init, run = sb.ReferenceIpm.__init__, sb.ReferenceIpm.run

    def recording_init(self, problem, *args):
        refs.append(weakref.ref(problem))
        init(self, problem, *args)

    def checking_run(self):
        dead_at_run.append(refs[0]() is None)
        return run(self)

    monkeypatch.setattr(sb.ReferenceIpm, "__init__", recording_init)
    monkeypatch.setattr(sb.ReferenceIpm, "run", checking_run)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = sb.solve(ms.build_relaxation(prog, 3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.status == sb.OPTIMAL and len(res.y) == m
    assert peak < 8 * m * m + 6 * 8 * p * m
    if sys.version_info >= (3, 11):
        # the caller's temporary is handed to solve, which lets it go
        assert dead_at_run == [True]


def test_schur_of_a_wide_block_holds_no_second_array():
    # a 1x1 block whose entry uses every variable: its chunks' contraction
    # outputs (stop x k) are bounded like their Z stacks, so the assembly
    # adds no m x m array to the Schur buffer
    m = 1500
    rng = np.random.default_rng(8)
    wide = sb.SdpBlock(1, np.arange(m), np.zeros(m, int), np.zeros(m, int), rng.uniform(1, 2, m))
    singles = [sb.SdpBlock(1, np.array([j]), np.zeros(1, int), np.zeros(1, int), np.ones(1))
               for j in (0, 700, m - 1)]
    prob = sb.SdpProblem(m, np.ones(m), np.zeros((0, m)), np.zeros(0), [wide, *singles])
    ipm = sb.ReferenceIpm(prob, 200)
    states = _random_states(ipm, np.random.default_rng(9))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = ipm._schur(states)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m / 4
    _assert_schur_matches_dense(ipm, states, h)


def _failing_schur(ipm, call):
    """Make the `call`-th Schur matrix of ipm (1 is the starting point's)
    indefinite, so that potrf meets a negative pivot (info > 0)."""
    real, count = ipm._schur, [0]

    def schur(states):
        h = real(states)
        count[0] += 1
        if count[0] == call:
            h[3, 3] = -1.0
        return h

    ipm._schur = schur


def test_a_schur_matrix_that_does_not_factor_ends_the_solve_at_scaling():
    # the H of iteration 5 does not factor: the solve ends there, without a
    # shifted retry, and returns what the post-loop path makes of the same
    # iterations, here the best iterate as a relaxed optimum
    prob = schur_problems()[0]
    ipm = sb.ReferenceIpm(prob, 200)
    _failing_schur(ipm, 6)
    res = ipm.run()
    assert ipm._hchol is None
    ref = sb.solve(prob, max_iters=5)
    assert (res.exit, ref.exit) == ("scaling", "max_iters")
    assert res.status == ref.status == sb.OPTIMAL and res.residuals["relaxed"]
    assert res.iterations == ref.iterations == 5
    assert np.array_equal(res.y, ref.y)
    assert res.residuals == ref.residuals
    assert (res.objective, res.best_score, res.mu_ratio) == (
        ref.objective, ref.best_score, ref.mu_ratio
    )


def test_a_starting_schur_matrix_that_does_not_factor_ends_at_initial_factor():
    ipm = sb.ReferenceIpm(schur_problems()[0], 200)
    _failing_schur(ipm, 1)
    res = ipm.run()
    assert (res.status, res.exit, res.iterations) == (sb.NUMERICAL_FAILURE, "initial_factor", 0)


@pytest.mark.parametrize("where, value", [((2, 9), np.nan), ((9, 9), np.inf)])
def test_factor_rejects_a_non_finite_schur_matrix(monkeypatch, where, value):
    # potrf factors such an H without an error (info 0), but its diagonal
    # comes out non-finite, and _factor fails after that one call instead of
    # raising
    ipm = sb.ReferenceIpm(schur_problems()[0], 200)
    states = _random_states(ipm, np.random.default_rng(4))
    schur, potrf, calls = ipm._schur, sb._potrf, []

    def poisoned(states):
        h = schur(states)
        h[where] = value
        return h

    def recording(mat, *args, **kwargs):
        fac = potrf(mat, *args, **kwargs)
        calls.append((mat.shape, fac is not None))
        return fac

    monkeypatch.setattr(ipm, "_schur", poisoned)
    monkeypatch.setattr(sb, "_potrf", recording)
    assert not ipm._factor(states)
    assert calls == [((ipm.m, ipm.m), False)]
    assert ipm._hchol is None and ipm._w is None


def _shifted_equality_complement(ipm):
    """W^T W of the factored ipm plus _factor's shift, as a new array."""
    schur = ipm._w.T @ ipm._w
    p = len(schur)
    schur.flat[:: p + 1] += 1e-12 * max(1.0, float(np.trace(schur)) / p)
    return schur


def test_factor_fails_when_the_equality_complement_does_not_factor(monkeypatch):
    ipm = sb.ReferenceIpm(schur_problems()[0], 200)
    states = _random_states(ipm, np.random.default_rng(4))
    assert ipm._factor(states)
    assert np.array_equal(
        ipm._schur_chol, sla.cholesky(_shifted_equality_complement(ipm), lower=True)
    )
    # a pivot failure of potrf on W^T W, then a NaN in the equality rows,
    # which reaches W^T W through W = R^-T A^T; _factor fails after one
    # call each, whatever H did
    real, calls = sb.dpotrf, []

    def failing_on_the_complement(a, lower=0, clean=1, overwrite_a=0):
        calls.append(lower)
        if lower:
            return a, 1
        return real(a, lower=lower, clean=clean, overwrite_a=overwrite_a)

    monkeypatch.setattr(sb, "dpotrf", failing_on_the_complement)
    assert not ipm._factor(states)
    assert calls == [0, 1] and ipm._hchol is not None and ipm._schur_chol is None
    monkeypatch.undo()
    ipm.A = ipm.A.copy()
    ipm.A[2, 5] = np.nan
    assert not ipm._factor(states)
    assert ipm._hchol is not None and ipm._schur_chol is None


def _capital_search_relaxation():
    """capital_stock's search relaxation at order 3: m=1716 moments and 1135
    equality rows of rank 1016."""
    problem, _ = load_problem(os.path.join(FIXTURES, "capital_stock.json"))
    prog = _cut_program(problem, random_theta(problem.n, 0).poly, CutSet(), [])
    return ms.build_relaxation(prog, 3)


def test_factor_of_many_equality_rows_holds_no_spare_array():
    # besides H, the factorization adds W (r x m) and W^T W (r x r), which
    # potrf factors in place, and the equality rows keep only the rank's
    # rows of the SVD; a copy of W^T W and the 119 rows past the rank took
    # 9.9 MB more
    prob = _capital_search_relaxation()
    ipm = sb.ReferenceIpm(prob, 200)
    m, r = ipm.m, len(ipm.b)
    assert (m, len(prob.eq_rhs), r) == (1716, 1135, 1016)
    owner = ipm.A
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    assert owner.nbytes == ipm.A.nbytes == 8 * r * m
    states = _random_states(ipm, np.random.default_rng(0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert ipm._factor(states)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one MiB for the small work arrays
    assert peak < 8 * (r * m + r * r) + 2**20
    expect = sla.cholesky(_shifted_equality_complement(ipm), lower=True)
    assert np.array_equal(ipm._schur_chol, expect)


class _FakeBlas:
    """Two OpenBLAS libraries whose thread counts start at `count`; `sets`
    logs every set call as (library, count)."""

    def __init__(self, monkeypatch, count):
        self.counts = {"liba.so": count, "libb.so": count}
        self.sets = []
        libs = tuple((name, self._getter(name), self._setter(name)) for name in self.counts)
        monkeypatch.setattr(blas, "_openblas_libraries", lambda: libs)
        for var in blas._THREAD_VARIABLES:
            monkeypatch.delenv(var, raising=False)

    def _getter(self, name):
        return lambda: self.counts[name]

    def _setter(self, name):
        def put(count):
            self.sets.append((name, count))
            self.counts[name] = count

        return put


def _spy_on_lapack(monkeypatch, fake):
    """(name, input shape, counts) of every _potrf and _trtrs call."""
    calls = []
    for name in ("_potrf", "_trtrs"):
        real = getattr(sb, name)

        def spy(mat, *args, real=real, name=name, **kwargs):
            shape = args[0].shape if name == "_trtrs" else mat.shape
            calls.append((name, shape, set(fake.counts.values())))
            return real(mat, *args, **kwargs)

        monkeypatch.setattr(sb, name, spy)
    return calls


def test_large_factorizations_run_on_the_counts_from_before_the_pin(monkeypatch):
    fake = _FakeBlas(monkeypatch, 2)
    prob = schur_problems()[0]
    monkeypatch.setattr(sb, "_PARALLEL_M", 15)
    calls = _spy_on_lapack(monkeypatch, fake)
    res = sb.solve(prob)
    assert res.status == sb.OPTIMAL and set(fake.counts.values()) == {2}
    m = 15
    factors = [c for c in calls if c[:2] == ("_potrf", (m, m))]
    products = [c for c in calls if c[0] == "_trtrs" and len(c[1]) == 2]
    # every _factor runs the Cholesky of H and W = R^-T A^T at 2 threads, and
    # everything else, the per-block factors and the KKT solves, at 1
    assert factors and len(factors) == len(products) == res.iterations
    for name, shape, counts in calls:
        assert counts == ({2} if (name, shape) in {f[:2] for f in factors + products} else {1})
    # the solve's pin, one raise and one return to one thread per _factor,
    # and the restore
    pin, restore = [("liba.so", 1), ("libb.so", 1)], [("liba.so", 2), ("libb.so", 2)]
    assert fake.sets == pin + (restore + pin) * res.iterations + restore


def test_small_factorizations_change_no_count(monkeypatch):
    fake = _FakeBlas(monkeypatch, 2)
    assert sb.solve(schur_problems()[0]).status == sb.OPTIMAL
    # the solve's pin and its restore
    assert fake.sets == [("liba.so", 1), ("libb.so", 1), ("liba.so", 2), ("libb.so", 2)]


def test_thread_variable_or_no_pin_means_no_count_changes(monkeypatch):
    fake = _FakeBlas(monkeypatch, 2)
    monkeypatch.setattr(sb, "_PARALLEL_M", 1)
    # an IPM set up without a pin assembles at the counts in use
    ipm = sb.ReferenceIpm(schur_problems()[0], 200)
    assert ipm._helper and ipm.run().status == sb.OPTIMAL
    # with a thread variable set, the solve's pin pins nothing
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with blas.one_blas_thread() as pinned:
        assert pinned == ()
    assert sb.solve(schur_problems()[0]).status == sb.OPTIMAL
    assert fake.sets == []


def test_counts_return_to_one_when_the_factorization_raises(monkeypatch):
    fake = _FakeBlas(monkeypatch, 2)
    monkeypatch.setattr(sb, "_PARALLEL_M", 1)

    def broken(mat, lower, overwrite=False):
        assert set(fake.counts.values()) == {2}
        raise MemoryError

    with blas.one_blas_thread() as pinned:
        ipm = sb.ReferenceIpm(schur_problems()[0], 200, pinned)
        states = _random_states(ipm, np.random.default_rng(4))
        monkeypatch.setattr(sb, "_potrf", broken)
        with pytest.raises(MemoryError):
            ipm._factor(states)
        assert set(fake.counts.values()) == {1}
    assert set(fake.counts.values()) == {2}


@pytest.mark.parametrize("raises", [False, True])
def test_a_library_solve_runs_its_ipm_on_one_thread(monkeypatch, raises):
    # solve_one called without the command line, as a library caller does:
    # every solve pins its iterations, and the counts are back afterwards
    fake = _FakeBlas(monkeypatch, 2)
    seen, scalings = [], sb.ReferenceIpm._nt_scalings

    def recording(self, *args):
        seen.append(set(fake.counts.values()))
        if raises and len(seen) == 3:
            raise FloatingPointError("in the IPM")
        return scalings(self, *args)

    monkeypatch.setattr(sb.ReferenceIpm, "_nt_scalings", recording)
    problem, opts = parse_problem(generate("ball", (2,), 2, 0), "ball")
    if raises:
        with pytest.raises(FloatingPointError):
            solve_one(problem, opts)
    else:
        solve_one(problem, opts)
    assert len(seen) >= 3 and all(counts == {1} for counts in seen)
    assert set(fake.counts.values()) == {2}


def test_trtrs_rejects_a_zero_pivot():
    r_mat = np.asfortranarray(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(np.linalg.LinAlgError):
        sb._trtrs(r_mat, np.ones(3), trans=1)


def test_solve3_residuals():
    # the relaxation has 7 equality rows, so the equality complement is used
    ipm = sb.ReferenceIpm(schur_problems()[0], 200)
    rng = np.random.default_rng(5)
    states = _random_states(ipm, rng)
    assert len(ipm.b) == 7 and ipm._factor(states)
    bx, by, bz = (rng.standard_normal(n) for n in (ipm.m, len(ipm.b), ipm.offsets[-1]))
    bz = ipm._jordan_product(bz, ipm.identity)  # cone vectors hold symmetric blocks
    ux, uy, uz = ipm._solve3(states, bx, by, bz)
    rx = ipm.A.T @ uy + ipm.GT @ uz - bx
    ry = ipm.A @ ux - by
    rz = ipm.G @ ux - ipm._congruence(states, "t_mat", uz) - bz
    # the static regularizations of _factor (1e-10 and 1e-12 times the mean
    # diagonal) leave residuals of about that size
    scale = max(np.abs(u).max() for u in (ux, uy, uz))
    for res in (rx, ry, rz):
        assert np.abs(res).max() <= 1e-9 * scale


@pytest.mark.parametrize("idx", range(3))
def test_cone_map_reproduces_each_block(idx):
    # -G (y / var_scale) is each block's sum_j y_j A_j, row-major and times
    # the block's equilibration factor
    prob = schur_problems()[idx]
    ipm = sb.ReferenceIpm(prob, 200)
    y = np.random.default_rng(idx).standard_normal(ipm.m)
    slack = -ipm.G @ (y / ipm.var_scale)
    start = 0
    for blk, scale in zip(prob.blocks, ipm.blk_scale):
        mat = slack[start:start + blk.size**2].reshape(blk.size, blk.size)
        start += blk.size**2
        assert np.array_equal(mat, mat.T)
        expect = scale * blk.evaluate(y)
        assert np.abs(mat - expect).max() <= 1e-12 * np.abs(expect).max()
    assert start == len(slack)


# Ruiz factors (var_scale, blk_scale, eq_scale) of schur_problems().  They
# weigh an off-diagonal a_ij as sqrt(2)*|a_ij|; weighing it |a_ij| is also a
# valid scaling but changes the iteration counts of the benchmark problems.
_A, _B, _C = 0.7937033242031529, 1.1209474357994231, 1.2582187368893625
EXPECTED_SCALING = [
    (
        [1.0] + [_A] * 9 + [_B] + [_A] * 3 + [_B],
        [0.8909002885862999] * 3,
        [1.0] + [_C] * 6,
    ),
    (
        [0.48075522949711974, 0.8908955772567231, 1.0491119932398236, 1.0],
        [0.6933651487471225, 0.9531828982732621, 1.1224600696749367],
        [1.0],
    ),
]


@pytest.mark.parametrize("idx", range(2))
def test_equilibration_factors(idx):
    ipm = sb.ReferenceIpm(schur_problems()[idx], 200)
    var_scale, blk_scale, eq_scale = EXPECTED_SCALING[idx]
    np.testing.assert_array_equal(ipm.var_scale, var_scale)
    np.testing.assert_array_equal(ipm.blk_scale, blk_scale)
    np.testing.assert_array_equal(ipm.eq_scale, eq_scale)
