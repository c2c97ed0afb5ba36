"""Problem files, random instance families, and the polyvi command line.

Problem file schema (JSON):

    {
      "name": "optional label",
      "n": 4,
      "F": [ [{"coef": 3.0, "exp": [2,0,0,0]}, ...], ... ],       # n entries
      "constraints": [ {"poly": [...], "kind": "eq"|"ineq"}, ... ],
      "lme": {"kind": "orthant"}                                   # or {"L": ...}
                                                                   # or {"lambdas": ..., "denoms": ...}
      "options": {"seed": 3, "max_loops": 10, "k_max_extra": 4}   # optional
    }

Each option is an integer: seed >= 0, max_loops >= 1, k_max_extra >= 0, in
the file, on the command line and in POLYVI_SEED alike.  A seed comes from
--seed, else the file's options.seed, else POLYVI_SEED, else 0.

Exit codes: 0 solved / certified / accepted, 1 bad input, 2 inconclusive
or rejected.
"""

import contextlib
import ctypes
import dataclasses
import functools
import json
import os
import sys
import time

import click
import numpy as np

from .lme import ConstraintSystem, TemplateMismatch
from .momentsdp import TOL_FEAS, ExtractionFailed
from .polycore import Polynomial, basis, violation
from .vipsolver import (
    EPS_TOL,
    SolverOptions,
    active_subset_bounds,
    build_problem,
    solve_all,
    solve_one,
    verify_candidate,
)


class ProblemFileError(Exception):
    """A problem file that cannot be parsed or validated."""


# the least value of each field of SolverOptions, all of them integers
_OPTION_MIN = {"seed": 0, "max_loops": 1, "k_max_extra": 0}
# ... and of every integer flag
_FLAG_MIN = {**_OPTION_MIN, "count": 0, "degree": 0}


def _fail(msg: str):
    raise ProblemFileError(msg)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _poly_from_json(n, data, where):
    if not isinstance(data, list):
        _fail(f"{where}: expected a list of terms")
    for i, item in enumerate(data):
        if not isinstance(item, dict) or "coef" not in item or "exp" not in item:
            _fail(f"{where}, term {i}: need 'coef' and 'exp'")
        exp, coef = item["exp"], item["coef"]
        if not isinstance(exp, list) or len(exp) != n:
            _fail(f"{where}, term {i}: exponent must be a list of n={n} integers, got {exp!r}")
        if not all(_is_int(e) and e >= 0 for e in exp):
            _fail(f"{where}, term {i}: exponents must be integers >= 0, got {exp!r}")
        # NaN fails the comparison; an int past the float range fails it too
        if not (_is_int(coef) or isinstance(coef, float)) or not abs(coef) <= sys.float_info.max:
            _fail(f"{where}, term {i}: coefficient must be a finite number, got {coef!r}")
    try:
        return Polynomial.from_json(n, data)
    except ValueError as exc:  # an exponent past the int64 range
        _fail(f"{where}: {exc}")


def _check_option(label: str, name: str, value) -> int:
    """value when it is an integer (not a bool) of at least _FLAG_MIN[name]."""
    if not _is_int(value):
        _fail(f"{label} must be an integer, got {value!r}")
    if value < _FLAG_MIN[name]:
        _fail(f"{label} must be >= {_FLAG_MIN[name]}, got {value}")
    return value


def _int_flag(label: str, name: str, text: str) -> int:
    """The integer a flag or variable spells out, checked like every option."""
    try:
        value = int(text)
    except ValueError:
        _fail(f"{label} must be an integer, got {text!r}")
    return _check_option(label, name, value)


def _seed_option(text: str | None) -> int:
    """text (a --seed flag), else POLYVI_SEED, else 0; checked like every option."""
    label = "--seed"
    if text is None:
        text = os.environ.get("POLYVI_SEED")
        if not text:
            return 0
        label = "POLYVI_SEED"
    return _int_flag(label, "seed", text)


def parse_problem(data: dict, source: str = "<data>"):
    """Build (VipProblem, SolverOptions) from a problem-file dict."""
    if not isinstance(data, dict):
        _fail(f"{source}: top level must be an object")
    for key in ("n", "F", "constraints", "lme"):
        if key not in data:
            _fail(f"{source}: missing required key '{key}'")
    n = data["n"]
    if not _is_int(n) or n < 1:
        _fail(f"{source}: n must be a positive integer, got {n!r}")
    for key in ("F", "constraints"):
        if not isinstance(data[key], list):
            _fail(f"{source}: {key} must be a list, got {data[key]!r}")
    if len(data["F"]) != n:
        _fail(f"{source}: F has {len(data['F'])} entries, expected n={n}")
    F = tuple(
        _poly_from_json(n, item, f"{source}: F[{i}]") for i, item in enumerate(data["F"])
    )
    g, eq_idx, ineq_idx = [], [], []
    for i, item in enumerate(data["constraints"]):
        where = f"{source}: constraints[{i}]"
        if not isinstance(item, dict) or "poly" not in item or "kind" not in item:
            _fail(f"{where}: need 'poly' and 'kind'")
        if item["kind"] not in ("eq", "ineq"):
            _fail(f"{where}: kind must be 'eq' or 'ineq', got {item['kind']!r}")
        g.append(_poly_from_json(n, item["poly"], where))
        (eq_idx if item["kind"] == "eq" else ineq_idx).append(i)
    cs = ConstraintSystem(tuple(g), tuple(eq_idx), tuple(ineq_idx), n)
    try:
        problem = build_problem(F, cs, data["lme"], name=str(data.get("name", "")))
    except (TemplateMismatch, ValueError, TypeError) as exc:
        _fail(f"{source}: lme: {exc}")
    opts_data = data.get("options", {})
    if not isinstance(opts_data, dict):
        _fail(f"{source}: options must be an object, got {opts_data!r}")
    unknown = set(opts_data) - set(_OPTION_MIN)
    if unknown:
        _fail(f"{source}: unknown options {sorted(unknown)}")
    opts = {
        name: _check_option(f"{source}: options.{name}", name, value)
        for name, value in opts_data.items()
    }
    if "seed" not in opts:
        opts["seed"] = _seed_option(None)
    return problem, SolverOptions(**opts)


def load_problem(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    return parse_problem(data, source=path)


# -- random families ----------------------------------------------------------


def gen_ball(n: int, d: int, seed: int) -> dict:
    """F = A [x]_d with standard normal A; X the unit ball."""
    rng = np.random.default_rng(seed)
    monos = basis(n, d)
    F = [Polynomial.from_terms(n, monos, row) for row in rng.standard_normal((n, len(monos)))]
    ball = Polynomial.quadratic(n, 1.0, quad=-np.eye(n))
    return {
        "name": f"ball-n{n}-d{d}-seed{seed}",
        "n": n,
        "F": [f.to_json() for f in F],
        "constraints": [{"poly": ball.to_json(), "kind": "ineq"}],
        "lme": {"kind": "ball"},
    }


def _eig_data(n: int, seed: int):
    """The field F = A x as JSON and the quadric x^T B x - 1 as a constraint."""
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((n, n))
    b_hat = rng.standard_normal((n, n))
    field = [Polynomial.quadratic(n, lin=row).to_json() for row in a_mat]
    quadric = Polynomial.quadratic(n, -1.0, quad=b_hat.T @ b_hat)
    return field, {"poly": quadric.to_json(), "kind": "eq"}


def gen_eig_linear(n: int, seed: int) -> dict:
    """F = A x over {x^T B x = 1} cut with the x_1-dominant linear cone."""
    field, quadric = _eig_data(n, seed)
    lead = Polynomial.quadratic(n, lin=np.r_[1.0, -np.ones(n - 1)])
    cons = [quadric, {"poly": lead.to_json(), "kind": "ineq"}]
    for t in range(1, n):
        cons.append(
            {"poly": Polynomial.variable(n, t).to_json(), "kind": "ineq"}
        )
    return {
        "name": f"eig-linear-n{n}-seed{seed}",
        "n": n,
        "F": field,
        "constraints": cons,
        "lme": {"kind": "quadric_with_linear"},
    }


def gen_eig_soc(n: int, seed: int) -> dict:
    """F = A x over {x^T B x = 1} inside the second-order cone."""
    field, quadric = _eig_data(n, seed)
    cone = Polynomial.quadratic(n, quad=np.diag(np.r_[-np.ones(n - 1), 1.0]))
    return {
        "name": f"eig-soc-n{n}-seed{seed}",
        "n": n,
        "F": field,
        "constraints": [quadric, {"poly": cone.to_json(), "kind": "ineq"}],
        "lme": {"kind": "soc_quadric"},
    }


def gen_capital(n1: int, n2: int, seed: int, rho: float = 0.8) -> dict:
    """Stationary activity/stock field over the nonnegative orthant.

    f(x) = [x]_1^T C^T C [x]_1 with C one row/column wider than n1 so the
    affine part of the loss is generated too.
    """
    rng = np.random.default_rng(seed)
    n = n1 + n2
    a_mat = rng.standard_normal((n2, n1))
    c_mat = rng.standard_normal((n1 + 1, n1 + 1))
    b_vec = rng.standard_normal(n2)
    b_mat = rng.random((n2, n1))

    q = c_mat.T @ c_mat  # f(x) = [1,x] q [1,x]^T over the x block
    # F = const + lin x: the gradient of f plus (A^T - rho B^T) x2 for the
    # activities, b + (B - A) x1 for the stocks
    const = np.concatenate([2.0 * q[0, 1:], b_vec])
    lin = np.zeros((n, n))
    lin[:n1, :n1] = 2.0 * q[1:, 1:]
    lin[:n1, n1:] = a_mat.T - rho * b_mat.T
    lin[n1:, :n1] = b_mat - a_mat
    return {
        "name": f"capital-n{n1}x{n2}-seed{seed}",
        "n": n,
        "F": [Polynomial.quadratic(n, c, row).to_json() for c, row in zip(const, lin)],
        "constraints": [
            {"poly": Polynomial.variable(n, t).to_json(), "kind": "ineq"} for t in range(n)
        ],
        "lme": {"kind": "orthant"},
    }


FAMILIES = ("ball", "eig-linear", "eig-soc", "capital")


def generate(family: str, dims: tuple[int, ...], degree: int, seed: int) -> dict:
    if family == "ball":
        if len(dims) != 1 or dims[0] < 1:
            _fail("ball family needs dims N with N >= 1")
        return gen_ball(dims[0], degree, seed)
    if family == "eig-linear":
        if len(dims) != 1 or dims[0] < 2:
            _fail("eig-linear family needs dims N with N >= 2")
        return gen_eig_linear(dims[0], seed)
    if family == "eig-soc":
        if len(dims) != 1 or dims[0] < 2:
            _fail("eig-soc family needs dims N with N >= 2")
        return gen_eig_soc(dims[0], seed)
    if family == "capital":
        if len(dims) != 2 or min(dims) < 1:
            _fail("capital family needs dims N1,N2")
        return gen_capital(dims[0], dims[1], seed)
    _fail(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")


# -- reports -------------------------------------------------------------------


def _fmt_point(p) -> str:
    return "(" + ", ".join(f"{v: .6f}" for v in p) + ")"


def _render_solutions(report: dict) -> str:
    lines = [f"status      {report['status']}"]
    if "complete" in report:
        lines.append(f"complete    {'yes' if report['complete'] else 'no'}")
    if report.get("certificate_order") is not None:
        lines.append(f"cert order  {report['certificate_order']}")
    lines.append(f"time        {report['time']:.2f}s")
    sols = report.get("solutions", [])
    if sols:
        lines.append("")
        lines.append(f"{'#':>2}  {'eps':>10}  {'objective':>12}  point")
        for i, s in enumerate(sols, 1):
            lines.append(
                f"{i:>2}  {s['eps']:>10.2e}  {s['objective']:>12.6f}  {_fmt_point(s['point'])}"
            )
    return "\n".join(lines)


def _emit(report: dict, as_json: bool, out: str | None, render=_render_solutions):
    # numpy arrays and scalars that are not floats leave through tolist()
    text = json.dumps(report, indent=2, default=lambda o: o.tolist()) if as_json else render(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _exit_error(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(1)


def _load_or_exit(path: str):
    try:
        return load_problem(path)
    except ProblemFileError as exc:
        _exit_error(str(exc))


def _parse_dims(dims: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in dims.split(","))
    except ValueError:
        _exit_error(f"cannot parse dims {dims!r}")


# -- BLAS threads --------------------------------------------------------------

# Every command runs with each loaded OpenBLAS on one thread.  An IPM
# iteration makes many small LAPACK calls (per-block Cholesky, SVD and
# eigvalsh with s <= 120, an m x m Cholesky with m <= 495 on most problems),
# and handing those to a second thread costs more than it saves: on a 2-core
# Xeon, 1 thread ran the four benchmark workloads 1.3-2.9x faster end to end,
# the m=1716 relaxations included.  Any of these variables set by the user
# takes precedence over that choice.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# numpy's wheels bundle libscipy_openblas64_, scipy's libscipy_openblas
_THREAD_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@functools.cache
def _openblas_libraries() -> tuple:
    """(file name, get, set) of the thread count of each loaded OpenBLAS.

    Looked up once per process; the imports of this module have loaded
    numpy's and scipy's libraries by then.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh if "openblas" in line.lower()]
    except OSError:
        return ()
    libs = []
    for path in sorted({f[5].strip() for f in fields if len(f) == 6}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _THREAD_SYMBOLS:
            get = getattr(lib, pattern.format("get"), None)
            put = getattr(lib, pattern.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                libs.append((os.path.basename(path), get, put))
                break
    return tuple(libs)


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, keyed by library file name."""
    return {name: get() for name, get, _ in _openblas_libraries()}


@contextlib.contextmanager
def one_blas_thread():
    """Put every loaded OpenBLAS on one thread, and restore its count on exit.

    With OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS set to a
    non-empty value, the user's setting stands and nothing is changed.
    """
    user_set = any(os.environ.get(v) for v in _THREAD_VARIABLES)
    libs = () if user_set else _openblas_libraries()
    before = [get() for _, get, _ in libs]
    for _, _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, _, put), count in zip(libs, before):
            put(count)


# -- commands ------------------------------------------------------------------


@click.group()
def main():
    """Polynomial variational inequality solver."""
    click.get_current_context().with_resource(one_blas_thread())


@main.command("solve")
@click.argument("file", type=click.Path())
@click.option("--all", "mode_all", is_flag=True, help="Enumerate the full solution set.")
@click.option("--seed", default=None, help="Objective seed (POLYVI_SEED fallback).")
@click.option("--max-loops", default=None)
@click.option("--max-order-extra", default=None, help="Relaxation orders past d0.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_solve(file, mode_all, seed, max_loops, max_order_extra, as_json, out):
    """Solve the problem in FILE; exit 0 solved/certified, 2 inconclusive."""
    problem, opts = _load_or_exit(file)
    flags = (
        ("--seed", "seed", seed),
        ("--max-loops", "max_loops", max_loops),
        ("--max-order-extra", "k_max_extra", max_order_extra),
    )
    try:
        chosen = {
            name: _int_flag(label, name, text)
            for label, name, text in flags
            if text is not None
        }
    except ProblemFileError as exc:
        _exit_error(str(exc))
    opts = dataclasses.replace(opts, **chosen)
    t0 = time.time()
    report = {"command": "solve", "file": file, "mode": "all" if mode_all else "one"}
    if mode_all:
        res = solve_all(problem, opts)
        report.update(
            status=res.status,
            complete=res.complete,
            certificate_order=res.order,
            solutions=[
                {"point": p, "eps": e, "objective": o}
                for p, e, o in zip(res.solutions, res.eps, res.objectives)
            ],
            log=res.log,
        )
        ok = res.status in ("solutions", "no_solution")
    else:
        res = solve_one(problem, opts)
        report.update(
            status=res.status,
            certificate_order=res.order,
            loops=res.loops,
            solutions=[]
            if res.point is None
            else [{"point": res.point, "eps": res.eps, "objective": res.objective}],
            log=res.log,
        )
        ok = res.status in ("solution", "no_solution")
    report["blas_threads"] = blas_threads()
    report["time"] = time.time() - t0
    _emit(report, as_json, out)
    sys.exit(0 if ok else 2)


@main.command("verify")
@click.argument("file", type=click.Path())
@click.option("--point", required=True, help="Comma-separated coordinates.")
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(file, point, as_json):
    """Check whether POINT solves the problem in FILE (gap tolerance 1e-6)."""
    problem, opts = _load_or_exit(file)
    try:
        u = np.array([float(v) for v in point.replace(" ", "").split(",") if v != ""])
    except ValueError:
        _exit_error(f"cannot parse point {point!r}")
    if len(u) != problem.n:
        _exit_error(f"point has {len(u)} coordinates, expected {problem.n}")
    t0 = time.time()
    cs = problem.cs
    feas = violation(u, [cs.g[i] for i in cs.eq_idx], [cs.g[i] for i in cs.ineq_idx])
    res = verify_candidate(problem, u, opts)
    accepted = res.status == "solution" and feas <= TOL_FEAS
    report = {
        "command": "verify",
        "file": file,
        "point": u,
        "eps": res.eps,
        "kkt_residual": violation(u, problem.kkt.equations, problem.kkt.inequalities),
        "membership_error": feas,
        "accepted": accepted,
        "verdict": "accepted" if accepted else "rejected",
        "via": res.via,
        "blas_threads": blas_threads(),
        "time": time.time() - t0,
    }

    def render(rep):
        rows = [
            f"point            {_fmt_point(rep['point'])}",
            f"eps              {rep['eps'] if rep['eps'] is not None else 'n/a (inconclusive)'}",
            f"kkt residual     {rep['kkt_residual']:.3e}",
            f"membership error {rep['membership_error']:.3e}",
            f"verdict          {rep['verdict']}",
        ]
        return "\n".join(rows)

    _emit(report, as_json, None, render)
    sys.exit(0 if accepted else 2)


@main.command("bound")
@click.argument("file", type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def cmd_bound(file, as_json):
    """Print candidate-count bounds per active constraint subset."""
    problem, _ = _load_or_exit(file)
    rows, total = active_subset_bounds(problem)
    report = {
        "command": "bound",
        "file": file,
        "subsets": [{"active": list(r["active"]), "bound": r["bound"]} for r in rows],
        "total": total,
        "blas_threads": blas_threads(),
    }

    def render(rep):
        lines = [f"{'active set':<20} bound"]
        for r in rep["subsets"]:
            label = "{" + ",".join(str(i) for i in r["active"]) + "}"
            lines.append(f"{label:<20} {r['bound']}")
        lines.append(f"{'total':<20} {rep['total']}")
        return "\n".join(lines)

    _emit(report, as_json, None, render)


@main.command("gen-random")
@click.argument("family", type=click.Choice(FAMILIES))
@click.option("--dims", required=True, help="N, or N1,N2 for the capital family.")
@click.option("--degree", default="2", help="Field degree (ball family).")
@click.option("--seed", default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_gen_random(family, dims, degree, seed, out):
    """Generate a random problem file from a named family."""
    dim_tuple = _parse_dims(dims)
    try:
        degree = _int_flag("--degree", "degree", degree)
        data = generate(family, dim_tuple, degree, _seed_option(seed))
        parse_problem(data, source=f"generated {family}")  # self check
    except ProblemFileError as exc:
        _exit_error(str(exc))
    text = json.dumps(data, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@main.command("batch")
@click.argument("family", type=click.Choice(FAMILIES))
@click.option("--dims", required=True)
@click.option("--count", default="10")
@click.option("--degree", default="2")
@click.option("--seed", default=None)
@click.option("--json", "as_json", is_flag=True)
def cmd_batch(family, dims, count, degree, seed, as_json):
    """Solve COUNT random instances; report the success rate and mean time."""
    dim_tuple = _parse_dims(dims)
    try:
        count = _int_flag("--count", "count", count)
        degree = _int_flag("--degree", "degree", degree)
        seed0 = _seed_option(seed)
    except ProblemFileError as exc:
        _exit_error(str(exc))
    runs = []
    for i in range(count):
        s = seed0 + i
        try:
            data = generate(family, dim_tuple, degree, s)
            problem, _ = parse_problem(data, source=f"instance {i}")
        except ProblemFileError as exc:
            _exit_error(str(exc))
        t0 = time.time()
        try:
            res = solve_one(problem, SolverOptions(seed=s))
            solved = res.status == "solution" and abs(res.eps) <= EPS_TOL
            certified_empty = res.status == "no_solution"
            status = res.status
        except (np.linalg.LinAlgError, ExtractionFailed) as exc:
            # numerical failures count against SR; programming errors propagate
            solved, certified_empty, status = False, False, f"error: {exc}"
        runs.append(
            {
                "seed": s,
                "status": status,
                "success": bool(solved or certified_empty),
                "time": time.time() - t0,
            }
        )
    successes = sum(r["success"] for r in runs)
    report = {
        "command": "batch",
        "family": family,
        "dims": list(dim_tuple),
        "degree": degree if family == "ball" else None,
        "count": count,
        "success_rate": successes / count if count else None,
        "mean_time": (sum(r["time"] for r in runs) / count) if count else None,
        "runs": runs,
        "blas_threads": blas_threads(),
    }

    def render(rep):
        if not rep["count"]:
            return "no instances"
        head = f"{'family':<12} {'dims':<8} {'count':>5} {'SR':>7} {'mean time':>10}"
        dims_s = "x".join(str(d) for d in rep["dims"])
        row = (
            f"{rep['family']:<12} {dims_s:<8} {rep['count']:>5} "
            f"{100 * rep['success_rate']:>6.0f}% {rep['mean_time']:>9.2f}s"
        )
        return "\n".join([head, row])

    _emit(report, as_json, None, render)


if __name__ == "__main__":
    main()
