"""Problem files, random instance families, and the polyvi command line.

Problem file schema (JSON):

    {
      "name": "optional label",
      "n": 4,
      "F": [ [{"coef": 3.0, "exp": [2,0,0,0]}, ...], ... ],       # n entries
      "constraints": [ {"poly": [...], "kind": "eq"|"ineq"}, ... ],
      "lme": {"kind": "orthant"}                                   # or {"L": ...}
      "options": {"seed": 3, "max_loops": 10, "k_max_extra": 4}   # optional
    }

Any other top-level key is an error, and `name` is a string when given.  The
lme kind is one of the six catalog names of `lme`.  Each option is an
integer: seed >= 0, max_loops >= 1, k_max_extra >= 0, in the file and on
the command line alike.  A seed comes from --seed, else the file's
options.seed, else 0.

Exit codes: 0 solved / certified / accepted, 2 inconclusive or rejected, 1
bad input (one `error:` line): a value in a problem file, a flag, --point,
--dims, an unwritable --out, or a file `bound` cannot count.  Flags and --out
are checked as click parses them, before the problem file is read or any work
is done.  A usage error that click reports itself exits 2.
"""

import dataclasses
import json
import os
import sys
import time

import click
import numpy as np

from .blas import blas_threads
from .lme import (
    BALL,
    ORTHANT,
    QUADRIC_LINEAR,
    SOC_QUADRIC,
    ConstraintSystem,
    template,
)
from .momentsdp import TOL_FEAS
from .polycore import Polynomial, basis, is_int, violation
from .vipsolver import (
    EPS_TOL,
    NO_SOLUTION,
    SOLUTION,
    SOLUTIONS,
    SolverOptions,
    active_subset_bounds,
    build_problem,
    solve_all,
    solve_one,
    verify_candidate,
)


class ProblemFileError(click.ClickException):
    """Bad input (a file, flag or point): `error: <message>`, exit 1."""

    def show(self, file=None):
        click.echo(f"error: {self.message}", file=file, err=True)


# the least value of each field of SolverOptions, all of them integers
_OPTION_MIN = {"seed": 0, "max_loops": 1, "k_max_extra": 0}
# the keys of a problem file's top-level object
_TOP_KEYS = {"name", "n", "F", "constraints", "lme", "options"}


def _poly_from_json(n, data, where):
    try:
        return Polynomial.from_json(n, data, where)
    except ValueError as exc:
        raise ProblemFileError(str(exc))


def _check_int(label: str, value, least: int) -> int:
    """value when it is an integer (not a bool) of at least `least`."""
    if not is_int(value):
        raise ProblemFileError(f"{label} must be an integer, got {value!r}")
    if value < least:
        raise ProblemFileError(f"{label} must be >= {least}, got {value}")
    return value


class AtLeast(click.ParamType):
    """An integer flag of at least `least`, checked like a file's options."""

    name = "integer"

    def __init__(self, least: int):
        self.least = least

    def convert(self, value, param, ctx) -> int:
        label = param.opts[0]
        try:
            number = int(value)
        except ValueError:
            raise ProblemFileError(f"{label} must be an integer, got {value!r}")
        return _check_int(label, number, self.least)


def parse_problem(data: dict, source: str = "<data>"):
    """Build (VipProblem, SolverOptions) from a problem-file dict."""
    if not isinstance(data, dict):
        raise ProblemFileError(f"{source}: top level must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ProblemFileError(f"{source}: unknown keys {sorted(unknown)}")
    for key in ("n", "F", "constraints", "lme"):
        if key not in data:
            raise ProblemFileError(f"{source}: missing required key '{key}'")
    if not isinstance(data.get("name", ""), str):
        raise ProblemFileError(f"{source}: name must be a string, got {data['name']!r}")
    n = data["n"]
    if not is_int(n) or n < 1:
        raise ProblemFileError(f"{source}: n must be a positive integer, got {n!r}")
    for key in ("F", "constraints"):
        if not isinstance(data[key], list):
            raise ProblemFileError(f"{source}: {key} must be a list, got {data[key]!r}")
    if len(data["F"]) != n:
        raise ProblemFileError(f"{source}: F has {len(data['F'])} entries, expected n={n}")
    F = tuple(
        _poly_from_json(n, item, f"{source}: F[{i}]") for i, item in enumerate(data["F"])
    )
    g, eq_idx, ineq_idx = [], [], []
    for i, item in enumerate(data["constraints"]):
        where = f"{source}: constraints[{i}]"
        if not isinstance(item, dict) or "poly" not in item or "kind" not in item:
            raise ProblemFileError(f"{where}: need 'poly' and 'kind'")
        if item["kind"] not in ("eq", "ineq"):
            raise ProblemFileError(f"{where}: kind must be 'eq' or 'ineq', got {item['kind']!r}")
        g.append(_poly_from_json(n, item["poly"], where))
        (eq_idx if item["kind"] == "eq" else ineq_idx).append(i)
    cs = ConstraintSystem(tuple(g), tuple(eq_idx), tuple(ineq_idx), n)
    try:
        problem = build_problem(F, cs, data["lme"])
    except ValueError as exc:
        raise ProblemFileError(f"{source}: lme: {exc}")
    opts_data = data.get("options", {})
    if not isinstance(opts_data, dict):
        raise ProblemFileError(f"{source}: options must be an object, got {opts_data!r}")
    unknown = set(opts_data) - set(_OPTION_MIN)
    if unknown:
        raise ProblemFileError(f"{source}: unknown options {sorted(unknown)}")
    opts = {
        name: _check_int(f"{source}: options.{name}", value, _OPTION_MIN[name])
        for name, value in opts_data.items()
    }
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


# each family's catalog kind, number of dims and least dim
FAMILIES = {
    "ball": (BALL, 1, 1),
    "eig-linear": (QUADRIC_LINEAR, 1, 2),
    "eig-soc": (SOC_QUADRIC, 1, 2),
    "capital": (ORTHANT, 2, 1),
}


def _capital_field(n1: int, n2: int, rng) -> list[Polynomial]:
    """Stationary activity/stock field, to be taken over the nonnegative orthant.

    f(x) = [x]_1^T C^T C [x]_1 with C one row/column wider than n1 so the
    affine part of the loss is generated too.
    """
    rho = 0.8
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
    return [Polynomial.quadratic(n, c, row) for c, row in zip(const, lin)]


def generate(family: str, dims: tuple[int, ...], degree: int, seed: int) -> dict:
    """A random problem of `family`: a field drawn from `seed` over the
    constraints of the family's catalog kind.

    ball: F = A [x]_d with standard normal A over the unit ball.  eig-linear
    and eig-soc: F = A x over {x^T B x = 1} cut with the x_1-dominant linear
    cone or inside the second-order cone x_n >= |x_bar|.  capital: the
    activity/stock field over the orthant, dims N1,N2.
    """
    if family not in FAMILIES:
        raise ProblemFileError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    kind, count, least = FAMILIES[family]
    if len(dims) != count or min(dims) < least:
        shape = "N" if count == 1 else "N1,N2"
        raise ProblemFileError(f"{family} family needs dims {shape}, each >= {least}")
    n, b_mat = sum(dims), None
    rng = np.random.default_rng(seed)
    if kind == BALL:
        monos = basis(n, degree)
        field = [
            Polynomial.from_terms(n, monos, row)
            for row in rng.standard_normal((n, len(monos)))
        ]
    elif kind == ORTHANT:
        field = _capital_field(*dims, rng)
    else:
        a_mat = rng.standard_normal((n, n))
        b_hat = rng.standard_normal((n, n))
        field = [Polynomial.quadratic(n, lin=row) for row in a_mat]
        b_mat = b_hat.T @ b_hat
    cs = template(kind, n, b_mat)
    label = "x".join(str(d) for d in dims) + (f"-d{degree}" if kind == BALL else "")
    return {
        "name": f"{family}-n{label}-seed{seed}",
        "n": n,
        "F": [f.to_json() for f in field],
        "constraints": [
            {"poly": g.to_json(), "kind": "eq" if i in cs.eq_idx else "ineq"}
            for i, g in enumerate(cs.g)
        ],
        "lme": {"kind": kind},
    }


# -- reports -------------------------------------------------------------------


def _fmt_point(p) -> str:
    return "(" + ", ".join(f"{v: .6f}" for v in p) + ")"


def _certificate_kind(res) -> str | None:
    """How the infeasibility certificate of `res.order` holds: "strict" at the
    solver's tolerance, "relaxed" at its looser one; None without one."""
    if res.order is None:
        return None
    return "strict" if res.trusted else "relaxed"


def _render_solutions(report: dict) -> str:
    lines = [
        f"status      {report['status']}",
        f"complete    {'yes' if report['complete'] else 'no'}",
    ]
    if report["certificate_order"] is not None:
        lines.append(f"cert order  {report['certificate_order']}")
        lines.append(f"certificate {report['certificate']}")
    lines.append(f"time        {report['time']:.2f}s")
    sols = report["solutions"]
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


def _out_path(ctx, param, out: str | None) -> str | None:
    """--out, refused when no file can be written there."""
    if out is None:
        return None
    target = out if os.path.exists(out) else os.path.dirname(out) or "."
    if not out or os.path.isdir(out) or not os.access(target, os.W_OK):
        raise ProblemFileError(f"{out}: cannot write a file there")
    return out


def _parse_dims(dims: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in dims.split(","))
    except ValueError:
        raise ProblemFileError(f"cannot parse dims {dims!r}")


# -- commands ------------------------------------------------------------------


@click.group()
def main():
    """Polynomial variational inequality solver."""


@main.command("solve")
@click.argument("file", type=click.Path())
@click.option("--all", "mode_all", is_flag=True, help="Enumerate the full solution set.")
@click.option("--seed", type=AtLeast(0), help="Objective seed (else the file's, else 0).")
@click.option("--max-loops", type=AtLeast(1))
@click.option("--max-order-extra", type=AtLeast(0), help="Relaxation orders past d0.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None, callback=_out_path)
def cmd_solve(file, mode_all, seed, max_loops, max_order_extra, as_json, out):
    """Solve the problem in FILE; exit 0 solved/certified, 2 inconclusive."""
    problem, opts = load_problem(file)
    flags = {"seed": seed, "max_loops": max_loops, "k_max_extra": max_order_extra}
    opts = dataclasses.replace(opts, **{k: v for k, v in flags.items() if v is not None})
    t0 = time.perf_counter()
    res = (solve_all if mode_all else solve_one)(problem, opts)
    report = {
        "command": "solve",
        "file": file,
        "mode": "all" if mode_all else "one",
        "status": res.status,
        "complete": res.complete,
        "certificate_order": res.order,
        "certificate": _certificate_kind(res),
        "loops": res.loops,
        "solutions": [
            {"point": p, "eps": e, "objective": o}
            for p, e, o in zip(res.solutions, res.eps, res.objectives)
        ],
        "log": res.log,
        "blas_threads": blas_threads(),
        "time": time.perf_counter() - t0,
    }
    _emit(report, as_json, out)
    sys.exit(0 if res.status in (SOLUTION, SOLUTIONS, NO_SOLUTION) else 2)


@main.command("verify")
@click.argument("file", type=click.Path())
@click.option("--point", required=True, help="Comma-separated coordinates.")
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(file, point, as_json):
    """Check whether POINT solves the problem in FILE (gap tolerance 1e-6)."""
    problem, opts = load_problem(file)
    try:
        u = np.array([float(v) for v in point.replace(" ", "").split(",")])
    except ValueError:
        raise ProblemFileError(f"cannot parse point {point!r}")
    if len(u) != problem.n:
        raise ProblemFileError(f"point has {len(u)} coordinates, expected {problem.n}")
    if not np.isfinite(u).all():
        raise ProblemFileError(f"point coordinates must be finite, got {point!r}")
    t0 = time.perf_counter()
    cs = problem.cs
    feas = violation(u, [cs.g[i] for i in cs.eq_idx], [cs.g[i] for i in cs.ineq_idx])
    res = verify_candidate(problem, u, opts)
    accepted = res.status == SOLUTION and feas <= TOL_FEAS
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
        "time": time.perf_counter() - t0,
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
    problem, _ = load_problem(file)
    try:
        rows, total = active_subset_bounds(problem)
    except ValueError as exc:
        raise ProblemFileError(f"{file}: {exc}")
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
@click.argument("family", type=click.Choice(tuple(FAMILIES)))
@click.option("--dims", required=True, help="N, or N1,N2 for the capital family.")
@click.option("--degree", type=AtLeast(0), default=2, help="Field degree (ball family).")
@click.option("--seed", type=AtLeast(0), default=0)
@click.option("--out", type=click.Path(), default=None, callback=_out_path)
def cmd_gen_random(family, dims, degree, seed, out):
    """Generate a random problem file from a named family."""
    dim_tuple = _parse_dims(dims)
    data = generate(family, dim_tuple, degree, seed)
    parse_problem(data, source=f"generated {family}")  # self check
    _emit(data, True, out)


@main.command("batch")
@click.argument("family", type=click.Choice(tuple(FAMILIES)))
@click.option("--dims", required=True)
@click.option("--count", type=AtLeast(0), default=10)
@click.option("--degree", type=AtLeast(0), default=2)
@click.option("--seed", type=AtLeast(0), default=0)
@click.option("--json", "as_json", is_flag=True)
def cmd_batch(family, dims, count, degree, seed, as_json):
    """Solve COUNT random instances; report the success rate and mean time."""
    dim_tuple = _parse_dims(dims)
    runs = []
    for i in range(count):
        s = seed + i
        data = generate(family, dim_tuple, degree, s)
        problem, _ = parse_problem(data, source=f"instance {i}")
        t0 = time.perf_counter()
        try:
            res = solve_one(problem, SolverOptions(seed=s))
            status = res.status
            # a certified empty solution set counts as a success too
            success = status == NO_SOLUTION or (status == SOLUTION and abs(res.eps[0]) <= EPS_TOL)
        except np.linalg.LinAlgError as exc:
            # numerical failures count against SR; programming errors propagate
            status, success = f"error: {exc}", False
        elapsed = time.perf_counter() - t0
        runs.append({"seed": s, "status": status, "success": success, "time": elapsed})
    successes = sum(r["success"] for r in runs)
    report = {
        "command": "batch",
        "family": family,
        "dims": list(dim_tuple),
        "degree": degree if family == "ball" else None,
        "count": count,
        "success_rate": successes / count if count else None,
        "solutions": sum(r["status"] == SOLUTION for r in runs),
        "no_solutions": sum(r["status"] == NO_SOLUTION for r in runs),
        "mean_time": (sum(r["time"] for r in runs) / count) if count else None,
        "runs": runs,
        "blas_threads": blas_threads(),
    }

    def render(rep):
        if not rep["count"]:
            return "no instances"
        head = (
            f"{'family':<12} {'dims':<8} {'count':>5} {'SR':>7} "
            f"{'solutions':>9} {'no_solution':>11} {'mean time':>10}"
        )
        dims_s = "x".join(str(d) for d in rep["dims"])
        row = (
            f"{rep['family']:<12} {dims_s:<8} {rep['count']:>5} "
            f"{100 * rep['success_rate']:>6.0f}% {rep['solutions']:>9} "
            f"{rep['no_solutions']:>11} {rep['mean_time']:>9.2f}s"
        )
        return "\n".join([head, row])

    _emit(report, as_json, None, render)


if __name__ == "__main__":
    main()
