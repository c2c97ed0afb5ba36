"""The benchmark's workloads: the polyvi command lines they run, and the checks
each answer must pass without trusting the solver's own verdict.

A workload is a list of instances.  Each instance is one `polyvi solve`
command line and a check of the report it writes.  Generated instances are
written in set-up by `polyvi gen-random`.

Every workload is a fixed set of problems, and the workload seed does not
change it, so the spread of the figures across seeds is run-to-run noise
alone.  Drawing the ball instances from the seed made solve_s move with the
instances' iteration counts: over seeds 0, 20, ..., 180, batch-ball's solve_s
spread (quartile distance over median) was 0.21 for 20 instances, and two
large-sdp instances (10 to 18 iterations per m=1716 SDP) spread by 0.15,
against 0.04 to 0.06 for the fixed fixture workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# name -> why the workload is in the benchmark
WORKLOADS = {
    "enum-ring": (
        "solve --all on ring_four_solutions: 17 relaxations up to m=495, Schur "
        "assembly and the enumeration loop, about half its time in find_delta"
    ),
    "certify-empty": (
        "solve --all on ncp_product_infeasible and ring_empty: emptiness proofs "
        "that end in Farkas certificates or stalled exits, not optimal iterates"
    ),
    "batch-ball": (
        "solve on 20 generated ball instances, n=4, seeds 0..19: 40 small SDPs "
        "(m<=210) where per-call overhead dominates and Schur work is small"
    ),
    "large-sdp": (
        "solve on 2 generated ball instances, n=7, seeds 0 and 1: m=1716 SDPs with "
        "dense Cholesky and equality SVD, the memory peak and the BLAS crossover"
    ),
}

# dimension and number of the generated ball instances, with seeds 0, 1, ...
BALL_SETS = {"batch-ball": (4, 20), "large-sdp": (7, 2)}

# the four solutions of ring_four_solutions, as the acceptance tests give them
RING_SOLUTIONS = (
    (-0.2639, 1.3073, -0.4537, -0.1250),
    (0.4365, -1.0536, 0.7694, -0.3279),
    (-0.4108, -0.4710, 1.2655, 0.0899),
    (-0.8126, 0.7417, 0.7227, -0.5169),
)
EPS_TOL = 1e-6
POINT_TOL = 1e-3
PROJECTION_TOL = 1e-8


@dataclass
class Instance:
    label: str
    argv: list[str]
    # (report, exit code) -> None when the answer is right, else the reason
    check: Callable[[dict, int], str | None]


def instance_count(workload: str) -> int:
    if workload in BALL_SETS:
        return BALL_SETS[workload][1]
    return {"enum-ring": 1, "certify-empty": 2}[workload]


def prepare(workload: str, workdir: Path, run_cli) -> list[Instance]:
    """The workload's instances; generated problems are written to workdir.

    `run_cli(argv)` runs one polyvi command line and returns its exit code.
    """
    if workload == "enum-ring":
        return [_fixture("ring_four_solutions", _check_ring)]
    if workload == "certify-empty":
        return [
            _fixture("ncp_product_infeasible", _check_empty),
            _fixture("ring_empty", _check_empty),
        ]
    n, count = BALL_SETS[workload]
    out = []
    for s in range(count):
        path = workdir / f"ball-n{n}-seed{s}.json"
        argv = ["gen-random", "ball", "--dims", str(n), "--degree", "2", "--seed", str(s)]
        code = run_cli(argv + ["--out", str(path)])
        if code != 0:
            raise RuntimeError(f"polyvi {' '.join(argv)} exited {code}")
        data = json.loads(path.read_text())
        out.append(
            Instance(
                f"ball-n{n}-seed{s}",
                ["solve", str(path), "--seed", str(s)],
                lambda report, code, data=data: _check_ball(data, report, code),
            )
        )
    return out


def _fixture(name: str, check) -> Instance:
    return Instance(name, ["solve", str(FIXTURES / f"{name}.json"), "--all"], check)


def _check_ring(report: dict, code: int) -> str | None:
    if code != 0 or report["status"] != "solutions" or not report["complete"]:
        return f"exit {code}, status {report['status']}, complete {report.get('complete')}"
    sols = [np.asarray(s["point"], dtype=float) for s in report["solutions"]]
    if len(sols) != len(RING_SOLUTIONS):
        return f"{len(sols)} solutions, expected {len(RING_SOLUTIONS)}"
    for ref in RING_SOLUTIONS:
        hits = [i for i, s in enumerate(sols) if np.max(np.abs(s - ref)) <= POINT_TOL]
        if len(hits) != 1:
            return f"reference point {ref} matched by {len(hits)} solutions"
    worst = max(abs(s["eps"]) for s in report["solutions"])
    if worst > EPS_TOL:
        return f"|eps| = {worst:.3g} exceeds {EPS_TOL}"
    return None


def _check_empty(report: dict, code: int) -> str | None:
    if code != 0 or report["status"] != "no_solution" or not report["complete"]:
        return f"exit {code}, status {report['status']}, complete {report.get('complete')}"
    return None


def _field(data: dict, u: np.ndarray) -> np.ndarray:
    """F(u) straight from the problem file's terms."""
    return np.array(
        [
            sum(t["coef"] * float(np.prod(u ** np.asarray(t["exp"]))) for t in poly)
            for poly in data["F"]
        ]
    )


def projection_residual(data: dict, u) -> float:
    """||u - P(u - F(u))||_inf, P the projection onto the unit ball.

    It is zero exactly at the solutions of the VI over the ball.
    """
    u = np.asarray(u, dtype=float)
    z = u - _field(data, u)
    return float(np.max(np.abs(u - z / max(1.0, float(np.linalg.norm(z))))))


def _check_ball(data: dict, report: dict, code: int) -> str | None:
    # the ball is compact and convex, so a solution always exists
    if code != 0 or report["status"] != "solution" or len(report["solutions"]) != 1:
        return f"exit {code}, status {report['status']}"
    residual = projection_residual(data, report["solutions"][0]["point"])
    if not residual <= PROJECTION_TOL:
        return f"projection residual {residual:.3g} exceeds {PROJECTION_TOL}"
    return None
