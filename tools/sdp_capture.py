"""Record every SDP solve of the benchmark's command lines, or compare two records.

    python3 tools/sdp_capture.py OUT.json [--fixture NAME]... [--solve NAME]...
    python3 tools/sdp_capture.py --compare A.json B.json

A capture runs polyvi from the `src` tree next to this file, in this process,
through `cli.main`, so under the thread rule of `sdpbackend.solve`: one
OpenBLAS thread in each SDP, and the process's counts for the Cholesky of H
and W of one with m >= `sdpbackend._PARALLEL_M` (`polyvi.blas`).  The command
lines are those of the four benchmark workloads (`perfbench/workloads.py`); each
`--fixture NAME` adds `solve --all` on `fixtures/NAME.json`, and each
`--solve NAME` adds `solve` without `--all` on it, for a fixture whose
enumeration runs too long (`capital_stock --all` takes over 15 minutes).
For each SDP that `sdpbackend.solve` returns it writes the moment count m,
the sha1 of its data (c, the equality rows and right-hand sides, and each
block's size and triplets), the status, the exit, the iteration count, the
sha1 of the bytes of y, the objective, the best score, mu/mu0 at exit and
the residual of an infeasibility certificate (null when the SDP has none),
so that a changed certificate, which carries no y, shows too; for each
command line, its exit code (1 for bad input, such as a fixture that fails
to parse), its --json report without `file` and without any `time` entry
(null when the command wrote none), and apart from the report the thread
counts it recorded (`blas_threads`, the counts between SDP solves).

`--compare` prints every difference between two captures; under the
differences of each SDP, an indented line says whether its status, exit and
iteration count agree and gives the relative difference of its objectives,
so that last-bit drift reads apart from a changed answer.  Then it prints
per target the totals of each capture (SDPs, the count of SDPs of each
moment count m, IPM iterations and the count of each exit) and the thread
counts each capture ran at, and exits 1 when there is a difference, 0
otherwise.  The thread counts are printed, not compared: a count other than
1 changes the last bits of the SDPs it factors.  To compare two versions of
the code, copy this file into a checkout of each and capture both.

The m=1716 search SDP of large-sdp seed 1 does not always give the same
iterate in two processes of the same code: its objective came out as
20.94184220864513 in one capture and 20.941842208643994 in another, which
differed only in what ran before it in the process.  Capture each side twice
when that SDP differs; it agrees when some capture of one side equals some
capture of the other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import click  # noqa: E402
import numpy as np  # noqa: E402

import child  # noqa: E402
import workloads  # noqa: E402
from polyvi import cli, sdpbackend  # noqa: E402


# the report entries that record thread counts, kept apart from the report
THREAD_KEYS = ("blas_threads",)


def run_cli(argv: list[str]) -> int:
    """perfbench's run_cli, with bad input (a click error) giving its exit code."""
    try:
        return child.run_cli(cli, argv)
    except click.ClickException as exc:
        return exc.exit_code


def _untimed(value):
    """value without any dict entry named `time`, at any depth."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k != "time"}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _data_sha1(problem) -> str:
    """sha1 of an SdpProblem's c, eq_rows, eq_rhs and each block's size and triplets."""
    digest = hashlib.sha1()
    arrays = [(problem.c, float), (problem.eq_rows, float), (problem.eq_rhs, float)]
    for blk in problem.blocks:
        arrays += [(np.array([blk.size]), np.int64), (blk.var_idx, np.int64)]
        arrays += [(blk.rows, np.int64), (blk.cols, np.int64), (blk.vals, float)]
    for arr, dtype in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return digest.hexdigest()


def capture(targets: list[tuple[str, str]], workdir: Path) -> dict:
    """{target name: [one record per command line]} for (kind, name) targets."""
    sdps: list[dict] = []
    solve = sdpbackend.solve

    def recording_solve(problem, *args, **kwargs):
        res = solve(problem, *args, **kwargs)
        y = None if res.y is None else hashlib.sha1(np.ascontiguousarray(res.y).tobytes())
        sdps.append(
            {
                "m": problem.num_vars,
                "data_sha1": _data_sha1(problem),
                "status": res.status,
                "exit": res.exit,
                "iterations": res.iterations,
                "y_sha1": None if y is None else y.hexdigest(),
                "objective": res.objective,
                "best_score": res.best_score,
                "mu_ratio": res.mu_ratio,
                "certificate_residual": res.residuals.get("certificate_residual"),
            }
        )
        return res

    sdpbackend.solve = recording_solve
    out: dict = {}
    try:
        for kind, name in targets:
            if kind in ("fixture", "solve"):
                argv = ["solve", str(ROOT / "fixtures" / f"{name}.json")]
                lines = [(name, argv + ["--all"] if kind == "fixture" else argv)]
            else:
                insts = workloads.prepare(name, workdir, run_cli)
                lines = [(inst.label, inst.argv) for inst in insts]
            records = []
            report_path = workdir / "report.json"
            for label, argv in lines:
                report_path.unlink(missing_ok=True)
                sdps.clear()
                code = run_cli(argv + ["--json", "--out", str(report_path)])
                report, threads = None, {}
                if report_path.exists():
                    report = _untimed(json.loads(report_path.read_text()))
                    report.pop("file", None)
                    threads = {k: report.pop(k) for k in THREAD_KEYS if k in report}
                records.append(
                    {
                        "label": label,
                        "exit_code": code,
                        "report": report,
                        "threads": threads,
                        "sdps": sdps[:],
                    }
                )
            out[f"{kind} {name}"] = records
    finally:
        sdpbackend.solve = solve
    return out


def _sdp_summary(s: dict, t: dict) -> str:
    """Whether two records of one SDP agree in status, exit and iterations,
    and the relative difference of their objectives."""
    keys = ("status", "exit", "iterations")
    differ = [k for k in keys if s.get(k) != t.get(k)]
    line = f"{', '.join(differ)} differ" if differ else "status, exit and iterations agree"
    x, y = s.get("objective"), t.get("objective")
    if x is None or y is None:
        return f"{line}; objective {x} against {y}"
    scale = max(abs(x), abs(y))
    return f"{line}; relative objective difference {abs(x - y) / scale if scale else 0.0:.1e}"


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """The lines that report the differences between two captures, and the
    number of differences; each differing SDP adds an indented line that
    is not one (`_sdp_summary`)."""
    lines, count = [], 0

    def differ(line: str):
        nonlocal count
        lines.append(line)
        count += 1

    for target in sorted(set(a) | set(b)):
        if target not in a or target not in b:
            differ(f"{target}: only in {'the first' if target in a else 'the second'}")
            continue
        ra, rb = a[target], b[target]
        if [r["label"] for r in ra] != [r["label"] for r in rb]:
            differ(f"{target}: command lines differ")
            continue
        for x, y in zip(ra, rb):
            where = f"{target} / {x['label']}"
            if x["exit_code"] != y["exit_code"]:
                differ(f"{where}: exit code {x['exit_code']} != {y['exit_code']}")
            if None in (x["report"], y["report"]):
                if x["report"] != y["report"]:
                    differ(f"{where}: only one command line wrote a report")
            else:
                keys = sorted(
                    k for k in set(x["report"]) | set(y["report"])
                    if x["report"].get(k) != y["report"].get(k)
                )
                if keys:
                    differ(f"{where}: report differs in {', '.join(keys)}")
            if len(x["sdps"]) != len(y["sdps"]):
                differ(f"{where}: {len(x['sdps'])} SDPs against {len(y['sdps'])}")
            for i, (s, t) in enumerate(zip(x["sdps"], y["sdps"])):
                keys = [key for key in {**s, **t} if s.get(key) != t.get(key)]
                for key in keys:
                    differ(f"{where}, SDP {i} (m={s['m']}): {key} {s.get(key)} != {t.get(key)}")
                if keys:
                    lines.append(f"    {_sdp_summary(s, t)}")
    return lines, count


def totals(record: dict) -> list[str]:
    """One line per target: its SDPs, SDPs per m, IPM iterations and exit counts."""
    lines = []
    for target, records in sorted(record.items()):
        sdps = [s for r in records for s in r["sdps"]]
        sizes = Counter(s["m"] for s in sdps)
        per_m = ", ".join(f"m={m} x{k}" for m, k in sorted(sizes.items(), reverse=True))
        exits = Counter(s["exit"] for s in sdps)
        counts = ", ".join(f"{k} {v}" for k, v in sorted(exits.items()))
        its = sum(s["iterations"] for s in sdps)
        lines.append(f"{target}: {len(sdps)} SDPs ({per_m}), {its} iterations ({counts})")
    return lines


def thread_counts(record: dict) -> list[str]:
    """One line per distinct thread count entry over the command lines of a capture."""
    seen: dict[str, set] = {}
    for records in record.values():
        for r in records:
            for key, counts in r.get("threads", {}).items():
                seen.setdefault(key, set()).add(json.dumps(counts, sort_keys=True))
    if not seen:
        return ["no thread counts recorded"]
    return [f"{key} {' | '.join(sorted(values))}" for key, values in sorted(seen.items())]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", type=Path, help="where to write the capture")
    ap.add_argument("--fixture", action="append", default=[])
    ap.add_argument("--solve", action="append", default=[])
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args()

    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        lines, count = compare(a, b)
        for line in lines:
            print(line)
        for name, cap in zip(args.compare, (a, b)):
            print(f"totals of {name}:")
            for line in totals(cap) + thread_counts(cap):
                print(f"  {line}")
        sdps = sum(len(r["sdps"]) for records in a.values() for r in records)
        print(f"{count} differences over {sdps} SDPs of {len(a)} targets")
        return 1 if count else 0

    if args.out is None:
        ap.error("give OUT, or --compare A B")
    targets = [("workload", w) for w in sorted(workloads.WORKLOADS)]
    targets += [("fixture", f) for f in args.fixture]
    targets += [("solve", f) for f in args.solve]
    with tempfile.TemporaryDirectory() as tmp:
        result = capture(targets, Path(tmp))
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"{sum(len(r['sdps']) for rs in result.values() for r in rs)} SDPs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
