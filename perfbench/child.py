"""One workload run in a fresh interpreter, entering polyvi through its CLI.

Started by run.py, once per sample, so every run begins with polyvi's
per-process caches cold, as each `polyvi` invocation does:

    python3 perfbench/child.py --workload W --mode setup|solve|trace
                               --workdir DIR --spawned T

`--spawned` is the parent's time.monotonic() just before it started this
process; set-up time runs from then to the first solve call.  Mode `setup`
stops at that call, `solve` answers every instance and checks it, `trace`
does the same with spans recorded (tracing.py).  The last line of standard
output is one JSON object with the timings, the answers and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupDone(Exception):
    """Raised at the first solve call of a set-up-only run."""


def run_cli(cli, argv: list[str]) -> int:
    """Run one polyvi command line in this process; return its exit code."""
    try:
        cli.main.main(args=argv, prog_name="polyvi", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


def mark_first_solve(cli, on_call):
    """Call on_call() before each solve the CLI starts."""
    for attr in ("solve_all", "solve_one"):
        original = getattr(cli, attr)

        def wrapper(*args, _original=original, **kwargs):
            on_call()
            return _original(*args, **kwargs)

        setattr(cli, attr, wrapper)


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports, by file name."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _blas(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """BLAS libraries, thread settings, library versions and CPU of this run."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "cpu": _cpu_model(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "solve", "trace"))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--spawned", required=True, type=float)
    args = ap.parse_args()

    if not (SRC / "polyvi" / "__init__.py").is_file():
        print(f"polyvi sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from polyvi import cli

    if Path(cli.__file__).resolve().parent != SRC / "polyvi":
        print(f"imported polyvi from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    first_solve = []

    def on_solve():
        if not first_solve:
            first_solve.append(time.monotonic())
            if args.mode == "setup":
                raise SetupDone

    mark_first_solve(cli, on_solve)
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    args.workdir.mkdir(parents=True, exist_ok=True)
    instances = workloads.prepare(args.workload, args.workdir, lambda argv: run_cli(cli, argv))
    answers, walls = [], {}
    t_loop = time.monotonic()
    for k, inst in enumerate(instances):
        out = args.workdir / f"report-{k}.json"
        report, reason = {}, None
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.instance = k
            with tracer.span("cli.command") if tracer else contextlib.nullcontext():
                code = run_cli(cli, inst.argv + ["--json", "--out", str(out)])
            report = json.loads(out.read_text())
            reason = inst.check(report, code)
        except SetupDone:
            break
        except Exception as exc:  # a crash is a failed answer, not the end of the run
            reason = "crash: " + "".join(traceback.format_exception_only(exc)).strip()
        walls[k] = time.perf_counter() - t0
        answer = {
            "label": inst.label,
            "ok": reason is None,
            "reason": reason,
            "status": report.get("status"),
            "complete": report.get("complete"),
        }
        if tracer is not None:
            answer["certificate"] = tracing.certificate(tracer.spans, k)
            answer["accepted_via"] = tracing.accepting_routes(tracer.spans, k)
        answers.append(answer)
    t_done = time.monotonic()

    result = {"setup_s": first_solve[0] - args.spawned if first_solve else None}
    if args.mode != "setup":
        result.update(
            # with no solve call at all, every answer failed before it
            solve_s=t_done - (first_solve[0] if first_solve else t_loop),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            answers=answers,
            env=environment(),
        )
    if tracer is not None:
        tracer.restore()
        result.update(
            layers=tracing.layer_metrics(tracer.spans),
            sdp=tracing.sdp_records(tracer.spans),
            trace_problems=tracing.check_spans(tracer.spans, walls)
            + [f"no span of layer {x}" for x in tracing.missing_layers(tracer.spans)],
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
