"""polyvi benchmark: certified answers on four workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json

Run it from the root of a polyvi checkout; it imports polyvi from ./src.
Every sample is a fresh child process (child.py) that enters through
polyvi.cli and inherits the machine's default BLAS threading.  Each answer
is checked without trusting the solver (workloads.py); any wrong, uncertified,
inconclusive or crashed answer makes the command exit 1.  Every workload is a
fixed set of problems (workloads.py says why); --seed is accepted and printed
but changes no input.

Untraced (--trace 0), a run first starts SETUP_SAMPLES children that stop at
the first solve call, then solve children until their solve time adds up to
--seconds (at least one).  It reports, as medians over its samples:

    solve_s        first solve call to last checked answer, per child
    setup_s        child start to first solve call (interpreter start, import,
                   generating and loading the problems)
    peak_rss_mb    peak resident memory of a solve child
    success_ratio  checked answers / answers attempted (1 - fail_ratio)

Traced (--trace 1), it runs one untraced and one traced child at the default
BLAS threads, then the same with OPENBLAS_NUM_THREADS=1, and reports the
per-layer metrics of tracing.LAYER_METRICS for each setting; the names of the
single-threaded ones start with "t1.".  trace.overhead_s is the traced solve_s
minus the untraced one.  Counts compare only at equal thread settings.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give every metric with its
unit and sample count, the run's environment and, when traced, the
certificate each answer rests on and one record per SDP solve.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 10
SETUP_SAMPLES = 3
# a run must end within 180 s; children get what is left of this budget
RUN_BUDGET_S = 170.0
THREAD_SETTINGS = (("", {}), ("t1.", {"OPENBLAS_NUM_THREADS": "1"}))

# name, unit, better, bound (the share of the parent's median by which the
# metric may worsen before a change counts as a regression)
END_TO_END = (
    ("solve_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_ratio", "ratio", "higher", 0.01),
)
UNITS = {n: u for n, u, _, _ in END_TO_END} | {
    prefix + n: u for prefix, _ in THREAD_SETTINGS for n, u, _ in tracing.LAYER_METRICS
}


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": prefix + n, "unit": u, "better": better}
            for prefix, _ in THREAD_SETTINGS
            for n, u, better in tracing.LAYER_METRICS
        ],
    }


class Runner:
    """Starts the children of one benchmark run and keeps what they return."""

    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.workdir = ROOT / ".bench_build" / "perfbench" / str(os.getpid())
        self.attempted = 0
        self.failed = 0
        self.started = 0

    def child(self, mode: str, env_extra: dict | None = None) -> dict | None:
        """One child run; None when it crashed, timed out or printed no result."""
        env = dict(os.environ, **(env_extra or {}))
        self.started += 1
        spawned = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--mode", mode,
            "--workdir", str(self.workdir / str(self.started)),
            "--spawned", repr(spawned),
        ]
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True, cwd=ROOT,
                timeout=max(1.0, self.deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            result, why = None, "timed out"
        else:
            result, why = None, f"exit code {proc.returncode}"
            if proc.returncode == 0 and proc.stdout.strip():
                try:
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                except json.JSONDecodeError:
                    why = "no JSON result line"
            if result is None:
                sys.stderr.write(proc.stderr[-4000:])
        if mode == "setup":
            if result is None or result["setup_s"] is None:
                raise RuntimeError(f"set-up child failed: {why}")
            return result
        count = workloads.instance_count(self.workload)
        self.attempted += count
        if result is None:
            print(f"child {mode} crashed ({why}); its {count} answers count as failed")
            self.failed += count
            return None
        self.failed += count - sum(a["ok"] for a in result["answers"])
        for a in result["answers"]:
            line = f"answer {mode} {a['label']}: status={a['status']}"
            if a["complete"] is not None:
                line += f" complete={a['complete']}"
            if "certificate" in a:
                line += f" certificate={json.dumps(a['certificate'])}"
                line += f" accepted_via={a['accepted_via']}"
            print(line + ("" if a["ok"] else f" FAILED: {a['reason']}"))
        return result


def timed_run(runner: Runner, seconds: int) -> dict:
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs = []
    while True:
        res = runner.child("solve")
        if res is None:
            break
        runs.append(res)
        setups.append(res["setup_s"])
        if sum(r["solve_s"] for r in runs) >= seconds:
            break
        # start another sample only when one more fits in the budget
        if time.monotonic() + 1.5 * runs[-1]["solve_s"] > runner.deadline:
            break
    if runs:
        print("env " + json.dumps(runs[-1]["env"]))
    samples = {
        "solve_s": [r["solve_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    metrics["success_ratio"] = (runner.attempted - runner.failed) / runner.attempted
    for name, values in samples.items():
        if values:
            print(f"metric {name} = {metrics[name]} {UNITS[name]} "
                  f"(median of {len(values)} samples)")
    answers = runner.attempted
    print(f"metric success_ratio = {metrics['success_ratio']} ratio (of {answers} answers)")
    print(f"metric fail_ratio = {runner.failed / answers} ratio (not in the JSON line)")
    return metrics


def traced_run(runner: Runner) -> dict:
    metrics = {}
    for prefix, env_extra in THREAD_SETTINGS:
        plain = runner.child("solve", env_extra)
        traced = runner.child("trace", env_extra)
        if plain is None or traced is None:
            continue
        print(f"env {prefix or 'default'} " + json.dumps(traced["env"]))
        for problem in traced["trace_problems"]:
            print(f"trace problem: {problem}")
        for rec in traced["sdp"]:
            print(f"sdp {prefix or 'default'} " + json.dumps(rec))
        layer = dict(traced["layers"])
        layer["trace.solve_s"] = traced["solve_s"]
        layer["trace.overhead_s"] = traced["solve_s"] - plain["solve_s"]
        print(f"untraced solve_s {prefix or 'default'} = {plain['solve_s']} s")
        for name, value in layer.items():
            note = " (computed 8*m^2 bytes, not measured)" if name.endswith("schur_mb_max") else ""
            print(f"metric {prefix}{name} = {value} {UNITS[prefix + name]}{note}")
            metrics[prefix + name] = value
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the checkout root from this file's definitions")
    args = ap.parse_args()

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "polyvi" / "__init__.py").is_file():
        print(f"no polyvi sources under {ROOT / 'src'}; run from a polyvi checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    runner = Runner(args.workload, start + RUN_BUDGET_S)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    try:
        metrics = traced_run(runner) if args.trace else timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    if runner.attempted == 0:
        print("no answer was attempted", file=sys.stderr)
        return 1
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
