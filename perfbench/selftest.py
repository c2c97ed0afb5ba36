"""Fast self-test of the benchmark harness on the README's tiny-projection problem.

    python3 perfbench/selftest.py

Solves the problem once through polyvi.cli with spans recorded and checks the
answer and the trace: every layer has a span, spans nest, self times are
>= 0, and the top-level spans cover the instance's wall time to within 5 %.
It also checks that the trace checks catch a span outside its parent.
Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import time

import tracing
import workloads
from child import ROOT, SRC, run_cli

TINY_PROJECTION = {
    "name": "tiny-projection",
    "n": 2,
    "F": [
        [{"coef": 1.0, "exp": [1, 0]}, {"coef": -0.9, "exp": [0, 0]}],
        [{"coef": 1.0, "exp": [0, 1]}, {"coef": -1.2, "exp": [0, 0]}],
    ],
    "constraints": [
        {
            "poly": [
                {"coef": 1.0, "exp": [0, 0]},
                {"coef": -1.0, "exp": [2, 0]},
                {"coef": -1.0, "exp": [0, 2]},
            ],
            "kind": "ineq",
        }
    ],
    "lme": {"kind": "ball"},
    "options": {"seed": 0},
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from polyvi import cli

    workdir = ROOT / ".bench_build" / "perfbench-selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    problem, report_path = workdir / "tiny.json", workdir / "report.json"
    problem.write_text(json.dumps(TINY_PROJECTION))

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.instance = 0
        t0 = time.perf_counter()
        with tracer.span("cli.command"):
            code = run_cli(cli, ["solve", str(problem), "--json", "--out", str(report_path)])
        wall = time.perf_counter() - t0
        report = json.loads(report_path.read_text())
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    if code != 0 or report["status"] != "solution":
        failures.append(f"exit {code}, status {report['status']}")
    else:
        residual = workloads.projection_residual(TINY_PROJECTION, report["solutions"][0]["point"])
        if residual > workloads.PROJECTION_TOL:
            failures.append(f"projection residual {residual:.3g}")
    failures += [f"no span of layer {x}" for x in tracing.missing_layers(tracer.spans)]
    failures += tracing.check_spans(tracer.spans, {0: wall})
    if hasattr(cli.solve_one, "__wrapped__"):
        failures.append("tracer.restore left a wrapper in place")

    broken = copy.deepcopy(tracer.spans)
    inner = next(s for s in broken if s["parent"] is not None)
    inner["end"] = broken[inner["parent"]]["end"] + 1.0
    if not tracing.check_spans(broken, {}):
        failures.append("check_spans missed a span that ends after its parent")

    metrics = tracing.layer_metrics(tracer.spans)
    print(f"{len(tracer.spans)} spans, {metrics['sdpbackend.solves']} SDP solves, "
          f"wall {wall:.3f} s")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
