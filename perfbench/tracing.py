"""Outside-in spans over polyvi's layers, and the per-layer metrics made from them.

The program has no spans of its own yet, so a traced run records them from
the benchmark's side: `install` replaces public entry points of polyvi's
modules, at the name their caller looks up, with wrappers that time each
call.  A span is (name, start, end, parent, instance); spans of one answer
share the instance id.  Self time is a span's duration minus its children's.

Layers are the modules: cli, lme, momentsdp, sdpbackend, vipsolver.
polycore is fine-grained arithmetic with no coarse public boundary; its cost
lands in the self time of momentsdp.build and lme.kkt.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

LAYERS = ("cli", "lme", "momentsdp", "sdpbackend", "vipsolver")

# Every per-layer metric of one traced run: name, unit and which way is
# better.  A traced benchmark run reports this list once per BLAS thread setting.
LAYER_METRICS = (
    ("cli.load_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("lme.kkt_s", "s", "lower"),
    ("lme.kkt_calls", "count", "lower"),
    ("momentsdp.build_s", "s", "lower"),
    ("momentsdp.relaxations", "count", "lower"),
    ("momentsdp.extract_s", "s", "lower"),
    ("momentsdp.self_s", "s", "lower"),
    ("momentsdp.extraction_failures", "count", "lower"),
    ("sdpbackend.solves", "count", "lower"),
    ("sdpbackend.solve_s", "s", "lower"),
    ("sdpbackend.setup_s", "s", "lower"),
    ("sdpbackend.run_s", "s", "lower"),
    ("sdpbackend.iterations", "count", "lower"),
    ("sdpbackend.iter_s", "s", "lower"),
    ("sdpbackend.m_max", "count", "lower"),
    ("sdpbackend.block_max", "count", "lower"),
    ("sdpbackend.eq_rows_max", "count", "lower"),
    ("sdpbackend.schur_mb_max", "MB", "lower"),
    ("sdpbackend.exit.optimal", "count", "higher"),
    ("sdpbackend.exit.relaxed", "count", "lower"),
    ("sdpbackend.exit.infeasible", "count", "higher"),
    ("sdpbackend.exit.dual_infeasible", "count", "lower"),
    ("sdpbackend.exit.numerical_failure", "count", "lower"),
    ("sdpbackend.relaxed_share", "ratio", "lower"),
    ("sdpbackend.relaxed_iter_share", "ratio", "lower"),
    ("sdpbackend.relaxed_certificates", "count", "lower"),
    ("vipsolver.search_s", "s", "lower"),
    ("vipsolver.search_calls", "count", "lower"),
    ("vipsolver.verify_s", "s", "lower"),
    ("vipsolver.verify_calls", "count", "lower"),
    ("vipsolver.verify_fallback_share", "ratio", "lower"),
    ("vipsolver.polish_s", "s", "lower"),
    ("vipsolver.delta_s", "s", "lower"),
    ("vipsolver.delta_relaxations", "count", "lower"),
    ("vipsolver.cuts", "count", "lower"),
    ("vipsolver.candidate_accept_share", "ratio", "higher"),
    ("vipsolver.self_s", "s", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_EXITS = {
    "optimal": "optimal",
    "primal_infeasible": "infeasible",
    "dual_infeasible": "dual_infeasible",
    "numerical_failure": "numerical_failure",
}


class Tracer:
    """Spans kept in memory, in start order, for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.instance = None
        self._stack: list[dict] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "instance": self.instance,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: dict):
        rec["end"] = time.perf_counter()
        if self._stack.pop() is not rec:
            raise RuntimeError(f"span {rec['name']} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, owner, attr: str, name: str, note=None):
        """Replace owner.attr by a wrapper recording a span `name` per call.

        `note(attrs, args, kwargs, result)` may add fields to the span after a
        call returns; a call that raises records the exception type instead.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                rec["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if note is not None:
                note(rec["attrs"], args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _note_sdp(attrs, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    relaxed = bool((result.residuals or {}).get("relaxed"))
    exit_path = _EXITS[result.status]
    if exit_path == "optimal" and relaxed:
        exit_path = "relaxed"
    attrs.update(
        m=problem.num_vars,
        blocks=[b.size for b in problem.blocks],
        eq_rows=len(problem.eq_rows),
        iterations=int(result.iterations),
        exit=exit_path,
        relaxed=relaxed,
    )


def _note_ipm_setup(attrs, args, kwargs, result):
    attrs["eq_rank"] = len(args[0].b)


def _note_verify(attrs, args, kwargs, result):
    attrs.update(status=result.status, via=result.via, cut_points=len(result.cut_points))


def install(tracer: Tracer):
    """Wrap polyvi's layer entry points at the names their callers look up."""
    from polyvi import cli, momentsdp, sdpbackend, vipsolver

    wrap = tracer.wrap
    wrap(cli, "load_problem", "cli.load")
    wrap(cli, "solve_all", "vipsolver.solve")
    wrap(cli, "solve_one", "vipsolver.solve")
    wrap(vipsolver, "find_candidate", "vipsolver.search")
    wrap(vipsolver, "verify_candidate", "vipsolver.verify", _note_verify)
    wrap(vipsolver, "polish_candidate", "vipsolver.polish")
    wrap(vipsolver, "find_delta", "vipsolver.delta")
    wrap(vipsolver, "build_kkt_sets", "lme.kkt")
    wrap(vipsolver, "minimize", "momentsdp.minimize")
    wrap(momentsdp, "build_relaxation", "momentsdp.build")
    wrap(momentsdp, "extract_minimizers", "momentsdp.extract")
    wrap(sdpbackend, "solve", "sdpbackend.solve", _note_sdp)
    wrap(sdpbackend.ReferenceIpm, "__init__", "sdpbackend.setup", _note_ipm_setup)
    wrap(sdpbackend.ReferenceIpm, "run", "sdpbackend.run")


# -- analysis -------------------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def _ancestor(spans: list[dict], span: dict, names) -> dict | None:
    p = span["parent"]
    while p is not None:
        if spans[p]["name"] in names:
            return spans[p]
        p = spans[p]["parent"]
    return None


def sdp_records(spans: list[dict]) -> list[dict]:
    """One record per SDP solve: size, iterations, exit path and time.

    `schur_mb_computed` is 8*m^2 bytes, the size of the dense Schur matrix,
    computed from m and not measured.
    """
    eq_rank = {
        s["parent"]: s["attrs"].get("eq_rank") for s in spans if s["name"] == "sdpbackend.setup"
    }
    out = []
    for s in spans:
        if s["name"] != "sdpbackend.solve" or "exit" not in s["attrs"]:
            continue
        caller = _ancestor(spans, s, ("vipsolver.search", "vipsolver.verify", "vipsolver.delta"))
        a = s["attrs"]
        out.append(
            {
                "instance": s["instance"],
                "caller": caller["name"].split(".", 1)[1] if caller else None,
                "m": a["m"],
                "blocks": a["blocks"],
                "eq_rows": a["eq_rows"],
                "eq_rank": eq_rank.get(s["id"]),
                "iterations": a["iterations"],
                "exit": a["exit"],
                "relaxed": a["relaxed"],
                "seconds": _duration(s),
                "schur_mb_computed": 8.0 * a["m"] ** 2 / 1e6,
            }
        )
    return out


def certificate(spans: list[dict], instance) -> dict | None:
    """The infeasible SDP solve an emptiness or completeness claim rests on.

    That is the last solve of the instance that ended infeasible inside a
    search; a claim of no (more) solutions comes from exactly that solve.
    """
    for s in reversed(spans):
        a = s["attrs"]
        if (
            s["instance"] == instance
            and s["name"] == "sdpbackend.solve"
            and a.get("exit") in ("infeasible", "dual_infeasible")
            and _ancestor(spans, s, ("vipsolver.search",)) is not None
        ):
            return {
                "exit": a["exit"],
                "relaxed": a["relaxed"],
                "m": a["m"],
                "iterations": a["iterations"],
            }
    return None


def accepting_routes(spans: list[dict], instance) -> list[str]:
    """Verification routes of the candidates accepted as solutions."""
    return [
        s["attrs"]["via"]
        for s in spans
        if s["instance"] == instance
        and s["name"] == "vipsolver.verify"
        and s["attrs"].get("status") == "solution"
    ]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """The LAYER_METRICS of one traced run, except the trace.* entries."""
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        total[s["name"]] += _duration(s)
        calls[s["name"]] += 1
        layer_self[s["name"].split(".", 1)[0]] += own

    sdps = sdp_records(spans)
    exits = defaultdict(int)
    for r in sdps:
        exits[r["exit"]] += 1
    iterations = sum(r["iterations"] for r in sdps)
    relaxed_certs = sum(1 for r in sdps if r["relaxed"] and r["exit"] != "relaxed")
    relaxed_or_failed_iters = sum(
        r["iterations"] for r in sdps if r["relaxed"] or r["exit"] == "numerical_failure"
    )
    verifies = [
        s["attrs"] for s in spans if s["name"] == "vipsolver.verify" and "via" in s["attrs"]
    ]
    return {
        "cli.load_s": total["cli.load"],
        "cli.self_s": layer_self["cli"],
        "lme.kkt_s": total["lme.kkt"],
        "lme.kkt_calls": calls["lme.kkt"],
        "momentsdp.build_s": total["momentsdp.build"],
        "momentsdp.relaxations": calls["momentsdp.build"],
        "momentsdp.extract_s": total["momentsdp.extract"],
        "momentsdp.self_s": layer_self["momentsdp"],
        "momentsdp.extraction_failures": sum(
            1
            for s in spans
            if s["name"] == "momentsdp.extract" and s["attrs"].get("error") == "ExtractionFailed"
        ),
        "sdpbackend.solves": len(sdps),
        "sdpbackend.solve_s": total["sdpbackend.solve"],
        "sdpbackend.setup_s": total["sdpbackend.setup"],
        "sdpbackend.run_s": total["sdpbackend.run"],
        "sdpbackend.iterations": iterations,
        "sdpbackend.iter_s": _share(total["sdpbackend.run"], iterations),
        "sdpbackend.m_max": max((r["m"] for r in sdps), default=0),
        "sdpbackend.block_max": max((max(r["blocks"]) for r in sdps), default=0),
        "sdpbackend.eq_rows_max": max((r["eq_rows"] for r in sdps), default=0),
        "sdpbackend.schur_mb_max": max((r["schur_mb_computed"] for r in sdps), default=0.0),
        **{f"sdpbackend.exit.{e}": exits[e] for e in _EXITS.values()},
        "sdpbackend.exit.relaxed": exits["relaxed"],
        "sdpbackend.relaxed_share": _share(exits["relaxed"] + relaxed_certs, len(sdps)),
        "sdpbackend.relaxed_iter_share": _share(relaxed_or_failed_iters, iterations),
        "sdpbackend.relaxed_certificates": relaxed_certs,
        "vipsolver.search_s": total["vipsolver.search"],
        "vipsolver.search_calls": calls["vipsolver.search"],
        "vipsolver.verify_s": total["vipsolver.verify"],
        "vipsolver.verify_calls": calls["vipsolver.verify"],
        "vipsolver.verify_fallback_share": _share(
            sum(1 for a in verifies if not a["via"].startswith("kkt")), len(verifies)
        ),
        "vipsolver.polish_s": total["vipsolver.polish"],
        "vipsolver.delta_s": total["vipsolver.delta"],
        "vipsolver.delta_relaxations": sum(1 for r in sdps if r["caller"] == "delta"),
        "vipsolver.cuts": sum(a["cut_points"] for a in verifies if a["status"] == "cut"),
        "vipsolver.candidate_accept_share": _share(
            sum(1 for a in verifies if a["status"] == "solution"), len(verifies)
        ),
        "vipsolver.self_s": layer_self["vipsolver"],
    }


def check_spans(spans: list[dict], walls: dict) -> list[str]:
    """Problems with a trace: open or badly nested spans, negative self time,
    or top-level spans of an instance that miss its wall time by over 5 %.

    `walls` maps each instance id to its wall time, measured around it.
    """
    problems = []
    for s in spans:
        if s["end"] is None:
            problems.append(f"span {s['id']} {s['name']} was never closed")
            continue
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
                problems.append(f"span {s['id']} {s['name']} is not inside its parent {p['name']}")
            if p["instance"] != s["instance"]:
                problems.append(f"span {s['id']} {s['name']} has another instance than its parent")
    if problems:
        return problems
    for s, own in zip(spans, self_times(spans)):
        if own < 0:
            problems.append(f"span {s['id']} {s['name']} has self time {own:.3g} s")
    for inst, wall in walls.items():
        top = sum(_duration(s) for s in spans if s["parent"] is None and s["instance"] == inst)
        if abs(top - wall) > 0.05 * wall:
            problems.append(
                f"instance {inst}: top-level spans cover {top:.4f} s of its {wall:.4f} s wall time"
            )
    return problems


def missing_layers(spans: list[dict]) -> list[str]:
    seen = {s["name"].split(".", 1)[0] for s in spans}
    return [layer for layer in LAYERS if layer not in seen]
