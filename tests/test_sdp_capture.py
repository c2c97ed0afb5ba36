"""`tools/sdp_capture.py --compare` on small synthetic captures.

The tool runs in a subprocess, as from the command line: importing it puts
the checkout's `src` and `perfbench` first on sys.path.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sdp_capture.py"


def _sdp(m, y):
    return {
        "m": m,
        "data_sha1": f"data{m}",
        "status": "optimal",
        "exit": "optimal",
        "iterations": 9,
        "y_sha1": y,
        "objective": 2.5,
        "best_score": 3.0e-9,
        "mu_ratio": 1.0e-10,
        "certificate_residual": None,
    }


CAPTURE = {
    "fixture toy": [
        {
            "label": "toy",
            "exit_code": 0,
            "report": {"status": "solutions", "solutions": [{"point": [1.0]}]},
            "sdps": [_sdp(15, "aaa"), _sdp(70, "bbb")],
        }
    ]
}


def _compare(tmp_path, other, base=CAPTURE):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(other))
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--compare", str(a), str(b)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def _changed(edit):
    other = copy.deepcopy(CAPTURE)
    edit(other["fixture toy"][0])
    return other


def test_identical_captures_compare_equal(tmp_path):
    code, out = _compare(tmp_path, CAPTURE)
    assert code == 0
    assert "0 differences over 2 SDPs of 1 targets" in out


def test_a_changed_iterate_names_its_sdp(tmp_path):
    code, out = _compare(tmp_path, _changed(lambda r: r["sdps"][1].update(y_sha1="ccc")))
    assert code == 1
    assert "fixture toy / toy, SDP 1 (m=70): y_sha1 bbb != ccc" in out


def test_a_changed_certificate_names_its_sdp(tmp_path):
    # a certificate carries no y: two of one status, exit and iteration count
    # differ only in their residual
    def certificate(residual):
        return _changed(lambda r: r["sdps"][0].update(
            status="primal_infeasible", exit="stall", y_sha1=None,
            certificate_residual=residual,
        ))

    code, out = _compare(tmp_path, certificate(1.7e-7), base=certificate(2.1e-7))
    assert code == 1
    assert "fixture toy / toy, SDP 0 (m=15): certificate_residual 2.1e-07 != 1.7e-07" in out
    assert "1 differences over 2 SDPs" in out


def test_each_differing_sdp_says_whether_its_answer_changed(tmp_path):
    # last-bit drift keeps status, exit and iterations; a changed solve does not
    def edit(record):
        record["sdps"][0].update(y_sha1="ddd", objective=2.5000000000000098)
        record["sdps"][1].update(iterations=11, exit="diverged", objective=2.0)

    code, out = _compare(tmp_path, _changed(edit))
    assert code == 1
    lines = out.splitlines()
    drift = lines.index("fixture toy / toy, SDP 0 (m=15): objective 2.5 != 2.5000000000000098")
    assert lines[drift + 1] == "    status, exit and iterations agree; relative objective difference 3.9e-15"
    changed = lines.index("fixture toy / toy, SDP 1 (m=70): objective 2.5 != 2.0")
    assert lines[changed + 1] == "    exit, iterations differ; relative objective difference 2.0e-01"
    # the summaries are not differences themselves
    assert "5 differences over 2 SDPs" in out


def test_a_capture_records_each_certificate_residual(tmp_path):
    # eig_linear_cone's enumeration ends in one strict certificate
    script = (
        "import json, sys; from pathlib import Path; "
        f"sys.path.insert(0, {str(TOOL.parent)!r}); import sdp_capture; "
        f"out = sdp_capture.capture([('fixture', 'eig_linear_cone')], Path({str(tmp_path)!r})); "
        "print(json.dumps(out))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    (record,) = json.loads(proc.stdout.splitlines()[-1])["fixture eig_linear_cone"]
    sdps = record["sdps"]
    assert [s["status"] for s in sdps].count("primal_infeasible") == 1
    for s in sdps:
        assert s["best_score"] > 0 and s["mu_ratio"] > 0
        if s["status"] == "primal_infeasible":
            assert 0 < s["certificate_residual"] <= 1e-8
        else:
            assert s["certificate_residual"] is None


def test_one_sdp_fewer_is_a_difference(tmp_path):
    code, out = _compare(tmp_path, _changed(lambda r: r["sdps"].pop()))
    assert code == 1
    assert "fixture toy / toy: 2 SDPs against 1" in out


def test_a_key_only_in_the_second_capture_is_a_difference(tmp_path):
    code, out = _compare(tmp_path, _changed(lambda r: r["sdps"][0].update(extra=1)))
    assert code == 1
    assert "SDP 0 (m=15): extra None != 1" in out


def test_thread_counts_are_printed_not_compared(tmp_path):
    code, out = _compare(
        tmp_path, _changed(lambda r: r.update(threads={"blas_threads": {"lib.so": 2}}))
    )
    assert code == 0
    assert "no thread counts recorded" in out
    assert 'blas_threads {"lib.so": 2}' in out
