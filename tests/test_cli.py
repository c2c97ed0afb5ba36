import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from polyvi import cli
from polyvi.momentsdp import ExtractionFailed
from polyvi.polycore import Polynomial
from polyvi.vipsolver import SolveOutcome


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def projection_dict():
    # F(x) = x - (0.9, 1.2) over the unit disk; the solution is (0.6, 0.8)
    return {
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
    }


@pytest.fixture()
def tiny_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(projection_dict()))
    return str(path)


def invoke(*args, env=None):
    return CliRunner().invoke(cli.main, list(args), env=env, catch_exceptions=False)


def test_parse_round_trip():
    data = {**projection_dict(), "options": {"seed": 4}}
    problem, opts = cli.parse_problem(data)
    assert problem.n == 2
    assert opts.seed == 4
    for p, terms in zip(problem.F, data["F"]):
        assert p == Polynomial.from_json(2, terms)
    assert problem.cs.eq_idx == ()
    assert problem.cs.ineq_idx == (0,)


def test_parse_rejects_malformed():
    bad = projection_dict()
    del bad["lme"]
    with pytest.raises(cli.ProblemFileError):
        cli.parse_problem(bad)
    bad2 = projection_dict()
    bad2["F"] = bad2["F"][:1]
    with pytest.raises(cli.ProblemFileError):
        cli.parse_problem(bad2)
    bad3 = projection_dict()
    bad3["options"] = {"bogus_knob": 1}
    with pytest.raises(cli.ProblemFileError):
        cli.parse_problem(bad3)


# where the messages about the first term of F[0] begin
T0 = "F[0], term 0: "


@pytest.mark.parametrize(
    "poly,key,value,message",
    [
        (0, "exp", [1.5, 0], T0 + "exponents must be integers >= 0, got [1.5, 0]"),
        (0, "exp", [1.0, 0], T0 + "exponents must be integers >= 0, got [1.0, 0]"),
        (0, "exp", [True, 0], T0 + "exponents must be integers >= 0, got [True, 0]"),
        (1, "exp", [-1, 0], "F[1], term 0: exponents must be integers >= 0, got [-1, 0]"),
        (0, "exp", 3, T0 + "exponent must be a list of n=2 integers, got 3"),
        (0, "exp", [1], T0 + "exponent must be a list of n=2 integers, got [1]"),
        (0, "exp", [10**30, 0], "F[0]: bad object exponents of shape (2, 2) for n=2"),
        (0, "coef", "abc", T0 + "coefficient must be a finite number, got 'abc'"),
        (0, "coef", float("nan"), T0 + "coefficient must be a finite number, got nan"),
        (0, "coef", float("inf"), T0 + "coefficient must be a finite number, got inf"),
        (0, "coef", True, T0 + "coefficient must be a finite number, got True"),
        (0, "coef", 10**400, T0 + f"coefficient must be a finite number, got {10**400}"),
        (None, "F", 5, "F must be a list, got 5"),
        (None, "constraints", 5, "constraints must be a list, got 5"),
        (None, "n", True, "n must be a positive integer, got True"),
        (None, "n", 2.0, "n must be a positive integer, got 2.0"),
    ],
)
def test_malformed_problem_file_exits_1(tmp_path, poly, key, value, message):
    # poly: the F entry whose first term gets `key` set, or None for a top-level key
    data = projection_dict()
    if poly is None:
        data[key] = value
    else:
        data["F"][poly][0][key] = value
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    result = invoke("solve", str(path))
    assert result.exit_code == 1
    assert result.output == f"error: {path}: {message}\n"


def test_solve_command_finds_projection(tiny_file, tmp_path):
    out = tmp_path / "report.json"
    result = invoke("solve", tiny_file, "--json", "--out", str(out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "solution"
    point = np.array(report["solutions"][0]["point"])
    assert np.max(np.abs(point - np.array([0.6, 0.8]))) <= 1e-4
    assert abs(report["solutions"][0]["eps"]) <= 1e-6


def test_solve_all_flag(tiny_file):
    result = invoke("solve", tiny_file, "--all", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["status"] == "solutions"
    assert report["complete"] is True
    assert len(report["solutions"]) == 1


def test_solve_missing_file_exits_1(tmp_path):
    result = invoke("solve", str(tmp_path / "nope.json"))
    assert result.exit_code == 1


def test_solve_invalid_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    result = invoke("solve", str(path))
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "file_seed,flags,env_seed,expected",
    [
        (0, (), "5", 0),
        (3, (), "5", 3),
        (None, (), "5", 5),
        (3, ("--seed", "2"), "5", 2),
        (None, (), None, 0),
    ],
)
def test_solve_seed_precedence(monkeypatch, tmp_path, file_seed, flags, env_seed, expected):
    # --seed, then the file's options.seed, then POLYVI_SEED, then 0
    data = projection_dict()
    if file_seed is not None:
        data["options"] = {"seed": file_seed}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    monkeypatch.delenv("POLYVI_SEED", raising=False)
    seen = []

    def record(problem, opts):
        seen.append(opts.seed)
        return SolveOutcome("inconclusive")

    monkeypatch.setattr(cli, "solve_one", record)
    env = {"POLYVI_SEED": env_seed} if env_seed is not None else None
    assert invoke("solve", str(path), *flags, env=env).exit_code == 2
    assert seen == [expected]


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{file}"),
        ("verify", "{file}", "--point", "0.6,0.8"),
        ("bound", "{file}"),
        ("gen-random", "ball", "--dims", "2"),
        ("batch", "ball", "--dims", "2", "--count", "1"),
    ],
)
def test_non_integer_env_seed_exits_1(tiny_file, argv):
    result = invoke(*(a.format(file=tiny_file) for a in argv), env={"POLYVI_SEED": "x"})
    assert result.exit_code == 1
    assert "POLYVI_SEED must be an integer, got 'x'" in result.output


@pytest.mark.parametrize(
    "options,message",
    [
        (5, "options must be an object, got 5"),
        ({"seed": "abc"}, "options.seed must be an integer, got 'abc'"),
        ({"seed": 1.5}, "options.seed must be an integer, got 1.5"),
        ({"seed": True}, "options.seed must be an integer, got True"),
        ({"max_loops": "3"}, "options.max_loops must be an integer, got '3'"),
        ({"seed": -1}, "options.seed must be >= 0, got -1"),
        ({"max_loops": 0}, "options.max_loops must be >= 1, got 0"),
        ({"k_max_extra": -1}, "options.k_max_extra must be >= 0, got -1"),
        ({"count": 3}, "unknown options ['count']"),
        ({"degree": 2}, "unknown options ['degree']"),
    ],
)
def test_bad_file_option_exits_1(tmp_path, options, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**projection_dict(), "options": options}))
    result = invoke("solve", str(path))
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    assert message in result.output


@pytest.mark.parametrize(
    "argv,message",
    [
        (("solve", "{file}", "--seed", "-1"), "--seed must be >= 0, got -1"),
        (("solve", "{file}", "--max-loops", "0"), "--max-loops must be >= 1, got 0"),
        (("solve", "{file}", "--max-order-extra", "-1"), "--max-order-extra must be >= 0, got -1"),
        (("gen-random", "ball", "--dims", "2", "--seed", "-1"), "--seed must be >= 0, got -1"),
        (("batch", "ball", "--dims", "2", "--seed", "-1"), "--seed must be >= 0, got -1"),
        (("solve", "{file}", "--seed", "abc"), "--seed must be an integer, got 'abc'"),
        (("solve", "{file}", "--seed", "1.5"), "--seed must be an integer, got '1.5'"),
        (("solve", "{file}", "--max-loops", "1.5"), "--max-loops must be an integer, got '1.5'"),
        (("solve", "{file}", "--max-order-extra", "x"), "--max-order-extra must be an integer, got 'x'"),
        (("gen-random", "ball", "--dims", "2", "--seed", "x"), "--seed must be an integer, got 'x'"),
        (("gen-random", "ball", "--dims", "2", "--degree", "x"), "--degree must be an integer, got 'x'"),
        (("batch", "ball", "--dims", "2", "--count", "x"), "--count must be an integer, got 'x'"),
        (("batch", "ball", "--dims", "2", "--seed", "x"), "--seed must be an integer, got 'x'"),
        (("batch", "ball", "--dims", "2", "--degree", "2.0"), "--degree must be an integer, got '2.0'"),
        (("batch", "ball", "--dims", "2", "--count", "-1"), "--count must be >= 0, got -1"),
        (("batch", "ball", "--dims", "2", "--degree", "-1"), "--degree must be >= 0, got -1"),
        (("gen-random", "ball", "--dims", "2", "--degree", "-1"), "--degree must be >= 0, got -1"),
    ],
)
def test_bad_option_flag_exits_1(tiny_file, argv, message):
    result = invoke(*(a.format(file=tiny_file) for a in argv))
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    assert message in result.output


@pytest.mark.parametrize(
    "env_seed,message",
    [
        ("-2", "POLYVI_SEED must be >= 0, got -2"),
        ("1.5", "POLYVI_SEED must be an integer, got '1.5'"),
        ("true", "POLYVI_SEED must be an integer, got 'true'"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{file}"),
        ("gen-random", "ball", "--dims", "2"),
        ("batch", "ball", "--dims", "2", "--count", "1"),
    ],
)
def test_bad_env_seed_exits_1(tiny_file, argv, env_seed, message):
    result = invoke(*(a.format(file=tiny_file) for a in argv), env={"POLYVI_SEED": env_seed})
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    assert message in result.output


def test_verify_accepts_and_rejects(tiny_file):
    good = invoke("verify", tiny_file, "--point", "0.6,0.8")
    assert good.exit_code == 0
    assert "accepted" in good.output
    bad = invoke("verify", tiny_file, "--point", "0.0,0.0")
    assert bad.exit_code == 2
    assert "rejected" in bad.output


def test_verify_infeasible_point_rejected(tiny_file):
    result = invoke("verify", tiny_file, "--point", "3.0,4.0", "--json")
    assert result.exit_code == 2
    report = json.loads(result.output)
    assert report["membership_error"] > 1.0


def test_verify_bad_point_exits_1(tiny_file):
    assert invoke("verify", tiny_file, "--point", "1,2,3").exit_code == 1
    assert invoke("verify", tiny_file, "--point", "a,b").exit_code == 1


def test_bound_projection_total(tiny_file):
    result = invoke("bound", tiny_file, "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["total"] == 7
    by_active = {tuple(r["active"]): r["bound"] for r in report["subsets"]}
    assert by_active[()] == 1
    assert by_active[(0,)] == 6


def test_bound_fixture_oracle():
    # hand count for the 6-variable GNEP fixture: 729 for the empty active
    # set plus 1330 with the ball active, per player block
    result = invoke("bound", os.path.join(FIXTURES, "gnep_shared_ball.json"), "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["total"] == 2059


def test_gen_random_is_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = invoke("gen-random", "ball", "--dims", "2", "--seed", "5", "--out", str(f1))
    r2 = invoke("gen-random", "ball", "--dims", "2", "--seed", "5", "--out", str(f2))
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert f1.read_bytes() == f2.read_bytes()
    problem, _ = cli.load_problem(str(f1))
    assert problem.n == 2
    r3 = invoke("gen-random", "ball", "--dims", "2", "--seed", "6", "--out", str(f1))
    assert r3.exit_code == 0
    assert f1.read_bytes() != f2.read_bytes()


def test_gen_random_env_seed(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    invoke("gen-random", "ball", "--dims", "2", "--seed", "7", "--out", str(f1))
    invoke("gen-random", "ball", "--dims", "2", "--out", str(f2), env={"POLYVI_SEED": "7"})
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize(
    "family,dims,n",
    [("eig-linear", "3", 3), ("eig-soc", "3", 3), ("capital", "3,2", 5)],
)
def test_gen_random_families_parse(tmp_path, family, dims, n):
    path = tmp_path / "inst.json"
    result = invoke("gen-random", family, "--dims", dims, "--seed", "1", "--out", str(path))
    assert result.exit_code == 0
    problem, _ = cli.load_problem(str(path))
    assert problem.n == n
    assert problem.lam is not None


@pytest.mark.parametrize(
    "family,dims,digest",
    [
        ("ball", "4", "fa07098bf2f045e3b94855166d5ae28dc28d18e1f809d37a83e8c8bab7406245"),
        ("ball", "7", "b8105fe017b890385ce3318ff3065a314bad71907c20f5feea9787955ced4c97"),
        ("eig-linear", "3", "a420d70d8201110f78d4c5963c78176a8df00732f072f6af501bb0d8b353f674"),
        ("eig-soc", "3", "ef36efde8b040d905eef61a164d0714e060f364a06bc41e7bf4ad368a0643b12"),
        ("capital", "2,2", "acc502d3bc1cc18d613121af31a4880a4a91aabc97450e67fd717b3a6590cfc6"),
    ],
)
def test_gen_random_output_is_pinned(family, dims, digest):
    # the benchmark's ball instances and every family's coefficients, byte for
    # byte; the digests assume numpy's PCG64 stream and a BLAS that rounds the
    # small products B^T B and C^T C as OpenBLAS 0.3.31 does
    result = invoke("gen-random", family, "--dims", dims, "--seed", "1")
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_gen_random_bad_dims(tmp_path):
    assert invoke("gen-random", "capital", "--dims", "3").exit_code == 1
    assert invoke("gen-random", "ball", "--dims", "0").exit_code == 1
    assert invoke("gen-random", "eig-linear", "--dims", "1").exit_code == 1


def test_batch_reports_success_rate():
    result = invoke("batch", "ball", "--dims", "1", "--count", "2", "--degree", "1",
                    "--seed", "0", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["count"] == 2
    assert 0.0 <= report["success_rate"] <= 1.0
    assert report["success_rate"] == 1.0


@pytest.mark.parametrize(
    "failure", [np.linalg.LinAlgError("SVD did not converge"), ExtractionFailed("no atoms")]
)
def test_batch_counts_solver_failures_as_unsuccessful(monkeypatch, failure):
    def fail(problem, opts):
        raise failure

    monkeypatch.setattr(cli, "solve_one", fail)
    result = invoke("batch", "ball", "--dims", "1", "--count", "2", "--seed", "0", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["success_rate"] == 0.0
    assert all(r["status"].startswith("error:") for r in report["runs"])


def test_batch_propagates_programming_errors(monkeypatch):
    def broken(problem, opts):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(cli, "solve_one", broken)
    with pytest.raises(IndexError):
        invoke("batch", "ball", "--dims", "1", "--count", "2", "--seed", "0")


def test_batch_capital_family_all_solved():
    result = invoke("batch", "capital", "--dims", "4,2", "--count", "10",
                    "--seed", "0", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["count"] == 10
    assert report["success_rate"] == 1.0


def test_batch_zero_instances():
    result = invoke("batch", "ball", "--dims", "2", "--count", "0")
    assert result.exit_code == 0
    assert "no instances" in result.output
    as_json = invoke("batch", "ball", "--dims", "2", "--count", "0", "--json")
    report = json.loads(as_json.output)
    assert report["count"] == 0
    assert report["success_rate"] is None
    assert report["runs"] == []


@pytest.fixture()
def two_blas_threads(monkeypatch):
    """No thread variable set and every loaded OpenBLAS on 2 threads, so that
    a pin to 1 shows; the counts are restored afterwards."""
    for var in cli._THREAD_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    libs = cli._openblas_libraries()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for _, get, _ in libs]
    for _, _, put in libs:
        put(2)
    yield
    for (_, _, put), count in zip(libs, before):
        put(count)


def _spy_on_solve_one(monkeypatch):
    seen = []
    solve_one = cli.solve_one

    def spy(problem, opts):
        seen.append(cli.blas_threads())
        return solve_one(problem, opts)

    monkeypatch.setattr(cli, "solve_one", spy)
    return seen


def test_commands_run_on_one_blas_thread(monkeypatch, two_blas_threads, tiny_file):
    seen = _spy_on_solve_one(monkeypatch)
    before = cli.blas_threads()
    assert set(before.values()) == {2}
    assert invoke("solve", tiny_file).exit_code == 0
    assert seen == [{name: 1 for name in before}]
    assert cli.blas_threads() == before


@pytest.mark.parametrize("var", cli._THREAD_VARIABLES)
def test_thread_variable_leaves_counts_alone(monkeypatch, two_blas_threads, tiny_file, var):
    monkeypatch.setenv(var, "2")
    seen = _spy_on_solve_one(monkeypatch)
    before = cli.blas_threads()
    assert invoke("solve", tiny_file).exit_code == 0
    assert seen == [before]
    assert cli.blas_threads() == before


def test_counts_restored_when_command_raises(monkeypatch, two_blas_threads):
    def broken(problem, opts):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(cli, "solve_one", broken)
    before = cli.blas_threads()
    with pytest.raises(IndexError):
        invoke("batch", "ball", "--dims", "1", "--count", "1", "--seed", "0")
    assert cli.blas_threads() == before


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{file}", "--json"),
        ("verify", "{file}", "--point", "0.6,0.8", "--json"),
        ("bound", "{file}", "--json"),
        ("batch", "ball", "--dims", "2", "--count", "0", "--json"),
    ],
)
def test_json_report_records_blas_threads(two_blas_threads, tiny_file, argv):
    result = invoke(*(arg.format(file=tiny_file) for arg in argv))
    report = json.loads(result.output)
    assert report["blas_threads"] == {name: 1 for name in cli.blas_threads()}


def test_perfbench_selftest():
    # the traced benchmark wraps polyvi's entry points by name, so renaming
    # one of them fails here rather than in a traced run
    script = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "selftest.py")
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
