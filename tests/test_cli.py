import hashlib
import json
import os
import subprocess
import sys
import time

import click
import numpy as np
import pytest
from click.testing import CliRunner

from polyvi import blas, cli, vipsolver
from polyvi import sdpbackend as sb
from polyvi.lme import template
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
# a list of m=1 multipliers for the projection problem, a form lme refuses
LAM = [[{"coef": 1.0, "exp": [1, 0]}]]
# the end of the message about a kind that is not one of the six names
KINDS = "choose from orthant, ball, ring, quadric_with_linear, orthant_with_product, soc_quadric"
# the start of the message about an lme object whose keys name no one form
FORMS = "lme: keys must be {kind} or {L}, got "


@pytest.mark.parametrize(
    "poly,key,value,message",
    [
        (0, "exp", [1.5, 0], T0 + "exponents must be integers >= 0, got [1.5, 0]"),
        (0, "exp", [1.0, 0], T0 + "exponents must be integers >= 0, got [1.0, 0]"),
        (0, "exp", [True, 0], T0 + "exponents must be integers >= 0, got [True, 0]"),
        (1, "exp", [-1, 0], "F[1], term 0: exponents must be integers >= 0, got [-1, 0]"),
        (0, "exp", 3, T0 + "exponent must be a list of n=2 integers, got 3"),
        (0, "exp", [1], T0 + "exponent must be a list of n=2 integers, got [1]"),
        (0, "exp", [10**30, 0], T0 + f"total degree must be at most 10000, got {[10**30, 0]}"),
        (0, "coef", "abc", T0 + "coefficient must be a finite number, got 'abc'"),
        (0, "coef", float("nan"), T0 + "coefficient must be a finite number, got nan"),
        (0, "coef", float("inf"), T0 + "coefficient must be a finite number, got inf"),
        (0, "coef", True, T0 + "coefficient must be a finite number, got True"),
        (0, "coef", 10**400, T0 + f"coefficient must be a finite number, got {10**400}"),
        (None, "F", 5, "F must be a list, got 5"),
        (None, "constraints", 5, "constraints must be a list, got 5"),
        (None, "n", True, "n must be a positive integer, got True"),
        (None, "n", 2.0, "n must be a positive integer, got 2.0"),
        (None, "lme", {"kind": 3}, "lme: kind must be a string, got 3"),
        (None, "lme", 5, "lme: cannot interpret lme=5"),
        (None, "lme", {"L": 5}, "lme: L must be a list, got 5"),
        (None, "lme", {"L": []}, "lme: L must have m=1 rows, got 0"),
        (
            None,
            "lme",
            {"L": [[[{"coef": -0.5, "exp": [1, 0]}]]]},
            "lme: L[0] must have n+m=3 cells, got 1",
        ),
        (
            None,
            "lme",
            {"L": [[[], [{"coef": 1.0, "exp": [0.5, 0]}], []]]},
            "lme: L[0][1], term 0: exponents must be integers >= 0, got [0.5, 0]",
        ),
        (None, "lme", {"L": [5]}, "lme: L[0] must be a list, got 5"),
        (
            None,
            "lme",
            {"L": [[[{"coef": float("nan"), "exp": [1, 0]}], [], []]]},
            "lme: L[0][0], term 0: coefficient must be a finite number, got nan",
        ),
        (None, "lme", {"L": [[[], [], 5]]}, "lme: L[0][2]: expected a list of terms"),
        # the constant multiplier 1, which is no multiplier of the disk
        (
            None,
            "lme",
            {"L": [[[], [], [{"coef": 1.0, "exp": [0, 0]}]]]},
            "lme: supplied L matrix is not an exact left inverse",
        ),
        (
            None,
            "lme",
            {"kind": "orthant"},
            "lme: orthant template needs the 2 constraints +1*x1 >= 0, +1*x2 >= 0; "
            "got 1 with equalities []",
        ),
        (None, "lme", {"kind": "Orthant"}, f"lme: no multiplier template 'Orthant'; {KINDS}"),
        (None, "lme", {"kind": "soc"}, f"lme: no multiplier template 'soc'; {KINDS}"),
        (
            None,
            "lme",
            {"kind": "quadric-linear"},
            f"lme: no multiplier template 'quadric-linear'; {KINDS}",
        ),
        (None, "lme", {"kind": "ball", "L": "junk"}, FORMS + "['L', 'kind']"),
        (None, "lme", {"kind": "ball", "denoms": [None]}, FORMS + "['denoms', 'kind']"),
        (None, "lme", {"kind": "ball", "lamdbas": 1}, FORMS + "['kind', 'lamdbas']"),
        (None, "lme", {"L": [], "lambdas": LAM}, FORMS + "['L', 'lambdas']"),
        (None, "lme", {}, FORMS + "[]"),
        (None, "lme", {"lambdas": LAM}, FORMS + "['lambdas']"),
        (None, "lme", {"lambdas": LAM, "denoms": LAM}, FORMS + "['denoms', 'lambdas']"),
        (None, "lme", {"L": [], "denoms": LAM}, FORMS + "['L', 'denoms']"),
        (None, "option", {"seed": "x"}, "unknown keys ['option']"),
        (None, "constraint", 5, "unknown keys ['constraint']"),
        (None, "name", ["tiny"], "name must be a string, got ['tiny']"),
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


def test_huge_exponent_fails_fast(tmp_path):
    # 2**62 fits int64: without the degree limit the parse hangs building binomials
    data = projection_dict()
    data["F"][0][0]["exp"] = [2**62, 0]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    result = invoke("solve", str(path))
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1
    assert result.output == f"error: {path}: {T0}total degree must be at most 10000, got {[2**62, 0]}\n"


@pytest.mark.parametrize(
    "lme",
    [
        "ball",
        {"kind": "ball"},
        # the disk's row (-x1/2, -x2/2, 1)
        {"L": [[
            [{"coef": -0.5, "exp": [1, 0]}],
            [{"coef": -0.5, "exp": [0, 1]}],
            [{"coef": 1.0, "exp": [0, 0]}],
        ]]},
        # another exact left inverse, (-x1/2 + x2, -x2/2 - x1, 1), not the catalog's
        {"L": [[
            [{"coef": -0.5, "exp": [1, 0]}, {"coef": 1.0, "exp": [0, 1]}],
            [{"coef": -0.5, "exp": [0, 1]}, {"coef": -1.0, "exp": [1, 0]}],
            [{"coef": 1.0, "exp": [0, 0]}],
        ]]},
    ],
)
def test_well_formed_lme_parses(lme):
    problem, _ = cli.parse_problem({**projection_dict(), "lme": lme})
    assert len(problem.lam.lambdas) == 1


@pytest.mark.parametrize(
    "lme",
    [
        # the constant multiplier 1
        {"lambdas": [[{"coef": 1.0, "exp": [0, 0]}]]},
        # x1 / x1, whose denominator changes sign on the disk
        {"lambdas": [[{"coef": 1.0, "exp": [1, 0]}]], "denoms": [[{"coef": 1.0, "exp": [1, 0]}]]},
    ],
    ids=["constant", "sign-changing-denominator"],
)
def test_unchecked_multipliers_are_refused(tmp_path, lme):
    # neither is a multiplier of the disk; taken on trust, each makes the
    # search certify no_solution although (0.6, 0.8) solves
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**projection_dict(), "lme": lme}))
    result = invoke("solve", "--all", str(path))
    assert result.exit_code == 1
    assert result.output == f"error: {path}: {FORMS}{sorted(lme)}\n"


def test_solve_command_finds_projection(tiny_file, tmp_path):
    out = tmp_path / "report.json"
    result = invoke("solve", tiny_file, "--json", "--out", str(out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "solution"
    point = np.array(report["solutions"][0]["point"])
    assert np.max(np.abs(point - np.array([0.6, 0.8]))) <= 1e-4
    assert abs(report["solutions"][0]["eps"]) <= 1e-6


def test_times_ignore_a_step_of_the_wall_clock(monkeypatch, tiny_file):
    # the wall clock steps back one hour as the first relaxation starts
    offset = [0.0]
    monkeypatch.setattr(time, "time", lambda real=time.time: real() - offset[0])

    def step_then_minimize(*args, real=vipsolver.minimize, **kwargs):
        offset[0] = 3600.0
        return real(*args, **kwargs)

    monkeypatch.setattr(vipsolver, "minimize", step_then_minimize)
    report = json.loads(invoke("solve", tiny_file, "--json").output)
    assert report["status"] == "solution" and report["time"] >= 0
    times = [entry["time"] for entry in report["log"] if "time" in entry]
    assert times and min(times) >= 0


def test_solve_all_flag(tiny_file):
    result = invoke("solve", tiny_file, "--all", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["status"] == "solutions"
    assert report["complete"] is True
    assert len(report["solutions"]) == 1


def test_negative_constant_field_on_the_orthant_has_no_solution(tmp_path):
    # F = -1 on x >= 0: F(x)(y - x) >= 0 fails for y > x at every x, and the
    # multiplier F = -1 >= 0 is the impossible constant of the search
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "name": "orthant-minus-one",
        "n": 1,
        "F": [[{"coef": -1.0, "exp": [0]}]],
        "constraints": [{"poly": [{"coef": 1.0, "exp": [1]}], "kind": "ineq"}],
        "lme": {"kind": "orthant"},
    }))
    report = json.loads(invoke("solve", str(path), "--all", "--json").output)
    assert report["status"] == "no_solution"
    assert report["complete"] is True
    assert report["certificate_order"] == 1


@pytest.mark.parametrize(
    "name,status,certificate",
    [
        pytest.param("eig_linear_cone", "solution", None, id="eig_linear_cone-solution"),
        pytest.param("ring_empty", "no_solution", "strict", id="ring_empty-no_solution"),
        pytest.param(
            "ncp_product_infeasible", "no_solution", "relaxed",
            id="ncp_product_infeasible-no_solution",
        ),
    ],
)
def test_solve_reports_the_order_of_a_certificate_only(name, status, certificate):
    # a solution rests on its verification, not on a relaxation order; an
    # empty set rests on the infeasible relaxation of its order, whose
    # certificate holds at the IPM's tolerance or only at its relaxed one
    result = invoke("solve", os.path.join(FIXTURES, f"{name}.json"), "--json")
    report = json.loads(result.output)
    assert report["status"] == status
    assert report["certificate"] == certificate
    if status == "solution":
        assert report["certificate_order"] is None
    else:
        assert isinstance(report["certificate_order"], int)
    text = cli._render_solutions(report)
    assert (f"certificate {certificate}" in text) == (certificate is not None)


def test_solve_missing_file_exits_1(tmp_path):
    result = invoke("solve", str(tmp_path / "nope.json"))
    assert result.exit_code == 1


def test_solve_invalid_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    result = invoke("solve", str(path))
    assert result.exit_code == 1


# (the file's options.seed, the solve flags, the seed solve_one gets)
SEED_CASES = [
    (0, (), 0),
    (3, (), 3),
    (3, ("--seed", "2"), 2),
    (None, ("--seed", "2"), 2),
    (None, (), 0),
]


def _seed_solve_sees(monkeypatch, tmp_path, file_seed, flags, env=None):
    """The seed that `solve` hands to solve_one."""
    data = projection_dict()
    if file_seed is not None:
        data["options"] = {"seed": file_seed}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    seen = []

    def record(problem, opts):
        seen.append(opts.seed)
        return SolveOutcome("inconclusive")

    monkeypatch.setattr(cli, "solve_one", record)
    assert invoke("solve", str(path), *flags, env=env).exit_code == 2
    return seen


@pytest.mark.parametrize("file_seed,flags,expected", SEED_CASES)
def test_solve_seed_precedence(monkeypatch, tmp_path, file_seed, flags, expected):
    # --seed, then the file's options.seed, then 0
    assert _seed_solve_sees(monkeypatch, tmp_path, file_seed, flags) == [expected]


@pytest.mark.parametrize("value", ["7", "x"])
def test_polyvi_seed_variable_is_not_read(monkeypatch, tmp_path, tiny_file, value):
    # the seed has two sources, --seed and the file; the environment is not one
    env = {"POLYVI_SEED": value}
    for file_seed, flags, expected in SEED_CASES:
        assert _seed_solve_sees(monkeypatch, tmp_path, file_seed, flags, env) == [expected]
    assert invoke("bound", tiny_file, env=env).exit_code == 0
    plain = invoke("gen-random", "ball", "--dims", "2")
    with_env = invoke("gen-random", "ball", "--dims", "2", env=env)
    assert with_env.exit_code == 0 and with_env.output == plain.output


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
        # a flag is checked before the file is read
        (("solve", "{file}.missing", "--seed", "x"), "--seed must be an integer, got 'x'"),
        (("solve", "{file}.missing", "--max-loops", "0"), "--max-loops must be >= 1, got 0"),
    ],
)
def test_bad_option_flag_exits_1(tiny_file, argv, message):
    result = invoke(*(a.format(file=tiny_file) for a in argv))
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    assert message in result.output


def test_verify_accepts_and_rejects(tiny_file):
    for point in ("0.6,0.8", "0.6, 0.8"):
        good = invoke("verify", tiny_file, "--point", point)
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
    # an empty field is not a coordinate, even where dropping it would leave
    # a point of the right length
    for point in ("0.6,,0.8", "0.6,0.8,", ",0.6,0.8"):
        result = invoke("verify", tiny_file, "--point", point)
        assert result.exit_code == 1
        assert result.output == f"error: cannot parse point {point!r}\n"
    # float() reads these, and the comparison relaxation cannot take them
    for point in ("nan,0", "inf,0", "1e400,0"):
        result = invoke("verify", tiny_file, "--point", point)
        assert result.exit_code == 1
        assert result.output == f"error: point coordinates must be finite, got {point!r}\n"


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


def _terms(*exps, coef=1.0):
    return [{"coef": coef, "exp": list(e)} for e in exps]


# n=1 with x = 0 and x^2 = 1 as equalities: more equalities than variables;
# its L has the rows (1 - x^2, x, 2x) and (x/2, -1/2, -1)
TWO_EQUALITIES = {
    "n": 1,
    "F": [_terms((1,))],
    "constraints": [
        {"poly": _terms((1,)), "kind": "eq"},
        {"poly": _terms((2,)) + _terms((0,), coef=-1.0), "kind": "eq"},
    ],
    "lme": {"L": [
        [_terms((0,)) + _terms((2,), coef=-1.0), _terms((1,)), _terms((1,), coef=2.0)],
        [_terms((1,), coef=0.5), _terms((0,), coef=-0.5), _terms((0,), coef=-1.0)],
    ]},
}
# the projection problem with the constant 1 >= 0 as its one constraint,
# whose L is the row (0, 0, 1)
CONSTANT_CONSTRAINT = {
    **projection_dict(),
    "constraints": [{"poly": _terms((0, 0)), "kind": "ineq"}],
    "lme": {"L": [[[], [], _terms((0, 0))]]},
}


@pytest.mark.parametrize(
    "data,message",
    [
        (TWO_EQUALITIES, "2 equality constraints for n=1 variables"),
        (CONSTANT_CONSTRAINT, "constraint 0 has degree 0"),
    ],
    ids=["two-equalities", "degree-0"],
)
def test_bound_refuses_what_it_cannot_count(tmp_path, data, message):
    cli.parse_problem(data)  # a well-formed file, which solve takes
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    result = invoke("bound", str(path))
    assert result.exit_code == 1
    assert result.output == f"error: {path}: {message}\n"


def test_bound_ignores_an_inequality_no_active_set_holds(tmp_path):
    # n=1 with one equality: the constant inequality is never active; L has
    # the rows (1, 0, 0) and (0, 0, 1)
    data = {
        **TWO_EQUALITIES,
        "constraints": [TWO_EQUALITIES["constraints"][0], {"poly": _terms((0,)), "kind": "ineq"}],
        "lme": {"L": [[_terms((0,)), [], []], [[], [], _terms((0,))]]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    result = invoke("bound", str(path), "--json")
    assert result.exit_code == 0
    assert json.loads(result.output)["subsets"] == [{"active": [0], "bound": 1}]


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
        ("eig-soc", "3", "131df59005b416f9d2b4d0f694f2d6ff033791a72b15feee15701fa6091faa02"),
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


@pytest.mark.parametrize("family,dims", [("ball", (3,)), ("eig-linear", (3,)),
                                         ("eig-soc", (4,)), ("capital", (2, 3))])
def test_generated_constraints_are_the_catalog_template(family, dims):
    kind, _, _ = cli.FAMILIES[family]
    n, seed = sum(dims), 5
    b_mat = None
    if family.startswith("eig"):
        rng = np.random.default_rng(seed)
        rng.standard_normal((n, n))  # the field's A is drawn first
        b_hat = rng.standard_normal((n, n))
        b_mat = b_hat.T @ b_hat
    want = template(kind, n, b_mat)
    data = cli.generate(family, dims, 2, seed)
    assert data["lme"] == {"kind": kind}
    assert [c["poly"] for c in data["constraints"]] == [g.to_json() for g in want.g]
    assert [c["kind"] == "eq" for c in data["constraints"]] == [
        i in want.eq_idx for i in range(want.m)
    ]


def test_gen_random_bad_dims(tmp_path):
    assert invoke("gen-random", "capital", "--dims", "3").exit_code == 1
    assert invoke("gen-random", "ball", "--dims", "0").exit_code == 1
    assert invoke("gen-random", "eig-linear", "--dims", "1").exit_code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{dir}/nope.json"),
        ("verify", "{dir}/nope.json", "--point", "0,0"),
        ("gen-random", "ball", "--dims", "x"),
        ("batch", "ball", "--dims", "2", "--count", "x"),
    ],
)
def test_bad_input_raises_problem_file_error_in_process(tmp_path, argv):
    # without standalone mode, bad input leaves as a click exception that
    # exits 1, as click's own usage errors leave as theirs
    with pytest.raises(cli.ProblemFileError) as info:
        cli.main.main([a.format(dir=tmp_path) for a in argv], standalone_mode=False)
    assert isinstance(info.value, click.ClickException)
    assert info.value.exit_code == 1


@pytest.mark.parametrize("command", [("solve", "{file}"), ("gen-random", "ball", "--dims", "2")])
@pytest.mark.parametrize(
    "out", ["{dir}/missing/x.json", "{dir}", ""], ids=["missing-dir", "dir", "empty"]
)
def test_unwritable_out_exits_1_before_any_work(monkeypatch, tmp_path, tiny_file, command, out):
    def no_work(*args):
        raise AssertionError("work done before --out was checked")

    monkeypatch.setattr(cli, "solve_one", no_work)
    monkeypatch.setattr(cli, "generate", no_work)
    out = out.format(dir=tmp_path)
    result = invoke(*(a.format(file=tiny_file) for a in command), "--out", out)
    assert result.exit_code == 1
    assert result.output == f"error: {out}: cannot write a file there\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("solve",),
        ("solve", "{file}", "--bogus"),
        ("verify", "{file}"),
        ("gen-random", "ball"),
        ("batch", "ball"),
        ("gen-random", "torus", "--dims", "2"),
    ],
    ids=["missing-file", "unknown-option", "missing-point", "missing-dims", "batch-missing-dims",
         "unknown-family"],
)
def test_click_usage_error_exits_2(tiny_file, argv):
    result = invoke(*(a.format(file=tiny_file) for a in argv))
    assert result.exit_code == 2
    assert result.output.startswith("Usage: ")


def test_batch_reports_success_rate():
    result = invoke("batch", "ball", "--dims", "1", "--count", "2", "--degree", "1",
                    "--seed", "0", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["count"] == 2
    assert 0.0 <= report["success_rate"] <= 1.0
    assert report["success_rate"] == 1.0
    # a success is a solution or a certified empty set, and each is counted
    statuses = [r["status"] for r in report["runs"]]
    assert report["solutions"] == statuses.count("solution")
    assert report["no_solutions"] == statuses.count("no_solution")
    assert report["solutions"] + report["no_solutions"] == 2
    table = invoke("batch", "ball", "--dims", "1", "--count", "2", "--degree", "1",
                   "--seed", "0")
    head, row = table.output.splitlines()
    assert head.split()[4:6] == ["solutions", "no_solution"]
    assert row.split()[4:6] == [str(report["solutions"]), str(report["no_solutions"])]


def test_batch_counts_solver_failures_as_unsuccessful(monkeypatch):
    def fail(problem, opts):
        raise np.linalg.LinAlgError("SVD did not converge")

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
    for var in blas._THREAD_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    libs = blas._openblas_libraries()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for _, get, _ in libs]
    for _, _, put in libs:
        put(2)
    yield
    for (_, _, put), count in zip(libs, before):
        put(count)


def _spy_on_sdp_solves(monkeypatch, fail=False):
    """The thread counts each sb.solve of a command iterates at; with fail,
    the first solve raises there."""
    seen = []
    run = sb.ReferenceIpm.run

    def spy(self):
        seen.append(cli.blas_threads())
        if fail:
            raise IndexError("index 7 is out of bounds")
        return run(self)

    monkeypatch.setattr(sb.ReferenceIpm, "run", spy)
    return seen


def test_commands_run_on_one_blas_thread(monkeypatch, two_blas_threads, tiny_file):
    # every sb.solve pins, and the command leaves the counts as they were
    seen = _spy_on_sdp_solves(monkeypatch)
    before = cli.blas_threads()
    assert set(before.values()) == {2}
    assert invoke("solve", tiny_file).exit_code == 0
    assert seen and all(counts == {name: 1 for name in before} for counts in seen)
    assert cli.blas_threads() == before


@pytest.mark.parametrize("var", blas._THREAD_VARIABLES)
def test_thread_variable_leaves_counts_alone(monkeypatch, two_blas_threads, tiny_file, var):
    monkeypatch.setenv(var, "2")
    seen = _spy_on_sdp_solves(monkeypatch)
    before = cli.blas_threads()
    assert invoke("solve", tiny_file).exit_code == 0
    assert seen and all(counts == before for counts in seen)
    assert cli.blas_threads() == before


def test_counts_restored_when_command_raises(monkeypatch, two_blas_threads):
    seen = _spy_on_sdp_solves(monkeypatch, fail=True)
    before = cli.blas_threads()
    with pytest.raises(IndexError):
        invoke("batch", "ball", "--dims", "1", "--count", "1", "--seed", "0")
    assert seen == [{name: 1 for name in before}]
    assert cli.blas_threads() == before


_REPORTING_COMMANDS = [
    ("solve", "{file}", "--json"),
    ("verify", "{file}", "--point", "0.6,0.8", "--json"),
    ("bound", "{file}", "--json"),
    ("batch", "ball", "--dims", "2", "--count", "0", "--json"),
]


@pytest.mark.parametrize("argv", _REPORTING_COMMANDS)
def test_json_report_records_blas_threads(two_blas_threads, tiny_file, argv):
    # the counts between solves, which the large factorizations run at
    result = invoke(*(arg.format(file=tiny_file) for arg in argv))
    report = json.loads(result.output)
    assert report["blas_threads"] == {name: 2 for name in cli.blas_threads()}


def test_perfbench_selftest():
    # the traced benchmark wraps polyvi's entry points by name, so renaming
    # one of them fails here rather than in a traced run
    script = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "selftest.py")
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
