import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matchiso.cli import main

C4_TEXT = "4 4\n1 2\n2 3\n3 4\n4 1\n"
TRIANGLE_TEXT = "3 3\n1 2\n2 3\n3 1\n"
K4_TEXT = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
# Two weightings of K4 whose tied minimum perfect matchings cancel in the
# Pfaffian: the first moves the lowest digit onto the weight-3 matching
# {3, 4}, the second zeroes the determinant.
K4_TIED_WEIGHTS = ("1,1,1,2,1,1", "1,1,1,1,2,1")
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    report = json.loads(out)
    assert list(report)[:3] == ["verb", "result", "ms"]
    return report


def test_decide_c4(capsys, c4_file):
    code, out, _ = run(
        capsys, "decide", "--graph", c4_file, "--prime", "1000003",
        "--trials", "5", "--seed", "7",
    )
    assert code == 0
    report = payload(out)
    assert report["verb"] == "decide"
    assert report["seed"] == 7
    assert report["result"]["hasPerfectMatching"] is True


def test_decide_triangle_false(capsys, triangle_file):
    code, out, _ = run(
        capsys, "decide", "--graph", triangle_file, "--prime", "1000003",
        "--trials", "5", "--seed", "1",
    )
    assert code == 0
    assert payload(out)["result"]["hasPerfectMatching"] is False


def test_search_no_pm_exits_4(capsys, triangle_file):
    code, _, err = run(
        capsys, "search", "--graph", triangle_file, "--random-weights", "--seed", "1"
    )
    assert code == 4
    assert "no perfect matching" in err


def test_search_explicit_weights(capsys, c4_file):
    code, out, _ = run(capsys, "search", "--graph", c4_file, "--weights", "1,1,1,2")
    assert code == 0
    result = payload(out)["result"]
    assert result["status"] == "matched"
    assert result["matching"] == [2, 3]
    assert result["matchingWeight"] == "2"
    assert result["targetOrd2"] == 4
    assert len(result["verdicts"]) == 4


def test_search_isolation_failure_reported(capsys, c4_file):
    code, out, _ = run(capsys, "search", "--graph", c4_file, "--weights", "1,1,1,1")
    assert code == 0
    assert payload(out)["result"]["status"] == "isolation-failure"


@pytest.mark.parametrize("weights", K4_TIED_WEIGHTS)
def test_search_k4_ties_report_isolation_failure(capsys, tmp_path, weights):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    code, out, _ = run(capsys, "search", "--graph", str(path), "--weights", weights)
    assert code == 0
    result = payload(out)["result"]
    assert result["status"] == "isolation-failure"
    assert result["matching"] is None and result["matchingWeight"] is None


@pytest.mark.parametrize("seed", [462678848, 655811609])
def test_search_n20_tied_minimum_reports_isolation_failure(capsys, seed):
    """Benchmark graphs on which the digits alone name a non-minimum matching."""
    path = DATA / f"search_seed{seed}.txt"
    code, out, _ = run(capsys, "search", "--graph", str(path), "--random-weights", "--seed", str(seed))
    assert code == 0
    result = payload(out)["result"]
    assert result["status"] == "isolation-failure"
    assert len(result["verdicts"]) == 64


def test_search_contract_holds_under_optimized_python(tmp_path):
    """python -O strips asserts; the verdicts must not depend on them."""
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for weights in K4_TIED_WEIGHTS:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "matchiso.cli", "search", "--graph", str(path),
             "--weights", weights],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["status"] == "isolation-failure"


def test_no_assert_statements_in_src():
    """python -O strips assert statements, and the CLI maps AssertionError
    to no exit code: src/ neither asserts nor raises AssertionError."""
    import ast

    def asserts(node) -> bool:
        if isinstance(node, ast.Assert):
            return True
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    package = Path(__file__).resolve().parent.parent / "src" / "matchiso"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if asserts(node)]
        assert not lines, f"{path.name}: assert or raise AssertionError at lines {lines}"


def test_one_process_matches_fresh_processes(capsys, monkeypatch, c4_file):
    """Calls of main in one process give the exit codes and reports (less
    ms) of fresh processes, from a single parser build."""
    import re

    from matchiso.cli import _build_parser

    def without_ms(out: str) -> str:
        return re.sub(r'"ms":\d+', '"ms":0', out)

    sequence = [
        ["search", "--graph", c4_file, "--bogus"],
        ["--help"],
        ["search", "--graph", c4_file, "--random-weights"],
        ["search", "--graph", c4_file, "--weights", "1,1,1,2"],
        ["isolate", "--graph", c4_file, "--derandomized"],
    ]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LINES", "24")
    _build_parser.cache_clear()
    in_process = []
    for argv in sequence:
        code = main(argv)
        in_process.append((code, without_ms(capsys.readouterr().out)))
    assert _build_parser.cache_info().misses == 1
    assert [code for code, _ in in_process] == [2, 0, 2, 0, 0]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, got in zip(sequence, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "matchiso.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert got == (proc.returncode, without_ms(proc.stdout)), argv


def test_isolate_derandomized_c4(capsys, c4_file):
    code, out, _ = run(capsys, "isolate", "--graph", c4_file, "--derandomized")
    assert code == 0
    result = payload(out)["result"]
    assert result["matching"] == [1, 4]
    assert result["weight"]["values"] == ["2", "4", "1", "2"]
    assert result["trials"] is None
    assert any(rec["changedFace"] for rec in result["audit"])


def test_isolate_randomized_roundtrip(capsys, c4_file):
    code, out, _ = run(
        capsys, "isolate", "--graph", c4_file, "--randomized", "--seed", "11"
    )
    assert code == 0
    result = payload(out)["result"]
    assert result["matching"] in ([1, 4], [2, 3])
    assert result["trials"] >= 1


def test_isolate_no_pm(capsys, triangle_file):
    code, _, err = run(capsys, "isolate", "--graph", triangle_file, "--derandomized")
    assert code == 4
    assert "no perfect matching" in err


def test_isolate_routes_refuse_no_pm_alike(capsys, tmp_path):
    star = tmp_path / "star.txt"
    star.write_text("4 3\n1 2\n1 3\n1 4\n")
    errs = set()
    for route in (["--derandomized"], ["--randomized", "--seed", "1"]):
        code, out, err = run(capsys, "isolate", "--graph", str(star), *route)
        assert code == 4 and out == ""
        errs.add(err)
    assert errs == {"error: graph with 4 vertices has no perfect matching\n"}


def test_weights_single_member(capsys):
    code, out, _ = run(capsys, "weights", "--n", "4", "--k", "3", "--edges", "5")
    assert code == 0
    result = payload(out)["result"]
    assert result["values"] == ["2", "1", "2", "1", "2"]


def test_weights_concat_decimal_strings(capsys):
    # Members 2 and 62 on one edge give values 1 and 3; the default padding
    # exponent 21 yields 4^21 * 1 + 3.
    code, out, _ = run(capsys, "weights", "--n", "4", "--edges", "1", "--concat", "2,62")
    assert code == 0
    result = payload(out)["result"]
    assert result["values"] == ["4398046511107"]


def test_weights_default_edge_count(capsys):
    code, out, _ = run(capsys, "weights", "--n", "4", "--k", "2")
    assert code == 0
    assert len(payload(out)["result"]["values"]) == 6  # C(4,2)


def test_face_verb(capsys, c4_file):
    code, out, _ = run(capsys, "face", "--graph", c4_file)
    assert code == 0
    result = payload(out)["result"]
    assert result["matchings"] == [[1, 4], [2, 3]]
    assert result["support"] == [1, 2, 3, 4]
    assert len(result["tightSets"]) == 8
    assert result["laminar"] == [[1], [2], [3], [4], [1, 2, 3]]


def test_face_with_weight_chain(capsys, c4_file):
    code, out, _ = run(capsys, "face", "--graph", c4_file, "--weights", "7")
    assert code == 0
    result = payload(out)["result"]
    assert result["matchings"] == [[1, 4]]


def test_goodness_verb(capsys, c4_file):
    code, out, _ = run(capsys, "goodness", "--graph", c4_file, "--lambda", "4")
    assert code == 0
    result = payload(out)["result"]
    assert result["good"] is False
    assert result["failed"] == "circuit"
    code, out, _ = run(capsys, "goodness", "--graph", c4_file, "--lambda", "1")
    assert code == 0
    assert payload(out)["result"]["good"] is True


def test_emit_report_shape_contract():
    from matchiso.cli import emit_report

    assert emit_report("face", {}, 3, None, False) == '{"verb":"face","result":{},"ms":3}'
    roundtrip = json.loads(emit_report("x", {"w": "4398046511107"}, 1, 2, True))
    assert roundtrip["result"]["w"] == "4398046511107"
    assert roundtrip["seed"] == 2


def test_output_byte_identical_modulo_ms(capsys, c4_file):
    argv = ["isolate", "--graph", c4_file, "--derandomized"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("ms"), r2.pop("ms")
    assert r1 == r2


def test_exit_codes_parse_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys, "decide", "--graph", "missing.txt", "--prime", "101")
    assert code == 2  # missing --seed
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 1\n")
    code, _, err = run(capsys, "decide", "--graph", str(bad), "--prime", "101", "--seed", "1")
    assert code == 2
    assert "self-loop" in err


def test_exit_code_missing_file(capsys):
    code, _, _ = run(capsys, "face", "--graph", "no-such-file.txt")
    assert code == 2


def test_exit_code_unreadable_file(capsys, tmp_path):
    latin = tmp_path / "latin1.txt"
    latin.write_bytes("# caf\xe9\n2 1\n1 2\n".encode("latin-1"))
    for path in (tmp_path, latin):  # a directory, and text that is not UTF-8
        code, out, err = run(capsys, "search", "--graph", str(path), "--weights", "1")
        assert code == 2 and out == ""
        assert "cannot read" in err


def test_exit_code_size_guard(capsys, tmp_path):
    big = tmp_path / "big.txt"
    lines = ["18 17"] + [f"{i} {i + 1}" for i in range(1, 18)]
    big.write_text("\n".join(lines) + "\n")
    code, _, _ = run(capsys, "face", "--graph", str(big))
    assert code == 3


def test_exit_code_domain_error(capsys, c4_file):
    code, _, _ = run(
        capsys, "decide", "--graph", c4_file, "--prime", "100", "--seed", "1"
    )
    assert code == 4  # 100 is not prime


@pytest.mark.parametrize("prime", [
    "318665857834031151167461",  # strong pseudoprime to the bases 2..37
    "3317044064679887385961981",  # the primality-test bound, itself composite
])
def test_decide_refuses_a_composite_or_unprovable_modulus(capsys, c4_file, prime):
    code, out, err = run(capsys, "decide", "--graph", c4_file, "--prime", prime, "--seed", "1")
    assert code == 4 and out == ""
    assert prime in err


@pytest.mark.parametrize("argv", [
    ["search", "--weights", "1,x,1,2"],
    ["face", "--weights", "7,2.5"],
    ["goodness", "--lambda", "1", "--weights", "x"],
])
def test_non_integer_weights_are_a_parse_error(capsys, c4_file, argv):
    code, out, err = run(capsys, argv[0], "--graph", c4_file, *argv[1:])
    assert code == 2 and out == ""
    assert "--weights" in err


def test_non_integer_concat_is_a_parse_error(capsys):
    code, out, err = run(capsys, "weights", "--n", "4", "--concat", "2,six")
    assert code == 2 and out == ""
    assert "--concat" in err


GOLDEN = [json.loads(line) for line in (DATA / "derand_golden.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_isolate_derandomized_reports_match_golden(capsys, tmp_path, case):
    """Reports recorded with the frozenset-based faces layer, for the cube,
    Petersen, K8, K10 and twenty seeded planted graphs at n = 8 and 10,
    must come out byte for byte the same, ms aside."""
    path = tmp_path / "graph.txt"
    path.write_text(case["graph"])
    code, out, _ = run(capsys, "isolate", "--graph", str(path), "--derandomized")
    assert code == 0
    report = payload(out)
    del report["ms"]
    assert json.dumps(report, separators=(",", ":")) == case["report"]


FACES_GOLDEN = [json.loads(line) for line in (DATA / "faces_golden.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("case", FACES_GOLDEN, ids=[case["name"] for case in FACES_GOLDEN])
def test_face_and_goodness_reports_match_golden(capsys, tmp_path, case):
    """Reports recorded with the frozenset-based faces layer: face and
    goodness (lambda 1, 2, 4, 6) on C4, the prism, the cube, Petersen, K6
    and a 6-vertex graph whose lambda-6 check fails on contractibility,
    with no --weights and with the chains 2, 3,5 and 7.  They cover every
    witness kind: none, a vertex set and a circuit vector."""
    path = tmp_path / "graph.txt"
    path.write_text(case["graph"])
    verb, *rest = case["args"]
    code, out, _ = run(capsys, verb, "--graph", str(path), *rest)
    assert code == 0
    report = payload(out)
    del report["ms"]
    assert json.dumps(report, separators=(",", ":")) == case["report"]


SEARCH_GOLDEN = [json.loads(line) for line in (DATA / "search_golden.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("case", SEARCH_GOLDEN, ids=[case["name"] for case in SEARCH_GOLDEN])
def test_search_and_randomized_reports_match_golden(capsys, tmp_path, case):
    """Reports recorded while matchings were frozensets of edge ids:
    search --random-weights and isolate --randomized on sixteen seeded
    planted graphs with n = 8, 12, 16 and 20 and on the two search_seed
    graphs, whose search reports an isolation failure."""
    path = tmp_path / "graph.txt"
    path.write_text(case["graph"])
    verb, *rest = case["args"]
    code, out, _ = run(capsys, verb, "--graph", str(path), *rest)
    assert code == 0
    report = payload(out)
    del report["ms"]
    assert json.dumps(report, separators=(",", ":")) == case["report"]


def test_pretty_flag(capsys, c4_file):
    code, out, _ = run(capsys, "--pretty", "face", "--graph", c4_file)
    assert code == 0
    assert out.startswith("{\n")
    json.loads(out)


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(C4_TEXT))
    code, out, _ = run(capsys, "face", "--graph", "-")
    assert code == 0
    assert payload(out)["result"]["support"] == [1, 2, 3, 4]


@pytest.fixture
def no_big_work(monkeypatch):
    """Make the work behind the guarded verbs fail loudly, so a guard that
    does not fire first shows up as an error rather than a long run.  The
    graph on stdin claims 10**8 vertices."""
    import io
    import random

    import matchiso.cli as cli

    def refuse(*args, **kwargs):
        raise RuntimeError("the size guard let the work start")

    for name in ("family_member", "decide_random", "determinant_search", "random_weights",
                 "isolate_randomized", "perfect_matching_face"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(random, "Random", refuse)
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{10**8} 1\n1 2\n"))


@pytest.mark.parametrize("argv", [
    ["weights", "--n", "4", "--k", "3", "--edges", "100001"],
    ["weights", "--n", "4", "--k", "3", "--edges", str(10**12)],
    ["weights", "--n", "448", "--k", "3"],  # C(448, 2) = 100,128 edges
    ["weights", "--n", str(10**9), "--k", "3"],
    ["weights", "--n", "4", "--edges", "50001", "--concat", "2,3"],
    ["weights", "--n", "2", "--edges", "1", "--concat", "2,3", "--padding-exponent", "2049"],
    ["weights", "--n", "2", "--edges", "1", "--concat", "2", "--padding-exponent", str(10**7)],
    ["weights", "--n", "4", "--edges", "1", "--concat", "2,3,5", "--padding-exponent", "683"],
    ["search", "--graph", "-", "--weights", "1"],
    ["decide", "--graph", "-", "--prime", "1000003", "--seed", "1"],
    ["decide", "--graph", "-", "--prime", "1000003", "--seed", "1", "--trials", str(10**9)],
    ["isolate", "--graph", "-", "--randomized", "--seed", "1"],
    ["search", "--graph", "-", "--random-weights", "--seed", "1"],
    ["face", "--graph", "-"],
])
def test_size_guards_fire_before_the_work(capsys, no_big_work, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "exceeds" in err


@pytest.mark.parametrize("argv", [
    ["weights", "--n", "4", "--k", "3", "--edges", "100000"],
    ["weights", "--n", "447", "--k", "3"],  # C(447, 2) = 99,681 edges
    ["weights", "--n", "2", "--edges", "1", "--concat", "2,3", "--padding-exponent", "2048"],
    ["weights", "--n", "4", "--edges", "1", "--concat", "2,3,5", "--padding-exponent", "682"],
])
def test_size_guards_admit_their_limits(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert all(v.isdigit() for v in payload(out)["result"]["values"])


@pytest.mark.parametrize("argv", [
    ["weights", "--n", "4", "--k", "3", "--edges", "-5"],
    ["weights", "--n", "4", "--edges", "-5", "--concat", "2,3"],
    ["weights", "--n", "4", "--edges", "1", "--concat", "2,3", "--padding-exponent", "-1"],
])
def test_negative_sizes_are_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert "nonnegative" in err


def test_graph_and_trials_guards_hold_at_their_limits(capsys, tmp_path, c4_file):
    from matchiso.cli import DECIDE_MAX_TRIALS, GRAPH_MAX_N

    decide = ["decide", "--prime", "1000003", "--seed", "1"]
    code, out, _ = run(capsys, *decide, "--graph", c4_file, "--trials", str(DECIDE_MAX_TRIALS))
    assert code == 0 and payload(out)["result"]["hasPerfectMatching"] is True
    code, out, err = run(capsys, *decide, "--graph", c4_file, "--trials", str(DECIDE_MAX_TRIALS + 1))
    assert code == 3 and out == "" and "--trials" in err
    for n, expected in ((GRAPH_MAX_N, 0), (GRAPH_MAX_N + 1, 3)):
        path = tmp_path / f"matching{n}.txt"
        edges = [f"{v} {v + 1}" for v in range(1, n, 2)]
        path.write_text("\n".join([f"{n} {len(edges)}", *edges]) + "\n")
        code, out, err = run(capsys, *decide, "--graph", str(path))
        assert code == expected
        if expected:
            assert out == "" and f"{GRAPH_MAX_N} vertices" in err


def _complete_graph_file(tmp_path, n):
    edges = [f"{u} {v}" for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    path = tmp_path / f"k{n}.txt"
    path.write_text("\n".join([f"{n} {len(edges)}", *edges]) + "\n")
    return str(path)


def test_goodness_refuses_a_census_past_its_limit(capsys, tmp_path, monkeypatch):
    """K12 at lambda 8 counts 61,111,105 walks, so the census never starts."""
    import matchiso.cli as cli

    def refuse(*args, **kwargs):
        raise RuntimeError("the census guard let the census start")

    monkeypatch.setattr(cli, "goodness_check", refuse)
    code, out, err = run(capsys, "goodness", "--graph", _complete_graph_file(tmp_path, 12), "--lambda", "8")
    assert code == 3 and out == ""
    assert "61111105 walks" in err and f"exceeds {cli.CENSUS_MAX_WALKS}" in err


def test_goodness_census_guard_admits_its_limit(capsys, tmp_path, monkeypatch):
    import matchiso.cli as cli

    counted = []
    census_walks = cli._census_walks

    def count(h, bound):
        counted.append(census_walks(h, bound))
        return counted[-1]

    monkeypatch.setattr(cli, "_census_walks", count)
    argv = ("goodness", "--graph", _complete_graph_file(tmp_path, 6), "--lambda", "6")
    assert run(capsys, *argv)[0] == 0 and counted[0] > 1
    for limit, expected in ((counted[0], 0), (counted[0] - 1, 3)):
        monkeypatch.setattr(cli, "CENSUS_MAX_WALKS", limit)
        assert run(capsys, *argv)[0] == expected


@pytest.mark.parametrize("verb", [["face"], ["goodness", "--lambda", "2"]])
def test_tight_walk_guard_admits_its_limit(capsys, tmp_path, monkeypatch, verb):
    """K6's walk reads 2^4 steps * 15 matchings * 2 field bytes = 480 bytes:
    at that limit face and goodness run, and one byte below it both are
    refused in under a second, before the walk starts."""
    import time

    import matchiso.cli as cli

    argv = (verb[0], "--graph", _complete_graph_file(tmp_path, 6), *verb[1:])
    monkeypatch.setattr(cli, "TIGHT_WALK_MAX_BYTES", 480)
    assert run(capsys, *argv)[0] == 0

    def refuse(*args, **kwargs):
        raise RuntimeError("the tight-walk guard let the walk start")

    monkeypatch.setattr(cli, "tight_odd_sets", refuse)
    monkeypatch.setattr(cli, "TIGHT_WALK_MAX_BYTES", 479)
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert code == 3 and out == ""
    assert "15 matchings on 6 vertices reads 480 bytes" in err and "exceeds 479" in err


@pytest.mark.parametrize("verb", [["face"], ["goodness", "--lambda", "2"]])
def test_weighing_guard_admits_its_limit(capsys, tmp_path, monkeypatch, verb):
    """Member 2 weighs every edge 1, so each index of --weights 2,2,2 weighs
    all 15 matchings of K6, 45 in all: at that limit face and goodness run,
    and one below it both are refused in under a second, before the third
    minimization."""
    import time

    import matchiso.cli as cli

    argv = (verb[0], "--graph", _complete_graph_file(tmp_path, 6), *verb[1:], "--weights", "2,2,2")
    monkeypatch.setattr(cli, "FACE_MAX_WEIGHINGS", 45)
    assert run(capsys, *argv)[0] == 0

    minimized = []
    min_weight_subface = cli.min_weight_subface

    def count(face, w):
        minimized.append(len(face))
        return min_weight_subface(face, w)

    monkeypatch.setattr(cli, "min_weight_subface", count)
    monkeypatch.setattr(cli, "FACE_MAX_WEIGHINGS", 44)
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert code == 3 and out == ""
    assert minimized == [15, 15]
    assert "weigh 45 matchings" in err and "exceeds 44" in err


def test_goodness_witness_is_the_least_circuit_in_dense_order(capsys, tmp_path, monkeypatch):
    """The census is a set, so its order is no contract: handed the circuits
    of K4 at lambda 4 (three parallel edges between the triple {1, 2, 3}
    and vertex 4) in descending order, goodness still reports the least in
    the order of their dense tuples."""
    import matchiso.faces as faces
    from matchiso import extend_to_maximal_laminar, parse_graph, perfect_matching_face, tight_odd_sets
    from matchiso.graphs import dense_sorted

    import reference_census

    census = faces.bounded_circuit_vectors

    def descending(h, bound):
        return dense_sorted(census(h, bound), h.m)[::-1]

    monkeypatch.setattr(faces, "bounded_circuit_vectors", descending)
    code, out, _ = run(capsys, "goodness", "--graph", _complete_graph_file(tmp_path, 4), "--lambda", "4")
    assert code == 0
    result = payload(out)["result"]
    face = perfect_matching_face(parse_graph(K4_TEXT))
    fam = extend_to_maximal_laminar(faces.singletons(4), tight_odd_sets(face))
    expected = reference_census.bounded_circuit_vectors(faces.contract_face(face, fam, 4), 4)
    assert len(expected) == 3
    assert result["failed"] == "circuit" and result["witness"] == list(expected[0])


def test_search_refuses_weights_past_the_bit_limit(capsys, c4_file):
    """One step above the limit: n * max(w) on C4 is the limit plus 4."""
    import time

    import matchiso.cli as cli

    w = cli.SEARCH_MAX_DET_BITS // 4 + 1
    started = time.perf_counter()
    code, out, err = run(capsys, "search", "--graph", c4_file, "--weights", f"{w},1,{w},1")
    assert time.perf_counter() - started < 1
    assert code == 3 and out == ""
    assert f"{4 * w} bits" in err and f"exceeds {cli.SEARCH_MAX_DET_BITS}" in err


def test_search_admits_weights_at_the_bit_limit(capsys, c4_file, monkeypatch):
    """At the limit the search runs; a stand-in search on small weights
    keeps the test from spending the 20 s the limit allows."""
    import matchiso.cli as cli
    from matchiso import WeightFunction, determinant_search

    assert cli.SEARCH_MAX_DET_BITS % 4 == 0
    w = cli.SEARCH_MAX_DET_BITS // 4
    searched = []

    def small_search(g, weights):
        searched.append(weights.values)
        return determinant_search(g, WeightFunction(g.n, (1, 1, 1, 2)))

    monkeypatch.setattr(cli, "determinant_search", small_search)
    code, out, _ = run(capsys, "search", "--graph", c4_file, "--weights", f"{w},1,{w},1")
    assert code == 0 and searched == [(w, 1, w, 1)]
    assert payload(out)["result"]["status"] == "matched"


def test_census_walks_counts_the_walks_of_a_single_edge():
    """One edge of weight-1 nodes: from the anchor, the search walks back
    and forth over it, one walk prefix for each length 0..8 at bound 10."""
    from matchiso.cli import _census_walks
    from matchiso.faces import ContractionMultigraph

    h = ContractionMultigraph(1, (1, 2), ((0, 1, 1),))
    assert [_census_walks(h, bound) for bound in (1, 2, 10)] == [0, 1, 9]


def test_readme_names_the_cli_verbs():
    """The README's usage block names exactly the CLI's verbs, and every
    verb in its size-guard table exists."""
    import re

    from matchiso.cli import _DISPATCH

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    usage = {line.split()[1] for line in block.splitlines() if line.startswith("matchiso ")}
    assert usage == set(_DISPATCH)
    guards = readme.split("| verb | refused when |", 1)[1].split("\n\n", 1)[0]
    rows = guards.strip().splitlines()[1:]
    assert rows
    for row in rows:
        verbs = re.findall(r"`([a-z]+)", row.split("|")[1])
        assert verbs and set(verbs) <= set(_DISPATCH), row


def test_library_has_one_set_type():
    """Vertex sets and matchings are int masks throughout the library: no
    module of src/matchiso names frozenset."""
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "matchiso"
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "frozenset"]
        assert not lines, f"{path.name} names frozenset on lines {lines}"


def test_laminar_families_need_no_pairwise_scan():
    """A laminar family is a forest placed by one routine: no module of
    src/matchiso names the pairwise scans laminar_check or _crosses_any."""
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "matchiso"
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                names.append((node.lineno, node.attr))
            elif isinstance(node, (ast.FunctionDef, ast.alias)):
                names.append((node.lineno, node.name))
        names = [(line, name) for line, name in names if name in ("laminar_check", "_crosses_any")]
        assert not names, f"{path.name} names {names}"


def test_face_operations_take_no_separate_graph():
    """A face carries its graph: no function of faces or engine takes a
    graph g beside a face or a state."""
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "matchiso"
    for name in ("faces.py", "engine.py"):
        tree = ast.parse((src / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                assert not ("g" in params and params & {"face", "state"}), (
                    f"{name}:{node.lineno} {node.name} takes g beside a face or a state"
                )


def test_faces_checks_its_input_once():
    """Input is checked when it enters and tightness read from one memo: in
    faces.py only Face.__post_init__ calls is_perfect_matching, only
    singletons calls LaminarFamily(, nothing calls Face(, and only
    Face._tight_masks builds the packed layout of the matchings."""
    import ast

    path = Path(__file__).resolve().parent.parent / "src" / "matchiso" / "faces.py"
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.append((scope, name, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    allowed = {
        "is_perfect_matching": {"Face.__post_init__"},
        "LaminarFamily": {"singletons"},
        "Face": set(),
        "to_bytes": {"Face._tight_masks"},
        "from_bytes": {"Face._tight_masks"},
    }
    wrong = [call for call in calls if call[1] in allowed and call[0] not in allowed[call[1]]]
    assert not wrong, f"faces.py calls {wrong}"
    assert {name for _, name, _ in calls} >= set(allowed) - {"Face"}


def test_edge_vectors_stay_sparse():
    """A signed edge vector is an EdgeVector from where it is born: in
    faces, engine and weights no edge_mask call rebuilds a mask from a
    vector (the one call collects the contraction's edge ids), and no
    m-length sequence is built, as [0] * m or a comprehension over
    range(m), but the census's scratch list and two dense weight
    functions."""
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "matchiso"
    allowed = {
        "edge_mask": {"faces.py:ContractionMultigraph.edge_mask"},
        "dense": {"faces.py:bounded_circuit_vectors", "weights.py:random_weights", "engine.py:compose_log"},
    }

    def over_m(node):  # range(m), range(g.m), ...
        return (
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range"
            and any(getattr(a, "id", getattr(a, "attr", None)) == "m" for a in node.args)
        )

    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "edge_mask":
                found.append(("edge_mask", f"{module}:{scope}", child.lineno))
            elif isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult) and (
                isinstance(child.left, (ast.List, ast.Tuple)) or isinstance(child.right, (ast.List, ast.Tuple))
            ):
                found.append(("dense", f"{module}:{scope}", child.lineno))
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)) and any(
                over_m(gen.iter) for gen in child.generators
            ):
                found.append(("dense", f"{module}:{scope}", child.lineno))
            visit(child, module, inner)

    for name in ("faces.py", "engine.py", "weights.py"):
        visit(ast.parse((src / name).read_text(), filename=name), name, "")
    wrong = [(kind, scope, line) for kind, scope, line in found if scope not in allowed[kind]]
    assert not wrong, f"vectors built outside their one form: {wrong}"
    assert {scope for _, scope, _ in found} == set().union(*allowed.values())


def test_library_holds_no_test_only_options_or_names():
    """The library keeps one exact determinant and one size guard: no def in
    src/matchiso takes a mode or a max_vertices parameter.  The family scan
    sets its own bound and contractibility has one form: no separating_weights
    takes t_max, and no is_contractible takes lo (forcing_groups keeps its
    layer form).  The lemma checkers, the CRT determinant and the other names
    that only tests reached now live in tests/, and none can be imported from
    matchiso; the second copies of the engine step and of the face prologue
    are gone, as is GoodnessReport.__bool__, which no reader used."""
    import ast
    import importlib

    from matchiso import DeterminantResult, GoodnessReport

    src = Path(__file__).resolve().parent.parent / "src" / "matchiso"
    banned_on = {"separating_weights": {"t_max"}, "is_contractible": {"lo"}}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                banned = {"mode", "max_vertices"} | banned_on.get(node.name, set())
                found += [(path.name, node.name, p) for p in sorted(params & banned)]
    assert not found, f"settable values the library does not need: {found}"
    moved = {
        "graphs": ("crossing", "vertex_mask"),
        "weights": ("default_padding",),
        "tutte": ("_PRIME_FLOOR", "_prime_cache", "_primes_above_floor", "_crt"),
        "faces": ("is_tight", "_reduce_row", "laminar_spans_tight_cuts", "UncrossCertificate", "uncross_pair"),
        "engine": ("_find_member",),
        "cli": ("_face_from_args", "_check_tight_walk"),
    }
    package = importlib.import_module("matchiso")
    for module, names in moved.items():
        namespace = importlib.import_module(f"matchiso.{module}")
        for name in names:
            assert not hasattr(package, name) and not hasattr(namespace, name), f"matchiso.{module}.{name}"
    assert not hasattr(DeterminantResult, "ord2") and not hasattr(DeterminantResult, "ord2_or_inf")
    assert "__bool__" not in vars(GoodnessReport)
