"""Command-line surface: exit codes, formats, schema, determinism."""

import json
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from opturan import graph_core
from opturan.cli import OUTPUT_SCHEMA, run

# stdout of `gen` for three constructions in every format, keyed by argv,
# recorded before `gen` stopped building the graph for JSON output.
GEN_STDOUT = json.loads((Path(__file__).parent / "gen_stdout.json").read_text())
GAMMA_STDOUT = json.loads((Path(__file__).parent / "gamma_stdout.json").read_text())


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return invoke


def check_json_line(line: str) -> dict:
    obj = json.loads(line)
    jsonschema.validate(obj, OUTPUT_SCHEMA)
    return obj


# ---------------------------------------------------------------------------
# c-table
# ---------------------------------------------------------------------------

def test_c_table_text_matches_known_row(capture):
    code, out, _ = capture("c-table", "--max-k", "12")
    assert code == 0
    assert "23.75" in out and "361.75" in out and "10.5" in out
    # a table without a single column is a usage error, not an empty table
    code, out, err = capture("c-table", "--max-k", "2")
    assert code == 2 and out == "" and "--max-k" in err


def test_c_table_json_schema_and_exact_rationals(capture):
    code, out, _ = capture("c-table", "--max-k", "12", "--format", "json")
    assert code == 0
    obj = check_json_line(out)
    values = {row["k"]: row["value"] for row in obj["result"]}
    assert values[9] == {"num": "95", "den": "4"}
    assert "." not in json.dumps(obj["result"])  # no floats anywhere


def test_c_table_csv(capture):
    code, out, _ = capture("c-table", "--max-k", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "k,numerator,denominator", "3,1,1", "4,1,1", "5,3,2",
    ]


# ---------------------------------------------------------------------------
# generation and counting
# ---------------------------------------------------------------------------

def test_gen_fan_edges_and_dot(capture, tmp_path):
    code, out, _ = capture("gen", "--fan", "5")
    assert code == 0
    assert out.splitlines()[0] == "5"
    code, dot, _ = capture("gen", "--fan", "5", "--format", "dot")
    assert code == 0 and dot.startswith("graph G {")
    code, js, _ = capture("gen", "--triple-fan", "6", "--format", "json")
    obj = check_json_line(js)
    assert obj["result"]["chords"] == [[0, 2], [0, 4], [2, 4]]


@pytest.mark.parametrize("argv", sorted(GEN_STDOUT))
def test_gen_stdout_is_unchanged(capture, argv):
    code, out, err = capture(*argv.split())
    assert (code, out, err) == (0, GEN_STDOUT[argv], "")


def test_gen_json_builds_no_graph(capture):
    before = graph_core._mop_graph.cache_info()
    code, out, _ = capture("gen", "--numeral", "10", "3", "--format", "json")
    assert code == 0 and check_json_line(out)["result"]["n"] == 1000
    # neither a miss nor a hit: the chords are printed without the graph
    assert graph_core._mop_graph.cache_info() == before


def test_gen_requires_exactly_one_construction(capture):
    code, _, err = capture("gen", "--fan", "5", "--triple-fan", "6")
    assert code == 2 and "exactly one" in err


def test_gen_numeral_guard(capture):
    code, _, err = capture("gen", "--numeral", "101", "3")
    assert code == 2 and "guard" in err


def test_count_cycle_path_and_tree(capture, tmp_path):
    code, out, _ = capture("gen", "--fan", "8")
    graph_file = tmp_path / "fan8.txt"
    graph_file.write_text(out)
    code, out, _ = capture("count", "--graph", str(graph_file),
                           "--pattern", "cycle:3")
    assert code == 0 and out.strip() == "6"
    code, out, _ = capture("count", "--graph", str(graph_file),
                           "--pattern", "path:3", "--format", "json")
    assert check_json_line(out)["result"]["count"] == 74

    tree_file = tmp_path / "star.txt"
    tree_file.write_text("4\n0 1\n0 2\n0 3\n")
    code, out, _ = capture("count", "--graph", str(graph_file),
                           "--pattern", f"tree:{tree_file}")
    assert code == 0 and int(out) > 0

    # paths and cycles far longer than the interpreter's recursion limit
    ring = 1200
    ring_file = tmp_path / "ring.txt"
    ring_file.write_text(f"{ring}\n" + "".join(f"{i} {(i + 1) % ring}\n"
                                                for i in range(ring)))
    for pattern, expected in ((f"cycle:{ring}", 1), (f"path:{ring - 1}", ring)):
        code, out, err = capture("count", "--graph", str(ring_file),
                                 "--pattern", pattern)
        assert (code, out, err) == (0, f"{expected}\n", "")


def test_count_cycles_on_relabelled_numeral_graph(capture, tmp_path):
    # gen's labelling has no crossing and takes the increasing-path DP; the
    # shuffled copy has crossings and takes the walk
    code, out, _ = capture("gen", "--numeral", "3", "3")
    g = graph_core.parse_edge_list(out)
    perm = list(range(g.n))
    random.Random(9).shuffle(perm)
    h = g.relabel(perm)
    assert graph_core._first_crossing(g.edges) is None
    assert graph_core._first_crossing(h.edges) is not None
    plain, shuffled = tmp_path / "numeral.txt", tmp_path / "shuffled.txt"
    plain.write_text(out)
    shuffled.write_text(graph_core.format_edge_list(h))
    for pattern in ("cycle:3", "cycle:6", "cycle:9"):
        for fmt in ("text", "csv"):
            runs = [capture("count", "--graph", str(f), "--pattern", pattern,
                            "--format", fmt) for f in (plain, shuffled)]
            assert runs[0][0] == 0 and runs[0][1] == runs[1][1] and runs[0][2] == ""


def test_tree_pattern_size_guard(capture, tmp_path):
    # the guard fires even where every host is smaller than the pattern
    tree_file = tmp_path / "p11.txt"
    tree_file.write_text("11\n" + "".join(f"{i} {i + 1}\n" for i in range(10)))
    graph_file = tmp_path / "fan8.txt"
    graph_file.write_text(capture("gen", "--fan", "8")[1])
    message = "pattern on 11 vertices exceeds the guard 10"
    code, out, err = capture("count", "--graph", str(graph_file),
                             "--pattern", f"tree:{tree_file}")
    assert (code, out) == (2, "") and message in err
    for n in ("9", "2"):  # n = 2 has no host at all
        code, out, err = capture("extremal", "-n", n, "--pattern", f"tree:{tree_file}")
        assert (code, out) == (2, "") and message in err


def test_count_missing_file(capture):
    code, _, err = capture("count", "--graph", "/nonexistent/g.txt",
                           "--pattern", "cycle:3")
    assert code == 2 and "g.txt" in err


def test_subtrees_command(capture, tmp_path):
    tree_file = tmp_path / "p4.txt"
    tree_file.write_text("4\n0 1\n1 2\n2 3\n")
    code, out, _ = capture("subtrees", "--tree", str(tree_file), "-k", "2")
    assert code == 0 and out.strip() == "3"
    code, out, _ = capture("subtrees", "--tree", str(tree_file))
    assert code == 0 and out.strip() == "10"


def test_greedy_formats(capture):
    code, out, _ = capture("greedy", "-d", "3", "-n", "4")
    assert code == 0
    assert out == "4\n0 1\n0 2\n0 3\n"
    code, dot, _ = capture("greedy", "-d", "3", "-n", "4", "--format", "dot")
    assert "0 -- 1;" in dot


# ---------------------------------------------------------------------------
# gamma and inject
# ---------------------------------------------------------------------------

def test_gamma_count_and_enumeration(capture):
    code, out, _ = capture("gamma", "-L", "3", "-t", "4")
    assert code == 0 and out.strip() == "5"
    code, out, _ = capture("gamma", "-L", "3", "-t", "3", "--enumerate")
    assert out.splitlines() == ["[0, 0, 0]", "[0, 0, 1]", "[0, 1, 0]", "[0, 1, 1]"]
    code, out, _ = capture("gamma", "-L", "2", "-t", "3", "--enumerate",
                           "--format", "json")
    obj = check_json_line(out)
    assert obj["result"] == {"count": 2, "schedules": [[0, 0], [0, 1]]}


@pytest.mark.parametrize("argv", sorted(GAMMA_STDOUT))
def test_gamma_enumerate_stdout_is_unchanged(capture, argv):
    code, out, err = capture(*argv.split())
    assert (code, out, err) == (0, GAMMA_STDOUT[argv], "")


def test_inject_single_and_all(capture):
    code, out, _ = capture("inject", "--N", "10", "--t", "2", "--k", "8",
                           "--A", "99", "--B", "88")
    assert code == 0
    assert out.strip() == "99 98 97 96 95 90 0 80 88"
    code, out, _ = capture("inject", "--N", "30", "--t", "3", "--k", "14",
                           "--A", "26999", "--B", "13965", "--all-seqs",
                           "--format", "json")
    obj = check_json_line(out)
    assert len(obj["result"]["paths"]) == 128


def test_inject_rejects_bad_endpoints(capture):
    code, _, err = capture("inject", "--N", "10", "--t", "2", "--k", "8",
                           "--A", "99", "--B", "87")
    assert code == 2 and "87" in err


# ---------------------------------------------------------------------------
# extremal and verify
# ---------------------------------------------------------------------------

def test_extremal_text_and_json(capture):
    code, out, _ = capture("extremal", "-n", "6", "--pattern", "path:3")
    assert code == 0 and "maximum=33" in out
    code, out, _ = capture("extremal", "-n", "6", "--pattern", "path:3",
                           "--format", "json")
    obj = check_json_line(out)
    assert obj["result"]["maximum"] == 33
    assert obj["result"]["maximizers"] == [[[0, 2], [0, 4], [2, 4]]]


def test_extremal_guard_and_unsafe(capture):
    code, _, err = capture("extremal", "-n", "12", "--pattern", "cycle:3")
    assert code == 2 and "guard" in err and "(CLI: --unsafe-scale) to override" in err


def test_verify_exit_codes(capture):
    code, out, _ = capture("verify", "--suite", "counterexample-6")
    assert code == 0 and "overall: pass" in out
    # the triple fan does not beat the fan on 4-vertex paths at n=12
    code, out, _ = capture("verify", "--suite", "triple-fan-beats-fan",
                           "--param", "n=12", "--param", "k=4")
    assert code == 1 and "overall: FAIL" in out
    row = next(line for line in out.splitlines()
               if line.startswith("n12-P4-dominance"))
    assert "triple=168 fan=206" in row and row.endswith("FAIL")
    # the 2-edge-path maximizers: the fan, plus the triple fan at n=6
    code, out, _ = capture("verify", "--suite", "p3-exact")
    assert code == 0 and "overall: pass" in out
    row = next(line for line in out.splitlines()
               if line.startswith("n6-maximizer-classes"))
    assert row.count("[[0, 2], [0, 3], [0, 4]]") == 2
    assert row.count("[[0, 2], [0, 4], [2, 4]]") == 2
    code, _, err = capture("verify", "--suite", "p3-exact", "--max-n", "5")
    assert code == 0
    # a range past a suite's guard exits 2 before the first host
    code, out, err = capture("verify", "--suite", "cycle-bijection", "--max-n", "12")
    assert code == 2 and out == "" and "guard 11" in err
    # verify has no --unsafe-scale, so its hint must not name that flag
    code, out, err = capture("verify", "--suite", "p3-exact", "--max-n", "12")
    assert (code, out) == (2, "")
    assert err == ("verify: brute-force host size n=12 exceeds the desk-scale guard 11; "
                   "lower the value (verify has no --unsafe-scale)\n")
    # a suite that runs no cases has not verified anything
    for suite, max_n in (("p3-exact", "3"), ("cycle-bijection", "2")):
        code, out, err = capture("verify", "--suite", suite, "--max-n", max_n)
        assert code == 2 and out == "" and "no cases" in err
    # nor has a case, or a family of cases, whose range is empty
    for suite, param in (("limit-bounds", "max_k=3"),
                         ("bounds-4k", "max_k_density=0"),
                         ("bounds-4k", "max_n_paths=2"),
                         ("gamma", "max_t=1"),
                         ("gamma", "max_l=-1"),
                         ("gamma", "max_l_products=0"),
                         ("constructions", "max_t=0"),
                         ("constructions", "max_n_base=2")):
        code, out, err = capture("verify", "--suite", suite, "--param", param)
        assert code == 2 and out == ""
        assert param in err and "is empty" in err


def test_verify_json_schema(capture):
    code, out, _ = capture("verify", "--suite", "c-table", "--format", "json")
    assert code == 0
    obj = check_json_line(out)
    assert obj["result"]["passed"] is True


def test_verify_rejects_unknown_param(capture):
    code, _, err = capture("verify", "--suite", "c-table", "--param", "zap=1")
    assert code == 2 and "zap" in err
    # an int where the suite expects a tuple of cases
    code, _, err = capture("verify", "--suite", "injection", "--param", "triples=1")
    assert code == 2 and "triples" in err


def test_usage_errors_exit_two(capture):
    assert capture("verify")[0] == 2          # missing --suite
    assert capture("no-such-command")[0] == 2
    for argv in (("extremal", "-n", "6", "--pattern", "path:3", "--jobs", "0"),
                 ("verify", "--suite", "counterexample-6", "--jobs", "-3")):
        code, out, err = capture(*argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith(
            f"argument --jobs: must be an integer >= 1, got {argv[-1]!r}")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def run_cli_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "opturan.cli", *argv],
        capture_output=True, timeout=300,
    )


def test_byte_identical_output_across_processes():
    for argv in (
        ("c-table", "--max-k", "12", "--format", "json"),
        ("verify", "--suite", "gamma", "--max-l", "6", "--format", "json"),
        ("extremal", "-n", "7", "--pattern", "cycle:4", "--format", "json"),
    ):
        first = run_cli_subprocess(*argv)
        second = run_cli_subprocess(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_python_dash_m_runs_the_cli(capsys):
    proc = subprocess.run([sys.executable, "-m", "opturan", "c-table", "--max-k", "5"],
                          capture_output=True, text=True, timeout=300)
    assert run(["c-table", "--max-k", "5"]) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.startswith("k ")


def test_jobs_do_not_perturb_output():
    base = run_cli_subprocess("verify", "--suite", "cycle-closed-forms",
                              "--max-n", "8")
    jobs = run_cli_subprocess("verify", "--suite", "cycle-closed-forms",
                              "--max-n", "8", "--jobs", "3")
    assert base.stdout == jobs.stdout
    assert base.returncode == jobs.returncode == 0
