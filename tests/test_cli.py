"""Command-line surface: exit codes, formats, schema, determinism."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from opturan import cli, exactmath, extremal_search, graph_core, numeral_paths
from opturan.cli import OUTPUT_SCHEMA, run
from opturan.guards import ScaleLimitError

# stdout of `gen` for three constructions in every format, keyed by argv,
# recorded before `gen` stopped building the graph for JSON output.
GEN_STDOUT = json.loads((Path(__file__).parent / "gen_stdout.json").read_text())
GAMMA_STDOUT = json.loads((Path(__file__).parent / "gamma_stdout.json").read_text())
# exit code, stdout and stderr of every subcommand in every format it offers,
# keyed by argv and run in a directory holding "files", recorded before the
# subcommands shared one writer of stdout.
CLI_STDOUT = json.loads((Path(__file__).parent / "cli_stdout.json").read_text())
# a child interpreter imports the package from where this one found it, so
# the tests run alike with the package installed, on PYTHONPATH or neither
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


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


@pytest.mark.parametrize("value,text", [
    (Fraction(3, 2), "1.5"), (Fraction(95, 4), "23.75"), (Fraction(-3, 8), "-0.375"),
    (Fraction(5), "5"), (Fraction(1, 10), "1/10"), (Fraction(-1, 3), "-1/3"),
])
def test_rational_text(value, text):
    # a decimal only for a dyadic value; any other den prints as num/den
    assert cli._rational_text(value) == text


def test_c_table_max_k_guard(capture, monkeypatch):
    # past the top no density is computed; should the guard be missing,
    # the density fails the test instead of running the table
    real_density, limit = exactmath.cycle_density, cli.C_TABLE_K_LIMIT

    def small_only(k):
        if k > limit:
            raise AssertionError("c-table computed a density past the guard")
        return real_density(k)

    monkeypatch.setattr(exactmath, "cycle_density", small_only)
    assert limit == 400
    for fmt in ("text", "csv", "json"):
        code, out, err = capture("c-table", "--max-k", "401", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == ("c-table: density table size max_k=401 exceeds the desk-scale guard "
                       "400; pass limit=None (CLI: --unsafe-scale) to override\n")
    # --unsafe-scale lifts the guard, shown on a lowered one
    monkeypatch.setattr(cli, "C_TABLE_K_LIMIT", 4)
    code, out, err = capture("c-table", "--max-k", "5", "--format", "csv")
    assert (code, out) == (2, "") and "max_k=5 exceeds the desk-scale guard 4" in err
    code, out, err = capture("c-table", "--max-k", "5", "--format", "csv", "--unsafe-scale")
    assert (code, out.splitlines()[-1]) == (0, "5,3,2")
    assert err == "warning: --unsafe-scale lifts the table-size guard\n"


def test_c_table_text_to_202_is_unchanged(capture):
    # every c(k), k <= 202, is dyadic; sha256 of the table before
    # _rational_text stopped writing decimals for dens with a factor 5
    code, out, _ = capture("c-table", "--max-k", "202")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b3bd728cf33603787a4b69986d070efdacd2e64b2fca95eacd9b26f4ce90ce58")


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


@pytest.mark.parametrize("argv", sorted(CLI_STDOUT["runs"]))
def test_cli_stdout_is_unchanged(capture, argv, tmp_path, monkeypatch):
    for name, text in CLI_STDOUT["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = capture(*argv.split())
    assert {"exit": code, "stdout": out, "stderr": err} == CLI_STDOUT["runs"][argv]


@pytest.mark.parametrize("fmt", ["text", "dot"])
def test_gen_text_and_dot_build_no_graph(capture, monkeypatch, fmt):
    # the lines come from the host's sides and sorted chords
    def no_graph(*args):
        raise AssertionError("gen built the host's graph")

    monkeypatch.setattr(graph_core, "_mop_graph", no_graph)
    argv = f"gen --numeral 3 3 --format {fmt}"
    assert capture(*argv.split()) == (0, GEN_STDOUT[argv], "")


def test_gen_json_builds_no_graph(capture):
    before = graph_core._mop_graph.cache_info()
    code, out, _ = capture("gen", "--numeral", "10", "3", "--format", "json")
    assert code == 0 and check_json_line(out)["result"]["n"] == 1000
    # neither a miss nor a hit: the chords are printed without the graph
    assert graph_core._mop_graph.cache_info() == before


@pytest.mark.parametrize("argv,params,build", [
    (("--fan", "60"), {"fan": 60}, lambda: graph_core.fan(60)),
    (("--triple-fan", "45"), {"triple_fan": 45}, lambda: graph_core.triple_fan(45)),
    (("--numeral", "10", "3"), {"numeral": [10, 3]},
     lambda: numeral_paths.numeral_graph(10, 3)),
])
def test_gen_json_prints_mop_to_json_obj(capture, argv, params, build):
    # gen prints the sorted chord tuples; json must write them exactly as
    # it writes to_json_obj's lists
    code, out, err = capture("gen", *argv, "--format", "json")
    obj = {"command": "gen", "params": params, "result": build().to_json_obj()}
    assert (code, out, err) == (0, json.dumps(obj, separators=(", ", ": ")) + "\n", "")


def test_gen_requires_exactly_one_construction(capture):
    code, _, err = capture("gen", "--fan", "5", "--triple-fan", "6")
    assert code == 2 and "exactly one" in err


def test_gen_numeral_guard(capture):
    code, _, err = capture("gen", "--numeral", "101", "3")
    assert code == 2 and "guard" in err


@pytest.mark.parametrize("argv,what", [
    (("--numeral", "1001", "2"), "base**width=1002001"),
    (("--fan", "1000001"), "n=1000001"),
    (("--triple-fan", "1000002"), "n=1000002"),
    (("--numeral", "10", "5000"), "base**width=10**5000"),
    (("--numeral", "2", "3000000"), "base**width=2**3000000"),
])
def test_gen_vertex_guards(capture, argv, what):
    # every family is refused past 10^6 vertices before any chord is made
    assert capture("gen", *argv) == (
        2, "", f"gen: vertex count {what} exceeds the desk-scale guard 1000000; "
        "pass limit=None (CLI: --unsafe-scale) to override\n")


def test_gen_refuses_a_huge_numeral_before_the_power():
    # 10**3000000 takes 1.2 MB (and about 2 s) to compute, and past 4300
    # digits str() refuses it; the guard names it by its formula instead
    tracemalloc.start()
    try:
        with pytest.raises(ScaleLimitError, match=r"base\*\*width=10\*\*3000000 exceeds"):
            numeral_paths._numeral_size(10, 3_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    assert numeral_paths._numeral_size(2, 64, limit=None) == 2**64  # --unsafe-scale


@pytest.mark.parametrize("argv", sorted(a for a in GEN_STDOUT if a.startswith("gen ")))
def test_gen_builds_no_mop(capture, monkeypatch, argv):
    # gen checks the chord stream itself and writes from a second pass
    def no_mop(self):
        raise AssertionError("gen built a Mop")

    monkeypatch.setattr(graph_core.Mop, "__post_init__", no_mop)
    assert capture(*argv.split()) == (0, GEN_STDOUT[argv], "")


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_gen_refuses_a_broken_rule_before_the_first_byte(capsys, monkeypatch, fmt):
    # the missing chord shows only at the end of the stream, after every
    # chord could have been written; gen raises what numeral_graph raises
    rule = numeral_paths._numeral_chords
    monkeypatch.setattr(numeral_paths, "_numeral_chords",
                        lambda base, width, n: (c for c in rule(base, width, n) if c != (0, 8)))
    with pytest.raises(RuntimeError) as want:
        numeral_paths.numeral_graph(4, 2)
    with pytest.raises(RuntimeError) as got:
        run(["gen", "--numeral", "4", "2", "--format", fmt])
    assert str(got.value) == str(want.value)
    assert "12 chords on a 16-gon" in str(got.value)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_gen_holds_no_host(fmt):
    # 10^5 vertices: 14.2 MB traced while gen built the Mop first, about
    # 0.3 MB since it writes from the chord stream
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = run(["gen", "--numeral", "10", "5", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 2**20


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


def test_count_names_the_bad_edge_list_line(capture, tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("3\n0 1 2\n")
    code, out, err = capture("count", "--graph", str(graph_file), "--pattern", "cycle:3")
    assert (code, out, err) == (2, "", "count: line 2: want 'u v', got '0 1 2'\n")


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


def test_gamma_enumerate_count_guard(capture, monkeypatch):
    assert numeral_paths.count_schedules(13, 14) == 742_900 <= cli.SCHEDULE_COUNT_LIMIT
    for fmt in ("text", "csv", "json"):
        code, out, err = capture("gamma", "-L", "20", "-t", "21", "--enumerate",
                                 "--format", fmt)
        assert (code, out) == (2, "")
        assert err == ("gamma: schedule count=6564120420 exceeds the desk-scale guard "
                       "1000000; pass limit=None (CLI: --unsafe-scale) to override\n")
    # the length guard still speaks first, and no CSV header gets out
    # before it, even where the count (here 1) is small
    code, out, err = capture("gamma", "-L", "21", "-t", "2", "--enumerate",
                             "--format", "csv")
    assert (code, out) == (2, "") and "schedule length=21" in err
    # --unsafe-scale lifts the count guard, shown on a lowered one
    monkeypatch.setattr(cli, "SCHEDULE_COUNT_LIMIT", 13)
    code, out, err = capture("gamma", "-L", "4", "-t", "5", "--enumerate")
    assert (code, out) == (2, "") and "schedule count=14 exceeds" in err
    code, out, err = capture("gamma", "-L", "4", "-t", "5", "--enumerate", "--unsafe-scale")
    assert code == 0 and len(out.splitlines()) == 14
    assert err == "warning: --unsafe-scale lifts the enumeration guard\n"


def test_gamma_dp_guard(capture, monkeypatch):
    # a bad width is named before any size (count_schedules refuses it at once)
    code, out, err = capture("gamma", "-L", "100000000", "-t", "1")
    assert (code, out, err) == (2, "", "gamma: width must be >= 2, got 1\n")
    # the DP would run 10**8 - 1 rounds; should the guard be missing, the
    # count fails the test instead of running it
    real_count, limit = numeral_paths.count_schedules, cli.GAMMA_DP_LIMIT

    def no_count(length, width):
        if length * width > limit:
            raise AssertionError("the schedule DP ran past the guard")
        return real_count(length, width)

    monkeypatch.setattr(numeral_paths, "count_schedules", no_count)
    for extra in ((), ("--enumerate",)):
        for fmt in ("text", "csv", "json"):
            code, out, err = capture("gamma", "-L", "100000000", "-t", "3", *extra,
                                     "--format", fmt)
            assert (code, out) == (2, "")
            assert err == ("gamma: schedule DP size L*t=300000000 exceeds the desk-scale "
                           "guard 400000; pass limit=None (CLI: --unsafe-scale) to override\n")
    # L*t is 0 at L = 0, so any width passes the guard; the one empty
    # schedule is counted and listed without a table as wide as the width
    code, out, err = capture("gamma", "-L", "0", "-t", "1000000000000")
    assert (code, out, err) == (0, "1\n", "")
    code, out, err = capture("gamma", "-L", "0", "-t", "1000000000000", "--enumerate")
    assert (code, out, err) == (0, "[]\n", "")
    # --unsafe-scale lifts the guard, shown on a lowered one
    monkeypatch.setattr(cli, "GAMMA_DP_LIMIT", 11)
    code, out, err = capture("gamma", "-L", "4", "-t", "3")
    assert (code, out) == (2, "") and "schedule DP size L*t=12 exceeds" in err
    code, out, err = capture("gamma", "-L", "4", "-t", "3", "--unsafe-scale")
    assert (code, out, err) == (0, "8\n", "warning: --unsafe-scale lifts the count guard\n")


def test_gamma_prints_counts_past_the_digit_limit(capture):
    # count_schedules(14286, 3) = 2**14285 has 4301 digits, one past
    # Python's default limit on int-to-text conversion; _emit lifts the
    # limit while it writes and puts it back afterwards
    get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_digits = getattr(sys, "set_int_max_str_digits", lambda _: None)
    outer = get_digits()
    # the default, whatever earlier runs left
    limit = 4300 if hasattr(sys, "set_int_max_str_digits") else 0
    set_digits(limit)
    try:
        runs = {fmt: capture("gamma", "-L", "14286", "-t", "3", "--format", fmt)
                for fmt in ("text", "csv", "json")}
        assert get_digits() == limit
        set_digits(0)
        count = str(2**14285)
        assert runs["text"] == (0, count + "\n", "")
        assert runs["csv"] == (0, f"length,width,count\n14286,3,{count}\n", "")
        code, out, err = runs["json"]
        assert (code, err) == (0, "") and check_json_line(out)["result"] == {"count": 2**14285}
    finally:
        set_digits(outer)


# run() on argv in a fresh interpreter, stdout discarded; stderr ends with
# the exit code and the peak RSS in KiB.  The peak is read from VmHWM, not
# getrusage, whose maximum a child carries over from the parent it forked from.
MEASURE_RSS = ("import sys\nfrom opturan.cli import run\ncode = run(sys.argv[1:])\n"
               "peak = next(line.split()[1] for line in open('/proc/self/status')\n"
               "            if line.startswith('VmHWM:'))\n"
               "print(code, peak, file=sys.stderr)")


def test_cli_import_leaves_multiprocessing_out():
    # only a sweep with jobs > 1 starts a pool, and only it imports the module
    script = ("import sys\nfrom opturan.cli import run\nrun(['gen', '--fan', '5'])\n"
              "print('multiprocessing' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV, text=True,
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "False\n")


def max_rss_kib(*argv) -> int:
    proc = subprocess.run([sys.executable, "-c", MEASURE_RSS, *argv], text=True, env=CHILD_ENV,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=300)
    code, rss = proc.stderr.split()[-2:]
    assert code == "0", proc.stderr
    return int(rss)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_gamma_enumerate_streams_its_text():
    # 208 012 schedules take no more memory than one: each line is written
    # as it is made
    small = max_rss_kib("gamma", "-L", "1", "-t", "2", "--enumerate", "--format", "csv")
    large = max_rss_kib("gamma", "-L", "12", "-t", "13", "--enumerate", "--format", "csv")
    assert large - small <= 2048


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


def test_inject_all_seqs_count_guard(capture, monkeypatch):
    # the guard is on the number of paths, shown on a lowered one
    argv = ("inject", "--N", "30", "--t", "3", "--k", "14", "--A", "26999",
            "--B", "13965", "--all-seqs")
    monkeypatch.setattr(cli, "SCHEDULE_COUNT_LIMIT", 127)
    code, out, err = capture(*argv)
    assert (code, out) == (2, "") and "schedule count=128 exceeds" in err
    monkeypatch.setattr(cli, "SCHEDULE_COUNT_LIMIT", 128)
    code, out, _ = capture(*argv)
    assert code == 0 and len(out.splitlines()) == 128
    monkeypatch.undo()

    # count_schedules(20, 21) = Catalan(20) paths; should the guard be
    # missing, building the first path fails the test instead of running it
    def no_path(*args):
        raise AssertionError("a path was built past the count guard")

    monkeypatch.setattr(numeral_paths, "schedule_to_path", no_path)
    argv = ("inject", "--N", "64", "--t", "21", "--k", "62", "--A", str(64**21 - 1),
            "--B", str(63 * 64**20 - 1), "--all-seqs")
    for fmt in ("text", "json"):
        code, out, err = capture(*argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == ("inject: schedule count=6564120420 exceeds the desk-scale guard "
                       "1000000; lower the value (inject has no --unsafe-scale)\n")


# ---------------------------------------------------------------------------
# JSON in pieces
# ---------------------------------------------------------------------------

class Lazy(tuple):
    """A drawn list that the encoder is handed as an iterator."""


def _plain(value):
    """value as json.dumps takes it: every Lazy a list."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, Lazy):
        return [_plain(item) for item in value]
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    return value


def _lazy(value):
    """value as the CLI hands it over: every Lazy an iterator."""
    if isinstance(value, dict):
        return {key: _lazy(item) for key, item in value.items()}
    if isinstance(value, Lazy):
        return iter([_lazy(item) for item in value])
    if isinstance(value, (list, tuple)):
        return type(value)(_lazy(item) for item in value)
    return value


_JSON_LEAVES = st.one_of(
    st.integers(), st.text(), st.booleans(), st.none(),
    # ints past Python's default limit of 4300 digits for int-to-text
    st.integers(4300, 4400).map(lambda d: -(10**d) + 7))
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=7),
    st.lists(inner, max_size=7).map(tuple),
    st.lists(inner, max_size=7).map(Lazy),
    st.dictionaries(st.one_of(st.text(), st.integers(), st.booleans(), st.none()), inner,
                    max_size=4)), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES, size=st.integers(1, 3))
def test_json_pieces_join_to_json_dumps(value, size):
    # slices of 1-3 elements meet empty lists, single slices and lists
    # that end on a slice boundary
    get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_digits = getattr(sys, "set_int_max_str_digits", lambda _: None)
    outer = get_digits()
    set_digits(0)
    try:
        with mock.patch.object(cli, "JSON_SLICE", size):
            pieces = list(cli._json_pieces(_lazy(value)))
        assert "".join(pieces) == json.dumps(_plain(value), separators=(", ", ": "))
    finally:
        set_digits(outer)


def test_json_pieces_wait_for_the_first_slice():
    # the envelope's text rides with the first slice, and a slice holds
    # JSON_SLICE elements
    size = cli.JSON_SLICE
    taken = []

    def schedules():
        for i in range(2 * size + 1):
            taken.append(i)
            yield (0, i)

    envelope = {"command": "gamma", "params": {"L": 2},
                "result": {"count": 3, "schedules": schedules()}}
    pieces = [(piece, len(taken)) for piece in cli._json_pieces(envelope)]
    assert [count for _, count in pieces] == [size, 2 * size, 2 * size + 1, 2 * size + 1]
    assert pieces[0][0].startswith('{"command": "gamma", "params": {"L": 2}, "result": '
                                   '{"count": 3, "schedules": [[0, 0], [0, 1], ')
    assert pieces[-1][0] == "]}}"


@pytest.mark.parametrize("argv", [
    # digits below k: the first path is refused
    ("inject", "--N", "10", "--t", "2", "--k", "8", "--A", "99", "--B", "87", "--all-seqs"),
    # past the schedule-count guard
    ("gamma", "-L", "20", "-t", "21", "--enumerate"),
])
def test_streamed_json_fails_before_any_output(capture, argv):
    code, out, err = capture(*argv, "--format", "json")
    assert (code, out) == (2, "")
    assert err == capture(*argv)[2] != ""


def test_streamed_json_holds_one_slice_at_a_time():
    # 14 041 schedules, 55 slices: 5.5 MB traced when the whole answer was
    # built as one string, 0.46 MB in slices (and 0.53 MB for the 479 779
    # at L = 13, which take 20 s traced)
    argv = ["gamma", "-L", "10", "-t", "6", "--enumerate", "--format", "json"]
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 2 * 2**20


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


def test_extremal_past_the_stream_depth_exits_two(capture):
    # the labelled triangulation stream nests one generator per polygon
    # vertex; past the recursion limit's reach it refuses the size
    code, out, err = capture("extremal", "-n", "1100", "--pattern", "cycle:3",
                             "--unsafe-scale")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "warning: --unsafe-scale lifts the brute-force guard",
        f"extremal: polygon size n=1100 exceeds {sys.getrecursionlimit() // 2}, the "
        "deepest triangulation stream the recursion limit allows"]


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
    assert err == ("verify: suite 'p3-exact' parameter max_n=12 exceeds the desk-scale "
                   "guard 11; lower the value (verify has no --unsafe-scale)\n")
    # the triple fan suite names the values typed, not the edge count k - 1
    code, out, err = capture("verify", "--suite", "triple-fan-beats-fan",
                             "--param", "n=6", "--param", "k=2")
    assert (code, out) == (2, "")
    assert err == "verify: suite 'triple-fan-beats-fan' needs n >= k >= 4, got n=6, k=2\n"
    # a suite that runs no cases has not verified anything
    for suite, max_n in (("p3-exact", "3"), ("cycle-bijection", "2")):
        code, out, err = capture("verify", "--suite", suite, "--max-n", max_n)
        assert code == 2 and out == "" and "no cases" in err
    # nor has a case, or a family of cases, whose range is empty: one below
    # the first value of every range in the suite table is refused, and a
    # suite with each of its ranges at its first value runs
    checked = 0
    for suite, (_, defaults, _) in extremal_search._SUITES.items():
        starts = {key: d.start for key, d in defaults.items() if isinstance(d, range)}
        for key, start in starts.items():
            param = f"{key}={start - 1}"
            code, out, err = capture("verify", "--suite", suite, "--param", param)
            assert code == 2 and out == ""
            assert param in err and "is empty" in err
            checked += 1
        if starts:
            argv = [a for key, start in starts.items() for a in ("--param", f"{key}={start}")]
            code, out, _ = capture("verify", "--suite", suite, *argv, "--format", "json")
            assert code == 0 and check_json_line(out)["result"]["cases"]
    assert checked == 15


def test_verify_json_schema(capture):
    code, out, _ = capture("verify", "--suite", "c-table", "--format", "json")
    assert code == 0
    obj = check_json_line(out)
    assert obj["result"]["passed"] is True


def test_verify_param_reads_ints_as_argparse_does(capture):
    code, out, err = capture("verify", "--suite", "catalan-identity", "--param", "max_k=--5")
    assert (code, out) == (2, "")
    assert err == "verify: suite 'catalan-identity' parameter 'max_k' wants int, got '--5'\n"
    plus = capture("verify", "--suite", "catalan-identity", "--param", "max_k=+5")
    assert plus == capture("verify", "--suite", "catalan-identity", "--max-k", "+5")
    assert plus[0] == 0 and "params: max_k=5\n" in plus[1]
    code, out, err = capture("verify", "--suite", "catalan-identity", "--param", "max_k=x")
    assert (code, out) == (2, "") and "wants int, got 'x'" in err


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
        capture_output=True, timeout=300, env=CHILD_ENV,
    )


def test_byte_identical_output_across_processes(capture):
    # each child must succeed and print what this process prints: two
    # children that fail alike (say, on an import) must not pass
    for argv in (
        ("c-table", "--max-k", "12", "--format", "json"),
        ("verify", "--suite", "gamma", "--max-l", "6", "--format", "json"),
        ("extremal", "-n", "7", "--pattern", "cycle:4", "--format", "json"),
    ):
        code, out, _ = capture(*argv)
        assert code == 0 and out
        for _ in range(2):
            child = run_cli_subprocess(*argv)
            assert child.returncode == 0
            assert child.stdout.decode() == out


@pytest.mark.parametrize("argv,lines,code", [
    # the reader takes one line of a long stream, then closes
    (("gamma", "-L", "12", "-t", "13", "--enumerate"), 1, 0),
    (("gamma", "-L", "12", "-t", "13", "--enumerate", "--format", "csv"), 1, 0),
    # or closes before the first byte; verify still reports its verdict
    (("gen", "--fan", "8", "--format", "json"), 0, 0),
    (("verify", "--suite", "triple-fan-beats-fan", "--param", "n=12",
      "--param", "k=4"), 0, 1),
    # a JSON answer of many slices, which meets the closed pipe mid-stream
    (("gamma", "-L", "12", "-t", "13", "--enumerate", "--format", "json"), 0, 0),
])
def test_closed_stdout_ends_the_run_quietly(argv, lines, code):
    proc = subprocess.Popen([sys.executable, "-m", "opturan", *argv], env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    got = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == code
    assert err == b""
    assert all(line.endswith(b"\n") for line in got)


def test_python_dash_m_runs_the_cli(capsys):
    proc = subprocess.run([sys.executable, "-m", "opturan", "c-table", "--max-k", "5"],
                          capture_output=True, text=True, timeout=300, env=CHILD_ENV)
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


# ---------------------------------------------------------------------------
# exit-code contract over generated argv
# ---------------------------------------------------------------------------

ARGV_FILES = {
    "tree.txt": "7\n0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n",
    "star.txt": "4\n0 1\n0 2\n0 3\n",
    "host.txt": CLI_STDOUT["files"]["host.txt"],
    "k5.txt": "5\n" + "".join(f"{a} {b}\n" for a in range(5) for b in range(a + 1, 5)),
    "cycle.txt": "4\n0 1\n1 2\n2 3\n3 0\n",
    "junk.txt": "not a graph\n",
    "three.txt": "3\n0 1 2\n",
}


_ALL_TOPS = [tops for _, _, tops in extremal_search._SUITES.values()]
# one value past each int parameter's largest top, which every suite refuses
PAST_TOPS = sorted({f"{key}={max(t.get(key, 0) for t in _ALL_TOPS) + 1}"
                    for tops in _ALL_TOPS for key in tops})
PAST_C_TABLE = str(cli.C_TABLE_K_LIMIT + 1)  # c-table's --max-k, one past its top
# a host past gen's vertex guard, in each family (drawn without --unsafe-scale)
PAST_GEN = [["--fan", "1000001"], ["--triple-fan", "1000002"], ["--numeral", "1001", "2"]]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name, text in ARGV_FILES.items():
        (root / name).write_text(text)
    return root


def _argv(files: Path):
    """argv for every subcommand at desk scale: mostly well-formed, with
    out-of-range numbers, junk values, missing files and clashing options."""
    def ints(lo, hi):
        return st.sampled_from([*range(hi, lo - 1, -1), "x"]).map(str)

    def opt(flag, values):  # an option that may be left out
        return st.one_of(st.just([]), values.map(lambda v: [flag, v]))

    def req(flag, values):
        return values.map(lambda v: [flag, v])

    def flag(name):
        return st.sampled_from([[], [name]])

    def seq(*parts):
        return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])

    fmt = opt("--format", st.sampled_from(["text", "json", "csv", "dot", "xml"]))
    file = st.sampled_from([*ARGV_FILES, "missing.txt"]).map(lambda f: str(files / f))
    pattern = req("--pattern", st.one_of(
        st.tuples(st.sampled_from(["cycle", "path", "star"]), ints(-1, 9)).map(":".join),
        file.map(lambda f: f"tree:{f}")))
    jobs = opt("--jobs", st.sampled_from(["1", "0", "x"]))
    construction = st.one_of(
        req("--fan", ints(-1, 40)), req("--triple-fan", ints(-1, 40)),
        st.tuples(ints(-1, 6), ints(-1, 4)).map(lambda bw: ["--numeral", *bw]))
    def inject_argv(case):  # a valid call with at most one value replaced
        good, replaced, junk = case
        return [a for i, (name, value) in enumerate(zip(("--N", "--t", "--k", "--A", "--B"), good))
                for a in (name, junk if i == replaced else value)]

    inject = st.tuples(st.sampled_from([("10", "2", "8", "99", "88"),
                                        ("30", "3", "10", "26999", "13965"),
                                        ("30", "3", "13", "26999", "13965")]),
                       st.one_of(st.just(-1), st.integers(0, 4)), ints(-1, 14)).map(inject_argv)
    params = st.lists(st.sampled_from(["n=12", "k=4", "max_k=3", "max_n=x", "zap=1",
                                       "novalue", "max_l_products=2", "max_k=--5",
                                       "max_k=+5"]),
                      max_size=2).map(lambda ps: [a for p in ps for a in ("--param", p)])
    # drawn as the last --param, so that its value stands
    past = opt("--param", st.sampled_from(PAST_TOPS))
    # injection has no size to lower and gamma's defaults take a second
    cheap_suites = [s for s in extremal_search.suite_names() if s not in ("injection", "gamma")]
    return st.one_of(
        # one past the top is drawn only without --unsafe-scale, so it meets the guard
        seq(st.just(["c-table"]), st.one_of(
            seq(opt("--max-k", ints(-1, 30)), flag("--unsafe-scale")),
            st.just(["--max-k", PAST_C_TABLE])), fmt),
        seq(st.just(["subtrees"]), req("--tree", file), opt("-k", ints(-1, 8)), fmt),
        seq(st.just(["greedy"]), req("-d", ints(-1, 4)), req("-n", ints(-1, 30)), fmt),
        seq(st.just(["gen"]), st.one_of(
            seq(st.lists(construction, max_size=2).map(lambda cs: sum(cs, [])),
                flag("--unsafe-scale")),
            st.sampled_from(PAST_GEN)), fmt),
        seq(st.just(["count"]), req("--graph", file), pattern, fmt),
        seq(st.just(["gamma"]), req("-L", ints(-2, 9)), req("-t", ints(-1, 7)),
            flag("--enumerate"), flag("--unsafe-scale"), fmt),
        seq(st.just(["inject"]), inject, flag("--all-seqs"), fmt),
        seq(st.just(["extremal"]), req("-n", ints(-1, 8)), pattern, flag("--no-dedup"),
            jobs, flag("--unsafe-scale"), fmt),
        seq(st.just(["verify"]), req("--suite", st.sampled_from(cheap_suites)),
            opt("--max-n", ints(-1, 8)), opt("--max-k", ints(-1, 20)), params, past, jobs, fmt),
        seq(st.just(["verify", "--suite", "gamma"]), req("--max-l", ints(-1, 6)),
            opt("--max-t", ints(-1, 5)), params, past, fmt),
    )


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_exit_code_contract(argv_dir, data):
    """0 success, 1 a failing verification only, 2 usage or input error, and
    never a traceback; a refused call writes nothing to stdout."""
    argv = data.draw(_argv(argv_dir))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)  # an exception here would be a traceback at the shell
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
    assert code != 2 or out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    assert code == 2 or not set(argv) & set(PAST_TOPS)
    assert code == 2 or argv[:1] != ["c-table"] or PAST_C_TABLE not in argv
    assert code == 2 or argv[:1] != ["gen"] or not any(
        argv[1:1 + len(past)] == past for past in PAST_GEN)
