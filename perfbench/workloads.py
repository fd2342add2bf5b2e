"""The three workloads: their inputs, their ops, and how each op's result
is checked.

An op is one call into opturan.  Ops look functions up on their module at
call time (`extremal_search.brute_force_many`, not a name bound at import),
so that a traced run sees the wrapped functions.  Each result is reduced to
a JSON `answer` that must equal the reference stored in reference.json
(produced at the seed commit by make_reference.py), and `problems` runs
the checks against the package's own closed forms where one exists.

Only the big-host `count` input depends on the seed: its vertices are
relabelled by a permutation drawn from it.  Every answer is the same for
every seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from opturan import cli, extremal_search, graph_core, numeral_paths
from opturan.tree_engine import Tree

REFERENCE = Path(__file__).resolve().parent / "reference.json"
INLINE_STDOUT_LIMIT = 8192  # longer CLI output is stored as length + sha256


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    answer: Callable[[object], object]
    problems: Callable[[object], list[str]] = lambda result: []


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _extremal_answer(results) -> list[dict]:
    return [{"pattern": r.pattern.describe(), "maximum": r.maximum,
             "maximizers": len(r.maximizers),
             "sha256": _sha256(json.dumps(r.to_json_obj(), sort_keys=True))}
            for r in results]


def _closed_form_problems(results) -> list[str]:
    out = []
    for r in results:
        expected = extremal_search.closed_form_maximum(r.n, r.pattern)
        if expected is not extremal_search.NOT_COVERED and expected != r.maximum:
            out.append(f"{r.pattern.describe()} at n={r.n}: maximum {r.maximum}, "
                       f"closed form {expected}")
    return out


def _report_problems(report) -> list[str]:
    return [] if report.passed else [f"suite {report.suite} reports a failing case"]


def _suite_op(suite: str, **params) -> Op:
    label = " ".join([suite] + [f"{k}={v}" for k, v in sorted(params.items())])
    return Op(f"verify_suite {label}",
              lambda: extremal_search.verify_suite(suite, **params),
              lambda report: report.to_text(), _report_problems)


def cycle_sweep(seed: int, workdir: Path) -> list[Op]:
    cycles = [extremal_search.Pattern.cycle(k) for k in range(3, 12)]
    return [
        Op("brute_force_many n=11 cycle:3..11",
           lambda: extremal_search.brute_force_many(11, cycles, dedup=True),
           _extremal_answer, _closed_form_problems),
        _suite_op("cycle-bijection", max_n=11),
        _suite_op("greedy-optimality"),
    ]


def _triple_fan_problems(cmp) -> list[str]:
    expected = graph_core.fan_path_count(45, 5)
    return [] if cmp.fan == expected else [f"fan count {cmp.fan}, closed form {expected}"]


def path_sweep(seed: int, workdir: Path) -> list[Op]:
    paths = [extremal_search.Pattern.path(k) for k in (2, 3, 4)]
    trees = [extremal_search.Pattern.tree(Tree(4, [(0, 1), (0, 2), (0, 3)])),
             extremal_search.Pattern.tree(Tree(5, [(0, 1), (1, 2), (0, 3), (0, 4)]))]
    ops = [
        Op("brute_force_many n=11 path:2..4",
           lambda: extremal_search.brute_force_many(11, paths),
           _extremal_answer, _closed_form_problems),
        Op("brute_force_many n=9 tree:K1,3 tree:spider5",
           lambda: extremal_search.brute_force_many(9, trees),
           _extremal_answer, _closed_form_problems),
    ]
    for k in range(1, 10):
        ops.append(Op(f"max_fixed_endpoint_paths n=10 k={k}",
                      lambda k=k: extremal_search.max_fixed_endpoint_paths(10, k),
                      lambda count: count))
    ops.append(Op("triple_fan_comparison n=45 k=6",
                  lambda: extremal_search.triple_fan_comparison(45, 6),
                  list, _triple_fan_problems))
    return ops


# ---------------------------------------------------------------------------
# Big hosts, through the CLI
# ---------------------------------------------------------------------------

class CliRun(NamedTuple):
    code: int
    stdout: str
    stderr: str


def _cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def _cli_answer(run: CliRun) -> dict:
    if len(run.stdout) <= INLINE_STDOUT_LIMIT:
        return {"exit": run.code, "stdout": run.stdout}
    return {"exit": run.code, "bytes": len(run.stdout.encode()),
            "sha256": _sha256(run.stdout)}


def _cli_problems(run: CliRun) -> list[str]:
    out = [f"exit code {run.code}"] if run.code else []
    return out + ([f"stderr: {run.stderr.strip()}"] if run.stderr else [])


def _c_table_problems(run: CliRun) -> list[str]:
    out = _cli_problems(run)
    rows = json.loads(run.stdout)["result"]
    if [row["k"] for row in rows] != list(range(3, 203)):
        out.append("c-table rows are not k = 3..202")
    for row in rows:
        known = extremal_search.KNOWN_CYCLE_DENSITIES.get(row["k"])
        value = Fraction(int(row["value"]["num"]), int(row["value"]["den"]))
        if known is not None and value != known:
            out.append(f"c({row['k']}) = {value}, known value {known}")
    return out


def _gen_problems(run: CliRun) -> list[str]:
    out = _cli_problems(run)
    mop = json.loads(run.stdout)["result"]
    if mop["n"] != 10**5 or len(mop["chords"]) != mop["n"] - 3:
        out.append(f"{len(mop['chords'])} chords on n={mop['n']}; want 10^5 - 3")
    return out


def write_count_graph(seed: int, workdir: Path) -> Path:
    """numeral_graph(10, 3) with its vertices relabelled by a permutation
    drawn from the seed, as an edge-list file."""
    graph = numeral_paths.numeral_graph(10, 3).graph
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in graph.edges)
    path = workdir / f"numeral-10-3-seed{seed}.txt"
    path.write_text("\n".join([str(graph.n)] + [f"{u} {v}" for u, v in edges]) + "\n",
                    encoding="utf-8")
    return path


def _cli_op(argv: list[str], problems=_cli_problems, label: str | None = None) -> Op:
    return Op("cli " + (label or " ".join(argv)), lambda: _cli(argv), _cli_answer, problems)


def big_host(seed: int, workdir: Path) -> list[Op]:
    graph = str(write_count_graph(seed, workdir))
    return [
        _cli_op(["c-table", "--max-k", "202", "--format", "json"], _c_table_problems),
        _cli_op(["gen", "--numeral", "10", "5", "--format", "json"], _gen_problems),
        _cli_op(["count", "--graph", graph, "--pattern", "path:4"],
                label="count --graph numeral(10,3) --pattern path:4"),
        _cli_op(["count", "--graph", graph, "--pattern", "cycle:6"],
                label="count --graph numeral(10,3) --pattern cycle:6"),
        _cli_op(["verify", "--suite", "gamma"]),
        _cli_op(["verify", "--suite", "injection"]),
        _cli_op(["verify", "--suite", "limit-bounds"]),
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "cycle-sweep": cycle_sweep,
    "path-sweep": path_sweep,
    "big-host": big_host,
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check(op: Op, result, reference: dict) -> list[str]:
    """Problems with one op's result: a differing answer, then any failed
    closed-form check."""
    out = []
    if op.name not in reference:
        out.append("no reference answer stored")
    elif op.answer(result) != reference[op.name]:
        out.append("answer differs from the reference")
    return out + op.problems(result)
