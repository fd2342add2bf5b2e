"""Command-line surface.

Every computation in the package is reachable as a subcommand with
deterministic, machine-readable output: identical argv gives byte-identical
stdout.  JSON output follows OUTPUT_SCHEMA below; rational values are
always emitted as decimal-string numerator/denominator pairs, never as
floating point.

Exit codes: 0 success (for `verify`: all cases passed), 1 verification
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import exactmath, extremal_search, graph_core, numeral_paths, tree_engine
from .guards import ScaleLimitError

__all__ = ["run", "main", "OUTPUT_SCHEMA"]


OUTPUT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "opturan CLI JSON output",
    "type": "object",
    "required": ["command", "result"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "result": {
            "oneOf": [
                {"$ref": "#/definitions/densityTable"},
                {"$ref": "#/definitions/count"},
                {"$ref": "#/definitions/graph"},
                {"$ref": "#/definitions/mop"},
                {"$ref": "#/definitions/schedules"},
                {"$ref": "#/definitions/paths"},
                {"$ref": "#/definitions/extremal"},
                {"$ref": "#/definitions/report"},
            ]
        },
    },
    "additionalProperties": False,
    "definitions": {
        "rational": {
            "type": "object",
            "required": ["num", "den"],
            "properties": {
                "num": {"type": "string", "pattern": "^-?[0-9]+$"},
                "den": {"type": "string", "pattern": "^[1-9][0-9]*$"},
            },
            "additionalProperties": False,
        },
        "edgePair": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 2,
            "maxItems": 2,
        },
        "densityTable": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["k", "value"],
                "properties": {
                    "k": {"type": "integer", "minimum": 3},
                    "value": {"$ref": "#/definitions/rational"},
                },
                "additionalProperties": False,
            },
        },
        "count": {
            "type": "object",
            "required": ["count"],
            "properties": {"count": {"type": "integer"}},
            "additionalProperties": False,
        },
        "graph": {
            "type": "object",
            "required": ["n", "edges"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "edges": {"type": "array", "items": {"$ref": "#/definitions/edgePair"}},
            },
            "additionalProperties": False,
        },
        "mop": {
            "type": "object",
            "required": ["n", "chords"],
            "properties": {
                "n": {"type": "integer", "minimum": 3},
                "chords": {"type": "array", "items": {"$ref": "#/definitions/edgePair"}},
            },
            "additionalProperties": False,
        },
        "schedules": {
            "type": "object",
            "required": ["count", "schedules"],
            "properties": {
                "count": {"type": "integer", "minimum": 0},
                "schedules": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}},
                },
            },
            "additionalProperties": False,
        },
        "paths": {
            "type": "object",
            "required": ["paths"],
            "properties": {
                "paths": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}},
                }
            },
            "additionalProperties": False,
        },
        "extremal": {
            "type": "object",
            "required": ["n", "pattern", "maximum", "maximizers", "deduped"],
            "properties": {
                "n": {"type": "integer"},
                "pattern": {"type": "string"},
                "maximum": {"type": "integer"},
                "deduped": {"type": "boolean"},
                "maximizers": {
                    "type": "array",
                    "items": {"type": "array", "items": {"$ref": "#/definitions/edgePair"}},
                },
            },
            "additionalProperties": False,
        },
        "report": {
            "type": "object",
            "required": ["suite", "passed", "cases"],
            "properties": {
                "suite": {"type": "string"},
                "params": {"type": "object"},
                "passed": {"type": "boolean"},
                "cases": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["case", "expected", "actual", "passed"],
                    },
                },
            },
            "additionalProperties": False,
        },
    },
}


def _emit_json(command: str, params: dict, result) -> None:
    obj = {"command": command, "params": params, "result": result}
    print(json.dumps(obj, separators=(", ", ": ")))


def _rational_text(value: Fraction) -> str:
    """Exact text: integer, terminating decimal, or num/den."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    places = 0
    while den % 2 == 0:
        den //= 2
        num *= 5
        places += 1
    while den % 5 == 0:
        den //= 5
        num *= 2
        places += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    sign = "-" if num < 0 else ""
    digits = str(abs(num)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_c_table(args) -> int:
    if args.max_k < 3:
        print(f"c-table: --max-k must be >= 3, got {args.max_k}", file=sys.stderr)
        return 2
    ks = list(range(3, args.max_k + 1))
    values = [exactmath.cycle_density(k) for k in ks]
    if args.format == "json":
        result = [{"k": k, "value": exactmath.rational_to_json(v)}
                  for k, v in zip(ks, values)]
        _emit_json("c-table", {"max_k": args.max_k}, result)
    elif args.format == "csv":
        print("k,numerator,denominator")
        for k, v in zip(ks, values):
            print(f"{k},{v.numerator},{v.denominator}")
    else:
        cells = [_rational_text(v) for v in values]
        kw = [max(len(str(k)), len(c)) for k, c in zip(ks, cells)]
        head = "k      | " + " | ".join(str(k).rjust(w) for k, w in zip(ks, kw))
        vals = "c(k)   | " + " | ".join(c.rjust(w) for c, w in zip(cells, kw))
        print(head)
        print("-" * len(head))
        print(vals)
    return 0


def _cmd_subtrees(args) -> int:
    with open(args.tree, encoding="utf-8") as fh:
        tree = tree_engine.parse_tree_text(fh.read())
    if args.k is not None:
        count = tree_engine.count_subtrees(tree, args.k)
        params = {"tree": args.tree, "k": args.k}
    else:
        count = tree_engine.count_subtrees_total(tree)
        params = {"tree": args.tree, "total": True}
    if args.format == "json":
        _emit_json("subtrees", params, {"count": count})
    elif args.format == "csv":
        print("k,count")
        print(f"{args.k if args.k is not None else 'total'},{count}")
    else:
        print(count)
    return 0


def _graph_output(args, command: str, params: dict, mop: graph_core.Mop) -> int:
    # JSON prints the chords alone; only text and DOT need the graph built.
    if args.format == "json":
        # json writes tuples as lists, so the sorted chord tuples print as
        # to_json_obj's lists would, without a list per chord
        _emit_json(command, params, {"n": mop.n, "chords": mop.sorted_chords()})
    elif args.format == "dot":
        sys.stdout.write(graph_core.graph_to_dot(mop.graph))
    else:
        sys.stdout.write(graph_core.format_edge_list(mop.graph))
    return 0


def _cmd_greedy(args) -> int:
    tree = tree_engine.greedy_tree(args.d, args.n)
    if args.format == "dot":
        sys.stdout.write(graph_core.graph_to_dot(tree, "T"))
        return 0
    if args.format == "json":
        _emit_json("greedy", {"d": args.d, "n": args.n},
                   {"n": tree.n, "edges": [list(e) for e in sorted(tree.edges)]})
        return 0
    sys.stdout.write(tree_engine.format_tree_text(tree))
    return 0


def _unsafe_scale(args, guard: str) -> dict:
    """{"limit": None} after a warning on stderr when --unsafe-scale is set;
    otherwise {}, so the callee's own guard applies."""
    if not args.unsafe_scale:
        return {}
    print(f"warning: --unsafe-scale lifts the {guard} guard", file=sys.stderr)
    return {"limit": None}


def _cmd_gen(args) -> int:
    chosen = [name for name in ("fan", "triple_fan", "numeral")
              if getattr(args, name) is not None]
    if len(chosen) != 1:
        print("gen: choose exactly one of --fan, --triple-fan, --numeral",
              file=sys.stderr)
        return 2
    if args.fan is not None:
        mop = graph_core.fan(args.fan)
        params = {"fan": args.fan}
    elif args.triple_fan is not None:
        mop = graph_core.triple_fan(args.triple_fan)
        params = {"triple_fan": args.triple_fan}
    else:
        base, width = args.numeral
        mop = numeral_paths.numeral_graph(
            base, width, **_unsafe_scale(args, "vertex-count")).mop
        params = {"numeral": [base, width]}
    return _graph_output(args, "gen", params, mop)


def _read_pattern(text: str) -> graph_core.Pattern:
    """cycle:K | path:K | tree:FILE, the last read from a tree file."""
    if text.startswith("tree:"):
        with open(text[5:], encoding="utf-8") as fh:
            return graph_core.Pattern.tree(tree_engine.parse_tree_text(fh.read()))
    return graph_core.Pattern.parse(text)


def _cmd_count(args) -> int:
    with open(args.graph, encoding="utf-8") as fh:
        g = graph_core.parse_edge_list(fh.read())
    pattern = _read_pattern(args.pattern)
    (count,) = graph_core.count_patterns(g, [pattern])
    params = {"graph": args.graph, "pattern": args.pattern}
    if args.format == "json":
        _emit_json("count", params, {"count": count})
    elif args.format == "csv":
        print("pattern,count")
        print(f"{pattern.describe()},{count}")
    else:
        print(count)
    return 0


def _cmd_gamma(args) -> int:
    params = {"L": args.L, "t": args.t}
    count = numeral_paths.count_schedules(args.L, args.t)
    if args.enumerate:
        schedules = [list(s.values) for s in numeral_paths.enumerate_schedules(
            args.L, args.t, **_unsafe_scale(args, "enumeration"))]
        if args.format == "json":
            _emit_json("gamma", params, {"count": count, "schedules": schedules})
        elif args.format == "csv":
            print("schedule")
            for s in schedules:
                print(" ".join(map(str, s)))
        else:
            for s in schedules:
                print(json.dumps(s))
        return 0
    if args.format == "json":
        _emit_json("gamma", params, {"count": count})
    elif args.format == "csv":
        print("length,width,count")
        print(f"{args.L},{args.t},{count}")
    else:
        print(count)
    return 0


def _cmd_inject(args) -> int:
    length = args.k - 2 * args.t
    if length < 0:
        print(f"inject: k={args.k} is below 2*t={2 * args.t}", file=sys.stderr)
        return 2
    if args.all_seqs:
        schedules = list(numeral_paths.enumerate_schedules(length, args.t))
    else:
        schedules = [numeral_paths.StepSchedule((0,) * length, args.t)]
    paths = [numeral_paths.schedule_to_path(args.A, args.B, s, args.N, args.t,
                                            args.k)
             for s in schedules]
    params = {"N": args.N, "t": args.t, "k": args.k, "A": args.A, "B": args.B,
              "all_seqs": bool(args.all_seqs)}
    if args.format == "json":
        _emit_json("inject", params, {"paths": paths})
    else:
        for p in paths:
            print(" ".join(map(str, p)))
    return 0


def _cmd_extremal(args) -> int:
    pattern = _read_pattern(args.pattern)
    result = extremal_search.brute_force_maximum(
        args.n, pattern, dedup=not args.no_dedup, jobs=args.jobs,
        **_unsafe_scale(args, "brute-force"))
    if args.format == "json":
        _emit_json("extremal", {"n": args.n, "pattern": args.pattern},
                   result.to_json_obj())
    else:
        print(f"n={result.n} pattern={result.pattern.describe()} "
              f"maximum={result.maximum}")
        label = "maximizers (up to isomorphism)" if result.deduped else "maximizers"
        print(f"{label}: {len(result.maximizers)}")
        for chords in result.maximizers:
            print("  chords " + " ".join(f"{a}-{b}" for a, b in chords))
    return 0


def _cmd_verify(args) -> int:
    overrides = {}
    for key, sugar in (("max_n", args.max_n), ("max_k", args.max_k),
                       ("max_l", args.max_l), ("max_t", args.max_t)):
        if sugar is not None:
            overrides[key] = sugar
    for item in args.param or ():
        key, _, value = item.partition("=")
        if not value:
            print(f"verify: --param wants KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        overrides[key.replace("-", "_")] = int(value) if value.lstrip("-").isdigit() else value
    report = extremal_search.verify_suite(args.suite, jobs=args.jobs, **overrides)
    if args.format == "json":
        obj = report.to_json_obj()
        _emit_json("verify", {"suite": args.suite}, obj)
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _job_count(text: str) -> int:
    """argparse type for --jobs: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opturan",
        description="Exact outerplanar subgraph-maximization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices, default):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("c-table", help="exact cycle-density table")
    p.add_argument("--max-k", type=int, default=12)
    add_format(p, ("text", "json", "csv"), "text")
    p.set_defaults(func=_cmd_c_table)

    p = sub.add_parser("subtrees", help="count k-vertex subtrees of a tree file")
    p.add_argument("--tree", required=True)
    p.add_argument("-k", type=int, default=None)
    add_format(p, ("text", "json", "csv"), "text")
    p.set_defaults(func=_cmd_subtrees)

    p = sub.add_parser("greedy", help="breadth-first bounded-degree tree")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    add_format(p, ("text", "json", "dot"), "text")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("gen", help="generate a named triangulation")
    p.add_argument("--fan", type=int, default=None)
    p.add_argument("--triple-fan", dest="triple_fan", type=int, default=None)
    p.add_argument("--numeral", nargs=2, type=int, metavar=("N", "T"), default=None)
    p.add_argument("--unsafe-scale", action="store_true")
    add_format(p, ("text", "json", "dot"), "text")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("count", help="count a pattern in an edge-list graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True,
                   help="cycle:K | path:K (K edges) | tree:FILE")
    add_format(p, ("text", "json", "csv"), "text")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("gamma", help="count or enumerate step schedules")
    p.add_argument("-L", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--unsafe-scale", action="store_true")
    add_format(p, ("text", "json", "csv"), "text")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("inject", help="schedule-indexed fixed-endpoint paths")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--all-seqs", dest="all_seqs", action="store_true")
    add_format(p, ("text", "json"), "text")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("extremal", help="brute-force maximum over triangulations")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--no-dedup", action="store_true")
    p.add_argument("--jobs", type=_job_count, default=1)
    p.add_argument("--unsafe-scale", action="store_true")
    add_format(p, ("text", "json"), "text")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True,
                   choices=extremal_search.suite_names())
    p.add_argument("--jobs", type=_job_count, default=1)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--max-l", type=int, default=None)
    p.add_argument("--max-t", type=int, default=None)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    add_format(p, ("text", "json"), "text")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ScaleLimitError as exc:
        if not hasattr(args, "unsafe_scale"):  # the hint in exc names that flag
            exc = f"{exc.args[0]}; lower the value ({args.command} has no --unsafe-scale)"
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
