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
import os
import sys
from fractions import Fraction
from collections.abc import Iterator
from functools import partial
from itertools import chain, islice

from . import exactmath, extremal_search, graph_core, numeral_paths, tree_engine
from .guards import ScaleLimitError, check_limit

__all__ = ["run", "main", "OUTPUT_SCHEMA"]

SCHEDULE_COUNT_LIMIT = 10**6  # schedules `gamma --enumerate` or `inject --all-seqs` may list
GAMMA_DP_LIMIT = 400_000  # L*t for `gamma`'s count, whose slowest admitted pair takes ~1 s
C_TABLE_K_LIMIT = 400  # `c-table --max-k`: the profile recursion takes ~3 s at 400, ~8 s at 500
JSON_SLICE = 256  # elements of a JSON list written by one json.dumps


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


def _emit(args, params: dict, **formats) -> int:
    """Write a command's answer to stdout, the only writer of stdout here.
    formats maps each format offered to a thunk; only args.format's runs.
    json's returns the result for the one-line envelope, which
    `_json_pieces` writes a slice of each long list at a time; every
    other's yields newline-terminated text, each piece written as it is
    produced.  No text goes out before the answer's first element is
    computed (`_json_pieces` holds the envelope's until then), so an
    answer that fails on it leaves stdout empty.  A reader that closes
    stdout early stops the output quietly.  Exact ints print in full,
    however many digits they have: Python's limit on int-to-text
    conversion is lifted while this writes."""
    produce = formats[args.format]
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_digits = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_digits(0)
    try:
        if args.format == "json":
            envelope = {"command": args.command, "params": params, "result": produce()}
            sys.stdout.writelines(chain(_json_pieces(envelope), ["\n"]))
        else:
            sys.stdout.writelines(produce())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone, which ends the output but is no error; what
        # is still buffered goes to devnull, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    finally:
        set_digits(digits)
    return 0


def _listed(value):
    """json.dumps' fallback: an iterator inside a slice is written as a list."""
    if isinstance(value, Iterator):
        return list(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_dumps = partial(json.dumps, separators=(", ", ": "), default=_listed)


def _json_pieces(value) -> Iterator[str]:
    """The text of json.dumps(value, separators=(", ", ": ")), in pieces
    that join to it.  Dicts are walked; each list, tuple or iterator is
    written JSON_SLICE elements at a time, each slice by one json.dumps;
    anything else by one json.dumps whole.  Text is held until a slice is
    computed and goes out with it, so the first piece holds the first
    slice of the first sequence."""
    rest = yield from _json_walk(value, "")
    yield rest


def _json_walk(value, head: str):
    """Yield value's text in pieces, head first, each piece ending in a
    computed slice; return the text after the last slice, not yet yielded."""
    if isinstance(value, dict):
        head += "{"
        for i, (key, item) in enumerate(value.items()):
            # the key as json.dumps writes it (1 and None become strings) and ": "
            name = _dumps({key: 0})[1:-2]
            head = yield from _json_walk(item, head + (", " if i else "") + name)
        return head + "}"
    if isinstance(value, (list, tuple, Iterator)):
        items = iter(value)
        head += "["
        sep = ""
        while chunk := list(islice(items, JSON_SLICE)):
            yield head + sep + _dumps(chunk)[1:-1]
            head, sep = "", ", "
        return head + "]"
    return head + _dumps(value)


def _rational_text(value: Fraction) -> str:
    """Exact text: integer, decimal if dyadic (as every c(k) is), or num/den."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    places = 0
    while den % 2 == 0:
        den //= 2
        num *= 5
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
        raise ValueError(f"--max-k must be >= 3, got {args.max_k}")
    check_limit(args.max_k, _unsafe_scale(args, "table-size").get("limit", C_TABLE_K_LIMIT),
                "density table size max_k")
    ks = list(range(3, args.max_k + 1))
    values = [exactmath.cycle_density(k) for k in ks]

    def text():
        cells = [_rational_text(v) for v in values]
        kw = [max(len(str(k)), len(c)) for k, c in zip(ks, cells)]
        head = "k      | " + " | ".join(str(k).rjust(w) for k, w in zip(ks, kw))
        vals = "c(k)   | " + " | ".join(c.rjust(w) for c, w in zip(cells, kw))
        yield f"{head}\n{'-' * len(head)}\n{vals}\n"

    def csv():
        yield "k,numerator,denominator\n"
        for k, v in zip(ks, values):
            yield f"{k},{v.numerator},{v.denominator}\n"

    return _emit(args, {"max_k": args.max_k}, text=text, csv=csv,
                 json=lambda: [{"k": k, "value": exactmath.rational_to_json(v)}
                               for k, v in zip(ks, values)])


def _cmd_subtrees(args) -> int:
    with open(args.tree, encoding="utf-8") as fh:
        tree = tree_engine.parse_tree_text(fh.read())
    if args.k is not None:
        count = tree_engine.count_subtrees(tree, args.k)
        params = {"tree": args.tree, "k": args.k}
    else:
        count = tree_engine.count_subtrees_total(tree)
        params = {"tree": args.tree, "total": True}
    return _emit(args, params, text=lambda: [f"{count}\n"],
                 csv=lambda: ["k,count\n", f"{params.get('k', 'total')},{count}\n"],
                 json=lambda: {"count": count})


def _cmd_greedy(args) -> int:
    check_limit(args.n, graph_core.HOST_VERTEX_LIMIT, "tree vertex count n")
    tree = tree_engine.greedy_tree(args.d, args.n)
    return _emit(args, {"d": args.d, "n": args.n},
                 text=lambda: [tree_engine.format_tree_text(tree)],
                 dot=lambda: [graph_core.graph_to_dot(tree, "T")],
                 json=lambda: {"n": tree.n, "edges": [list(e) for e in sorted(tree.edges)]})


def _unsafe_scale(args, guard: str) -> dict:
    """{"limit": None} after a warning on stderr when --unsafe-scale is set;
    otherwise {}, so the callee's own guard applies."""
    if not args.unsafe_scale:
        return {}
    print(f"warning: --unsafe-scale lifts the {guard} guard", file=sys.stderr)
    return {"limit": None}


def _cmd_gen(args) -> int:
    if sum(getattr(args, name) is not None for name in ("fan", "triple_fan", "numeral")) != 1:
        raise ValueError("choose exactly one of --fan, --triple-fan, --numeral")
    scale = _unsafe_scale(args, "vertex-count")
    # one pass checks every chord as Mop would, before the first byte; each
    # format then writes from a second pass, and neither holds the host
    if args.numeral is not None:
        base, width = args.numeral
        params = {"numeral": [base, width]}
        n, chords = numeral_paths._numeral_stream(base, width, **scale)
    else:
        if args.fan is not None:
            n, params = args.fan, {"fan": args.fan}
            chords = partial(graph_core._fan_chords, n, **scale)
        else:
            n, params = args.triple_fan, {"triple_fan": args.triple_fan}
            chords = partial(graph_core._triple_fan_chords, n, **scale)
        graph_core._check_sorted_chords(n, chords())
    return _emit(args, params,
                 text=lambda: graph_core._edge_list_lines(
                     n, graph_core._sorted_edges(n, chords())),
                 dot=lambda: graph_core._dot_lines(n, graph_core._sorted_edges(n, chords())),
                 json=lambda: {"n": n, "chords": chords()})


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
    return _emit(args, {"graph": args.graph, "pattern": args.pattern},
                 text=lambda: [f"{count}\n"],
                 csv=lambda: ["pattern,count\n", f"{pattern.describe()},{count}\n"],
                 json=lambda: {"count": count})


def _schedules(length: int, width: int, scale: dict):
    """The step schedules, streamed.  enumerate_schedules' length guard and
    then the guard on their count (SCHEDULE_COUNT_LIMIT unless scale lifts
    both) fire here, before any output."""
    stream = numeral_paths.enumerate_schedules(length, width, **scale)
    first = next(stream)
    check_limit(numeral_paths.count_schedules(length, width),
                scale.get("limit", SCHEDULE_COUNT_LIMIT), "schedule count")
    return chain([first], stream)


def _cmd_gamma(args) -> int:
    params = {"L": args.L, "t": args.t}
    scale = {}
    if args.L >= 0 and args.t >= 2:  # else count_schedules names the bad value
        scale = _unsafe_scale(args, "enumeration" if args.enumerate else "count")
        check_limit(args.L * args.t, scale.get("limit", GAMMA_DP_LIMIT), "schedule DP size L*t")
    count = numeral_paths.count_schedules(args.L, args.t)
    if not args.enumerate:
        return _emit(args, params, text=lambda: [f"{count}\n"],
                     csv=lambda: ["length,width,count\n", f"{args.L},{args.t},{count}\n"],
                     json=lambda: {"count": count})
    schedules = (s.values for s in _schedules(args.L, args.t, scale))
    return _emit(args, params,
                 text=lambda: (json.dumps(list(s)) + "\n" for s in schedules),
                 csv=lambda: chain(["schedule\n"],
                                   (" ".join(map(str, s)) + "\n" for s in schedules)),
                 json=lambda: {"count": count, "schedules": schedules})


def _cmd_inject(args) -> int:
    length = args.k - 2 * args.t
    if length < 0:
        raise ValueError(f"k={args.k} is below 2*t={2 * args.t}")
    if args.all_seqs:
        schedules = _schedules(length, args.t, {})
    else:
        schedules = [numeral_paths.StepSchedule((0,) * length, args.t)]
    # schedule_to_path rejects bad input on the first path, before any output
    paths = (numeral_paths.schedule_to_path(args.A, args.B, s, args.N, args.t, args.k)
             for s in schedules)
    params = {"N": args.N, "t": args.t, "k": args.k, "A": args.A, "B": args.B,
              "all_seqs": bool(args.all_seqs)}
    return _emit(args, params, text=lambda: (" ".join(map(str, p)) + "\n" for p in paths),
                 json=lambda: {"paths": paths})


def _cmd_extremal(args) -> int:
    pattern = _read_pattern(args.pattern)
    result = extremal_search.brute_force_maximum(
        args.n, pattern, dedup=not args.no_dedup, jobs=args.jobs,
        **_unsafe_scale(args, "brute-force"))

    def text():
        yield f"n={result.n} pattern={result.pattern.describe()} maximum={result.maximum}\n"
        label = "maximizers (up to isomorphism)" if result.deduped else "maximizers"
        yield f"{label}: {len(result.maximizers)}\n"
        for chords in result.maximizers:
            yield "  chords " + " ".join(f"{a}-{b}" for a, b in chords) + "\n"

    return _emit(args, {"n": args.n, "pattern": args.pattern}, text=text,
                 json=result.to_json_obj)


def _cmd_verify(args) -> int:
    overrides = {key: sugar for key, sugar in (("max_n", args.max_n), ("max_k", args.max_k),
                                               ("max_l", args.max_l), ("max_t", args.max_t))
                 if sugar is not None}
    for item in args.param or ():
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--param wants KEY=VALUE, got {item!r}")
        try:
            value = int(value)  # what argparse does for --max-k and the rest
        except ValueError:
            pass  # verify_suite refuses it with the type it wants
        overrides[key.replace("-", "_")] = value
    report = extremal_search.verify_suite(args.suite, jobs=args.jobs, **overrides)
    _emit(args, {"suite": args.suite}, text=lambda: [report.to_text()],
          json=report.to_json_obj)
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

    def add_format(p, *choices):
        p.add_argument("--format", choices=("text", *choices), default="text")

    p = sub.add_parser("c-table", help="exact cycle-density table")
    p.add_argument("--max-k", type=int, default=12)
    p.add_argument("--unsafe-scale", action="store_true")
    add_format(p, "json", "csv")
    p.set_defaults(func=_cmd_c_table)

    p = sub.add_parser("subtrees", help="count k-vertex subtrees of a tree file")
    p.add_argument("--tree", required=True)
    p.add_argument("-k", type=int, default=None)
    add_format(p, "json", "csv")
    p.set_defaults(func=_cmd_subtrees)

    p = sub.add_parser("greedy", help="breadth-first bounded-degree tree")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    add_format(p, "json", "dot")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("gen", help="generate a named triangulation")
    p.add_argument("--fan", type=int, default=None)
    p.add_argument("--triple-fan", dest="triple_fan", type=int, default=None)
    p.add_argument("--numeral", nargs=2, type=int, metavar=("N", "T"), default=None)
    p.add_argument("--unsafe-scale", action="store_true")
    add_format(p, "json", "dot")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("count", help="count a pattern in an edge-list graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True,
                   help="cycle:K | path:K (K edges) | tree:FILE")
    add_format(p, "json", "csv")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("gamma", help="count or enumerate step schedules")
    p.add_argument("-L", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--unsafe-scale", action="store_true")
    add_format(p, "json", "csv")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("inject", help="schedule-indexed fixed-endpoint paths")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--all-seqs", dest="all_seqs", action="store_true")
    add_format(p, "json")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("extremal", help="brute-force maximum over triangulations")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--no-dedup", action="store_true")
    p.add_argument("--jobs", type=_job_count, default=1)
    p.add_argument("--unsafe-scale", action="store_true")
    add_format(p, "json")
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
    add_format(p, "json")
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
