"""Brute-force extremal counts over all triangulations, the handful of
closed forms that have been pinned down exactly, and named verification
suites that reconcile every module against an independent oracle.

The suites are the operational heart of the package: each one re-derives a
claimed identity or bound from scratch (exhaustive enumeration, a second
counting route, or an exact rational comparison) and reports expected
versus actual per case.  Reports are pure functions of their parameters
with a fixed case order, so two runs are byte-identical and parallel
execution cannot perturb them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt
from typing import Callable, Iterable, NamedTuple

from . import exactmath, numeral_paths
from .exactmath import catalan, cycle_density, fixed_vertex_subtree_count
from .graph_core import (
    HOST_VERTEX_LIMIT,
    Mop,
    Pattern,
    Tree,
    _dihedral_images,
    _dual_subtree_counts,
    _walk,
    canonical_chords,
    count_paths,
    count_patterns,
    cycle_histogram,
    enumerate_mop_orbits,
    enumerate_mops,
    fan,
    fan_path_count,
    path_histogram,
    subgraph_count,
    star_blowup,
    triple_fan,
)
from .guards import ScaleLimitError, check_limit
from .tree_engine import (
    count_subtrees,
    enumerate_bounded_trees,
    greedy_tree,
    weak_dual,
)

__all__ = [
    "Pattern",
    "NotCovered",
    "NOT_COVERED",
    "ExtremalResult",
    "brute_force_many",
    "brute_force_maximum",
    "closed_form_maximum",
    "max_fixed_endpoint_paths",
    "TripleFanComparison",
    "triple_fan_comparison",
    "CaseResult",
    "VerificationReport",
    "verify_suite",
    "suite_names",
]

BRUTE_FORCE_LIMIT = 11       # host size for cycle/path sweeps
BRUTE_FORCE_TREE_LIMIT = 9   # host size for generic tree patterns
FIXED_ENDPOINT_LIMIT = 10    # host size for fixed-endpoint path maxima
GAMMA_SUITE_SCHEDULE_LIMIT = 4_000_000  # schedules the gamma suite lists in all


class NotCovered:
    """Sentinel: no exact closed form is on record for the request."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NOT_COVERED"


NOT_COVERED = NotCovered()


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of a brute-force sweep: the maximum count and every
    triangulation attaining it (canonical representatives when deduped)."""

    n: int
    pattern: Pattern
    maximum: int
    maximizers: tuple
    deduped: bool

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern.describe(),
            "maximum": self.maximum,
            "deduped": self.deduped,
            "maximizers": [[list(c) for c in chords] for chords in self.maximizers],
        }


def _scan_share(n: int, patterns: tuple[Pattern, ...], orbits: bool,
                j: int = 0, w: int = 1) -> list[tuple[int, set]]:
    """Each pattern's largest count over the hosts j, j + w, j + 2w, ... of
    the sweep's stream (`enumerate_mop_orbits` or `enumerate_mops`, which
    both refuse n past their one ceiling, 16, before the first host), with
    the set of canonical chord tuples of the classes attaining it.  An
    orbit representative's sorted chords are already canonical; a labelled
    host is canonicalised, at most once, only when it ties or beats some
    pattern's running maximum."""
    hosts = islice(enumerate_mop_orbits(n) if orbits else enumerate_mops(n), j, None, w)
    best = [-1] * len(patterns)
    arg = [set() for _ in patterns]
    for mop in hosts:
        chords = None
        for i, c in enumerate(count_patterns(mop.graph, patterns)):
            if c < best[i]:
                continue
            if chords is None:
                chords = (tuple(mop.sorted_chords()) if orbits
                          else canonical_chords(mop.n, mop.chords))
            if c > best[i]:
                best[i], arg[i] = c, set()
            arg[i].add(chords)
    return list(zip(best, arg))


def _scan_all(n: int, patterns: tuple[Pattern, ...], orbits: bool,
              jobs: int) -> list[tuple[int, set]]:
    """`_scan_share` split round-robin across w = min(jobs, CPUs) workers:
    worker j builds its own host stream and scans every w-th host of it
    from the j-th on."""
    w = min(jobs, os.cpu_count() or 1)
    if w <= 1:
        return _scan_share(n, patterns, orbits)
    import multiprocessing  # only here: importing it costs every other run ~7 ms

    with multiprocessing.Pool(w) as pool:
        parts = pool.starmap(_scan_share, [(n, patterns, orbits, j, w) for j in range(w)])
    merged = parts[0]
    for part in parts[1:]:
        for i, (b, a) in enumerate(part):
            if b > merged[i][0]:
                merged[i] = (b, a)
            elif b == merged[i][0]:
                merged[i][1].update(a)
    return merged


def brute_force_many(n: int, patterns: Iterable[Pattern], *, dedup: bool = True,
                     jobs: int = 1, limit: int | None = 0) -> list[ExtremalResult]:
    """Shared enumeration sweep for several patterns at once.

    Every count is a graph invariant, so the sweep keeps, per pattern, the
    set of maximizing classes, each as its canonical chord tuple (in each
    `jobs` worker, then their union): at most one tuple per orbit, so its
    memory grows with the orbits, not with the catalan(n-2) hosts.
    Without dedup, each class expands to its distinct dihedral images,
    which is the sorted list of every labelled maximizer.

    Route rule: a deduped sweep of cycles alone counts every labelled host
    and canonicalises a host, once, when it ties or beats some pattern's
    running maximum, because perfbench pins one `cycle_histogram` and one
    `Mop.graph` call per labelled host there.  Every other sweep counts
    one representative per dihedral orbit (228 hosts at n = 11 instead
    of 4862) from the one orbit stream, `enumerate_mop_orbits`, whose
    sorted chords are already canonical.

    limit=0 picks the guard matching the pattern kinds; None lifts it only
    up to both host streams' ceiling (16), met before the first host.
    """
    patterns = tuple(patterns)
    trees = [p for p in patterns if p.kind == "tree"]
    if limit == 0:
        limit = BRUTE_FORCE_TREE_LIMIT if trees else BRUTE_FORCE_LIMIT
    check_limit(n, limit, "brute-force host size n")
    for p in trees:  # size guard before the first host; workers get the count
        p.automorphisms
    orbits = not dedup or any(p.kind != "cycle" for p in patterns)
    results = []
    for pattern, (best, classes) in zip(patterns, _scan_all(n, patterns, orbits, jobs)):
        if not dedup:  # the orbits are disjoint, so every image is listed once
            classes = [image for chords in classes for image in _dihedral_images(n, chords)]
        results.append(ExtremalResult(n=n, pattern=pattern, maximum=best,
                                      maximizers=tuple(sorted(classes)), deduped=dedup))
    return results


def brute_force_maximum(n: int, pattern: Pattern, *, dedup: bool = True,
                        jobs: int = 1, limit: int | None = 0) -> ExtremalResult:
    """Exact maximum of the pattern count over all triangulations of the
    n-gon, with the attaining triangulations."""
    return brute_force_many(n, [pattern], dedup=dedup, jobs=jobs, limit=limit)[0]


def closed_form_maximum(n: int, pattern: Pattern):
    """The exact closed forms on record (short cycles and the 2-edge path);
    NOT_COVERED for everything else."""
    if pattern.kind == "cycle":
        k = pattern.size
        if k == 3 and n >= 3:
            return n - 2
        if k == 4 and n >= 4:
            return n - 3
        if k == 5 and n >= 5:
            return (3 * n - 12) // 2
        if k == 6 and n >= 6:
            return (5 * n - 28) // 2
        return NOT_COVERED
    if pattern.kind == "path" and pattern.size == 2 and n >= 3:
        return (n * n + 3 * n - 12) // 2
    return NOT_COVERED


@lru_cache(maxsize=32)
def _fixed_endpoint_maxima(n: int) -> tuple[int, ...]:
    """max over triangulations and vertex pairs of the number of equal-
    length paths between the pair, indexed by edge count (0..n-1).  The
    maximum is a graph invariant, so one host per isomorphism class is
    swept.  Each start u < n - 1 runs one `_walk` whose count rows have a
    slot for each end v > u only, and each length's maximum is read
    straight off its row."""
    best = [0] * n
    for mop in enumerate_mop_orbits(n):
        adj = mop.graph._adj
        for u in range(n - 1):
            counts = [[0] * (n - 1 - u) for _ in range(n)]
            _walk(adj, u, n - 1, -1, [-1] * (u + 1) + list(range(n - 1 - u)), counts)
            for e, row in enumerate(counts):
                c = max(row)
                if c > best[e]:
                    best[e] = c
    return tuple(best)


def max_fixed_endpoint_paths(n: int, k: int, limit: int | None = FIXED_ENDPOINT_LIMIT) -> int:
    """Largest number of k-edge paths between any fixed vertex pair in any
    triangulation of the n-gon."""
    check_limit(n, limit, "fixed-endpoint host size n")
    if not (1 <= k <= n - 1):
        raise ValueError(f"edge count {k} outside 1..{n - 1}")
    return _fixed_endpoint_maxima(n)[k]


class TripleFanComparison(NamedTuple):
    triple: int
    fan: int


def triple_fan_comparison(n: int, k: int) -> TripleFanComparison:
    """Direct counts of paths on k vertices (k-1 edges) in the glued
    triple fan versus the plain fan on n vertices."""
    if k < 2:
        raise ValueError(f"path vertex count must be >= 2, got {k}")
    edges = k - 1
    return TripleFanComparison(
        triple=count_paths(triple_fan(n).graph, edges),
        fan=count_paths(fan(n).graph, edges),
    )


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseResult:
    case: str
    expected: object
    actual: object
    passed: bool
    detail: str = ""


def _jsonify(value):
    if isinstance(value, Fraction):
        return exactmath.rational_to_json(value)
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return str(value)


def _textify(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_textify(v) for v in value) + "]"
    return str(value)


@dataclass
class VerificationReport:
    suite: str
    params: dict
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "params": {k: _jsonify(v) for k, v in sorted(self.params.items())},
            "passed": self.passed,
            "cases": [
                {
                    "case": c.case,
                    "expected": _jsonify(c.expected),
                    "actual": _jsonify(c.actual),
                    "passed": c.passed,
                    **({"detail": c.detail} if c.detail else {}),
                }
                for c in self.cases
            ],
        }

    def to_text(self) -> str:
        rows = [("case", "expected", "actual", "status", "")]
        for c in self.cases:
            rows.append((c.case, _textify(c.expected), _textify(c.actual),
                         "pass" if c.passed else "FAIL", c.detail))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = [f"suite: {self.suite}"]
        if self.params:
            joined = ", ".join(f"{k}={_textify(v)}"
                               for k, v in sorted(self.params.items()))
            lines.append(f"params: {joined}")
        for i, r in enumerate(rows):
            line = "  ".join(r[j].ljust(widths[j]) for j in range(4)).rstrip()
            if r[4]:
                line += f"  ({r[4]})"
            lines.append(line)
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


KNOWN_CYCLE_DENSITIES = {
    3: Fraction(1), 4: Fraction(1), 5: Fraction(3, 2), 6: Fraction(5, 2),
    7: Fraction(5), 8: Fraction(21, 2), 9: Fraction(95, 4),
    10: Fraction(227, 4), 11: Fraction(141), 12: Fraction(1447, 4),
}


def _suite_c_table(params, jobs):
    cases = []
    for k in sorted(KNOWN_CYCLE_DENSITIES):
        expected = KNOWN_CYCLE_DENSITIES[k]
        actual = cycle_density(k)
        cases.append(CaseResult(f"cycle-density-k{k}", expected, actual,
                                expected == actual))
    return cases


def _suite_catalan_identity(params, jobs):
    cases = []
    for k in params["max_k"]:
        expected = catalan(k + 1) - catalan(k)
        actual = fixed_vertex_subtree_count(k)
        cases.append(CaseResult(f"fixed-vertex-subtrees-k{k}", expected, actual,
                                expected == actual))
    return cases


def _suite_cycle_closed_forms(params, jobs):
    cases = []
    for n in params["max_n"]:
        ks = [k for k in (3, 4, 5, 6) if n >= k]
        patterns = [Pattern.cycle(k) for k in ks]
        results = brute_force_many(n, patterns, dedup=True, jobs=jobs)
        for k, res in zip(ks, results):
            expected = closed_form_maximum(n, Pattern.cycle(k))
            cases.append(CaseResult(f"n{n}-C{k}", expected, res.maximum,
                                    expected == res.maximum))
            if k == 5 and n >= 7:
                want = (n - 4) // 2  # degree-3 vertices in some maximizing dual
                got = []
                for chords in res.maximizers:
                    dual = weak_dual(Mop(n, frozenset(chords)))
                    got.append(sum(1 for v in range(dual.n) if dual.degree(v) == 3))
                cases.append(CaseResult(
                    f"n{n}-C5-dual-degree3", want, max(got), want in got,
                    detail="some maximizer's dual has this many degree-3 vertices",
                ))
            if k == 6 and n >= 8:
                # duals without degree-2 vertices (or with a single one next
                # to a leaf) should all attain the maximum
                off = 0
                for tree in enumerate_bounded_trees(n - 2, 3):
                    deg2 = [v for v in range(tree.n) if tree.degree(v) == 2]
                    shaped = (not deg2) or (
                        len(deg2) == 1
                        and any(tree.degree(w) == 1
                                for w in tree.neighbors(deg2[0]))
                    )
                    if shaped and count_subtrees(tree, 4) != res.maximum:
                        off += 1
                cases.append(CaseResult(
                    f"n{n}-C6-extremal-shape", 0, off, off == 0,
                    detail="shaped duals below the maximum",
                ))
    return cases


def _suite_cycle_bijection(params, jobs):
    cases = []
    for n in params["max_n"]:
        mismatches = 0
        total = 0
        for mop in enumerate_mops(n):
            hist = cycle_histogram(mop.graph)
            gs = _dual_subtree_counts(mop)
            total += 1
            for k in range(3, n + 1):
                if hist.get(k, 0) != gs[k - 2]:
                    mismatches += 1
        cases.append(CaseResult(f"n{n}-cycles-equal-dual-subtrees", 0, mismatches,
                                mismatches == 0,
                                detail=f"{total} triangulations, all k"))
    return cases


def _suite_greedy_optimality(params, jobs):
    cases = []
    for n in params["max_n"]:
        patterns = tuple(Pattern.cycle(k) for k in range(3, n + 1))
        # a maximum is a graph invariant, so one host per orbit serves;
        # cycle-bijection covers the DP on every labelled host
        maxima = [best for best, _ in _scan_all(n, patterns, True, jobs)]
        trees = list(enumerate_bounded_trees(n - 2, 3))
        greedy = greedy_tree(3, n - 2)
        for k, brute in zip(range(3, n + 1), maxima):
            tree_max = max(count_subtrees(t, k - 2) for t in trees)
            greedy_val = count_subtrees(greedy, k - 2)
            ok = brute == tree_max == greedy_val
            cases.append(CaseResult(
                f"n{n}-k{k}", "all equal",
                f"brute={brute} trees={tree_max} greedy={greedy_val}", ok))
    return cases


def _suite_p3_exact(params, jobs):
    cases = []
    for n in params["max_n"]:
        res = brute_force_maximum(n, Pattern.path(2), dedup=True, jobs=jobs)
        expected = (n * n + 3 * n - 12) // 2
        cases.append(CaseResult(f"n{n}-value", expected, res.maximum,
                                expected == res.maximum))
        # the fan is the only maximizer class except at n=6, where the
        # triple fan (degrees 4,2,4,2,4,2) ties it at 21
        witnesses = (fan(n), triple_fan(n)) if n == 6 else (fan(n),)
        classes = tuple(sorted({canonical_chords(n, m.chords) for m in witnesses}))
        cases.append(CaseResult(
            f"n{n}-maximizer-classes",
            [list(map(list, m)) for m in classes],
            [list(map(list, m)) for m in res.maximizers],
            res.maximizers == classes,
            detail="maximizers up to isomorphism",
        ))
    return cases


def _suite_fan_formula(params, jobs):
    cases = []
    for n in params["max_n"]:
        g = fan(n).graph
        hist = path_histogram(g, max_edges=n - 1)
        for k in range(3, n):
            expected = fan_path_count(n, k)
            actual = hist.get(k, 0)
            cases.append(CaseResult(f"n{n}-k{k}", expected, actual,
                                    expected == actual))
    return cases


def _suite_counterexample_6(params, jobs):
    res = brute_force_maximum(6, Pattern.path(3), dedup=True, jobs=jobs)
    tf = count_paths(triple_fan(6).graph, 3)
    fn = count_paths(fan(6).graph, 3)
    tf_canon = canonical_chords(6, triple_fan(6).chords)
    return [
        CaseResult("brute-max-3edge-paths", 33, res.maximum, res.maximum == 33),
        CaseResult("triple-fan-count", 33, tf, tf == 33),
        CaseResult("fan-count", 32, fn, fn == 32),
        CaseResult("triple-fan-is-maximizer", True, tf_canon in res.maximizers,
                   tf_canon in res.maximizers),
    ]


def _suite_triple_fan_beats_fan(params, jobs):
    n, k = params["n"], params["k"]
    if not 4 <= k <= n:  # the fan's closed form wants n > k - 1 >= 3 edges
        raise ValueError(f"suite 'triple-fan-beats-fan' needs n >= k >= 4, got n={n}, k={k}")
    cmp, closed = triple_fan_comparison(n, k), fan_path_count(n, k - 1)
    return [
        CaseResult(f"n{n}-P{k}-dominance", "triple > fan",
                   f"triple={cmp.triple} fan={cmp.fan}", cmp.triple > cmp.fan),
        CaseResult(f"n{n}-fan-closed-form", closed, cmp.fan, cmp.fan == closed),
    ]


def _suite_gamma(params, jobs):
    widths, lengths, products = params["max_t"], params["max_l"], params["max_l_products"]
    # a top bounds one parameter, so bound the schedules of every
    # enumeration below together before the first
    total = (sum(numeral_paths.count_schedules(length, t) for t in widths for length in lengths)
             + sum(numeral_paths.count_schedules(length, length + 1) for length in products))
    check_limit(total, GAMMA_SUITE_SCHEDULE_LIMIT,
                f"suite 'gamma' enumerations for max_l={lengths[-1]}, max_t={widths[-1]}, "
                f"max_l_products={products[-1]}: schedule total")
    cases = []
    for t in widths:
        for length in lengths:
            expected = numeral_paths.count_schedules(length, t)
            actual = sum(1 for _ in numeral_paths.enumerate_schedules(length, t))
            cases.append(CaseResult(f"count-vs-enumeration-L{length}-t{t}",
                                    expected, actual, expected == actual))
    for length in products:
        buckets: dict[tuple, int] = {}
        top = 0
        for sched in numeral_paths.enumerate_schedules(length, length + 1):
            mx = max(sched.values)
            top = max(top, mx)
            key = tuple(sched.values.count(v) for v in range(mx + 1))
            buckets[key] = buckets.get(key, 0) + 1
        mismatches = 0
        for key, count in sorted(buckets.items()):
            if numeral_paths.count_schedules_with_multiplicities(key) != count:
                mismatches += 1
        cases.append(CaseResult(f"multiplicity-products-L{length}", 0, mismatches,
                                mismatches == 0,
                                detail=f"{len(buckets)} multiplicity vectors"))
    for length in lengths:
        expected = catalan(length)
        width = max(length + 1, 2)  # smallest width whose cap is inactive
        actual = numeral_paths.count_schedules(length, width)
        wide = numeral_paths.count_schedules(length, width + 3)
        cases.append(CaseResult(f"uncapped-catalan-L{length}", expected,
                                actual, expected == actual == wide,
                                detail="cap inactive once width-2 >= length-1"))
    return cases


def _suite_injection(params, jobs):
    cases = []
    for base, width, k in params["triples"]:
        n, adjacent = numeral_paths._numeral_adjacency(base, width)
        schedules = list(numeral_paths.enumerate_schedules(k - 2 * width, width))
        expected_per_pair = numeral_paths.count_schedules(k - 2 * width, width)
        pairs = numeral_paths.admissible_pairs(base, width, k)
        violations = 0
        for a, b in pairs:
            seen = set()
            for sched in schedules:
                path = numeral_paths.schedule_to_path(a, b, sched, base, width, k)
                ok = (
                    len(path) == k + 1
                    and path[0] == a
                    and path[-1] == b
                    and len(set(path)) == len(path)
                    and all(0 <= v < n for v in path)
                    and all(adjacent(x, y) for x, y in zip(path, path[1:]))
                )
                if not ok:
                    violations += 1
                seen.add(tuple(path))
            if len(seen) != expected_per_pair:
                violations += 1
        cases.append(CaseResult(
            f"N{base}-t{width}-k{k}", 0, violations, violations == 0,
            detail=f"{len(pairs)} endpoint pairs x {expected_per_pair} schedules",
        ))
    return cases


def _suite_bounds_4k(params, jobs):
    ks, path_ns, density_ks = params["max_k_f"], params["max_n_paths"], params["max_k_density"]
    cases = []
    bounds = exactmath.path_count_bounds(max(ks[-1], path_ns[-1] - 1))
    bad = [k for k in ks if bounds.any_pair(k) > 4**k]
    cases.append(CaseResult("path-bound-below-4^k", 0, len(bad), not bad,
                            detail=f"k = {ks.start}..{ks[-1]}"))
    for n in path_ns:
        bad_ks = [k for k in range(1, n) if max_fixed_endpoint_paths(n, k) > bounds.any_pair(k)]
        cases.append(CaseResult(f"fixed-endpoint-max-below-bound-n{n}", 0,
                                len(bad_ks), not bad_ks,
                                detail="all edge counts, all pairs"))
    bad_density = [k for k in density_ks
                   if exactmath.subtree_density(k) >= 4**k]
    cases.append(CaseResult("subtree-density-below-4^k", 0, len(bad_density),
                            not bad_density,
                            detail=f"k = {density_ks.start}..{density_ks[-1]}"))
    for k in params["gamma_ks"]:
        t = isqrt(k)
        count = numeral_paths.count_schedules(k - 2 * t, t)
        floor = numeral_paths.schedule_count_lower_bound_exact(k)
        cases.append(CaseResult(f"schedule-count-above-floor-k{k}",
                                "count > floor",
                                f"count={count} floor={_textify(floor)}",
                                count > floor))
    return cases


def _suite_limit_bounds(params, jobs):
    ks = params["max_k"]
    bad = [k for k in ks if not (exactmath.density_lower_exact(k)
                                 <= exactmath.subtree_density(k) < Fraction(4)**k)]
    cases = [CaseResult("family-bound-brackets-density", 0, len(bad), not bad,
                        detail=f"k = {ks.start}..{ks[-1]}, exact rationals")]
    k = params["root_check_k"]
    density = exactmath.subtree_density(k)
    cases.append(CaseResult(f"kth-root-below-4-k{k}", True,
                            density < Fraction(4)**k, density < Fraction(4)**k,
                            detail="density^(1/k) < 4 checked as density < 4^k"))
    return cases


def _suite_star_blowup(params, jobs):
    probes = [
        ("P4", Pattern.path(3), 5, 25),
        ("P3", Pattern.path(2), 3, 9),
        ("K13", Pattern.tree(Tree(4, [(0, 1), (0, 2), (0, 3)])), 2, 8),
    ]
    cases = []
    for name, pattern, s, floor in probes:
        blown = star_blowup(pattern, s)
        got = subgraph_count(blown, pattern)
        cases.append(CaseResult(f"{name}-s{s}", f">= {floor}", got, got >= floor))
    return cases


def _suite_constructions(params, jobs):
    widths, fan_bases = params["max_t"], params["max_n_base"]
    family = [(base, width) for width in widths for base in range(2, fan_bases[-1] + 1)
              if base**width >= 3]
    # a top bounds one parameter, so bound the vertices of every host built
    # (the family, each width-1 host and its fan, N4-t2) before the first
    total = sum(base**width for base, width in family) + 2 * sum(fan_bases) + 16
    check_limit(total, HOST_VERTEX_LIMIT,
                f"suite 'constructions' hosts for max_t={widths[-1]}, "
                f"max_n_base={fan_bases[-1]}: vertex total")
    cases = []
    for base, width in family:
        # numeral_graph's checks in its order, on the chord stream alone
        n, chords = numeral_paths._numeral_stream(base, width)
        edge_count = n + sum(1 for _ in chords())  # the n sides, then the chords
        cases.append(CaseResult(
            f"N{base}-t{width}-triangulation", 2 * n - 3, edge_count,
            edge_count == 2 * n - 3,
            detail="construction already validated as polygon + chords",
        ))
    mismatched = [base for base in fan_bases
                  if numeral_paths.numeral_graph(base, 1).graph.edges
                  != fan(base).graph.edges]
    cases.append(CaseResult("width-1-equals-fan", 0, len(mismatched),
                            not mismatched,
                            detail=f"bases {fan_bases.start}..{fan_bases[-1]}"))
    expected_chords = [(0, 2), (0, 3), (0, 4), (0, 8), (0, 12), (4, 6), (4, 7),
                       (4, 8), (8, 10), (8, 11), (8, 12), (12, 14), (12, 15)]
    actual_chords = numeral_paths.numeral_graph(4, 2).sorted_chords()
    cases.append(CaseResult("base4-width2-chords",
                            [list(c) for c in expected_chords],
                            [list(c) for c in actual_chords],
                            actual_chords == expected_chords))
    return cases


# Each suite's defaults, then each int parameter's top.  A range parameter
# defaults to its range, the one place its first value is written, and an
# override names its top.  A sweep's top is its host guard; any other is the
# largest round value at which the suite runs in about 5 s, the rest at default.
_SWEEP_TOPS = {"max_n": BRUTE_FORCE_LIMIT}
_SUITES: dict[str, tuple[Callable, dict, dict]] = {
    "c-table": (_suite_c_table, {}, {}),
    "catalan-identity": (_suite_catalan_identity, {"max_k": range(1, 51)}, {"max_k": 3000}),
    "cycle-closed-forms": (_suite_cycle_closed_forms, {"max_n": range(3, 12)}, _SWEEP_TOPS),
    "cycle-bijection": (_suite_cycle_bijection, {"max_n": range(3, 11)}, _SWEEP_TOPS),
    "greedy-optimality": (_suite_greedy_optimality, {"max_n": range(3, 11)}, _SWEEP_TOPS),
    "p3-exact": (_suite_p3_exact, {"max_n": range(4, 11)}, _SWEEP_TOPS),
    "fan-formula": (_suite_fan_formula, {"max_n": range(4, 15)}, {"max_n": 40}),
    "counterexample-6": (_suite_counterexample_6, {}, {}),
    "triple-fan-beats-fan": (_suite_triple_fan_beats_fan, {"n": 45, "k": 6},
                             {"n": 600, "k": 20}),
    "gamma": (_suite_gamma, {"max_l": range(0, 13), "max_t": range(2, 7),
                             "max_l_products": range(1, 11)},
              {"max_l": 13, "max_t": 16, "max_l_products": 12}),
    "injection": (_suite_injection,
                  {"triples": ((10, 2, 8), (12, 2, 10), (30, 3, 14))}, {}),
    "bounds-4k": (_suite_bounds_4k,
                  {"max_k_f": range(0, 31), "max_n_paths": range(3, 11),
                   "max_k_density": range(1, 61), "gamma_ks": (16, 25, 36)},
                  {"max_k_f": 2000, "max_n_paths": FIXED_ENDPOINT_LIMIT, "max_k_density": 400}),
    "limit-bounds": (_suite_limit_bounds, {"max_k": range(16, 61), "root_check_k": 36},
                     {"max_k": 400, "root_check_k": 400}),
    "star-blowup": (_suite_star_blowup, {}, {}),
    "constructions": (_suite_constructions, {"max_t": range(1, 4), "max_n_base": range(3, 13)},
                      {"max_t": 5, "max_n_base": 40}),
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def verify_suite(name: str, *, jobs: int = 1, **overrides) -> VerificationReport:
    """Run a named suite with its default parameters (overridable) and
    return the deterministic report.  An override of a range parameter
    names the range's new top; one that empties a range or a family of
    cases, or passes an int parameter's top, is refused before the suite
    runs.  A ScaleLimitError raised here says to lower the value."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    func, defaults, tops = _SUITES[name]
    params = {key: d[-1] if isinstance(d, range) else d for key, d in defaults.items()}
    args = dict(defaults)  # what the suite loops over: ranges where params has their tops
    try:
        for key, value in overrides.items():
            if key not in defaults:
                raise ValueError(f"suite {name!r} takes no parameter {key!r}")
            default = defaults[key]
            want = int if isinstance(default, range) else type(default)
            kinds = (tuple, list) if want is tuple else want
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"suite {name!r} parameter {key!r} wants "
                                 f"{want.__name__}, got {value!r}")
            params[key] = args[key] = value
            if isinstance(default, range):
                args[key] = range(default.start, value + 1)
            if not args[key] and isinstance(default, (range, tuple)):
                what = "the family" if want is tuple else f"the range {default.start}..{value}"
                raise ValueError(f"suite {name!r} runs no cases with {key}={value!r}: "
                                 f"{what} is empty")
            check_limit(value, tops.get(key), f"suite {name!r} parameter {key}")
        cases = func(args, jobs)
    except ScaleLimitError as exc:
        exc.hint = "lower the value (verify_suite takes no limit)"
        raise
    if not cases:
        raise ValueError(f"suite {name!r} runs no cases with {params}")
    return VerificationReport(suite=name, params=params, cases=cases)
