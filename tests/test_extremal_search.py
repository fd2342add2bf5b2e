"""Brute-force maxima, closed forms, and the verification suites."""

from math import comb

import pytest

from opturan import extremal_search, graph_core
from opturan.exactmath import path_count_bounds
from opturan.extremal_search import (
    NOT_COVERED,
    ExtremalResult,
    Pattern,
    brute_force_many,
    brute_force_maximum,
    closed_form_maximum,
    max_fixed_endpoint_paths,
    suite_names,
    triple_fan_comparison,
    verify_suite,
)
from opturan.graph_core import (
    Mop,
    canonical_chords,
    count_patterns,
    cycle_histogram,
    enumerate_mop_orbits,
    enumerate_mops,
    fan,
    paths_between_histogram,
    triple_fan,
)
from opturan.guards import ScaleLimitError
from opturan.tree_engine import Tree


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def test_pattern_parse_and_describe():
    assert Pattern.parse("cycle:5") == Pattern.cycle(5)
    assert Pattern.parse("path:3") == Pattern.path(3)
    assert Pattern.cycle(4).describe() == "cycle:4"
    with pytest.raises(ValueError):
        Pattern.parse("clique:4")
    with pytest.raises(ValueError):
        Pattern.cycle(2)
    with pytest.raises(ValueError):
        Pattern.path(0)


def test_tree_pattern():
    spider = Pattern.tree(Tree(4, [(0, 1), (0, 2), (0, 3)]))
    assert spider.describe() == "tree:n=4"
    assert spider.automorphisms == 6


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

def test_brute_force_examples():
    assert brute_force_maximum(5, Pattern.cycle(3)).maximum == 3
    assert brute_force_maximum(6, Pattern.path(3)).maximum == 33
    assert brute_force_maximum(8, Pattern.cycle(6)).maximum == 6


def test_brute_force_maximizers_are_witnesses():
    res = brute_force_maximum(6, Pattern.path(3))
    assert res.maximizers == (canonical_chords(6, triple_fan(6).chords),)
    assert res.maximum == 33


def test_brute_force_dedup_toggle():
    with_dedup = brute_force_maximum(6, Pattern.cycle(3), dedup=True)
    without = brute_force_maximum(6, Pattern.cycle(3), dedup=False)
    # every triangulation has n-2 triangles, so everything is a maximizer
    assert without.maximum == with_dedup.maximum == 4
    assert len(without.maximizers) == 14
    assert len(with_dedup.maximizers) == 3


K13 = Pattern.tree(Tree(4, [(0, 1), (0, 2), (0, 3)]))
SPIDER5 = Pattern.tree(Tree(5, [(0, 1), (1, 2), (0, 3), (0, 4)]))


def labelled_scan(n, patterns):
    """The sweep without any orbit memo: every labelled host counted.
    Returns the results for dedup=True and for dedup=False."""
    hosts = [(tuple(m.sorted_chords()), count_patterns(m.graph, patterns))
             for m in enumerate_mops(n)]
    out = {True: [], False: []}
    for i, pattern in enumerate(patterns):
        best = max(counts[i] for _, counts in hosts)
        argmax = {chords for chords, counts in hosts if counts[i] == best}
        for dedup, reps in ((True, {canonical_chords(n, c) for c in argmax}),
                            (False, argmax)):
            out[dedup].append(ExtremalResult(n=n, pattern=pattern, maximum=best,
                                             maximizers=tuple(sorted(reps)), deduped=dedup))
    return out


def assert_sweep_matches_labelled_scan(n, patterns, jobs=1):
    expected = labelled_scan(n, patterns)
    for dedup in (True, False):
        assert brute_force_many(n, patterns, dedup=dedup, jobs=jobs) == expected[dedup]


@pytest.mark.parametrize("n", range(3, 10))
def test_path_sweep_matches_labelled_scan(n):
    assert_sweep_matches_labelled_scan(n, [Pattern.path(k) for k in range(1, n)])


def test_brute_force_tree_pattern_against_direct_scan():
    for n in range(3, 9):
        assert_sweep_matches_labelled_scan(n, [K13, SPIDER5])


def test_mixed_and_parallel_sweeps_match_labelled_scan():
    mixed = [Pattern.cycle(3), Pattern.path(2), Pattern.cycle(6), K13, Pattern.path(5)]
    assert_sweep_matches_labelled_scan(8, mixed)
    assert_sweep_matches_labelled_scan(8, mixed, jobs=2)


def test_sweep_counts_paths_per_orbit_and_cycles_per_host(monkeypatch):
    # perfbench pins one cycle_histogram and one Mop.graph call per
    # labelled host in an all-cycle sweep
    calls = {"path_histogram": 0, "cycle_histogram": 0, "Mop.graph": 0, "enumerate_mops": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(graph_core, "path_histogram", spy("path_histogram", graph_core.path_histogram))
    monkeypatch.setattr(graph_core, "cycle_histogram", spy("cycle_histogram", cycle_histogram))
    monkeypatch.setattr(Mop, "graph", property(spy("Mop.graph", Mop.graph.fget)))
    orbits, hosts = len(list(enumerate_mop_orbits(8))), len(list(enumerate_mops(8)))
    assert (orbits, hosts) == (12, 132)
    monkeypatch.setattr(extremal_search, "enumerate_mops",
                        spy("enumerate_mops", extremal_search.enumerate_mops))
    monkeypatch.setattr(graph_core, "enumerate_mops", spy("enumerate_mops", enumerate_mops))
    brute_force_many(8, [Pattern.path(2), Pattern.path(4)])
    assert calls == {"path_histogram": orbits, "cycle_histogram": 0, "Mop.graph": orbits,
                     "enumerate_mops": 0}
    calls.update(dict.fromkeys(calls, 0))
    brute_force_many(8, [Pattern.cycle(3), Pattern.cycle(5)])
    assert calls == {"path_histogram": 0, "cycle_histogram": hosts, "Mop.graph": hosts,
                     "enumerate_mops": 1}


def test_brute_force_jobs_match_serial():
    serial = brute_force_maximum(8, Pattern.path(3), jobs=1)
    parallel = brute_force_maximum(8, Pattern.path(3), jobs=3)
    assert serial == parallel


def test_tree_pattern_jobs_match_serial():
    # the pattern's lazily built graph and automorphism count cross a pickle
    spider = Pattern.tree(Tree(4, [(0, 1), (0, 2), (0, 3)]))
    serial = brute_force_maximum(7, spider)
    parallel = brute_force_maximum(7, spider, jobs=2)
    assert serial == parallel
    assert parallel.maximum > 0


def test_brute_force_guards():
    with pytest.raises(ScaleLimitError):
        brute_force_maximum(12, Pattern.cycle(3))
    spider = Pattern.tree(Tree(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(ScaleLimitError):
        brute_force_maximum(10, spider)
    assert brute_force_maximum(12, Pattern.cycle(3), limit=None).maximum == 10


@pytest.mark.parametrize("suite,max_n,guard", [
    ("cycle-bijection", 12, "polygon size n=12 exceeds the desk-scale guard 11;"),
    ("cycle-closed-forms", 12, "brute-force host size n=12 exceeds the desk-scale guard 11;"),
    ("greedy-optimality", 12, "brute-force host size n=12 exceeds the desk-scale guard 11;"),
    ("p3-exact", 12, "brute-force host size n=12 exceeds the desk-scale guard 11;"),
])
def test_suite_guard_fires_before_the_first_host(monkeypatch, suite, max_n, guard):
    def spy(n, *args, **kwargs):
        raise AssertionError(f"{suite} enumerated hosts at n={n}")

    # labelled hosts (cycle sweeps) and orbit representatives (path sweeps)
    monkeypatch.setattr(extremal_search, "enumerate_mops", spy)
    monkeypatch.setattr(extremal_search, "_orbit_keys", spy)
    with pytest.raises(AssertionError, match="enumerated hosts"):
        verify_suite(suite, max_n=5)  # the spies sit on the suite's route
    with pytest.raises(ScaleLimitError, match=guard):
        verify_suite(suite, max_n=max_n)


def test_brute_force_many_shares_enumeration():
    results = brute_force_many(7, [Pattern.cycle(3), Pattern.cycle(5),
                                   Pattern.path(2)])
    assert [r.maximum for r in results] == [5, 4, 29]


def test_dedup_canonicalises_each_maximizer_once(monkeypatch):
    calls = []

    def counting(n, chords):
        calls.append(chords)
        return canonical_chords(n, chords)

    monkeypatch.setattr(extremal_search, "canonical_chords", counting)
    # every host maximizes C3 and C4 alike: 42 hosts, 4 orbits
    results = brute_force_many(7, [Pattern.cycle(3), Pattern.cycle(4)])
    assert [len(r.maximizers) for r in results] == [4, 4]
    assert len(calls) == len(set(calls)) == 42
    calls.clear()
    assert verify_suite("greedy-optimality", max_n=7).passed
    assert calls == []


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,pattern,expected", [
    (6, Pattern.cycle(5), 3),
    (6, Pattern.path(2), 21),
    (7, Pattern.cycle(4), 4),
    (3, Pattern.cycle(3), 1),
    (8, Pattern.cycle(6), 6),
])
def test_closed_form_values(n, pattern, expected):
    assert closed_form_maximum(n, pattern) == expected


def test_closed_form_not_covered():
    assert closed_form_maximum(9, Pattern.cycle(7)) is NOT_COVERED
    assert closed_form_maximum(9, Pattern.path(3)) is NOT_COVERED
    assert closed_form_maximum(4, Pattern.cycle(5)) is NOT_COVERED
    assert repr(NOT_COVERED) == "NOT_COVERED"


def test_closed_forms_match_brute_force_small():
    for n in range(3, 10):
        for k in (3, 4, 5, 6):
            expected = closed_form_maximum(n, Pattern.cycle(k))
            if expected is NOT_COVERED:
                continue
            assert brute_force_maximum(n, Pattern.cycle(k)).maximum == expected


# ---------------------------------------------------------------------------
# Fixed-endpoint maxima
# ---------------------------------------------------------------------------

def test_max_fixed_endpoint_paths():
    assert max_fixed_endpoint_paths(4, 2) == 2
    bounds = path_count_bounds(10)
    for n in range(3, 9):
        for k in range(1, n):
            assert max_fixed_endpoint_paths(n, k) <= bounds.any_pair(k)
    with pytest.raises(ScaleLimitError):
        max_fixed_endpoint_paths(11, 3)
    with pytest.raises(ValueError):
        max_fixed_endpoint_paths(5, 5)


def test_fixed_endpoint_maxima_match_labeled_sweep():
    for n in range(4, 10):
        best = [0] * n
        for m in enumerate_mops(n):
            for u in range(n):
                for (v, e), c in paths_between_histogram(m.graph, u).items():
                    best[e] = max(best[e], c)
        assert extremal_search._fixed_endpoint_maxima(n) == tuple(best)


def test_adjacent_pair_paths_below_catalan():
    # consecutive outer vertices: r-edge path counts stay below C(r-1)
    bounds = path_count_bounds(10)
    for n in range(3, 9):
        for m in enumerate_mops(n):
            g = m.graph
            hist = paths_between_histogram(g, 0)
            for (v, e), c in hist.items():
                if v in (1, n - 1):  # consecutive with 0 on the polygon
                    assert c <= bounds.adjacent_pair(e)


# ---------------------------------------------------------------------------
# Triple fan comparison
# ---------------------------------------------------------------------------

def test_triple_fan_comparison_small():
    cmp = triple_fan_comparison(6, 4)
    assert cmp == (33, 32)
    assert cmp.triple == 33 and cmp.fan == 32


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def test_suite_names_and_errors():
    names = suite_names()
    assert "c-table" in names and "injection" in names
    with pytest.raises(ValueError):
        verify_suite("no-such-suite")
    with pytest.raises(ValueError):
        verify_suite("c-table", bogus=3)
    with pytest.raises(ValueError, match="triples"):
        verify_suite("injection", triples=1)
    with pytest.raises(ValueError, match="no cases"):
        verify_suite("catalan-identity", max_k=0)
    with pytest.raises(ValueError, match=r"gamma_ks=\(\)"):
        verify_suite("bounds-4k", gamma_ks=())


def test_suite_param_override():
    report = verify_suite("catalan-identity", max_k=5)
    assert len(report.cases) == 5
    assert report.passed


def test_suite_reports_deterministic():
    one = verify_suite("gamma", max_l=6, max_t=4, max_l_products=5)
    two = verify_suite("gamma", max_l=6, max_t=4, max_l_products=5)
    assert one.to_text() == two.to_text()
    assert one.to_json_obj() == two.to_json_obj()
    assert one.passed


def test_suite_json_shape():
    obj = verify_suite("c-table").to_json_obj()
    assert obj["suite"] == "c-table"
    assert obj["passed"] is True
    case = obj["cases"][2]
    assert case["case"] == "cycle-density-k5"
    assert case["expected"] == {"num": "3", "den": "2"}


def test_p3_suite_passes_away_from_six():
    report = verify_suite("p3-exact", max_n=5)
    assert report.passed


def test_p3_maximizers_at_six_are_fan_and_triple_fan():
    # the 2-edge path count 21 is attained by two isomorphism classes at
    # n=6, and the p3-exact suite expects exactly those two there
    both = tuple(sorted({
        canonical_chords(6, fan(6).chords),
        canonical_chords(6, triple_fan(6).chords),
    }))
    res = brute_force_maximum(6, Pattern.path(2))
    assert res.maximum == 21
    assert res.maximizers == both
    report = verify_suite("p3-exact", max_n=6)
    assert report.passed
    case = next(c for c in report.cases if c.case == "n6-maximizer-classes")
    classes = [[list(ch) for ch in m] for m in both]
    assert case.expected == case.actual == classes
    # without the DFS: a 2-edge path is a vertex with two of its
    # neighbours, so the count is sum C(deg, 2), and a hexagon vertex has
    # degree 2 plus the number of chords at it
    mops = list(enumerate_mops(6))
    assert len(mops) == 14
    counts = {}
    for mop in mops:
        deg = [2 + sum(v in ch for ch in mop.chords) for v in range(6)]
        counts[canonical_chords(6, mop.chords)] = sum(comb(d, 2) for d in deg)
    top = max(counts.values())
    assert top == 21
    assert tuple(sorted(c for c, v in counts.items() if v == top)) == both


def test_parallel_suite_report_identical():
    serial = verify_suite("cycle-closed-forms", max_n=8, jobs=1)
    parallel = verify_suite("cycle-closed-forms", max_n=8, jobs=2)
    assert serial.to_text() == parallel.to_text()
    assert serial.passed


def test_bijection_and_greedy_extend_to_eleven():
    # one size past the acceptance range, still exact
    assert verify_suite("cycle-bijection", max_n=11).passed
    assert verify_suite("greedy-optimality", max_n=11).passed
