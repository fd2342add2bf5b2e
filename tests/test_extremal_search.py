"""Brute-force maxima, closed forms, and the verification suites."""

import hashlib
import itertools
import json
import multiprocessing
import os
import tracemalloc
from math import comb

import jsonschema
import pytest

from opturan import exactmath, extremal_search, graph_core, numeral_paths, tree_engine
from opturan.cli import OUTPUT_SCHEMA
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
    count_cycles,
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
MIXED = [Pattern.cycle(3), Pattern.path(2), Pattern.cycle(6), K13, Pattern.path(5)]


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
    cycles = [Pattern.cycle(k) for k in range(3, 9)]  # the labelled-host route
    for patterns in (MIXED, cycles):
        assert_sweep_matches_labelled_scan(8, patterns)
        assert_sweep_matches_labelled_scan(8, patterns, jobs=2)


def test_deduped_cycle_sweep_holds_one_tuple_per_orbit():
    # C3 and C4 tie at all 4862 hosts; keeping each labelled maximizer and
    # a canonical copy until the sweep ended took 4.3 MB here
    patterns = [Pattern.cycle(k) for k in range(3, 12)]
    brute_force_many(6, patterns[:4])  # imports and lazy state before the trace
    tracemalloc.start()
    try:
        results = brute_force_many(11, patterns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(r.maximizers) for r in results[:2]] == [228, 228]
    assert peak < 2**20


def test_sweep_canonicalises_only_hosts_at_the_running_maximum(monkeypatch):
    calls = []

    def counting(n, chords):
        calls.append(frozenset(chords))
        return canonical_chords(n, chords)

    monkeypatch.setattr(extremal_search, "canonical_chords", counting)
    result = brute_force_maximum(9, Pattern.cycle(5))
    # the same stream, in the same order: hosts that tie or beat the maximum so far
    best, reaching, hosts = -1, 0, 0
    for mop in enumerate_mops(9):
        c = count_cycles(mop.graph, 5)
        hosts += 1
        if c >= best:
            best, reaching = c, reaching + 1
    assert result.maximum == best
    assert len(calls) == len(set(calls))  # no host twice
    assert len(result.maximizers) <= len(calls) <= reaching < hosts


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


SPLIT_PATTERNS = {
    "cycles": [Pattern.cycle(k) for k in range(3, 9)],  # the labelled-host route
    "paths": [Pattern.path(k) for k in range(1, 8)],
    "trees": [K13, SPIDER5],
    "mixed": MIXED,
}


@pytest.mark.parametrize("kind", sorted(SPLIT_PATTERNS))
@pytest.mark.parametrize("n", range(3, 9))
def test_round_robin_split_matches_serial(monkeypatch, n, kind):
    # four CPUs, so jobs 2 and 3 start a pool on any machine; at n = 3 and
    # n = 4 some workers get no host at all
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    patterns = SPLIT_PATTERNS[kind]
    for dedup in (True, False):
        serial = brute_force_many(n, patterns, dedup=dedup)
        for jobs in (2, 3):
            assert brute_force_many(n, patterns, dedup=dedup, jobs=jobs) == serial


def test_sweep_workers_are_capped_at_the_cpu_count(monkeypatch):
    # one worker per orbit would ask for 228 at n = 11; the spy pool runs
    # every share in this process, so no worker starts
    asked = []

    class SpyPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, args):
            return list(itertools.starmap(func, args))

    monkeypatch.setattr(multiprocessing, "Pool", SpyPool)
    path3 = [Pattern.path(3)]
    serial = brute_force_many(11, path3)
    assert brute_force_many(11, path3, jobs=1000) == serial
    assert all(w <= (os.cpu_count() or 1) for w in asked)
    for cpus, pools in ((4, [4]), (None, [])):
        asked.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert brute_force_many(11, path3, jobs=1000) == serial
        assert asked == pools


def test_brute_force_guards():
    with pytest.raises(ScaleLimitError, match="; pass limit=None .* to override$"):
        brute_force_maximum(12, Pattern.cycle(3))
    spider = Pattern.tree(Tree(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(ScaleLimitError):
        brute_force_maximum(10, spider)
    assert brute_force_maximum(12, Pattern.cycle(3), limit=None).maximum == 10


@pytest.mark.parametrize("suite", ["cycle-bijection", "cycle-closed-forms",
                                   "greedy-optimality", "p3-exact"])
def test_suite_guard_fires_before_the_first_host(monkeypatch, suite):
    def spy(n, *args, **kwargs):
        raise AssertionError(f"{suite} enumerated hosts at n={n}")

    # labelled hosts (cycle sweeps) and orbit representatives (path sweeps)
    monkeypatch.setattr(extremal_search, "enumerate_mops", spy)
    monkeypatch.setattr(extremal_search, "_orbit_keys", spy)
    with pytest.raises(AssertionError, match="enumerated hosts"):
        verify_suite(suite, max_n=5)  # the spies sit on the suite's route
    with pytest.raises(ScaleLimitError) as err:
        verify_suite(suite, max_n=12)
    # verify_suite takes no limit, so its hint must not offer limit=None;
    # args[0], which the CLI prints, keeps only the reason
    guard = f"suite {suite!r} parameter max_n=12 exceeds the desk-scale guard 11"
    assert err.value.args[0] == guard
    assert str(err.value) == f"{guard}; lower the value (verify_suite takes no limit)"


def test_fixed_endpoint_guard_fires_before_a_bounds_table(monkeypatch):
    real = exactmath.path_count_bounds

    def small_only(k_max):
        assert k_max <= 10, f"bounds-4k built a path table to k={k_max}"
        return real(k_max)

    monkeypatch.setattr(exactmath, "path_count_bounds", small_only)
    guard = "suite 'bounds-4k' parameter max_n_paths=1000000 exceeds the desk-scale guard 10"
    with pytest.raises(ScaleLimitError) as err:
        verify_suite("bounds-4k", max_k_f=10, max_n_paths=10**6)
    assert err.value.args[0] == guard
    # one table serves both cases: here it runs to the fixed-endpoint hosts' k = 9
    assert verify_suite("bounds-4k", max_k_f=5).passed


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


def test_constructions_bounds_its_hosts_together(monkeypatch):
    class Built(Exception):
        pass

    def no_host(*args, **kwargs):
        raise Built

    monkeypatch.setattr(numeral_paths, "numeral_graph", no_host)
    monkeypatch.setattr(numeral_paths, "_numeral_chords", no_host)
    # each top alone passes the bound and reaches the first host ...
    for top in ({"max_t": 5}, {"max_n_base": 40}):
        with pytest.raises(Built):
            verify_suite("constructions", **top)
    # ... both together are refused before it
    with pytest.raises(ScaleLimitError) as err:
        verify_suite("constructions", max_t=5, max_n_base=40)
    assert err.value.args[0] == ("suite 'constructions' hosts for max_t=5, max_n_base=40: "
                                 "vertex total=757411535 exceeds the desk-scale guard 1000000")


def test_gamma_bounds_its_schedules_together(monkeypatch):
    class Listed(Exception):
        pass

    def no_listing(*args, **kwargs):
        calls.append(args)
        raise Listed

    calls = []
    monkeypatch.setattr(numeral_paths, "enumerate_schedules", no_listing)
    # each top alone passes the bound and reaches the first enumeration ...
    for top in ({"max_l": 13}, {"max_t": 16}, {"max_l_products": 12}):
        with pytest.raises(Listed):
            verify_suite("gamma", **top)
    assert len(calls) == 3
    # ... all three together are refused before it, from the exact total
    with pytest.raises(ScaleLimitError) as err:
        verify_suite("gamma", max_l=13, max_t=16, max_l_products=12)
    assert err.value.args[0] == ("suite 'gamma' enumerations for max_l=13, max_t=16, "
                                 "max_l_products=12: schedule total=11643063 exceeds the "
                                 "desk-scale guard 4000000")
    assert len(calls) == 3


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
    # limit=None lifts this guard but not that of the orbit stream below it
    with pytest.raises(ScaleLimitError, match="; lower n .*takes no limit"):
        max_fixed_endpoint_paths(17, 3, limit=None)
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


def test_suite_int_parameter_refuses_a_bool():
    # bool is an int subclass, but True names no range top and no size
    for key in ("max_k", "root_check_k"):
        with pytest.raises(ValueError, match=f"'{key}' wants int, got True"):
            verify_suite("limit-bounds", **{key: True})


def test_suite_loops_over_ranges_and_reports_their_tops(monkeypatch):
    seen = []

    def spy(params, jobs):
        seen.append(params)
        return [extremal_search.CaseResult("spy", 0, 0, True)]

    _, defaults, tops = extremal_search._SUITES["bounds-4k"]
    monkeypatch.setitem(extremal_search._SUITES, "bounds-4k", (spy, defaults, tops))
    report = verify_suite("bounds-4k", max_n_paths=4, gamma_ks=[16])
    assert seen == [{"max_k_f": range(0, 31), "max_n_paths": range(3, 5),
                     "max_k_density": range(1, 61), "gamma_ks": [16]}]
    assert report.params == {"max_k_f": 30, "max_n_paths": 4, "max_k_density": 60,
                             "gamma_ks": [16]}
    # an empty range or family is refused before the suite runs
    for key, value, message in (("max_n_paths", 2, "the range 3..2 is empty"),
                                ("gamma_ks", (), "the family is empty")):
        with pytest.raises(ValueError) as err:
            verify_suite("bounds-4k", **{key: value})
        assert str(err.value) == (f"suite 'bounds-4k' runs no cases with "
                                  f"{key}={value!r}: {message}")
    assert len(seen) == 1


def _int_tops():
    return [(suite, key, top) for suite, (_, _, tops) in sorted(extremal_search._SUITES.items())
            for key, top in sorted(tops.items())]


@pytest.mark.parametrize("suite,key,top", _int_tops())
def test_suite_tops_are_checked_before_the_suite_runs(monkeypatch, suite, key, top):
    seen = []

    def spy(params, jobs):
        seen.append(params[key])
        return [extremal_search.CaseResult("spy", 0, 0, True)]

    _, defaults, tops = extremal_search._SUITES[suite]
    monkeypatch.setitem(extremal_search._SUITES, suite, (spy, defaults, tops))
    default = defaults[key]
    assert (default[-1] if isinstance(default, range) else default) <= top
    with pytest.raises(ScaleLimitError) as err:
        verify_suite(suite, **{key: top + 1})
    assert err.value.args[0] == (f"suite {suite!r} parameter {key}={top + 1} "
                                 f"exceeds the desk-scale guard {top}")
    assert seen == []
    report = verify_suite(suite, **{key: top})
    assert seen == [range(default.start, top + 1) if isinstance(default, range) else top]
    assert report.params[key] == top


def test_every_int_parameter_has_a_top():
    for suite, (_, defaults, tops) in extremal_search._SUITES.items():
        ints = {key for key, d in defaults.items() if isinstance(d, (range, int))}
        assert set(tops) == ints, suite


@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (6, 7), (12, 13)])
def test_triple_fan_suite_names_the_values_it_refuses(n, k):
    with pytest.raises(ValueError) as err:
        verify_suite("triple-fan-beats-fan", n=n, k=k)
    assert str(err.value) == (f"suite 'triple-fan-beats-fan' needs n >= k >= 4, "
                              f"got n={n}, k={k}")


# sha256 of each suite's default report, to_text() followed by the JSON of
# to_json_obj(); computed at commit d51694e, before the suite table held
# the ranges, so every default report is byte-identical to that commit's
DEFAULT_REPORT_SHA256 = {
    "bounds-4k": "c0116b82c5b289efc7029112d7906d9efb04bc49de1c368a9f4b69ec41999843",
    "c-table": "d3b09402842aa0c3e87daaf3fad42d222ab32b43fa0ca0f6ae3d2450b3610079",
    "catalan-identity": "47d84e6f55743a5b6cb66b497e4f2120a0eb6a29605449f8988bd4c32a747a59",
    "constructions": "83166107e37083d9ee67ca97670ed486a06ef133477feb51a9ea985a6fd53cd8",
    "counterexample-6": "add36774e8f52157c387e56097461be5c82f70fa47035131157bdb79b0b6bb26",
    "cycle-bijection": "8898494d014e19ae1a62d88ca28465e9b7c12fb02158d32e818c00ea18eda2ea",
    "cycle-closed-forms": "5db786ea542db689ae0bbdd84d34d2ed3dc72a85e38bbac62606deb259d26636",
    "fan-formula": "51414b4c0095035a6f65efca61eb83d55826e7d9c577f524d23fd6f1358cfcd0",
    "gamma": "b28c94689e32f52764e5d215d6082d7b3ff76f43c1a794c52831ec413ed87f37",
    "greedy-optimality": "be52b484ec420526a2a0ca9d8a69d3e2d1d5dfec1423337949e09d940b6e4b8e",
    "injection": "cce8d7e65dc7cae9f44cbe73688cc30218a9bf940b0be6e1d9a1204c65c6f907",
    "limit-bounds": "69758cbeedeed5727977947f769b0e6b7f88563dadd1559e66beab7c2b098dfd",
    "p3-exact": "a0eb37b11cabf46616986a1dd95d078b6823dd4c3327590bc434d6d23f996264",
    "star-blowup": "d9f9bee57d76a2c17cefca06e3462b24f8e9d45faf07f0de202cb3ca4096ad0d",
    "triple-fan-beats-fan": "c9cd3cd90632464c64d09a31e0ebf8fdd1d9eb70b6961ff74e0abdb26235ece0",
}


@pytest.mark.parametrize("name", sorted(DEFAULT_REPORT_SHA256))
def test_default_reports_are_pinned(suite_report, name):
    assert sorted(DEFAULT_REPORT_SHA256) == suite_names()
    report = suite_report(name)  # the run test_acceptance makes at the same values
    blob = report.to_text() + json.dumps(report.to_json_obj())
    assert hashlib.sha256(blob.encode()).hexdigest() == DEFAULT_REPORT_SHA256[name]


# numeral_graph(10, 2) has one schedule per endpoint pair at k = 8, so a
# path may stand in for the schedule's own path of the pair (88, 99)
_BAD_STEPS = {
    "step 82-0 is no edge": [88, 87, 86, 85, 84, 83, 82, 0, 99],
    "vertex 100 is off the polygon": [88, 87, 86, 85, 80, 0, 1, 100, 99],
}


def _injection_with_path(monkeypatch, path):
    real = numeral_paths.schedule_to_path
    used = []

    def fake(a, b, sched, base, width, k):
        if (a, b) == (88, 99):
            used.append(path)
            return list(path)
        return real(a, b, sched, base, width, k)

    monkeypatch.setattr(numeral_paths, "schedule_to_path", fake)
    [case] = verify_suite("injection", triples=((10, 2, 8),)).cases
    assert used == [path]
    return case


@pytest.mark.parametrize("why", sorted(_BAD_STEPS))
def test_injection_counts_a_path_off_the_host(monkeypatch, why):
    case = _injection_with_path(monkeypatch, _BAD_STEPS[why])
    assert (case.actual, case.passed) == (1, False)


def test_injection_accepts_the_closing_side(monkeypatch):
    path = [88, 87, 86, 85, 84, 83, 80, 0, 99]
    host = numeral_paths.numeral_graph(10, 2)
    assert all(host.graph.adjacent(x, y) for x, y in zip(path, path[1:]))
    assert (0, 99) not in host.chords  # a side, not a chord
    case = _injection_with_path(monkeypatch, path)
    assert (case.actual, case.passed) == (0, True)


def test_injection_holds_no_host(suite_report):
    # 4.76 MB traced while the suite built numeral_graph(30, 3) as a Mop;
    # 0.22 MB with only the chord spans of each left end
    verify_suite("injection", triples=((10, 2, 8),))  # imports before the trace
    tracemalloc.start()
    try:
        report = verify_suite("injection")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.to_text() == suite_report("injection").to_text()
    assert peak < 2**20


def test_injection_builds_neither_numeral_graph_nor_mop(monkeypatch):
    class Built(Exception):
        pass

    def no_host(*args, **kwargs):
        raise Built

    monkeypatch.setattr(numeral_paths, "numeral_graph", no_host)
    monkeypatch.setattr(Mop, "__post_init__", no_host)
    assert verify_suite("injection", triples=((10, 2, 8), (12, 2, 10))).passed


def test_injection_names_a_broken_digit_rule_as_numeral_graph_does(monkeypatch):
    # (5, 15) crosses the chords (0, 6) to (0, 10); the stream stays sorted
    rule = numeral_paths._numeral_chords
    monkeypatch.setattr(numeral_paths, "_numeral_chords",
                        lambda base, width, n: iter(sorted([*rule(base, width, n), (5, 15)])))
    with pytest.raises(RuntimeError) as want:
        numeral_paths.numeral_graph(10, 2)
    with pytest.raises(RuntimeError) as got:
        verify_suite("injection", triples=((10, 2, 8),))
    assert str(got.value) == str(want.value) == (
        "digit-rule edge set for base=10, width=2 is not a triangulation: "
        "chords (0, 6) and (5, 15) cross")


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


@pytest.mark.parametrize("name,overrides,key,nested", [
    ("injection", {"triples": ((10, 2, 8),)}, "triples", [[10, 2, 8]]),
    ("bounds-4k", {"max_k_f": 8, "max_n_paths": 4, "max_k_density": 6,
                   "gamma_ks": (16, 25)}, "gamma_ks", [16, 25]),
])
def test_suite_json_with_tuple_params(name, overrides, key, nested):
    report = verify_suite(name, **overrides)
    assert report.passed
    obj = report.to_json_obj()
    assert obj["params"][key] == nested
    envelope = {"command": "verify", "params": {"suite": name}, "result": obj}
    jsonschema.validate(json.loads(json.dumps(envelope)), OUTPUT_SCHEMA)
    # the text table has one row per case between its rule and "overall:"
    lines = report.to_text().splitlines()
    rule = next(i for i, line in enumerate(lines) if set(line) <= {"-", " "})
    assert lines[-1] == "overall: pass"
    assert len(obj["cases"]) == len(report.cases) == len(lines) - rule - 2


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


def test_parallel_greedy_report_identical(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so jobs=2 starts two workers
    serial = verify_suite("greedy-optimality", max_n=8, jobs=1)
    parallel = verify_suite("greedy-optimality", max_n=8, jobs=2)
    assert serial.to_text() == parallel.to_text()
    assert serial.passed


def _failing(report):
    return [case.case for case in report.cases if not case.passed]


def test_bijection_fails_on_a_perturbed_cycle_count(monkeypatch):
    real = graph_core._increasing_cycle_histogram
    target = fan(7).graph.edges

    def perturbed(g, max_k=None):
        hist = real(g, max_k)
        if g.edges == target:
            hist[5] += 1
        return hist

    monkeypatch.setattr(graph_core, "_increasing_cycle_histogram", perturbed)
    report = verify_suite("cycle-bijection", max_n=8)
    assert _failing(report) == ["n7-cycles-equal-dual-subtrees"]
    assert [case.actual for case in report.cases] == [0, 0, 0, 0, 1, 0]


def test_bijection_fails_on_a_perturbed_dual_count(monkeypatch):
    real = graph_core._dual_subtree_counts
    target = fan(7).chords

    def perturbed(mop):
        counts = real(mop)
        if mop.chords == target:
            counts[3] += 1
        return counts

    monkeypatch.setattr(extremal_search, "_dual_subtree_counts", perturbed)
    report = verify_suite("cycle-bijection", max_n=8)
    assert _failing(report) == ["n7-cycles-equal-dual-subtrees"]


def test_greedy_fails_on_a_perturbed_tree_count(monkeypatch):
    real = tree_engine.count_subtrees

    def perturbed(tree, k):
        return real(tree, k) + (tree.n == 5 and k == 3)

    monkeypatch.setattr(extremal_search, "count_subtrees", perturbed)
    assert _failing(verify_suite("greedy-optimality", max_n=8)) == ["n7-k5"]


def test_greedy_fails_on_a_perturbed_orbit_count(monkeypatch):
    # the orbit route counts the fan of 7 only as its orbit's representative
    target = Mop(7, frozenset(canonical_chords(7, fan(7).chords))).graph.edges
    real = graph_core.cycle_histogram
    counted = []

    def perturbed(g, max_k=None):
        counted.append(g.n)
        hist = real(g, max_k)
        if g.edges == target:
            hist[5] += 10
        return hist

    monkeypatch.setattr(graph_core, "cycle_histogram", perturbed)
    assert _failing(verify_suite("greedy-optimality", max_n=8)) == ["n7-k5"]
    # one host per orbit: 1, 1, 1, 3, 4 and 12 at n = 3..8
    assert counted == [n for n in range(3, 9) for _ in enumerate_mop_orbits(n)]


def test_bijection_and_greedy_extend_to_eleven():
    # one size past the acceptance range, still exact
    assert verify_suite("cycle-bijection", max_n=11).passed
    assert verify_suite("greedy-optimality", max_n=11).passed
