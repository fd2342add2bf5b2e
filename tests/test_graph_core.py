"""Host graphs, triangulation enumeration, and the counting oracles."""

import itertools
import sys
import threading
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from opturan import graph_core
from opturan.exactmath import catalan
from opturan.graph_core import (
    CrossingChords,
    DuplicateChord,
    Graph,
    InvalidChord,
    Mop,
    MopError,
    Pattern,
    Tree,
    WrongChordCount,
    _count_injective_maps,
    _decode,
    _dihedral_images,
    _check_sorted_chords,
    _fan_chords,
    _first_crossing,
    _orbit_key,
    _sorted_edges,
    _walk,
    _walk_cycle_histogram,
    canonical_chords,
    count_cycles,
    count_paths,
    count_paths_between,
    cycle_histogram,
    enumerate_mop_orbits,
    enumerate_mops,
    fan,
    fan_path_count,
    format_edge_list,
    graph_to_dot,
    parse_edge_list,
    path_histogram,
    paths_between_histogram,
    star_blowup,
    subgraph_count,
    triple_fan,
)
from opturan.guards import ScaleLimitError
from opturan.tree_engine import enumerate_bounded_trees


def k4_minus_edge():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


# ---------------------------------------------------------------------------
# Mop validation
# ---------------------------------------------------------------------------

def test_mop_triangle_and_fan():
    assert Mop(3).graph.edge_count() == 3
    m = Mop(5, frozenset({(0, 2), (0, 3)}))
    assert m.graph.edge_count() == 7
    assert m.triangles() == ((0, 1, 2), (0, 2, 3), (0, 3, 4))


def test_mop_crossing_chords():
    with pytest.raises(CrossingChords) as err:
        Mop(4, frozenset({(0, 2), (1, 3)}))
    assert "(0, 2)" in str(err.value) and "(1, 3)" in str(err.value)


def test_mop_wrong_chord_count():
    with pytest.raises(WrongChordCount):
        Mop(5, frozenset({(0, 2)}))
    with pytest.raises(WrongChordCount):
        Mop(4)


def test_mop_duplicate_chord():
    with pytest.raises(DuplicateChord):
        Mop(5, [(0, 2), (2, 0), (0, 3)])


def test_mop_invalid_chord():
    with pytest.raises(InvalidChord):
        Mop(5, [(0, 1), (0, 2)])  # polygon edge, not a diagonal
    with pytest.raises(InvalidChord):
        Mop(5, [(0, 7), (0, 2)])


@pytest.mark.parametrize("chords,error,message", [
    # chords are checked one by one in the order given: the first fault wins
    ([(0, 2), (2, 0), (0, 9)], DuplicateChord, "chord (0, 2) given twice"),
    ([(0, 9), (0, 2), (2, 0)], InvalidChord, "chord (0,9) outside vertex range 0..5"),
    ([(3, 1), [1, 3], (4, 4)], DuplicateChord, "chord (1, 3) given twice"),
    ([(4, 4), (3, 1), [1, 3]], InvalidChord, "chord (4,4) is a loop"),
    ([(0, 2), (5, 0)], InvalidChord, "chord (0,5) is not a diagonal of the 6-gon"),
    ([(-1, 2)], InvalidChord, "chord (-1,2) outside vertex range 0..5"),
    ([(0, 2), (1, 3), (0, 3)], CrossingChords, "chords (0, 2) and (1, 3) cross"),
    ([(0, 2), (0, 3)], WrongChordCount, "2 chords on a 6-gon; a triangulation has 3"),
])
def test_mop_error_order_and_messages(chords, error, message):
    with pytest.raises(error) as err:
        Mop(6, chords)
    assert str(err.value) == message


def _stream_faults(n, chords):
    """(name, chords) pairs: the sorted chords of a host on the n-gon with
    one fault put in, kept in sorted order where the fault allows."""
    i = len(chords) // 2
    # a triangulation is maximal, so any other diagonal crosses a chord
    extra = next((a, b) for a, b in itertools.combinations(range(n), 2)
                 if 2 <= b - a <= n - 2 and (a, b) not in chords)
    yield "repeat", chords[:i + 1] + chords[i:]
    yield "missing", chords[:i] + chords[i + 1:]
    yield "crossing", sorted(chords + [extra])
    yield "side", sorted(chords + [(i, i + 1)])
    yield "loop", sorted(chords + [(i, i)])
    yield "outside", chords + [(n - 2, n)]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_sorted_chord_checks_raise_what_mop_raises(n):
    for m in enumerate_mops(n):
        chords = m.sorted_chords()
        _check_sorted_chords(n, iter(chords))
        for name, faulty in _stream_faults(n, chords):
            with pytest.raises(MopError) as want:
                Mop(n, faulty)
            with pytest.raises(MopError) as got:
                _check_sorted_chords(n, iter(faulty))
            assert type(got.value) is type(want.value), (name, faulty)
            assert str(got.value) == str(want.value), (name, faulty)


def test_sorted_chord_checks_name_the_first_fault_in_stream_order():
    # Mop checks every chord before its sweep, so with two faults it may
    # name a later one; the stream stops at the first it reads
    crossing_then_loop = [(0, 3), (1, 4), (2, 4), (5, 5)]
    with pytest.raises(InvalidChord):
        Mop(7, crossing_then_loop)
    with pytest.raises(CrossingChords) as err:
        _check_sorted_chords(7, iter(crossing_then_loop))
    assert str(err.value) == "chords (0, 3) and (1, 4) cross"
    crossing_then_repeat = [(0, 3), (1, 4), (2, 4), (2, 4)]
    with pytest.raises(DuplicateChord):
        Mop(7, crossing_then_repeat)
    with pytest.raises(CrossingChords):
        _check_sorted_chords(7, iter(crossing_then_repeat))


def test_sorted_chord_checks_refuse_chords_mop_would_sort_or_turn():
    # Mop takes a chord set in any order and in either direction; a stream
    # must be written as Mop keeps it, or its text would differ
    chords = fan(7).sorted_chords()
    swapped = [chords[1], chords[0], *chords[2:]]
    turned = [(2, 0), *chords[1:]]
    assert Mop(7, swapped) == Mop(7, turned) == fan(7)
    with pytest.raises(MopError) as err:
        _check_sorted_chords(7, swapped)
    assert str(err.value) == "chord (0, 2) comes after (0, 3), out of sorted order"
    with pytest.raises(InvalidChord) as err:
        _check_sorted_chords(7, turned)
    assert str(err.value) == "chord (2, 0) is not a tuple (a, b) with a < b"
    with pytest.raises(MopError) as err:
        _check_sorted_chords(2, [])
    assert str(err.value) == "polygon needs at least 3 vertices, got 2"


def test_mop_validation_keeps_normal_chord_tuples():
    for m in enumerate_mops(8):
        chords = list(m.chords)
        again = Mop(8, chords)
        assert again == m
        assert {id(c) for c in again.chords} == {id(c) for c in chords}
    # a reversed pair or a list is normalised into a new tuple
    m = Mop(6, [(2, 0), [0, 3], (3, 5)])
    assert m.chords == {(0, 2), (0, 3), (3, 5)}
    assert all(type(c) is tuple for c in m.chords)


@pytest.mark.parametrize("freeze", [set, frozenset])
def test_mop_duplicate_chord_in_a_set(freeze):
    # a set can only repeat a chord reversed, which takes the checking loop
    with pytest.raises(DuplicateChord) as err:
        Mop(5, freeze({(0, 2), (2, 0)}))
    assert str(err.value) == "chord (0, 2) given twice"


def test_mop_keeps_a_frozenset_of_normal_chords():
    chords = frozenset({(0, 2), (0, 3), (3, 5)})
    assert Mop(6, chords).chords is chords
    # a set takes the checking loop, which keeps its normal tuples
    given = {(0, 2), (0, 3), (3, 5)}
    m = Mop(6, given)
    assert type(m.chords) is frozenset and m.chords == given
    assert {id(c) for c in m.chords} == {id(c) for c in given}
    # one chord to normalise sends the whole set through the loop
    m = Mop(6, frozenset({(0, 2), (3, 0), (3, 5)}))
    assert m.chords == chords and all(type(c) is tuple for c in m.chords)
    for host in enumerate_mops(7):
        assert Mop(7, host.chords).chords is host.chords
    for host in enumerate_mop_orbits(9):
        assert Mop(9, host.chords).chords is host.chords


def test_mop_sorted_edges_are_its_graphs():
    for m in [*enumerate_mops(7), triple_fan(12), fan(9), Mop(3), Mop(4, {(1, 3)})]:
        assert list(_sorted_edges(m.n, m.sorted_chords())) == sorted(m.graph.edges)


def test_mop_graph_shares_the_mops_chord_tuples():
    for m in [*enumerate_mops(7), triple_fan(12), fan(9)]:
        own = {c: c for c in m.chords}
        shared = [e for e in m.graph.edges if e in own]
        assert len(shared) == m.n - 3
        assert all(e is own[e] for e in shared)


class _ReferenceGraph:
    """Graph.__init__ before it shared its input tuples: every edge
    normalised into a new tuple in a set, then copied into a frozenset.
    The oracle for the one-pass build."""

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        adj = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)


def _build(cls, n, pairs, as_generator):
    try:
        g = cls(n, (p for p in pairs) if as_generator else list(pairs))
    except Exception as exc:  # the two must fail alike, whatever the error
        return type(exc), str(exc)
    # repr tells a bool or float label from the int it equals
    return sorted(map(repr, g.edges)), repr(g._adj)


_VERTEX = st.one_of(st.integers(0, 6), st.booleans())
_EDGE = st.one_of(st.tuples(_VERTEX, _VERTEX),
                  st.lists(_VERTEX, min_size=2, max_size=2)).filter(lambda p: p[0] != p[1])
_ODD = st.one_of(
    st.integers(-2, 9).map(lambda v: (v, v)),                   # a loop, maybe off range
    st.tuples(st.integers(-2, 9), st.integers(-2, 9)),          # maybe off range
    st.tuples(_VERTEX, st.sampled_from([0.0, 1.0, 2.5])),       # float label
    st.tuples(_VERTEX), st.tuples(_VERTEX, _VERTEX, _VERTEX),  # wrong length
    st.integers(0, 5),                                          # no pair at all
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(7), st.integers(0, 7)), st.lists(_EDGE, max_size=10),
       st.lists(_ODD, max_size=2), st.booleans(), st.data())
def test_graph_build_matches_reference(n, edges, odd, as_generator, data):
    # the edges with reversed copies and repeats, and up to two odd pairs,
    # in a drawn order
    pairs = edges + [e[::-1] for e in edges] + edges[:2] + odd
    pairs = data.draw(st.permutations(pairs))
    assert (_build(Graph, n, pairs, as_generator)
            == _build(_ReferenceGraph, n, pairs, as_generator))


def test_mop_json_round_trip():
    m = triple_fan(9)
    again = Mop.from_json_obj(m.to_json_obj())
    assert again == m


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(3, 1), (4, 2), (6, 14), (11, 4862)])
def test_enumerate_mops_catalan_count(n, count):
    assert sum(1 for _ in enumerate_mops(n)) == count == catalan(n - 2)


def test_enumerate_mops_no_duplicates_and_shape():
    for n in range(3, 9):
        seen = set()
        for m in enumerate_mops(n):
            assert m.chords not in seen
            seen.add(m.chords)
            assert m.graph.edge_count() == 2 * n - 3
            assert len(m.triangles()) == n - 2
        assert len(seen) == catalan(n - 2)


def _reference_triangulation_chords(vs):
    """The triangulation stream before it recursed on label bounds: slices
    of the label tuple, min/max on each chord and one frozenset per level.
    The reference for the order and chord sets of enumerate_mops."""
    if len(vs) < 3:
        yield frozenset()
        return
    a, b = vs[0], vs[-1]
    for i in range(1, len(vs) - 1):
        m = vs[i]
        extra = []
        if i >= 2:
            extra.append((min(a, m), max(a, m)))
        if len(vs) - 1 - i >= 2:
            extra.append((min(m, b), max(m, b)))
        for left in _reference_triangulation_chords(vs[: i + 1]):
            for right in _reference_triangulation_chords(vs[i:]):
                yield left | right | frozenset(extra)


def test_enumerate_mops_matches_reference_stream_in_order():
    for n in range(3, 12):
        want = list(_reference_triangulation_chords(tuple(range(n))))
        assert [m.chords for m in enumerate_mops(n)] == want


def test_enumerate_mops_guard():
    with pytest.raises(ScaleLimitError):
        next(enumerate_mops(17))
    # below 3 the stream yields one empty chord set, which Mop refuses
    with pytest.raises(MopError) as err:
        next(enumerate_mops(2))
    assert str(err.value) == "polygon needs at least 3 vertices, got 2"


def test_enumerate_mops_ceiling_takes_no_limit():
    # one ceiling for both host streams: it yields up to 16, refuses 17
    # before the first host, and no limit lifts it
    first = next(enumerate_mops(16))
    assert first.n == 16 and len(first.chords) == 13
    with pytest.raises(ScaleLimitError) as err:
        next(enumerate_mops(17))
    assert str(err.value) == ("polygon size n=17 exceeds the desk-scale guard 16; "
                              "lower n (enumerate_mops takes no limit)")
    with pytest.raises(TypeError):
        enumerate_mops(17, limit=None)


# dihedral orbits of polygon triangulations, n = 3..12 (OEIS A000207)
ORBIT_COUNTS = dict(zip(range(3, 13), (1, 1, 1, 3, 4, 12, 27, 82, 228, 733)))


@pytest.mark.parametrize("n", sorted(ORBIT_COUNTS))
def test_enumerate_mop_orbits_counts(n):
    assert sum(1 for _ in enumerate_mop_orbits(n)) == ORBIT_COUNTS[n]


def _ear_insertion_keys(n):
    """`_orbit_keys(n)` built from the triangle on every call, keeping no
    level: the reference for the kept levels."""
    keys = {()}
    for m in range(4, n + 1):
        k = m - 1
        keys = {_orbit_key(m, [((a - s) % k, (b - s) % k) for a, b in _decode(k, key)]
                           + [(0, k - 1)])
                for key in keys for s in range(k)}
    return sorted(keys)


def test_orbit_levels_are_kept_and_reused_out_of_order(monkeypatch):
    levels = [((),)]
    monkeypatch.setattr(graph_core, "_ORBIT_LEVELS", levels)
    built = 3
    for n in (11, 9, 12, 10, 3):
        keys = graph_core._orbit_keys(n)
        assert type(keys) is tuple
        assert list(keys) == _ear_insertion_keys(n)
        assert len(keys) == ORBIT_COUNTS[n]
        built = max(built, n)
        assert len(levels) == built - 2  # sizes 3..built, each appended once
        assert levels[n - 3] is keys
    assert all(type(level) is tuple for level in levels)
    # below the triangle, the empty key alone, never a kept level read from the end
    assert [graph_core._orbit_keys(n) for n in range(3)] == [((),)] * 3


def test_orbit_levels_built_by_two_threads_are_one(monkeypatch):
    levels = [((),)]
    monkeypatch.setattr(graph_core, "_ORBIT_LEVELS", levels)
    start = threading.Barrier(2, timeout=30)
    got = [None, None]

    def build(i):
        start.wait()
        got[i] = graph_core._orbit_keys(11)

    workers = [threading.Thread(target=build, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert got[0] is got[1] is levels[-1]
    assert len(levels) == 9  # sizes 3..11, none appended twice
    assert list(got[0]) == _ear_insertion_keys(11)


def test_enumerate_mop_orbits_are_the_canonical_hosts():
    for n in range(3, 13):
        reps = [tuple(m.sorted_chords()) for m in enumerate_mop_orbits(n)]
        canon = {c: canonical_chords(n, c) for c in (tuple(m.sorted_chords())
                                                      for m in enumerate_mops(n))}
        assert set(reps) == set(canon.values())
        # the filter that ear insertion replaced: hosts that are their own canonical form
        assert reps == sorted(c for c, rep in canon.items() if c == rep)


def test_dihedral_images_are_the_labelled_hosts_of_an_orbit():
    for n in range(3, 10):
        orbit_of = {}
        for m in enumerate_mops(n):
            orbit_of.setdefault(canonical_chords(n, m.chords), set()).add(tuple(m.sorted_chords()))
        reps = [tuple(m.sorted_chords()) for m in enumerate_mop_orbits(n)]
        assert sorted(orbit_of) == reps
        for rep in reps:
            assert _dihedral_images(n, rep) == orbit_of[rep]


def test_enumerate_mop_orbits_guard():
    with pytest.raises(ScaleLimitError) as err:
        next(enumerate_mop_orbits(17))
    # enumerate_mop_orbits takes no limit, so its hint must not offer
    # limit=None; args[0], which the CLI prints, keeps only the reason
    reason = "polygon size n=17 exceeds the desk-scale guard 16"
    assert err.value.args[0] == reason
    assert str(err.value) == f"{reason}; lower n (enumerate_mop_orbits takes no limit)"
    with pytest.raises(MopError) as err:
        next(enumerate_mop_orbits(2))
    assert str(err.value) == "polygon needs at least 3 vertices, got 2"


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def test_count_cycles_examples():
    assert count_cycles(Mop(3).graph, 3) == 1
    assert count_cycles(fan(5).graph, 3) == 3
    assert count_cycles(k4_minus_edge(), 3) == 2


def test_count_paths_examples():
    g6 = fan(6).graph
    assert count_paths(g6, 2) == 21
    assert count_paths(g6, 3) == 32
    assert count_paths(triple_fan(6).graph, 3) == 33


def test_count_paths_between_examples():
    tri = Mop(3).graph
    assert count_paths_between(tri, 0, 1, 1) == 1
    assert count_paths_between(tri, 0, 1, 2) == 1
    square = Mop(4, [(0, 2)]).graph
    assert count_paths_between(square, 0, 2, 2) == 2
    with pytest.raises(ValueError):
        count_paths_between(square, 1, 1, 2)
    with pytest.raises(ValueError):
        count_paths_between(square, 0, -1, 2)  # not an alias for vertex 3


def test_subgraph_count_examples():
    assert subgraph_count(Mop(3).graph, Pattern.path(2)) == 3
    assert subgraph_count(fan(6).graph, Pattern.cycle(3)) == 4
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert subgraph_count(star, Pattern.path(2)) == 3


def test_counting_routes_agree_on_all_small_hosts():
    # dedicated counters versus the generic embedding counter
    for n in range(3, 9):
        for m in enumerate_mops(n):
            g = m.graph
            chist = cycle_histogram(g)
            phist = path_histogram(g)
            for k in range(3, n + 1):
                assert chist.get(k, 0) == subgraph_count(g, Pattern.cycle(k))
            for k in range(1, n):
                assert phist.get(k, 0) == subgraph_count(g, Pattern.path(k))


def star_tree():
    return Tree(4, [(0, 1), (0, 2), (0, 3)])


def test_automorphism_counts():
    assert Pattern.cycle(5).automorphisms == 10
    assert Pattern.path(3).automorphisms == 2
    assert Pattern.tree(star_tree()).automorphisms == 6
    # always computed: a caller-supplied count would scale subgraph_count
    with pytest.raises(TypeError):
        Pattern(kind="path", size=3, automorphisms=1)
    assert subgraph_count(fan(6).graph, Pattern.path(3)) == 32


def brute_force_automorphisms(g):
    count = 0
    for perm in itertools.permutations(range(g.n)):
        if all(((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]))
               in g.edges for u, v in g.edges):
            count += 1
    return count


def test_automorphisms_against_permutation_scan():
    for pattern in (Pattern.cycle(4), Pattern.cycle(6), Pattern.path(4),
                    Pattern.tree(star_tree())):
        assert pattern.automorphisms == brute_force_automorphisms(pattern.graph)
    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    for g in (k4, k4_minus_edge(), triple_fan(6).graph, fan(7).graph):
        assert _count_injective_maps(g, g) == brute_force_automorphisms(g)


def test_pattern_graph_is_plain_and_built_once():
    pattern = Pattern.tree(star_tree())
    assert type(pattern.graph) is Graph
    assert pattern.graph is pattern.graph
    assert pattern.graph == star_tree()
    # no limit lifts the guard, so the hint says to lower n
    with pytest.raises(ScaleLimitError) as err:
        subgraph_count(fan(5).graph, Pattern.path(10))
    assert str(err.value) == ("pattern vertex count n=11 exceeds the desk-scale guard 10; "
                              "lower n (Pattern.graph takes no limit)")


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(6))))
def test_counts_are_isomorphism_invariant(perm):
    g = triple_fan(6).graph
    h = g.relabel(perm)
    assert cycle_histogram(g) == cycle_histogram(h)
    assert path_histogram(g) == path_histogram(h)


def test_pattern_vertex_count():
    for pattern in (Pattern.cycle(5), Pattern.path(3), Pattern.tree(star_tree())):
        n = pattern.n
        assert "graph" not in vars(pattern)  # known without building the graph
        assert n == pattern.graph.n
    assert Pattern.path(10).n == 11  # even past the guard that pattern.graph applies
    assert Pattern(kind="cycle", size=5, n=5) == Pattern.cycle(5)
    with pytest.raises(ValueError, match="cycle:5 has 5 vertices, got n=4"):
        Pattern(kind="cycle", size=5, n=4)
    with pytest.raises(ValueError, match="path:3 has 4 vertices, got n=3"):
        Pattern(kind="path", size=3, n=3)


# ---------------------------------------------------------------------------
# Cycle routes: increasing-path DP for non-crossing labellings, walk otherwise
# ---------------------------------------------------------------------------

@st.composite
def random_mops(draw, max_n):
    """A triangulation of the n-gon built by drawing the apex on each
    polygon's closing edge, as `enumerate_mops` recurses."""
    n = draw(st.integers(3, max_n))
    chords = set()
    todo = [tuple(range(n))]
    while todo:
        vs = todo.pop()
        if len(vs) < 4:
            continue
        i = draw(st.integers(1, len(vs) - 2))
        if i >= 2:
            chords.add((vs[0], vs[i]))
        if len(vs) - 1 - i >= 2:
            chords.add((vs[i], vs[-1]))
        todo += [vs[:i + 1], vs[i:]]
    return Mop(n, chords)


def test_cycle_routes_agree_on_all_small_hosts():
    for n in range(3, 11):
        for m in enumerate_mops(n):
            g = m.graph
            for max_k in range(2, n + 2):
                assert cycle_histogram(g, max_k) == _walk_cycle_histogram(g, max_k)
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for g, hist in ((two_triangles, {3: 2}), (Graph(7, []), {}), (Graph(0, []), {})):
        assert cycle_histogram(g) == _walk_cycle_histogram(g) == hist


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cycle_routes_agree_on_edge_subsets(data):
    g = data.draw(random_mops(12)).graph
    edges = data.draw(st.sets(st.sampled_from(sorted(g.edges))))
    sub = Graph(g.n, edges)  # often disconnected, sometimes edgeless
    max_k = data.draw(st.none() | st.integers(2, g.n + 1))
    assert cycle_histogram(sub, max_k) == _walk_cycle_histogram(sub, max_k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cycle_histogram_is_relabelling_invariant(data):
    # a permutation that creates a crossing pits the DP against the walk
    g = data.draw(random_mops(10)).graph
    perm = data.draw(st.permutations(range(g.n)))
    assert cycle_histogram(g.relabel(perm)) == cycle_histogram(g)


K13 = Pattern.tree(Tree(4, [(0, 1), (0, 2), (0, 3)]))
SPIDER5 = Pattern.tree(Tree(5, [(0, 1), (1, 2), (0, 3), (0, 4)]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_path_and_tree_counts_are_relabelling_invariant(data):
    # brute_force_many counts paths and trees once per dihedral orbit and
    # reuses the counts for every other labelling; these must not move
    g = data.draw(random_mops(10)).graph
    perm = data.draw(st.permutations(range(g.n)))
    h = g.relabel(perm)
    assert path_histogram(h) == path_histogram(g)
    for pattern in (K13, SPIDER5):
        assert subgraph_count(h, pattern) == subgraph_count(g, pattern)
    # the fixed-endpoint counts of g from u are those of h from perm[u]
    for u in range(g.n):
        moved = {(perm[w], e): c for (w, e), c in paths_between_histogram(g, u).items()}
        assert paths_between_histogram(h, perm[u]) == moved


def test_increasing_route_frees_counts_on_a_long_ring():
    # from start 0 the counts of vertex v fill v fields of about n bits:
    # holding every vertex's counts to the end would peak near n^3/2 bits
    # (500 MB here), holding only the reached, unpopped ones near n^2 bits
    n = 2000
    ring = Graph(n, [(v, (v + 1) % n) for v in range(n)])
    tracemalloc.start()
    try:
        hist = cycle_histogram(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist == {n: 1}
    assert peak < 8 * 2**20


def test_crossing_labelling_takes_the_walk(monkeypatch):
    calls = []

    def spy(g, max_k=None):
        calls.append(g)
        return _walk_cycle_histogram(g, max_k)

    monkeypatch.setattr(graph_core, "_walk_cycle_histogram", spy)
    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    assert _first_crossing(k4.edges) == ((0, 2), (1, 3))
    assert cycle_histogram(k4) == {3: 4, 4: 3}
    assert calls == [k4]
    calls.clear()
    g = fan(6).graph
    assert _first_crossing(g.edges) is None
    assert cycle_histogram(g) == {3: 4, 4: 3, 5: 2, 6: 1}
    assert calls == []
    crossed = g.relabel([0, 3, 2, 1, 4, 5])  # (0, 2) now crosses (1, 4)
    assert _first_crossing(crossed.edges) == ((0, 2), (1, 4))
    assert cycle_histogram(crossed) == {3: 4, 4: 3, 5: 2, 6: 1}
    assert calls == [crossed]


# ---------------------------------------------------------------------------
# The DFS kernel and the embedding counter against their earlier forms
# ---------------------------------------------------------------------------

def _reference_walk(adj, s, top, floor, slot, counts):
    """`_walk` with one stack frame per level, the last two included.  At
    top = 0 its first frame still counts the 1-edge paths (no caller asks
    for top = 0 from a vertex with a neighbour)."""
    on_path = [True] * (floor + 1) + [False] * (len(adj) - floor - 1)
    on_path[s] = True
    path = [s] * (top + 1)
    stack = [iter(adj[s])] + [None] * top
    d = 0
    while d >= 0:
        for w in stack[d]:
            if on_path[w]:
                continue
            e = d + 1
            i = slot[w]
            if i >= 0:
                counts[e][i] += 1
            if e < top:
                on_path[w] = True
                path[e] = w
                stack[e] = iter(adj[w])
                d = e
                break
        else:
            on_path[path[d]] = False
            d -= 1


def _walk_slots(g, s):
    """The three slot shapes callers pass: the lesser endpoint
    (`path_histogram`), a neighbour of s (`_walk_cycle_histogram`) and
    the identity (`paths_between_histogram`)."""
    return ([-1] * (s + 1) + [0] * (g.n - s - 1),
            [0 if w in g.neighbors(s) else -1 for w in range(g.n)],
            list(range(g.n)))


def _assert_walks_agree(g):
    for s in range(g.n):
        for floor in (-1, s):
            for slot in _walk_slots(g, s):
                for top in range(g.n):
                    want = [[0] * g.n for _ in range(top + 2)]
                    got = [[0] * g.n for _ in range(top + 2)]
                    _walk(g._adj, s, top, floor, slot, got)
                    if top:
                        _reference_walk(g._adj, s, top, floor, slot, want)
                    assert got == want, (g.edges, s, floor, slot, top)


def test_walk_matches_the_frame_per_level_walk_on_every_small_host():
    for n in range(3, 9):
        for m in enumerate_mops(n):
            _assert_walks_agree(m.graph)
    for g in (Graph(1, []), Graph(2, []), Graph(2, [(0, 1)])):
        _assert_walks_agree(g)
    assert paths_between_histogram(Graph(1, []), 0) == {}
    assert paths_between_histogram(Graph(2, [(0, 1)]), 0) == {(1, 1): 1}
    assert path_histogram(Graph(1, [])) == path_histogram(Graph(2, [])) == {}
    assert path_histogram(Graph(2, [(0, 1)])) == {1: 1}
    assert count_paths_between(Graph(2, [(0, 1)]), 1, 0, 1) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_walk_matches_the_frame_per_level_walk_on_subsets_and_relabellings(data):
    g = data.draw(random_mops(8)).graph
    edges = data.draw(st.sets(st.sampled_from(sorted(g.edges))))
    perm = data.draw(st.permutations(range(g.n)))
    _assert_walks_agree(Graph(g.n, edges))  # often disconnected, sometimes edgeless
    _assert_walks_agree(g.relabel(perm))


def _reference_injective_maps(g, h, stop_at=None):
    """The injective maps V(h) -> V(g) that send every edge of h to an
    edge of g, at most stop_at of them: `_count_injective_maps` with the
    pattern's vertices in label order, an image dict, an adjacency test on
    every anchor and one call per placed position, the last included.  A
    position with no anchor takes every host vertex, so h may be
    disconnected."""
    order = range(h.n)
    anchor = [[w for w in h.neighbors(v) if w < v] for v in order]
    image = {}
    used = [False] * g.n
    count = 0

    def place(i):
        nonlocal count
        if stop_at is not None and count >= stop_at:
            return
        if i == len(order):
            count += 1
            return
        v = order[i]
        cands = g.neighbors(image[anchor[i][0]]) if anchor[i] else range(g.n)
        for w in cands:
            if used[w] or g.degree(w) < h.degree(v):
                continue
            if all(g.adjacent(w, image[x]) for x in anchor[i]):
                image[v] = w
                used[w] = True
                place(i + 1)
                used[w] = False
                del image[v]

    place(0)
    return count


def test_injective_maps_match_the_reference_on_every_small_orbit_host():
    patterns = [t for k in range(1, 8) for t in enumerate_bounded_trees(k, max(k - 1, 1))]
    assert len(patterns) == 25  # the free trees on 1..7 vertices
    patterns += [Pattern.cycle(k).graph for k in range(3, 9)]
    patterns += [Pattern.path(k).graph for k in range(1, 8)]
    for n in range(3, 9):
        for m in enumerate_mop_orbits(n):
            g = m.graph
            for h in patterns:
                total = _reference_injective_maps(g, h)
                assert _count_injective_maps(g, h) == total, (g.edges, h.edges)
                assert _reference_injective_maps(g, h, stop_at=1) == min(1, total)


def _first_crossing_by_key(chords):
    """The laminarity sweep with one sort key (a, -b) per chord: the
    reference for `_first_crossing`, which walks the runs instead."""
    stack = []
    for c in sorted(chords, key=lambda c: (c[0], -c[1])):
        a, b = c
        while stack and stack[-1][1] <= a:
            stack.pop()
        if stack and b > stack[-1][1]:
            return stack[-1], c
        stack.append(c)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_crossing_matches_key_sorted_sweep(data):
    n = data.draw(st.integers(4, 12), label="n")
    pairs = list(itertools.combinations(range(n), 2))
    # few left ends, so runs sharing a left end are common
    lefts = data.draw(st.sets(st.integers(0, n - 2), min_size=1, max_size=4))
    chords = data.draw(st.sets(st.sampled_from(pairs), max_size=3 * n), label="chords")
    chords |= data.draw(st.sets(st.sampled_from([p for p in pairs if p[0] in lefts]),
                                min_size=1), label="shared")
    assert _first_crossing(chords) == _first_crossing_by_key(chords)
    # and on a host's edges plus a few more: no crossing, or a late one
    host = data.draw(st.sampled_from(list(enumerate_mops(min(n, 8)))))
    edges = set(host.graph.edges) | data.draw(st.sets(st.sampled_from(pairs), max_size=2))
    assert _first_crossing(edges) == _first_crossing_by_key(edges)


def _sorted_crossing_by_tuples(order):
    """The sweep over sorted chords holding each run and each open chord
    as its tuple: the reference for `_sorted_crossing`, which holds ints."""
    stack = []
    run = []
    for c in itertools.chain(order, [(-1, -1)]):
        if run and c[0] != run[0][0]:
            a = run[0][0]
            while stack and stack[-1][1] <= a:
                stack.pop()
            for r in reversed(run):
                if stack and r[1] > stack[-1][1]:
                    return stack[-1], r
                stack.append(r)
            run = []
        run.append(c)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sorted_crossing_matches_the_tuple_sweep(data):
    n = data.draw(st.integers(4, 14), label="n")
    pairs = list(itertools.combinations(range(n), 2))
    lefts = data.draw(st.sets(st.integers(0, n - 2), min_size=1, max_size=4))
    chords = data.draw(st.sets(st.sampled_from(pairs), max_size=3 * n), label="chords")
    chords |= data.draw(st.sets(st.sampled_from([p for p in pairs if p[0] in lefts]),
                                min_size=1), label="shared")
    host = data.draw(st.sampled_from(list(enumerate_mops(min(n, 8)))))
    for order in (sorted(chords), host.sorted_chords(), sorted(chords | host.chords)):
        want = _sorted_crossing_by_tuples(order)
        got = graph_core._sorted_crossing(iter(order))
        assert got == want
        if want:
            assert "chords {} and {} cross".format(*got) == "chords {} and {} cross".format(*want)


def test_fan_sweep_holds_right_ends_alone():
    # the fan's one run of 10^5 - 3 chords: 9.88 MB traced while the sweep
    # held each chord of the run and each open chord as its tuple, 5.34 MB
    # with their right ends alone
    n = 10**5
    _check_sorted_chords(10, _fan_chords(10))
    tracemalloc.start()
    try:
        _check_sorted_chords(n, _fan_chords(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20


def test_host_caches_hold_one_hosts_reuse_and_stay_small():
    graph_core._mop_graph.cache_clear()
    graph_core._mop_triangles.cache_clear()
    hosts = list(enumerate_mops(7))
    for m in hosts:
        before = graph_core._mop_graph.cache_info()
        m.graph
        m.triangles()
        after = graph_core._mop_graph.cache_info()
        # the graph is built once; the faces reuse it
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    # a sweep does not keep every host it has seen
    assert graph_core._mop_graph.cache_info().currsize < len(hosts)
    assert graph_core._mop_triangles.cache_info().currsize < len(hosts)


def test_only_mop_graphs_skip_the_crossing_check(monkeypatch):
    g = fan(6).graph  # built before the spy: Mop validation sweeps too
    calls = []

    def spy(chords):
        calls.append(chords)
        return _first_crossing(chords)

    monkeypatch.setattr(graph_core, "_first_crossing", spy)
    assert cycle_histogram(g) == {3: 4, 4: 3, 5: 2, 6: 1}
    assert calls == []
    # the same edges, not built from a Mop: checked, then the DP
    for h in (g.relabel(range(6)), parse_edge_list(format_edge_list(g)), Graph(6, g.edges)):
        calls.clear()
        assert h == g and cycle_histogram(h) == {3: 4, 4: 3, 5: 2, 6: 1}
        assert calls == [h.edges]
    calls.clear()
    assert cycle_histogram(Tree(4, [(0, 1), (1, 2), (1, 3)])) == {}
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def test_fan_shape():
    assert fan(3).chords == frozenset()
    assert fan(5).graph.edge_count() == 7
    hub_degree = fan(9).graph.degree(0)
    assert hub_degree == 8


def test_fan_path_count_examples():
    assert fan_path_count(6, 3) == 32
    assert fan_path_count(7, 3) == 51
    assert fan_path_count(7, 6) == 18
    with pytest.raises(ValueError):
        fan_path_count(5, 5)


def test_fan_path_count_matches_enumeration():
    for n in range(4, 11):
        hist = path_histogram(fan(n).graph)
        for k in range(3, n):
            assert fan_path_count(n, k) == hist.get(k, 0)


def test_triple_fan_shape():
    m = triple_fan(6)
    assert m.chords == frozenset({(0, 2), (2, 4), (0, 4)})
    m9 = triple_fan(9)
    assert m9.n == 9 and m9.graph.edge_count() == 15
    with pytest.raises(ValueError):
        triple_fan(7)
    with pytest.raises(ValueError):
        triple_fan(3)


def test_triple_fan_validates_at_desk_scale():
    for n in range(6, 61, 3):
        m = triple_fan(n)  # construction validates; hub face present
        hubs = (0, n // 3, 2 * n // 3)
        for a, b in itertools.combinations(hubs, 2):
            assert m.graph.adjacent(a, b)


def _triple_fan_reference(n):
    """triple_fan's chords as first built, each hub's chords to the next
    n/3 vertices round the polygon, normalised into a set."""
    m = n // 3
    chords = set()
    for hub in (0, m, 2 * m):
        for j in range(hub + 2, hub + m + 1):
            a, b = hub, j % n
            chords.add((a, b) if a < b else (b, a))
    return chords


def test_named_host_streams_are_their_sorted_chords():
    for n in range(3, 40):
        want = sorted({(0, j) for j in range(2, n - 1)})
        assert list(graph_core._fan_chords(n)) == want == sorted(fan(n).chords)
    for n in range(6, 91, 3):
        want = sorted(_triple_fan_reference(n))
        assert list(graph_core._triple_fan_chords(n)) == want == sorted(triple_fan(n).chords)


def test_fan_streams_are_guarded_before_any_chord():
    past = graph_core.HOST_VERTEX_LIMIT + 2  # a multiple of 3
    for stream in (graph_core._fan_chords, graph_core._triple_fan_chords):
        with pytest.raises(ScaleLimitError) as err:
            stream(past)
        assert str(err.value).startswith(f"vertex count n={past} exceeds the desk-scale guard")
        # limit=None lifts the guard; the streams are lazy, so nothing is built
        assert next(stream(past, limit=None)) == (0, 2)


def test_star_blowup_counts():
    blown = star_blowup(Pattern.path(3), 5)
    assert subgraph_count(blown, Pattern.path(3)) >= 25
    assert subgraph_count(star_blowup(Pattern.path(2), 3), Pattern.path(2)) >= 9
    star = Pattern.tree(star_tree())
    assert subgraph_count(star_blowup(star, 2), star) >= 8


def test_star_blowup_rejects_bad_patterns():
    with pytest.raises(ValueError):
        star_blowup(Pattern.path(1), 2)  # no internal vertex


def is_outerplanar_small(g):
    """Desk-scale outerplanarity test: a graph on n >= 3 vertices,
    connected or not, is outerplanar iff it embeds into some triangulation
    of the n-gon."""
    if g.n > 8:
        raise ValueError(f"outerplanarity check guarded at 8 vertices, got {g.n}")
    if g.n <= 2:
        return True
    if len(g.edges) > 2 * g.n - 3:
        return False
    # embedding into a host is invariant under relabeling it
    return any(_reference_injective_maps(mop.graph, g, stop_at=1)
               for mop in enumerate_mop_orbits(g.n))


def test_is_outerplanar_small():
    assert is_outerplanar_small(fan(6).graph)
    assert is_outerplanar_small(Pattern.cycle(5).graph)
    k4 = list(itertools.combinations(range(4), 2))
    assert not is_outerplanar_small(Graph(4, k4))
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert not is_outerplanar_small(k23)
    # a disconnected graph is outerplanar iff every component is
    assert is_outerplanar_small(Graph(4, [(0, 1), (2, 3)]))
    assert is_outerplanar_small(Graph(2, []))
    assert not is_outerplanar_small(Graph(6, itertools.combinations(range(5), 2)))
    assert not is_outerplanar_small(Graph(5, k4))  # reaches the embedding search


def test_is_outerplanar_small_matches_apex_planarity_on_the_atlas():
    # G is outerplanar iff G plus one vertex joined to all of G is planar
    # (every graph on 1..7 vertices, up to isomorphism)
    atlas = [a for a in nx.graph_atlas_g() if a.number_of_nodes()]
    assert len(atlas) == 1252
    outerplanar = 0
    for a in atlas:
        n = a.number_of_nodes()
        apex = nx.Graph(a)
        apex.add_edges_from((n, v) for v in range(n))
        want = nx.check_planarity(apex)[0]
        g = Graph(n, [(min(e), max(e)) for e in a.edges])
        assert is_outerplanar_small(g) == want, sorted(g.edges)
        outerplanar += want
    assert outerplanar == 399


# ---------------------------------------------------------------------------
# Canonical form and formats
# ---------------------------------------------------------------------------

def test_canonical_chords_identifies_rotations():
    base = canonical_chords(6, fan(6).chords)
    rotated = [(tuple(sorted(((a + 2) % 6, (b + 2) % 6))))
               for a, b in fan(6).chords]
    assert canonical_chords(6, rotated) == base
    assert canonical_chords(6, triple_fan(6).chords) != base


def reference_canonical_chords(n, chords):
    """Least sorted tuple of chord tuples over the 2n dihedral images."""
    images = []
    for shift in range(n):
        for reflect in (False, True):
            image = []
            for a, b in chords:
                x, y = ((shift - a) % n, (shift - b) % n) if reflect else (
                    (a + shift) % n, (b + shift) % n)
                image.append((min(x, y), max(x, y)))
            images.append(tuple(sorted(image)))
    return min(images)


def test_canonical_chords_matches_tuple_reference():
    for n in range(3, 10):
        for m in enumerate_mops(n):
            assert canonical_chords(n, m.chords) == reference_canonical_chords(n, m.chords)
    chords = sorted(triple_fan(9).chords, reverse=True)
    scrambled = [(b, a) if i % 2 else (a, b) for i, (a, b) in enumerate(chords)]
    assert canonical_chords(9, scrambled) == reference_canonical_chords(9, chords)
    assert canonical_chords(9, scrambled) == canonical_chords(9, triple_fan(9).chords)
    assert canonical_chords(5, [[3, 0], [0, 2]]) == ((0, 2), (0, 3))
    for n, diameters in ((6, [(4, 1), (0, 3)]), (8, [(2, 6), (5, 1), (0, 4)])):
        assert canonical_chords(n, diameters) == reference_canonical_chords(n, diameters)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_chords_of_any_chord_set_match_reference(data):
    # the orbit key builds only the images that move a shortest chord to
    # (0, d); any chord list, diameters and polygon sides included, must
    # still get the least of all 2n images
    n = data.draw(st.integers(2, 14))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    chords = data.draw(st.lists(pair.map(tuple), min_size=1, max_size=9))
    assert canonical_chords(n, chords) == reference_canonical_chords(n, chords)
    assert canonical_chords(n, iter(chords)) == canonical_chords(n, chords)


def test_edge_list_round_trip():
    g = triple_fan(9).graph
    assert parse_edge_list(format_edge_list(g)) == g
    with pytest.raises(ValueError):
        parse_edge_list("")


@pytest.mark.parametrize("text,message", [
    ("x\n0 1\n", "line 1: want the vertex count n, got 'x'"),
    ("3 4\n0 1\n", "line 1: want the vertex count n, got '3 4'"),
    ("# header\n\n3\n0\n", "line 4: want 'u v', got '0'"),
    ("3\n0 1 2\n", "line 2: want 'u v', got '0 1 2'"),
    ("3\n0 1\n\n1 x\n", "line 4: want 'u v', got '1 x'"),
])
def test_edge_list_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


def test_edge_list_header_guard_fires_before_the_edge_lines(monkeypatch):
    def no_graph(*args):
        raise AssertionError("parse_edge_list built a graph")

    monkeypatch.setattr(graph_core, "Graph", no_graph)
    # the bad second line is never read: the header alone is refused
    with pytest.raises(ScaleLimitError) as err:
        parse_edge_list("# big\n1000001\n0 1 2\n")
    assert str(err.value) == ("edge-list vertex count n=1000001 exceeds the desk-scale guard "
                              "1000000; lower the value (parse_edge_list takes no limit)")


def test_dot_output_mentions_all_edges():
    g = fan(4).graph
    dot = graph_to_dot(g)
    assert dot.startswith("graph G {")
    for u, v in g.edges:
        assert f"{u} -- {v};" in dot
