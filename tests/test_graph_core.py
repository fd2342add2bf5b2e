"""Host graphs, triangulation enumeration, and the counting oracles."""

import itertools
import tracemalloc

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
    Pattern,
    Tree,
    WrongChordCount,
    _count_injective_maps,
    _dihedral_images,
    _first_crossing,
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
    is_outerplanar_small,
    parse_edge_list,
    path_histogram,
    paths_between_histogram,
    star_blowup,
    subgraph_count,
    triple_fan,
)
from opturan.guards import ScaleLimitError


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


def test_enumerate_mops_guard():
    with pytest.raises(ScaleLimitError):
        next(enumerate_mops(17))
    with pytest.raises(ValueError):
        next(enumerate_mops(2))


def test_enumerate_mops_apex_partition():
    n = 7
    whole = {m.chords for m in enumerate_mops(n)}
    parts = [
        {m.chords for m in enumerate_mops(n, first_apex=a)}
        for a in range(1, n - 1)
    ]
    assert sum(len(p) for p in parts) == len(whole)
    merged = set()
    for p in parts:
        assert not (merged & p)
        merged |= p
    assert merged == whole


# dihedral orbits of polygon triangulations, n = 3..12 (OEIS A000207)
ORBIT_COUNTS = dict(zip(range(3, 13), (1, 1, 1, 3, 4, 12, 27, 82, 228, 733)))


@pytest.mark.parametrize("n", sorted(ORBIT_COUNTS))
def test_enumerate_mop_orbits_counts(n):
    assert sum(1 for _ in enumerate_mop_orbits(n)) == ORBIT_COUNTS[n]


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
    with pytest.raises(ScaleLimitError):
        next(enumerate_mop_orbits(17))
    with pytest.raises(ValueError):
        next(enumerate_mop_orbits(2))


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
    with pytest.raises(ValueError, match="pattern on 11 vertices exceeds the guard 10"):
        subgraph_count(fan(5).graph, Pattern.path(10))


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


def test_star_blowup_counts():
    blown = star_blowup(Pattern.path(3), 5)
    assert subgraph_count(blown, Pattern.path(3)) >= 25
    assert subgraph_count(star_blowup(Pattern.path(2), 3), Pattern.path(2)) >= 9
    star = Pattern.tree(star_tree())
    assert subgraph_count(star_blowup(star, 2), star) >= 8


def test_star_blowup_rejects_bad_patterns():
    with pytest.raises(ValueError):
        star_blowup(Pattern.path(1), 2)  # no internal vertex


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


def test_dot_output_mentions_all_edges():
    g = fan(4).graph
    dot = graph_to_dot(g)
    assert dot.startswith("graph G {")
    for u, v in g.edges:
        assert f"{u} -- {v};" in dot
