"""Second-opinion oracles: naive validators and networkx routes."""

import itertools
import re

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from opturan.graph_core import (
    CrossingChords,
    Mop,
    WrongChordCount,
    canonical_chords,
    count_paths_between,
    cycle_histogram,
    enumerate_mops,
    fan,
    path_histogram,
    paths_between_histogram,
    triple_fan,
)
from opturan.numeral_paths import numeral_graph


def naive_has_crossing(chords):
    for (a, b), (c, d) in itertools.combinations(sorted(chords), 2):
        if len({a, b, c, d}) == 4 and ((a < c < b) != (a < d < b)):
            return True
    return False


def all_diagonals(n):
    return [(i, j) for i in range(n) for j in range(i + 2, n)
            if n - (j - i) >= 2]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mop_validation_matches_naive_oracle(data):
    n = data.draw(st.integers(min_value=4, max_value=9))
    pool = all_diagonals(n)
    chords = data.draw(st.sets(st.sampled_from(pool), max_size=n - 2))
    if naive_has_crossing(chords):
        with pytest.raises(CrossingChords):
            Mop(n, frozenset(chords))
    elif len(chords) != n - 3:
        with pytest.raises(WrongChordCount):
            Mop(n, frozenset(chords))
    else:
        # a non-crossing set of n-3 diagonals is always a triangulation
        Mop(n, frozenset(chords))


def crosses(c, d):
    """Two diagonals cross when their endpoints interleave: a < c < b < d."""
    (a, b), (x, y) = sorted([c, d])
    return a < x < b < y


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_crossing_check_matches_pairwise_test(data):
    n = data.draw(st.integers(min_value=4, max_value=12))
    chords = data.draw(st.sets(st.sampled_from(all_diagonals(n)), max_size=n))
    crossing = any(crosses(c, d) for c, d in itertools.combinations(chords, 2))
    try:
        Mop(n, frozenset(chords))
    except CrossingChords as exc:
        assert crossing
        named = [(int(a), int(b)) for a, b in re.findall(r"\((\d+), (\d+)\)", str(exc))]
        assert len(named) == 2 and set(named) <= chords
        assert crosses(*named)
    except WrongChordCount:
        assert not crossing
    else:
        assert not crossing


def to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def nx_cycle_histogram(g):
    hist = {}
    for cycle in nx.simple_cycles(to_networkx(g)):
        hist[len(cycle)] = hist.get(len(cycle), 0) + 1
    return hist


def nx_paths_between_histogram(g, u):
    nxg = to_networkx(g)
    hist = {}
    for v in range(g.n):
        if v != u:
            for path in nx.all_simple_paths(nxg, u, v):
                key = (v, len(path) - 1)
                hist[key] = hist.get(key, 0) + 1
    return hist


def nx_path_histogram(g):
    nxg = to_networkx(g)
    hist = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            for path in nx.all_simple_paths(nxg, u, v):
                e = len(path) - 1
                hist[e] = hist.get(e, 0) + 1
    return hist


@pytest.mark.parametrize("g", [
    fan(7).graph,
    triple_fan(9).graph,
    numeral_graph(3, 2).graph,
    Mop(8, [(0, 2), (2, 4), (4, 6), (0, 6), (2, 6)]).graph,
])
def test_histograms_match_networkx(g):
    assert cycle_histogram(g) == nx_cycle_histogram(g)
    assert path_histogram(g) == nx_path_histogram(g)
    for u in range(g.n):
        expected = nx_paths_between_histogram(g, u)
        assert paths_between_histogram(g, u) == expected
        for v in range(g.n):
            if v != u:
                for k in range(1, g.n):
                    assert count_paths_between(g, u, v, k) == expected.get((v, k), 0)


def test_histograms_match_networkx_exhaustive_small():
    for n in range(3, 8):
        for m in enumerate_mops(n):
            assert cycle_histogram(m.graph) == nx_cycle_histogram(m.graph)


def brute_force_isomorphic(g, h):
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]))
               in h.edges for u, v in g.edges):
            return True
    return False


def test_canonical_chords_equals_graph_isomorphism():
    # dihedral chord canonicalisation decides isomorphism for these hosts
    mops = list(enumerate_mops(7))
    for a, b in itertools.combinations(mops, 2):
        same_canon = (canonical_chords(7, a.chords) == canonical_chords(7, b.chords))
        assert same_canon == brute_force_isomorphic(a.graph, b.graph)
