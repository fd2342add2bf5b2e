"""Tree machinery, checked against exhaustive subset enumeration and the
networkx free-tree generator."""

import itertools
import random
import tracemalloc
from math import comb

import networkx as nx
import pytest

from opturan import graph_core
from opturan.graph_core import Graph, Mop, enumerate_mops, fan, graph_to_dot, triple_fan
from opturan.guards import ScaleLimitError
from opturan.numeral_paths import numeral_graph
from opturan.tree_engine import (
    Tree,
    count_subtrees,
    count_subtrees_all,
    count_subtrees_total,
    cycle_subtree_counts,
    enumerate_bounded_trees,
    format_tree_text,
    greedy_tree,
    parse_tree_text,
    tree_canonical_form,
    weak_dual,
)


def path_tree(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(leaves):
    return Tree(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wiener(tree):
    """Sum of distances over all unordered vertex pairs."""
    total = 0
    for s in range(tree.n):
        dist = [-1] * tree.n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in tree.neighbors(v):
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(d for v, d in enumerate(dist) if v > s)
    return total


def subtree_count_oracle(tree, k):
    """Connected k-subsets by direct enumeration."""
    count = 0
    for subset in itertools.combinations(range(tree.n), k):
        inside = set(subset)
        seen = {subset[0]}
        stack = [subset[0]]
        while stack:
            v = stack.pop()
            for w in tree.neighbors(v):
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == k:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Tree basics
# ---------------------------------------------------------------------------

def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(3, [(0, 1)])
    with pytest.raises(ValueError):
        Tree(4, [(0, 1), (2, 3), (0, 1)])
    with pytest.raises(ValueError, match="not connected"):
        Tree(4, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="loop"):
        Tree(3, [(0, 0), (1, 2)])
    assert Tree(1, []).n == 1
    assert star_tree(3).degree_sequence()[0] == 3
    # a tree is a graph, compared by value
    assert isinstance(path_tree(3), Graph)
    assert path_tree(3) == Tree(3, [(2, 1), (0, 1)]) == Graph(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# Weak dual
# ---------------------------------------------------------------------------

def test_weak_dual_examples():
    assert weak_dual(Mop(3)).n == 1
    dual5 = weak_dual(fan(5))
    assert tree_canonical_form(dual5) == tree_canonical_form(path_tree(3))
    dual_tf = weak_dual(triple_fan(6))
    assert tree_canonical_form(dual_tf) == tree_canonical_form(star_tree(3))


def test_weak_dual_shape_for_all_small_hosts():
    for n in range(3, 9):
        for m in enumerate_mops(n):
            dual = weak_dual(m)
            assert dual.n == n - 2
            assert dual.degree_sequence()[0] <= 3
            assert len(dual.edges) == n - 3


def test_faces_and_weak_dual_against_brute_force():
    # in a maximal outerplanar graph every triangle is a face, and two
    # faces are adjacent in the weak dual exactly when they share an edge
    for n in range(3, 11):
        for m in enumerate_mops(n):
            g = m.graph
            faces = [t for t in itertools.combinations(range(n), 3)
                     if g.adjacent(t[0], t[1]) and g.adjacent(t[0], t[2])
                     and g.adjacent(t[1], t[2])]
            assert list(m.triangles()) == faces
            shared_side = {(i, j) for i, j in itertools.combinations(range(n - 2), 2)
                           if len(set(faces[i]) & set(faces[j])) == 2}
            assert weak_dual(m).edges == shared_side


def test_weak_dual_of_a_large_host():
    m = numeral_graph(10, 5)
    assert len(m.triangles()) == m.n - 2
    dual = weak_dual(m)  # Tree() rejects anything that is not a tree
    assert isinstance(dual, Tree) and dual.n == m.n - 2
    assert dual.degree_sequence()[0] <= 3


def bisected_polygon(depth):
    """The host on 2**depth + 1 vertices in which every face (a, m, c)
    has its apex m halfway between a and c: its dual is the complete
    binary tree of height depth - 1."""
    n = 2**depth + 1
    chords = {(i, i + 2**s) for s in range(1, depth) for i in range(0, n - 1, 2**s)}
    return Mop(n, frozenset(chords))


def test_upper_neighbours_walk_the_face_tree():
    hosts = [m for n in range(3, 12) for m in enumerate_mops(n)]
    hosts += [fan(60), triple_fan(45), numeral_graph(4, 3), numeral_graph(10, 2),
              bisected_polygon(4)]
    for m in hosts:
        n, g = m.n, m.graph
        up = graph_core._upper_neighbours(g)
        # sorted order: a ascending, each a's consecutive upper pairs ascending
        faces = [(a, u, v) for a in range(n) for u, v in zip(up[a], up[a][1:])]
        assert faces == [t for t in itertools.combinations(range(n), 3)
                         if g.adjacent(t[0], t[1]) and g.adjacent(t[0], t[2])
                         and g.adjacent(t[1], t[2])]
        # postorder: a descending, pairs ascending; a face's shorter sides
        # that are chords are the longest sides of faces walked before it
        post = [(a, u, v) for a in reversed(range(n)) for u, v in zip(up[a], up[a][1:])]
        assert len(post) == n - 2
        walked = {(a, v): i for i, (a, _, v) in enumerate(post)}
        assert len(walked) == n - 2
        for i, (a, u, v) in enumerate(post):
            for side in ((a, u), (u, v)):
                if side[1] - side[0] >= 2:
                    assert walked[side] < i
        assert (post[-1][0], post[-1][2]) == (0, n - 1)


def test_dual_subtree_counts_match_the_dual():
    for n in range(3, 12):
        for m in enumerate_mops(n):
            assert graph_core._dual_subtree_counts(m) == count_subtrees_all(weak_dual(m))
    bushy = bisected_polygon(4)
    assert weak_dual(bushy).degree_sequence() == (3,) * 6 + (2,) + (1,) * 8
    for m in (fan(60), triple_fan(45), numeral_graph(4, 3), numeral_graph(10, 2), bushy):
        assert graph_core._dual_subtree_counts(m) == count_subtrees_all(weak_dual(m))


def test_dual_subtree_counts_fill_their_fields():
    # the dual of fan(n) is a path: n - 2 - j + 1 subtrees of j faces
    assert graph_core._dual_subtree_counts(fan(9)) == [0, 7, 6, 5, 4, 3, 2, 1]
    # the dual of the triple fan of 6 is K1,3, whose 4 single faces need
    # every bit of the field width C(4, 2).bit_length() = 3
    counts = graph_core._dual_subtree_counts(triple_fan(6))
    assert counts == count_subtrees_all(star_tree(3)) == [0, 4, 3, 3, 1]
    assert max(counts).bit_length() == comb(4, 2).bit_length()


# ---------------------------------------------------------------------------
# Greedy trees
# ---------------------------------------------------------------------------

def test_greedy_tree_small():
    assert tree_canonical_form(greedy_tree(3, 4)) == tree_canonical_form(star_tree(3))
    assert greedy_tree(3, 2).edges == {(0, 1)}
    assert greedy_tree(2, 5).degree_sequence()[0] == 2  # degree bound 2 gives a path


def test_greedy_tree_levels():
    tree = greedy_tree(3, 10)
    depth = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in tree.neighbors(v):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    sizes = {}
    for d in depth.values():
        sizes[d] = sizes.get(d, 0) + 1
    assert sizes == {0: 1, 1: 3, 2: 6}
    assert tree.degree(0) <= 3
    assert all(tree.degree(v) <= 3 for v in range(tree.n))


def test_greedy_tree_rejects_bad_args():
    with pytest.raises(ValueError):
        greedy_tree(1, 5)
    with pytest.raises(ValueError):
        greedy_tree(3, 0)


# ---------------------------------------------------------------------------
# Subtree counting
# ---------------------------------------------------------------------------

def test_count_subtrees_examples():
    star = star_tree(3)
    assert count_subtrees(star, 3) == 3
    assert count_subtrees_total(Tree(1, [])) == 1
    assert count_subtrees_total(Tree(2, [(0, 1)])) == 3
    assert count_subtrees_total(path_tree(3)) == 6


def test_count_subtrees_bounds_and_sanity():
    for tree in (path_tree(7), star_tree(3), greedy_tree(3, 9)):
        gs = count_subtrees_all(tree)
        assert gs[1] == tree.n
        assert gs[2] == tree.n - 1
        assert gs[tree.n] == 1
        assert sum(gs) == count_subtrees_total(tree)
    with pytest.raises(ValueError):
        count_subtrees(path_tree(4), 5)


def test_count_subtrees_matches_exhaustive_oracle():
    for n in range(2, 9):
        for tree in enumerate_bounded_trees(n, 4):
            for k in range(1, n + 1):
                assert count_subtrees(tree, k) == subtree_count_oracle(tree, k)


# ---------------------------------------------------------------------------
# Wiener index
# ---------------------------------------------------------------------------

def test_wiener_examples():
    assert wiener(Tree(2, [(0, 1)])) == 1
    assert wiener(path_tree(4)) == 10
    assert wiener(star_tree(3)) == 9


def test_maximal_total_subtrees_minimize_wiener():
    # the same degree-3 trees maximize total subtree count and minimize
    # the Wiener index, checked exhaustively
    for n in range(4, 11):
        trees = list(enumerate_bounded_trees(n, 3))
        totals = [count_subtrees_total(t) for t in trees]
        wieners = [wiener(t) for t in trees]
        argmax = {i for i, v in enumerate(totals) if v == max(totals)}
        argmin = {i for i, v in enumerate(wieners) if v == min(wieners)}
        assert argmax == argmin


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def reference_canonical_form(tree):
    """Reference for tree_canonical_form that finds the centroid by one
    flood fill per vertex, measuring the largest component left without it."""
    def max_component_without(v):
        best = 0
        seen = [False] * tree.n
        seen[v] = True
        for w in tree.neighbors(v):
            if seen[w]:
                continue
            count = 0
            stack = [w]
            seen[w] = True
            while stack:
                x = stack.pop()
                count += 1
                for y in tree.neighbors(x):
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            best = max(best, count)
        return best

    def rooted(v, parent):
        return tuple(sorted(rooted(w, v) for w in tree.neighbors(v) if w != parent))

    if tree.n == 1:
        return ("v", ())
    weights = [max_component_without(v) for v in range(tree.n)]
    centroids = [v for v in range(tree.n) if weights[v] == min(weights)]
    if len(centroids) == 1:
        return ("v", rooted(centroids[0], -1))
    a, b = centroids
    return ("e", tuple(sorted((rooted(a, b), rooted(b, a)))))


def random_labelled_trees(rng, count, max_n):
    """Uniform trees from Pruefer codes, long thin trees, and two random
    halves joined by an edge (so the centroid is an edge), each relabelled
    at random."""
    for _ in range(count):
        n = rng.randint(2, max_n)
        shape = rng.randrange(3)
        if shape == 0 and n >= 3:
            edges = list(nx.from_prufer_sequence(
                [rng.randrange(n) for _ in range(n - 2)]).edges())
        elif shape == 1:
            edges = [(rng.randrange(max(0, v - 3), v), v) for v in range(1, n)]
        else:
            half = max(1, n // 2)
            n = 2 * half
            edges = [(rng.randrange(v), v) for v in range(1, half)]
            edges += [(a + half, b + half) for a, b in edges] + [(0, half)]
        perm = list(range(n))
        rng.shuffle(perm)
        yield Tree(n, [(perm[a], perm[b]) for a, b in edges])


def test_canonical_form_matches_flood_fill_centroids():
    for n in range(1, 13):
        for g in nx.nonisomorphic_trees(n):
            tree = Tree(n, list(g.edges()))
            assert tree_canonical_form(tree) == reference_canonical_form(tree)
    rng = random.Random(20211)
    for n in range(1, 11):
        for d in (2, 3, 4):
            for tree in enumerate_bounded_trees(n, d):
                perm = list(range(n))
                rng.shuffle(perm)
                for t in (tree, tree.relabel(perm)):
                    assert tree_canonical_form(t) == reference_canonical_form(t)
    for tree in random_labelled_trees(rng, 150, 200):
        assert tree_canonical_form(tree) == reference_canonical_form(tree)


def test_bounded_trees_unchanged_under_recursive_forms():
    """Leaf-grow-and-dedup keyed by the recursive reference form gives the
    same classes, the same representatives, in the same order."""
    for d in (2, 3, 4):
        level = [Tree(1, [])]
        for n in range(2, 11):
            grown = {}
            for t in level:
                for v in range(t.n):
                    if t.degree(v) < d:
                        g = Tree(n, [*t.edges, (v, n - 1)])
                        grown.setdefault(reference_canonical_form(g), g)
            level = [grown[key] for key in sorted(grown)]
            assert list(enumerate_bounded_trees(n, d)) == level


def brackets(node) -> str:
    """A rooted form as "1", its children's strings, "0", without recursion."""
    out, stack = [], [node]
    while stack:
        item = stack.pop()
        if item is None:
            out.append("0")
        else:
            out.append("1")
            stack.append(None)
            stack.extend(reversed(item))
    return "".join(out)


def form_graph(form) -> nx.Graph:
    """The tree a canonical form describes, built without recursion."""
    kind, body = form
    halves = [body] if kind == "v" else list(body)
    g = nx.empty_graph(len(halves))
    if kind == "e":
        g.add_edge(0, 1)
    stack = list(enumerate(halves))
    while stack:
        v, node = stack.pop()
        for child in node:
            w = g.number_of_nodes()
            g.add_edge(v, w)
            stack.append((w, child))
    return g


def caterpillar(legs):
    """A path with legs[i] leaves hung on its i-th vertex."""
    edges = [(i, i + 1) for i in range(len(legs) - 1)]
    for v, count in enumerate(legs):
        for _ in range(count):
            edges.append((v, len(edges) + 1))
    return Tree(len(edges) + 1, edges)


def form_brackets(form):
    """A canonical form made comparable without recursion."""
    return form[0], brackets(form[1])


def test_canonical_form_of_deep_trees():
    # a recursive form overflows the interpreter's stack on these, and so
    # does comparing two deep nested tuples
    path = path_tree(3000)
    tracemalloc.start()
    try:
        form = tree_canonical_form(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    half = "1" * 1500 + "0" * 1500
    assert form_brackets(form) == ("e", f"1{half}{half}0")
    # every string kept to the end would hold 4.5 * 10^6 characters
    assert peak < 2_000_000
    iso = nx.isomorphism.tree_isomorphism
    rng = random.Random(3)
    legs = [rng.randrange(3) for _ in range(1500)]
    tree = caterpillar(legs)
    form = tree_canonical_form(tree)
    assert iso(form_graph(form), nx.Graph(tree.edges))
    perm = list(range(tree.n))
    rng.shuffle(perm)
    assert form_brackets(tree_canonical_form(tree.relabel(perm))) == form_brackets(form)
    # move one leg far along the spine: a different tree on as many vertices
    moved = list(legs)
    moved[legs.index(2)] -= 1
    moved[max(i for i, c in enumerate(legs) if c < 2)] += 1
    other = caterpillar(moved)
    assert not iso(nx.Graph(other.edges), nx.Graph(tree.edges))
    assert form_brackets(tree_canonical_form(other)) != form_brackets(form)
    assert iso(form_graph(tree_canonical_form(other)), nx.Graph(other.edges))


def test_weak_duals_are_graphs():
    for n in range(3, 10):
        for m in enumerate_mops(n):
            dual = weak_dual(m)
            assert isinstance(dual, Graph)
            assert dual == Graph(n - 2, dual.edges)


# ---------------------------------------------------------------------------
# Bounded-degree enumeration
# ---------------------------------------------------------------------------

def nx_bounded_canon_forms(n, d):
    forms = set()
    for g in nx.nonisomorphic_trees(n):
        if max(deg for _, deg in g.degree()) <= d:
            relabeled = nx.convert_node_labels_to_integers(g)
            forms.add(tree_canonical_form(Tree(n, list(relabeled.edges()))))
    return forms


def test_enumerate_bounded_trees_small_counts():
    assert len(list(enumerate_bounded_trees(4, 3))) == 2
    assert len(list(enumerate_bounded_trees(5, 3))) == 2
    assert len(list(enumerate_bounded_trees(7, 3))) == 6


def test_enumerate_bounded_trees_matches_networkx():
    for n in range(2, 11):
        for d in (3, 4):
            ours = [tree_canonical_form(t) for t in enumerate_bounded_trees(n, d)]
            assert len(ours) == len(set(ours))  # no repeats
            assert set(ours) == nx_bounded_canon_forms(n, d)


def test_enumerate_bounded_trees_respects_bound_and_guard():
    for t in enumerate_bounded_trees(8, 3):
        assert t.degree_sequence()[0] <= 3
    with pytest.raises(ScaleLimitError):
        list(enumerate_bounded_trees(13, 3))


def test_greedy_tree_attains_subtree_maxima():
    for n in range(2, 9):
        trees = list(enumerate_bounded_trees(n, 3))
        greedy = greedy_tree(3, n)
        for k in range(1, n + 1):
            best = max(count_subtrees(t, k) for t in trees)
            assert count_subtrees(greedy, k) == best


# ---------------------------------------------------------------------------
# Cycle/subtree correspondence
# ---------------------------------------------------------------------------

def test_cycle_subtree_counts_examples():
    assert cycle_subtree_counts(fan(5), 3) == (3, 3)
    assert cycle_subtree_counts(fan(6), 5) == (2, 2)
    assert cycle_subtree_counts(triple_fan(6), 5) == (3, 3)


def test_cycle_subtree_counts_agree_everywhere_small():
    for n in range(3, 9):
        for m in enumerate_mops(n):
            for k in range(3, n + 1):
                pair = cycle_subtree_counts(m, k)
                assert pair.cycles == pair.subtrees


# ---------------------------------------------------------------------------
# Formats
# ---------------------------------------------------------------------------

def test_tree_text_round_trip():
    tree = greedy_tree(3, 7)
    again = parse_tree_text(format_tree_text(tree))
    assert tree_canonical_form(again) == tree_canonical_form(tree)
    assert again.edges == tree.edges
    with pytest.raises(ValueError):
        parse_tree_text("")


def test_tree_dot():
    dot = graph_to_dot(star_tree(3), "T")
    assert "0 -- 1;" in dot and dot.startswith("graph T {")
