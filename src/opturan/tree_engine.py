"""Bounded-degree trees: duals of triangulations, subtree counting, and
exhaustive generation.

The bridge that makes cycle maximization tractable: a k-cycle in a
triangulated outerplanar host corresponds to a connected (k-2)-vertex
subtree of the host's weak dual (the tree on triangular faces, adjacent
when two faces share a chord), and the correspondence is one-to-one.
Maximizing cycles over hosts therefore means maximizing k-subtree counts
over trees with degrees at most 3, where breadth-first "greedy" trees are
the known winners.

`Tree` is defined in `graph_core` and re-exported here: a `Graph`
validated as a tree, so adjacency, degrees, the edge set, equality and DOT
output all come from there.  Subtree counting is a rooted dynamic
programme over truncated polynomials; canonical forms root at the
centroid found from one pass of subtree sizes.  The host's faces, and
the same programme run on them for `cycle-bijection` without building
the dual, live with the host in `graph_core`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .graph_core import Mop, Tree, count_cycles, parse_edge_list
from .guards import check_limit

__all__ = [
    "Tree",
    "weak_dual",
    "greedy_tree",
    "count_subtrees",
    "count_subtrees_all",
    "count_subtrees_total",
    "enumerate_bounded_trees",
    "tree_canonical_form",
    "CycleSubtreeCounts",
    "cycle_subtree_counts",
    "parse_tree_text",
    "format_tree_text",
]

TREE_ENUM_LIMIT = 12


def weak_dual(mop: Mop) -> Tree:
    """Tree on the n-2 triangular faces of a triangulation, numbered in
    sorted order of their vertex triples, adjacent when two faces share an
    edge: face (a, m, c) is joined to the faces read off (a, m) and (m, c)
    (see `graph_core._upper_neighbours`), so no degree exceeds 3."""
    tris = mop.triangles()
    by_side = {(a, c): i for i, (a, _, c) in enumerate(tris)}
    return Tree(len(tris), [(i, by_side[s]) for i, (a, m, c) in enumerate(tris)
                            for s in ((a, m), (m, c)) if s in by_side])


def greedy_tree(degree: int, n: int) -> Tree:
    """First n vertices of a breadth-first search on the infinite
    degree-regular tree: the root takes up to `degree` children, every
    later vertex up to degree-1, levels filling left to right."""
    if degree < 2:
        raise ValueError(f"degree bound must be >= 2, got {degree}")
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    edges = []
    capacity = [degree]
    head = 0
    nxt = 1
    while nxt < n:
        if capacity[head] == 0:
            head += 1
            continue
        capacity[head] -= 1
        edges.append((head, nxt))
        capacity.append(degree - 1)
        nxt += 1
    return Tree(n, edges)


def _postorder(tree: Tree, root: int = 0) -> list[tuple[int, int]]:
    """(vertex, parent) pairs, children before parents, without recursion."""
    order = []
    stack = [(root, -1)]
    while stack:
        v, parent = stack.pop()
        order.append((v, parent))
        for w in tree.neighbors(v):
            if w != parent:
                stack.append((w, v))
    order.reverse()
    return order


def _subtree_polys(tree: Tree, top: int) -> list[list[int]]:
    """poly[v][j] = number of j-vertex subtrees whose vertex closest to the
    root (vertex 0) is v, for j < top.

    Bottom-up: the product over children of (1 + child polynomial), shifted
    by one for v itself, truncated throughout.
    """
    poly: list[list[int]] = [[]] * tree.n
    for v, parent in _postorder(tree):
        acc = [1]
        for w in tree.neighbors(v):
            if w == parent:
                continue
            child = poly[w]
            out = [0] * min(len(acc) + len(child) - 1, top)
            for i, a in enumerate(acc):
                out[i] += a
                for j, c in enumerate(child):
                    if i + j >= top:
                        break
                    out[i + j] += a * c
            acc = out
        poly[v] = [0] + acc[: top - 1]
    return poly


def count_subtrees(tree: Tree, k: int) -> int:
    """Number of connected k-vertex subtrees, by summing over the unique
    topmost vertex of each subtree in a fixed rooting."""
    if not (1 <= k <= tree.n):
        raise ValueError(f"subtree size {k} outside 1..{tree.n}")
    poly = _subtree_polys(tree, k + 1)
    return sum(p[k] if len(p) > k else 0 for p in poly)


def count_subtrees_all(tree: Tree) -> list[int]:
    """Counts of connected subtrees of every size in one sweep: entry k is
    the k-vertex count, entry 0 is 0."""
    poly = _subtree_polys(tree, tree.n + 1)
    out = [0] * (tree.n + 1)
    for p in poly:
        for j, c in enumerate(p):
            out[j] += c
    return out


def count_subtrees_total(tree: Tree) -> int:
    """Total number of connected subtrees of every size."""
    return sum(count_subtrees_all(tree))


# ---------------------------------------------------------------------------
# Isomorphism-free generation
# ---------------------------------------------------------------------------

def tree_canonical_form(tree: Tree):
    """Canonical nested-tuple form: root at the centroid, or combine the
    two rooted halves when a centroid edge exists.  Equal forms mean
    isomorphic trees.

    One postorder pass gives every subtree size; the largest component
    left by deleting v is its largest child subtree or the rest above it.
    A second pass, rooted at the centroid, writes each rooted subtree
    bottom-up as a bracket string: "1", its children's strings in sorted
    order, "0".  String order is the tuple order of the forms, so no two
    deep tuples are ever compared, and the form is read off the string
    with a stack: no depth of tree costs recursion.  The strings alive at
    once hold at most 2n characters; building them copies O(n * height).
    """
    n = tree.n
    if n == 1:
        return ("v", ())
    size = [1] * n
    weight = [0] * n
    for v, parent in _postorder(tree):
        weight[v] = max(weight[v], n - size[v])
        if parent >= 0:
            size[parent] += size[v]
            weight[parent] = max(weight[parent], size[v])
    best = min(weight)
    centroids = [v for v in range(n) if weight[v] == best]
    root = centroids[0]
    other = centroids[1] if len(centroids) == 2 else -1  # the far end of a centroid edge
    text = {}  # a child's string is dropped once its parent's is built
    for v, parent in _postorder(tree, root):
        text[v] = "1" + "".join(sorted([text.pop(w) for w in tree.neighbors(v)
                                        if w != parent and w != other])) + "0"
    halves = sorted([text[root], text[other]]) if other >= 0 else [text[root]]
    stack = [[]]
    for bracket in "".join(halves):
        if bracket == "1":
            stack.append([])
        else:
            closed = tuple(stack.pop())
            stack[-1].append(closed)
    return ("e", tuple(stack[0])) if other >= 0 else ("v", stack[0][0])


@lru_cache(maxsize=64)
def _bounded_tree_classes(n: int, max_degree: int) -> tuple[Tree, ...]:
    if n == 1:
        return (Tree(1, []),)
    smaller = _bounded_tree_classes(n - 1, max_degree)
    out: dict = {}
    for t in smaller:
        for v in range(t.n):
            if t.degree(v) >= max_degree:
                continue
            grown = Tree(n, [*t.edges, (v, n - 1)])
            out.setdefault(tree_canonical_form(grown), grown)
    return tuple(out[key] for key in sorted(out))


def enumerate_bounded_trees(n: int, max_degree: int,
                            limit: int | None = TREE_ENUM_LIMIT) -> Iterator[Tree]:
    """Every isomorphism class of trees on n vertices with maximum degree
    at most max_degree, exactly once, grown leaf by leaf and deduplicated
    by canonical form."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if max_degree < 1 and n > 1:
        raise ValueError("max_degree must be >= 1 for trees with edges")
    check_limit(n, limit, "tree size n")
    yield from _bounded_tree_classes(n, max_degree)


class CycleSubtreeCounts(NamedTuple):
    cycles: int
    subtrees: int


def cycle_subtree_counts(mop: Mop, k: int) -> CycleSubtreeCounts:
    """Pair (k-cycles of the host, (k-2)-subtrees of its weak dual); the two
    components agree, one face-set at a time."""
    if not (3 <= k <= mop.n):
        raise ValueError(f"cycle length {k} outside 3..{mop.n}")
    return CycleSubtreeCounts(
        cycles=count_cycles(mop.graph, k),
        subtrees=count_subtrees(weak_dual(mop), k - 2),
    )


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_tree_text(text: str) -> Tree:
    """Tree format: the edge-list format (first line n, then one 'u v'
    line per edge), validated as a tree."""
    g = parse_edge_list(text)
    return Tree(g.n, g.edges)


def format_tree_text(tree: Tree) -> str:
    """Emit with parents first along a breadth-first order from vertex 0."""
    lines = [str(tree.n)]
    seen = [False] * tree.n
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in tree.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    lines.append(f"{v} {w}")
                    nxt.append(w)
        frontier = nxt
    return "\n".join(lines) + "\n"

