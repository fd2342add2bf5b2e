"""Outerplanar host graphs and exact subgraph counting.

The universal host representation is `Mop`: a maximal outerplanar graph
stored as a convex polygon 0..n-1 plus a non-crossing chord set of size
exactly n-3.  Every outerplanar graph extends to one of these, and
subgraph counts only grow under edge addition, so all maximization runs
range over polygon triangulations.  A host's faces are read in one place,
`_upper_neighbours`: `Mop.triangles` lists them, and the weak dual's
subtree DP for `cycle-bijection` (`_dual_subtree_counts`) walks them.

Counting is deliberately dumb and trustworthy.  One iterative walk over
simple paths serves all path counters and the cycle counter of any
labelling: a path is counted from its lesser endpoint, a fixed-endpoint
path by its endpoint and length, and a cycle from its smallest vertex as
a path back to that vertex's neighbour, once in each direction and then
halved.  The one shortcut is for graphs drawn without crossings on the
polygon 0..n-1, every host and every subgraph of one: their cycles are
increasing paths, counted by a DP, with the walk as its test oracle.
Independent of both, a generic injective embedding counter divides by the
pattern's automorphism count.  The point of this module is to be an
oracle, not to be fast.
"""

from __future__ import annotations

import sys
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from heapq import heappop, heappush, merge
from itertools import chain, islice, pairwise
from math import comb
from typing import Iterable, Iterator

from .guards import ScaleLimitError, check_limit

__all__ = [
    "MopError",
    "InvalidChord",
    "DuplicateChord",
    "CrossingChords",
    "WrongChordCount",
    "Graph",
    "Tree",
    "Mop",
    "Pattern",
    "enumerate_mops",
    "enumerate_mop_orbits",
    "count_cycles",
    "cycle_histogram",
    "count_paths",
    "path_histogram",
    "count_paths_between",
    "paths_between_histogram",
    "subgraph_count",
    "count_patterns",
    "is_outerplanar_small",
    "fan",
    "fan_path_count",
    "triple_fan",
    "star_blowup",
    "canonical_chords",
    "parse_edge_list",
    "format_edge_list",
    "graph_to_dot",
]

MOP_ENUM_LIMIT = 16  # polygon size guard for exhaustive triangulation sweeps
HOST_VERTEX_LIMIT = 10**6  # vertices of a digit-rule graph and of a fan stream gen writes


class MopError(ValueError):
    """Invalid polygon-plus-chords data."""


class InvalidChord(MopError):
    pass


class DuplicateChord(MopError):
    pass


class CrossingChords(MopError):
    pass


class WrongChordCount(MopError):
    pass


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    `_noncrossing` is True only for a graph whose edges are known not to
    cross as chords of the polygon 0..n-1 (set by `_mop_graph`, whose
    chords `Mop` validated); False means unknown, and `cycle_histogram`
    then checks.
    """

    __slots__ = ("n", "edges", "_adj", "_noncrossing")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self.edges = frozenset(_checked_edges(n, edges))
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for v, a in enumerate(adj):  # each list is freed as its tuple is made
            a.sort()
            adj[v] = tuple(a)
        self._adj = tuple(adj)
        self._noncrossing = False

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def adjacent(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def edge_count(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((len(a) for a in self._adj), reverse=True))

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """New graph with vertex i renamed to perm[i]."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("relabeling must be a permutation of 0..n-1")
        return Graph(self.n, ((p[u], p[v]) for u, v in self.edges))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={len(self.edges)})"


class Tree(Graph):
    """Immutable tree on vertices 0..n-1: a `Graph` validated as connected
    with n-1 edges."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"tree needs at least 1 vertex, got {n}")
        super().__init__(n, edges)
        if len(self.edges) != n - 1:
            raise ValueError(f"{len(self.edges)} edges on {n} vertices; a tree has {n - 1}")
        seen = {0}
        stack = [0]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise ValueError("edge set is not connected")


def _checked_edges(n: int, edges: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The edges as (u, v), u < v, each checked in turn; a tuple already in
    that form is yielded itself, so a graph shares its caller's tuples."""
    for pair in edges:
        u, v = pair
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        if u > v:
            yield v, u
        elif type(pair) is tuple:
            yield pair
        else:
            yield u, v


def _normalize_chord(n: int, pair) -> tuple[int, int]:
    """The chord as (a, b), a < b, validated; a tuple already in that form
    is returned itself, so a valid chord set is validated without copying
    its chords."""
    a, b = pair
    if not (0 <= a < n and 0 <= b < n):
        raise InvalidChord(f"chord ({a},{b}) outside vertex range 0..{n - 1}")
    if a == b:
        raise InvalidChord(f"chord ({a},{b}) is a loop")
    if a > b:
        a, b = b, a
        pair = a, b
    elif type(pair) is not tuple:
        pair = a, b
    if b - a < 2 or n - (b - a) < 2:
        raise InvalidChord(f"chord ({a},{b}) is not a diagonal of the {n}-gon")
    return pair


def _first_crossing(chords: Iterable[tuple[int, int]]) -> tuple | None:
    """The first crossing pair of normalised chords (a < b) of the circle
    labelled 0..n-1, as (open chord, chord crossing it), or None: the
    sweep `_sorted_crossing` over the chords sorted as they are, with no
    key per chord.  O(m log m)."""
    return _sorted_crossing(sorted(chords))


def _sorted_crossing(order: Iterable[tuple[int, int]]) -> tuple | None:
    """`_first_crossing` of chords that come in sorted order, consumed one
    at a time; the sweep stops at the first crossing it finds.

    Laminarity sweep in (a, -b) order, so that chords sharing a left end
    come outermost first: the right ends of each run of one left end are
    held until the next left end comes, then opened from the last back to
    the first.  The open chords, each nested in the one below it, are held
    as two stacks of ints, their left ends and their right ends; chords
    whose right end is <= a are closed.  A chord crosses the innermost
    open chord exactly when it ends past that chord's right end, so only
    the last chord of a run can cross: the others nest inside it.  Chords
    sharing an end and polygon sides never cross.  O(m).
    """
    lefts: list[int] = []
    rights: list[int] = []
    run: list[int] = []
    a = None
    for left, right in chain(order, [(-1, -1)]):  # the sentinel ends the last run
        if left != a:
            while rights and rights[-1] <= a:
                lefts.pop()
                rights.pop()
            if rights and run[-1] > rights[-1]:
                return (lefts[-1], rights[-1]), (a, run[-1])
            for r in reversed(run):
                lefts.append(a)
                rights.append(r)
            run = []
            a = left
        run.append(right)
    return None


def _check_sorted_chords(n: int, chords: Iterable[tuple[int, int]]) -> None:
    """Raise a MopError subclass on the stream's first fault, in stream
    order, reading the chords once, in turn, and holding only the sweep's
    run and open chords, never the host.  A stream with one fault gets the
    error and message that `Mop(n, chords)` would raise; with more, `Mop`
    may name another, since it checks every chord before its sweep, while
    the sweep here stops at the first crossing and reads no further.

    The chords must come as `Mop` keeps them, normal tuples (a, b), a < b,
    and in sorted order, each once: a chord written otherwise, or one not
    above the chord before it, is refused too (a repeat as the
    DuplicateChord `Mop` raises).  The crossing sweep is
    `_sorted_crossing`, so a crossing is named as `Mop` names it.
    """
    if n < 3:
        raise MopError(f"polygon needs at least 3 vertices, got {n}")
    count = 0

    def checked():
        nonlocal count
        prev = (-1, -1)
        for pair in chords:
            if _normalize_chord(n, pair) is not pair:
                raise InvalidChord(f"chord {pair} is not a tuple (a, b) with a < b")
            if pair <= prev:
                if pair == prev:
                    raise DuplicateChord(f"chord {pair} given twice")
                raise MopError(f"chord {pair} comes after {prev}, out of sorted order")
            prev = pair
            count += 1
            yield pair

    crossing = _sorted_crossing(checked())
    _check_sweep(n, crossing, count)


def _check_sweep(n: int, crossing: tuple | None, count: int) -> None:
    """The last two checks on a chord set of the n-gon, after the crossing
    sweep: no crossing pair, and n-3 chords."""
    if crossing:
        raise CrossingChords("chords {} and {} cross".format(*crossing))
    if count != n - 3:
        raise WrongChordCount(f"{count} chords on a {n}-gon; a triangulation has {n - 3}")


def _sorted_edges(n: int, chords: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The edges of the host on the n-gon with these chords, in sorted
    order: the polygon's sides merged with the chords, which must come
    sorted.  Nothing is built or held."""
    return merge(zip(range(n - 1), range(1, n)), [(0, n - 1)], chords)


@dataclass(frozen=True)
class Mop:
    """Maximal outerplanar graph: convex polygon plus a full non-crossing
    chord set (n-3 chords, hence 2n-3 edges and n-2 triangular faces).

    Construction validates everything and raises a MopError subclass naming
    the offending chord pair otherwise.
    """

    n: int
    chords: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 3:
            raise MopError(f"polygon needs at least 3 vertices, got {self.n}")
        chords = self.chords
        # a frozenset of normal tuples is kept: no chord can be given twice
        if type(chords) is not frozenset or any(
                _normalize_chord(self.n, pair) is not pair for pair in chords):
            seen = set()
            for pair in chords:
                c = _normalize_chord(self.n, pair)
                if c in seen:
                    raise DuplicateChord(f"chord {c} given twice")
                seen.add(c)
            chords = frozenset(seen)
            del seen  # one chord set alive during the sort below
        object.__setattr__(self, "chords", chords)
        _check_sweep(self.n, _first_crossing(chords), len(chords))

    @property
    def graph(self) -> Graph:
        return _mop_graph(self.n, self.chords)

    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """The n-2 triangular faces, each a sorted vertex triple, in sorted
        order (the face tree of `_upper_neighbours`)."""
        return _mop_triangles(self.n, self.chords)

    def sorted_chords(self) -> list[tuple[int, int]]:
        return sorted(self.chords)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "chords": [list(c) for c in self.sorted_chords()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Mop":
        return cls(int(obj["n"]), frozenset((int(a), int(b)) for a, b in obj["chords"]))

    def __repr__(self):
        return f"Mop(n={self.n}, chords={self.sorted_chords()})"


@lru_cache(maxsize=16)
def _mop_graph(n: int, chords: frozenset) -> Graph:
    """The host's graph (`Mop.graph`).

    The window is small on purpose.  The only reuse in the package is a
    host's faces reusing that host's graph, and a caller reading one host
    a few times in a row; a sweep streams each host once and never comes
    back to it.  16 recent hosts cover that reuse, while a larger window
    only keeps the graphs and faces of hosts no one asks for again alive
    (4096 of them held 22 MB after reading every host at n = 11).
    """
    label = list(range(n))  # one int object per vertex for the sides
    g = Graph(n, chain(zip(label, islice(label, 1, None)), [(0, n - 1)], chords))
    g._noncrossing = True  # Mop.__post_init__ proved the chords do not cross
    return g


@lru_cache(maxsize=16)
def _mop_triangles(n: int, chords: frozenset) -> tuple[tuple[int, int, int], ...]:
    """The host's faces (`Mop.triangles`) in sorted order, cached over the
    same window as `_mop_graph`, for the same reason."""
    return tuple((a, m, c) for a, up in enumerate(_upper_neighbours(_mop_graph(n, chords)))
                 for m, c in pairwise(up))


def _upper_neighbours(g: Graph) -> list[tuple[int, ...]]:
    """Each vertex's neighbours above it, ascending.

    On a host these lists are its faces.  The faces at a fan out between
    its neighbours in polygon order, so with a's upper neighbours
    a+1 = u_0 < u_1 < ..., the faces whose least vertex is a are
    (a, u_i, u_{i+1}), one per consecutive pair.  Each is read off its
    longest side (a, u_{i+1}), the longest side of no other face, and its
    children are the faces read off its shorter sides where those are
    chords: (a, u_i), the pair before at a, and (u_i, u_{i+1}), the last
    pair at u_i, as no chord at u_i crosses (a, u_{i+1}).  This is the
    weak dual as a binary tree rooted at the face on (0, n-1).  Walking a
    ascending, pairs ascending, gives the sorted order (`Mop.triangles`);
    a descending, pairs ascending, puts every face after its children
    (`_dual_subtree_counts`).
    """
    return [a[bisect_right(a, v):] for v, a in enumerate(g._adj)]


def _dual_subtree_counts(mop: Mop) -> list[int]:
    """`count_subtrees_all(weak_dual(mop))`, without building the dual.

    The rooted subtree polynomial of the face read off (a, c) with apex m
    is P(a, c) = x * (1 + P(a, m)) * (1 + P(m, c)), with P = 0 on a
    polygon side.  The postorder of `_upper_neighbours` makes P(a, m) one
    step earlier, at a, and P(m, c) as the last one at m.

    Packing, as in `_increasing_cycle_histogram`: one int holds a
    polynomial, field j (`width` bits) its x**j coefficient.  Each
    coefficient, of a P or of their sum, counts distinct j-face sets, at
    most C(N, N // 2) for N = n - 2 faces; `width` is that bound's bit
    length, so no field carries, and the factor x is a shift.

    The ints grow to about N * width bits, so this serves the sweep's
    small hosts: on `numeral_graph(10, 3)` it takes longer than building
    the dual and counting on it.
    """
    n = mop.n
    faces = n - 2
    width = comb(faces, faces // 2).bit_length()
    up = _upper_neighbours(mop.graph)
    last = [0] * n  # P of a's last face, once a is visited
    total = 0
    for a in range(n - 3, -1, -1):
        p = 0
        for m in up[a][:-1]:  # the apex of each face at a
            p = (p + 1) * (last[m] + 1) << width
            total += p
        last[a] = p
    mask = (1 << width) - 1
    return [(total >> j * width) & mask for j in range(faces + 1)]


# ---------------------------------------------------------------------------
# Triangulation enumeration
# ---------------------------------------------------------------------------

def _triangulation_chords(lo: int, hi: int) -> Iterator[tuple]:
    """All triangulations of the convex polygon on the labels lo..hi, as
    tuples of chords (a, b), a < b.  Recursion on the edge (lo, hi): pick
    its triangle's apex m, then triangulate the label runs lo..m and m..hi.
    """
    if hi - lo < 2:
        yield ()
        return
    for m in range(lo + 1, hi):
        own = ((lo, m),) if m - lo >= 2 else ()
        if hi - m >= 2:
            own += ((m, hi),)
        for left in _triangulation_chords(lo, m):
            for right in _triangulation_chords(m, hi):
                yield left + right + own


def enumerate_mops(n: int, limit: int | None = MOP_ENUM_LIMIT) -> Iterator[Mop]:
    """Every labeled triangulation of the convex n-gon, exactly once
    (catalan(n-2) of them), each on one chord frozenset that `Mop` keeps."""
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {n}")
    check_limit(n, limit, "polygon size n")
    depth = sys.getrecursionlimit() // 2  # _triangulation_chords nests n generators
    if n > depth:
        raise ValueError(f"polygon size n={n} exceeds {depth}, the deepest "
                         "triangulation stream the recursion limit allows")
    for chords in _triangulation_chords(0, n - 1):
        yield Mop(n, frozenset(chords))


def enumerate_mop_orbits(n: int) -> Iterator[Mop]:
    """One triangulation of the convex n-gon per dihedral orbit, that is,
    per isomorphism class (OEIS A000207: 1, 1, 1, 3, 4, 12, 27, 82, ... for
    n = 3, 4, 5, ...).  The representative is the labeled host whose sorted
    chord list equals canonical_chords of its orbit, and hosts come in
    ascending order of that list.

    The orbits are generated, not filtered out of enumerate_mops: see
    `_orbit_keys`.  Use it only for sweeps whose result is a graph
    invariant.
    """
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {n}")
    try:
        check_limit(n, MOP_ENUM_LIMIT, "polygon size n")
    except ScaleLimitError as exc:
        exc.hint = "lower n (enumerate_mop_orbits takes no limit)"
        raise
    for key in _orbit_keys(n):
        yield Mop(n, frozenset(_decode(n, key)))


# _ORBIT_LEVELS[m - 3] = `_orbit_keys(m)`.  Levels are only ever appended,
# under _ORBIT_LOCK, so each is built once per process and shared by every
# later call for any size.
_ORBIT_LEVELS: list[tuple[tuple[int, ...], ...]] = [((),)]
_ORBIT_LOCK = threading.Lock()


def _orbit_keys(n: int) -> tuple[tuple[int, ...], ...]:
    """The orbit key (`_orbit_key`) of every dihedral orbit of
    triangulations of the n-gon, n >= 3, in ascending order.  Unguarded.

    Built level by level from the triangle by ear insertion.  Every
    triangulation of an m-gon, m >= 4, has an ear, a vertex of degree 2;
    cutting it off leaves a triangulation of the (m-1)-gon in which the
    ear's base is a side.  A relabelling of the (m-1)-gon permutes its
    sides, so every orbit of the m-gon arises from one representative of
    some (m-1)-gon orbit by putting an ear on one of its sides: relabel
    v -> v - s (mod m-1), which sends the side (s-1, s) to (m-2, 0), add
    vertex m-1 between m-2 and 0, and make the old side the chord
    (0, m-2).  Keying every child and keeping a set leaves one key per
    orbit.

    The levels are kept in `_ORBIT_LEVELS`, immutable tuples grown under
    `_ORBIT_LOCK` as `exactmath._PROFILE_ROWS` is, so a call for a smaller
    size, or the next one, reuses them.  Levels 3..n hold about 16 kB at
    n = 11 and 1.4 MB at n = 14 (tracemalloc), and grow about x3.7 a size.
    """
    levels = _ORBIT_LEVELS
    with _ORBIT_LOCK:
        for m in range(len(levels) + 3, n + 1):
            k = m - 1
            children = set()
            for key in levels[-1]:
                pairs = _decode(k, key)
                for s in range(k):
                    child = [((a - s) % k, (b - s) % k) for a, b in pairs]
                    child.append((0, k - 1))
                    children.add(_orbit_key(m, child))
            levels.append(tuple(sorted(children)))
    return levels[max(n, 3) - 3]  # below 3, the empty key alone, as for n = 3


# ---------------------------------------------------------------------------
# Cycle and path counting
# ---------------------------------------------------------------------------

def _walk(adj, s: int, top: int, floor: int, slot, counts) -> None:
    """Walk every simple path that starts at s, has at most `top` edges and
    avoids the vertices <= floor.  A path of e edges ending at w adds one
    to counts[e][slot[w]]; a negative slot is walked but not counted.

    Iterative: stack[d] iterates the neighbours of path[d], the vertex d
    edges along the current path, for d < top - 2.  The last two levels,
    the paths of top - 1 and top edges, are two plain nested loops, run
    where a frame finds a free neighbour w of path[top - 3] (or from s
    itself when top <= 2): over the neighbours x of w and the neighbours
    of each free x.  Those paths are counted and never extended, so they
    need no frame, and x is not even marked, since no neighbour of x is
    x.  The stack holds at most top - 2 frames, so the depth is bounded
    by `top`, not by the interpreter's recursion limit.
    """
    on_path = [True] * (floor + 1) + [False] * (len(adj) - floor - 1)
    on_path[s] = True
    if top < 3:  # s is where the loops start
        for x in adj[s] if top else ():
            if on_path[x]:
                continue
            i = slot[x]
            if i >= 0:
                counts[1][i] += 1
            if top == 2:
                for y in adj[x]:
                    if not on_path[y]:
                        i = slot[y]
                        if i >= 0:
                            counts[2][i] += 1
        return
    base = top - 2  # the depth of the vertex the loops start from
    near, far = counts[top - 1], counts[top]
    path = [s] * base
    stack = [iter(adj[s])] + [None] * (base - 1)
    d = 0
    while d >= 0:
        for w in stack[d]:
            if on_path[w]:
                continue
            e = d + 1
            i = slot[w]
            if i >= 0:
                counts[e][i] += 1
            on_path[w] = True
            if e < base:
                path[e] = w
                stack[e] = iter(adj[w])
                d = e
                break
            for x in adj[w]:
                if on_path[x]:
                    continue
                i = slot[x]
                if i >= 0:
                    near[i] += 1
                for y in adj[x]:
                    if not on_path[y]:
                        i = slot[y]
                        if i >= 0:
                            far[i] += 1
            on_path[w] = False
        else:
            on_path[path[d]] = False
            d -= 1


def cycle_histogram(g: Graph, max_k: int | None = None) -> dict[int, int]:
    """Counts of simple cycles by length, up to max_k vertices.

    The route depends on the labelling.  When g's edges, read as chords of
    a circle labelled 0..n-1 in order, pairwise do not cross (every `Mop`
    graph and every subgraph of one), a cycle's vertices lie in convex
    position and its edges do not cross: it is a simple polygon on points
    in convex position, so it is their convex hull and visits them in
    circle order.  A k-cycle with least vertex s is then exactly one
    increasing path s < v_2 < ... < v_k with v_k adjacent to s, which
    `_increasing_cycle_histogram` counts.  Any other labelling goes to the
    backtracker, `_walk_cycle_histogram`.  A `Mop` graph skips the check:
    its chords were proven non-crossing when the `Mop` was built.
    """
    if g._noncrossing or _first_crossing(g.edges) is None:
        return _increasing_cycle_histogram(g, max_k)
    return _walk_cycle_histogram(g, max_k)


def _walk_cycle_histogram(g: Graph, max_k: int | None = None) -> dict[int, int]:
    """Counts of simple cycles by length, for any labelling.

    A k-cycle whose smallest vertex is s is a (k-1)-edge path from s
    through larger vertices back to a neighbour of s; it is walked once
    in each direction, so the walk counts are halved.
    """
    top = g.n if max_k is None else min(max_k, g.n)
    if top < 3:
        return {}
    counts = [[0] for _ in range(top)]
    adj = g._adj
    for s in range(g.n - 2):
        slot = [-1] * g.n
        for w in adj[s]:
            slot[w] = 0
        _walk(adj, s, top - 1, s, slot, counts)
    return {e + 1: c // 2 for e, (c,) in enumerate(counts) if e >= 2 and c}


def _increasing_cycle_histogram(g: Graph, max_k: int | None = None) -> dict[int, int]:
    """Counts of simple cycles by length for a graph whose edges do not
    cross as chords of the circle 0..n-1: each k-cycle is counted once, as
    the increasing (k-1)-edge path from its least vertex s to a neighbour
    of s (see `cycle_histogram`).

    From each s, path counts are pushed along the up-edges v -> u (u > v)
    of the vertices reached so far, popped from a heap in increasing
    order, and never past s's largest neighbour, after which no path can
    close.  Only vertices reached within top-1 edges are touched.  A
    popped vertex is never a target again, so its counts are dropped (and
    added to the total if it is a neighbour of s) when it is popped: only
    the reached vertices not yet popped hold counts.  The counts and the
    neighbour marks sit in two vertex-indexed lists made once per call:
    a popped vertex's count goes back to 0, and a mark names its s.

    Packing: one int holds a vertex's path counts, field e (`width` bits)
    the e-edge paths, and only fields e < top are kept.  An increasing
    path is fixed by its vertex set, so every field e, of one vertex's
    counts or of the total (which adds up edges at e = 1 and cycles at
    e >= 2), counts distinct (e+1)-vertex sets and is at most
    C(n, e+1) <= C(n, min(top, n // 2)).  `width` is that bound's bit
    length, so no field ever carries into the next.
    """
    n = g.n
    top = n if max_k is None else min(max_k, n)
    if top < 3:
        return {}
    width = comb(n, min(top, n // 2)).bit_length()
    keep = (1 << width * top) - 1
    edge = 1 << width  # one path of one edge
    up = _upper_neighbours(g)
    total = 0
    paths = [0] * n  # nonzero exactly at the reached, unpopped vertices
    closes = [-1] * n  # closes[v] == s: v is a neighbour of s
    for s in range(n - 2):
        ends = up[s]
        if len(ends) < 2:
            continue
        far = ends[-1]
        for v in ends:
            paths[v] = edge
            closes[v] = s
        heap = list(ends)  # sorted, so already a heap
        while heap:
            v = heappop(heap)
            c = paths[v]
            paths[v] = 0
            if closes[v] == s:
                total += c
            step = (c << width) & keep
            if step:
                for u in up[v]:
                    if u > far:
                        break
                    p = paths[u]
                    if not p:
                        heappush(heap, u)
                    paths[u] = p + step
    mask = edge - 1
    hist = {}
    for e in range(2, top):
        count = (total >> e * width) & mask
        if count:
            hist[e + 1] = count
    return hist


def count_cycles(g: Graph, k: int) -> int:
    """Number of k-vertex cycle subgraphs."""
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    return cycle_histogram(g, max_k=k).get(k, 0)


def path_histogram(g: Graph, max_edges: int | None = None) -> dict[int, int]:
    """Counts of simple paths by edge count, each path counted once: from
    its lesser endpoint."""
    top = (g.n - 1) if max_edges is None else min(max_edges, g.n - 1)
    if top < 1:
        return {}
    counts = [[0] for _ in range(top + 1)]
    for s in range(g.n - 1):
        slot = [-1] * (s + 1) + [0] * (g.n - s - 1)
        _walk(g._adj, s, top, -1, slot, counts)
    return {e: c for e, (c,) in enumerate(counts) if c}


def count_paths(g: Graph, k: int) -> int:
    """Number of simple path subgraphs with exactly k edges."""
    if k < 1:
        raise ValueError(f"path edge count must be >= 1, got {k}")
    return path_histogram(g, max_edges=k).get(k, 0)


def paths_between_histogram(g: Graph, u: int) -> dict[tuple[int, int], int]:
    """For a fixed start u: counts of simple paths keyed by (endpoint, edge
    count).  One walk shared by all endpoints."""
    counts = [[0] * g.n for _ in range(g.n)]
    _walk(g._adj, u, g.n - 1, -1, list(range(g.n)), counts)
    return {(w, e): c for e, row in enumerate(counts) for w, c in enumerate(row) if c}


def count_paths_between(g: Graph, u: int, v: int, k: int) -> int:
    """Number of simple u-v paths with exactly k edges."""
    if u == v:
        raise ValueError("endpoints must differ")
    if k < 1:
        raise ValueError(f"path edge count must be >= 1, got {k}")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"endpoints ({u},{v}) outside vertex range 0..{g.n - 1}")
    if k >= g.n:
        return 0
    slot = [-1] * g.n
    slot[v] = 0
    counts = [[0] for _ in range(k + 1)]
    _walk(g._adj, u, k, -1, slot, counts)
    return counts[k][0]


# ---------------------------------------------------------------------------
# Generic pattern counting
# ---------------------------------------------------------------------------

PATTERN_SIZE_LIMIT = 10  # embedding and automorphism search is plain backtracking


@dataclass(frozen=True)
class Pattern:
    """What to count in a host: a cycle by vertex count, a path by edge
    count, or a tree given by its edges.  `n` is the vertex count of every
    kind: set from the size for a cycle (k) or a path (k + 1), required
    for a tree.

    `graph` and `automorphisms` serve the generic embedding counter; each
    is built on first use, once per pattern, so cycle and path sweeps
    never build them.
    """

    kind: str
    size: int = 0
    n: int = 0
    edges: tuple = ()

    def __post_init__(self):
        if self.kind == "cycle":
            if self.size < 3:
                raise ValueError(f"cycle length must be >= 3, got {self.size}")
            n = self.size
        elif self.kind == "path":
            if self.size < 1:
                raise ValueError(f"path edge count must be >= 1, got {self.size}")
            n = self.size + 1
        elif self.kind == "tree":
            tree = Tree(self.n, self.edges)  # validates shape
            object.__setattr__(self, "edges", tuple(sorted(tree.edges)))
            n = tree.n
        else:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.n not in (0, n):
            raise ValueError(f"{self.describe()} has {n} vertices, got n={self.n}")
        object.__setattr__(self, "n", n)

    @classmethod
    def cycle(cls, k: int) -> "Pattern":
        return cls(kind="cycle", size=k)

    @classmethod
    def path(cls, edges: int) -> "Pattern":
        return cls(kind="path", size=edges)

    @classmethod
    def tree(cls, tree: Tree) -> "Pattern":
        return cls(kind="tree", n=tree.n, edges=tree.edges)

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """cycle:K | path:K (K = edge count) | patterns read from files are
        built with Pattern.tree by the caller."""
        kind, _, arg = text.partition(":")
        if kind in ("cycle", "path") and arg.isdigit():
            return cls.cycle(int(arg)) if kind == "cycle" else cls.path(int(arg))
        raise ValueError(f"cannot parse pattern {text!r}; want cycle:K or path:K")

    def describe(self) -> str:
        if self.kind == "cycle":
            return f"cycle:{self.size}"
        if self.kind == "path":
            return f"path:{self.size}"
        return f"tree:n={self.n}"

    @cached_property
    def graph(self) -> Graph:
        """The pattern as a plain graph, size-guarded for the generic
        counter."""
        if self.n > PATTERN_SIZE_LIMIT:
            raise ValueError(f"pattern on {self.n} vertices exceeds the guard {PATTERN_SIZE_LIMIT}")
        if self.kind == "cycle":
            return Graph(self.n, [(i, (i + 1) % self.n) for i in range(self.n)])
        if self.kind == "path":
            return Graph(self.n, [(i, i + 1) for i in range(self.size)])
        return Graph(self.n, self.edges)

    @cached_property
    def automorphisms(self) -> int:
        """Order of the automorphism group.  An injective edge-preserving
        map of a finite graph into itself permutes its edges, so it is an
        automorphism."""
        return _count_injective_maps(self.graph, self.graph)


def _embedding_order(h: Graph) -> list[int]:
    """Pattern vertices ordered so each one touches an earlier one; only
    when no unplaced vertex does, the next one starts a new component."""
    order = [max(range(h.n), key=lambda v: (h.degree(v), -v))]
    placed = set(order)
    while len(order) < h.n:
        nxt = max(
            (v for v in range(h.n) if v not in placed
             and any(w in placed for w in h.neighbors(v))),
            key=lambda v: (sum(w in placed for w in h.neighbors(v)), h.degree(v), -v),
            default=None,
        )
        if nxt is None:
            nxt = max((v for v in range(h.n) if v not in placed),
                      key=lambda v: (h.degree(v), -v))
        order.append(nxt)
        placed.add(nxt)
    return order


def _count_injective_maps(g: Graph, h: Graph, stop_at: int | None = None) -> int:
    """Injective maps V(h) -> V(g) sending every pattern edge to a host
    edge.  stop_at short-circuits existence queries: the count is then
    min(stop_at, maps).

    Position i of the embedding order takes its candidates from the host
    neighbours of its first anchor's image (every host vertex when it has
    no anchor), so only its further anchors need an adjacency test; in a
    tree pattern no vertex has one.  The last position's candidates are
    counted, not placed.
    """
    order = _embedding_order(h)
    at = {v: i for i, v in enumerate(order)}
    # the positions of earlier-placed pattern neighbours, per position
    anchors = [[at[w] for w in h.neighbors(v) if at[w] < i] for i, v in enumerate(order)]
    first = [a[0] if a else -1 for a in anchors]
    rest = [a[1:] for a in anchors]
    need = [h.degree(v) for v in order]
    adj = g._adj
    deg = [len(a) for a in adj]
    hosts = range(g.n)
    image = [0] * h.n  # image[i]: host vertex of position i
    used = [False] * g.n
    last = h.n - 1
    count = 0

    def place(i: int):
        nonlocal count
        k = need[i]
        for w in (adj[image[first[i]]] if first[i] >= 0 else hosts):
            if used[w] or deg[w] < k:
                continue
            if rest[i] and not all(g.adjacent(w, image[x]) for x in rest[i]):
                continue
            if i == last:
                count += 1
                continue
            image[i] = w
            used[w] = True
            place(i + 1)
            used[w] = False
            if stop_at is not None and count >= stop_at:
                return

    place(0)
    return count if stop_at is None else min(count, stop_at)


def subgraph_count(g: Graph, pattern: Pattern) -> int:
    """Number of subgraphs of g isomorphic to the pattern: injective
    edge-preserving maps divided by the pattern's automorphism count."""
    h = pattern.graph  # the size guard fires even when the host is smaller
    if h.n > g.n:
        return 0
    q, r = divmod(_count_injective_maps(g, h), pattern.automorphisms)
    if r:  # cannot happen; embeddings come in automorphism orbits
        raise ArithmeticError("embedding count not divisible by automorphism count")
    return q


def count_patterns(g: Graph, patterns) -> list[int]:
    """The count of each pattern in g.  All cycles share one walk and all
    paths another, each up to the longest one asked for; trees go to the
    generic embedding counter."""
    cyc = [p.size for p in patterns if p.kind == "cycle"]
    pth = [p.size for p in patterns if p.kind == "path"]
    chist = cycle_histogram(g, max_k=max(cyc)) if cyc else {}
    phist = path_histogram(g, max_edges=max(pth)) if pth else {}
    return [chist.get(p.size, 0) if p.kind == "cycle"
            else phist.get(p.size, 0) if p.kind == "path"
            else subgraph_count(g, p) for p in patterns]


def is_outerplanar_small(g: Graph) -> bool:
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
    for mop in enumerate_mop_orbits(g.n):
        if _count_injective_maps(mop.graph, g, stop_at=1):
            return True
    return False


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def fan(n: int) -> Mop:
    """Polygon 0..n-1 with every diagonal from vertex 0: the join of a hub
    with a path on n-1 vertices."""
    return Mop(n, frozenset(_fan_chords(n, None)))


def _fan_chords(n: int, limit: int | None = HOST_VERTEX_LIMIT) -> Iterator[tuple[int, int]]:
    """fan(n)'s chords in sorted order, each once, after fan's check on n
    and the vertex guard (limit=None lifts it), which run at the call, not
    at the first chord.  fan itself calls with no guard."""
    if n < 3:
        raise ValueError(f"fan needs at least 3 vertices, got {n}")
    check_limit(n, limit, "vertex count n")
    return ((0, j) for j in range(2, n - 1))


def fan_path_count(n: int, k: int) -> int:
    """Closed-form count of k-edge paths in fan(n), for n > k >= 3.

    Split by how the hub occurs: not at all (subpaths of the rim path),
    as an endpoint (a rim interval walked either way), or inside (two
    disjoint rim intervals, each walked either way, with the two interval
    lengths 1 contributing half).
    """
    if not (n > k >= 3):
        raise ValueError(f"need n > k >= 3, got n={n}, k={k}")
    return 4 * (k - 2) * comb(n + 1 - k, 2) + 3 * (n - k) - 1


def triple_fan(n: int) -> Mop:
    """Three fans on n/3+1 vertices glued in a ring, each hub identified
    with the far rim end of the previous fan.

    Laid out on the polygon with hubs at 0, n/3, 2n/3; the three hub-to-hub
    chords bound the central triangular face.
    """
    return Mop(n, frozenset(_triple_fan_chords(n, None)))


def _triple_fan_chords(n: int,
                       limit: int | None = HOST_VERTEX_LIMIT) -> Iterator[tuple[int, int]]:
    """triple_fan(n)'s chords in sorted order, each once, after its check
    on n and the vertex guard (limit=None lifts it; triple_fan passes
    None), which run at the call.  Hub h = 0, m, 2m (m = n/3) is joined to
    h+2..h+m; the last hub's chord to h+m = n is (0, 2m)."""
    if n % 3 != 0 or n < 6:
        raise ValueError(f"triple fan needs n divisible by 3 and >= 6, got {n}")
    check_limit(n, limit, "vertex count n")
    m = n // 3
    return chain(((0, j) for j in range(2, m + 1)), [(0, 2 * m)],
                 ((m, j) for j in range(m + 2, 2 * m + 1)),
                 ((2 * m, j) for j in range(2 * m + 2, n)))


def star_blowup(pattern: Pattern, s: int) -> Graph:
    """Replace every pendant edge of the pattern by a star of s fresh
    leaves on the pendant edge's internal endpoint.

    Any of the s leaves can play the original leaf's role, so the result
    carries at least s^(number of leaves) copies of the pattern.  Requires
    a pattern with at least one internal vertex.
    """
    if s < 1:
        raise ValueError(f"star size must be >= 1, got {s}")
    h = pattern.graph
    leaves = [v for v in range(h.n) if h.degree(v) == 1]
    if h.n - len(leaves) < 1:
        raise ValueError("pattern has no internal vertex to anchor the stars")
    keep = [v for v in range(h.n) if h.degree(v) > 1]
    new_id = {v: i for i, v in enumerate(keep)}
    edges = [(new_id[u], new_id[v]) for u, v in h.edges
             if h.degree(u) > 1 and h.degree(v) > 1]
    nxt = len(keep)
    for v in leaves:
        (center,) = h.neighbors(v)
        for _ in range(s):
            edges.append((new_id[center], nxt))
            nxt += 1
    return Graph(nxt, edges)


# ---------------------------------------------------------------------------
# Canonical form and serialization
# ---------------------------------------------------------------------------

def _orbit_key(n: int, pairs) -> tuple[int, ...]:
    """The least of the chords' 2n images under the dihedral relabelings
    of the polygon (rotations v -> v + s and reflections v -> s - v,
    mod n), as the sorted tuple of codes a*n + b, a < b.  Codes order like
    the (a, b) tuples, so images compare like their sorted chord tuples,
    and two chord sets share a key exactly when one is an image of the
    other.  pairs, in either orientation, is read more than once, so it
    must not be an iterator.

    Only some images are built.  Let d be the least cyclic length of a
    chord.  No image holds a code below d, the code of (0, d), and an
    image holds it exactly when its relabeling sends a shortest chord to
    (0, d).  So the least image is the least of those images: two per
    shortest chord.  (When d = n/2, v -> v - b and v -> a - v send (a, b)
    to (0, d) too; but then every chord is a diameter, which the half
    turn fixes, so they give the images of v -> v - a and v -> b - v.)
    """
    d, short = n, []
    for a, b in pairs:
        e = (b - a) % n
        if e > n - e:
            a, b, e = b, a, n - e  # now b = a + e (mod n)
        if e < d:
            d, short = e, [(a, b)]
        elif e == d:
            short.append((a, b))
    if not short:
        return ()
    rot = list(range(n)) * 2
    ref = rot[::-1]  # ref[i] = n - 1 - (i mod n)
    perms = []
    for a, b in short:  # v -> v - a and v -> b - v send (a, b) to (0, d)
        perms += [rot[n - a:2 * n - a], ref[n - 1 - b:2 * n - 1 - b]]
    return min(tuple(sorted([x * n + y if (x := p[a]) < (y := p[b]) else y * n + x
                             for a, b in pairs]))
               for p in perms)


def canonical_chords(n: int, chords: Iterable[tuple[int, int]]) -> tuple:
    """Least chord set over the 2n dihedral relabelings of the polygon.

    Two triangulations are isomorphic graphs iff their canonical chord
    sets agree: for n >= 4 the polygon boundary is the unique Hamiltonian
    cycle of a maximal outerplanar graph, so every isomorphism respects it.
    """
    return _decode(n, _orbit_key(n, list(chords)))


def _decode(n: int, key: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The sorted chord tuple whose codes a*n + b make up the key."""
    return tuple(divmod(code, n) for code in key)


def _dihedral_images(n: int, chords) -> set[tuple[tuple[int, int], ...]]:
    """The distinct images of the chords under the 2n dihedral relabelings
    of the polygon (v -> s + v and v -> s - v, mod n), each as a sorted
    chord tuple: every labelled host of the chords' orbit."""
    images = set()
    for s in range(n):
        for sign in (1, -1):
            image = []
            for a, b in chords:
                x, y = (s + sign * a) % n, (s + sign * b) % n
                image.append((x, y) if x < y else (y, x))
            images.add(tuple(sorted(image)))
    return images


def parse_edge_list(text: str) -> Graph:
    """Edge-list format: first line n, then one 'u v' line per edge.  A bad
    line is refused with its number, blank and '#' lines counted."""
    lines = [(i, ln) for i, ln in enumerate((raw.strip() for raw in text.splitlines()), 1)
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge list")
    (n,) = _line_ints(*lines[0], 1, "the vertex count n")
    return Graph(n, [_line_ints(i, ln, 2, "'u v'") for i, ln in lines[1:]])


def _line_ints(i: int, line: str, count: int, want: str) -> tuple[int, ...]:
    try:
        values = tuple(map(int, line.split()))
    except ValueError:
        values = ()
    if len(values) != count:
        raise ValueError(f"line {i}: want {want}, got {line!r}")
    return values


def format_edge_list(g: Graph) -> str:
    return "".join(_edge_list_lines(g.n, sorted(g.edges)))


def graph_to_dot(g: Graph, name: str = "G") -> str:
    return "".join(_dot_lines(g.n, sorted(g.edges), name))


def _edge_list_lines(n: int, edges: Iterable[tuple[int, int]]) -> Iterator[str]:
    """The edge-list text of a graph on n vertices, given its sorted
    edges, line by line."""
    yield f"{n}\n"
    for u, v in edges:
        yield f"{u} {v}\n"


def _dot_lines(n: int, edges: Iterable[tuple[int, int]], name: str = "G") -> Iterator[str]:
    """The DOT text of a graph on n vertices, given its sorted edges, line
    by line."""
    yield f"graph {name} {{\n"
    for v in range(n):
        yield f"  {v};\n"
    for u, v in edges:
        yield f"  {u} -- {v};\n"
    yield "}\n"
