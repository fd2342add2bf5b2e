"""Exact integer and rational combinatorics behind the cycle-density constants.

Everything here is computed with arbitrary-precision integers and
`fractions.Fraction`; no floating point enters any value.

The central objects:

* `catalan(n)` and the fixed-vertex subtree count in the infinite
  3-regular tree (their difference of consecutive Catalan numbers);
* `SubtreeProfileTable`: the double-indexed count of k-vertex subtrees
  hanging from a deepest-level vertex of a large complete binary tree,
  split by how many deepest-level vertices the subtree uses.  Its rows
  live once per process in a shared, append-only store that grows on
  demand, so every table is a bounds-checked view of the same rows and no
  row is computed twice;
* `subtree_density(k)` / `cycle_density(k)`: the exact per-vertex density
  of k-vertex subtrees in binary trees, equivalently of (k+2)-cycles in
  the densest outerplanar hosts;
* `path_count_bounds`: the recursive upper bounds on the number of
  fixed-endpoint paths in outerplanar graphs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
import threading

__all__ = [
    "catalan",
    "fixed_vertex_subtree_count",
    "SubtreeProfileTable",
    "subtree_profile_table",
    "subtree_density",
    "cycle_density",
    "density_lower_exact",
    "PathCountBounds",
    "path_count_bounds",
    "rational_to_json",
    "rational_from_json",
]

@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """n-th Catalan number, exactly."""
    if n < 0:
        raise ValueError(f"catalan is defined for n >= 0, got {n}")
    return comb(2 * n, n) // (n + 1)


def fixed_vertex_subtree_count(k: int) -> int:
    """Number of k-vertex subtrees through a fixed vertex of the infinite
    3-regular tree.

    Evaluates 3/(2k+1) * C(2k+1, k-1), which is always an integer and
    coincides with catalan(k+1) - catalan(k).
    """
    if k < 1:
        raise ValueError(f"subtree size must be >= 1, got {k}")
    q, r = divmod(3 * comb(2 * k + 1, k - 1), 2 * k + 1)
    if r:  # cannot happen; guards the integer division
        raise ArithmeticError(f"non-integral subtree count at k={k}")
    return q


# _PROFILE_ROWS[k][r] = SubtreeProfileTable count(k, r) for r = 0..k (entry
# 0 unused).  Rows are only ever appended, so each is computed once per process.
_PROFILE_ROWS: list[list[int]] = [[0], [0, 1]]
_PROFILE_LOCK = threading.Lock()


def _profile_rows(k_max: int) -> list[list[int]]:
    """The shared rows, grown up to row k_max.  Zero terms of the recursion
    are skipped: C(2s-1, r-1) vanishes for r > 2s, so s starts at ceil(r/2).
    Entry r = k stays 0: the deleted level was everything, no anchor above.
    """
    rows = _PROFILE_ROWS
    with _PROFILE_LOCK:
        for k in range(len(rows), k_max + 1):
            row = [0] * (k + 1)
            for r in range(1, k):
                prev = rows[k - r]
                row[r] = sum(prev[s] * comb(2 * s - 1, r - 1)
                             for s in range((r + 1) // 2, k - r + 1) if prev[s])
            rows.append(row)
    return rows


class SubtreeProfileTable:
    """Counts of k-vertex subtrees through a fixed deepest-level vertex of a
    large complete binary tree, indexed by (k, r) where r is the number of
    deepest-level vertices the subtree uses.

    Entries satisfy the recursion

        count(k, r) = sum_s count(k-r, s) * C(2s-1, r-1)

    obtained by deleting the deepest level: a surviving (k-r)-vertex subtree
    with s vertices on the new deepest level can be re-expanded by r deepest
    vertices, one of which is the fixed one, in C(2s-1, r-1) ways.

    A table is a bounds-checked view of the module's shared rows up to k_max.
    """

    def __init__(self, k_max: int):
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        self.k_max = k_max
        self._rows = _profile_rows(k_max)

    def count(self, k: int, r: int) -> int:
        """Entry at subtree size k and deepest-level multiplicity r."""
        if not (1 <= k <= self.k_max):
            raise ValueError(f"k={k} outside table range 1..{self.k_max}")
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        return self._rows[k][r] if r <= k else 0

    def row(self, k: int) -> tuple:
        """All entries (r = 1..k) for subtree size k."""
        if not (1 <= k <= self.k_max):
            raise ValueError(f"k={k} outside table range 1..{self.k_max}")
        return tuple(self._rows[k][1:])


@lru_cache(maxsize=None)
def subtree_profile_table(k_max: int) -> SubtreeProfileTable:
    """Shared, immutable profile table up to k_max (tables never mutate)."""
    return SubtreeProfileTable(k_max)


def subtree_density(k: int) -> Fraction:
    """Exact per-vertex density of k-vertex subtrees in large complete
    binary trees: sum over r of count(k, r) / r.

    Each subtree with r deepest-level vertices is seen from r anchor
    choices, hence the division.
    """
    if k < 1:
        raise ValueError(f"subtree size must be >= 1, got {k}")
    row = _profile_rows(k)[k]
    return sum((Fraction(c, r) for r, c in enumerate(row) if c), Fraction(0))


def cycle_density(k: int) -> Fraction:
    """Exact per-vertex asymptotic maximum density of k-cycles in n-vertex
    outerplanar graphs.

    A k-cycle in a triangulated host corresponds to a (k-2)-vertex subtree
    of the weak dual, so this is subtree_density(k - 2).
    """
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    return subtree_density(k - 2)


def density_lower_exact(k: int) -> Fraction:
    """Exact rational lower bound on subtree_density(k) from the explicit
    subtree family: a full binary cap of q levels with an arbitrary
    beta-vertex tree below each of its 2^q deepest vertices, normalised per
    host vertex.

    q is the smallest integer with 4^q >= k and beta = floor(k / 2^q) - 2;
    the family count is catalan(beta)^(2^q) placements per anchor, and
    anchors occupy a 2^(q + ceil(k/2^q) + 1) fraction of the host.
    """
    if k < 16:
        raise ValueError(f"need k >= 16 so the cap depth is >= 2, got {k}")
    q = 0
    while 4**q < k:
        q += 1
    block = 2**q
    beta = k // block - 2
    levels_below = -(-k // block)  # ceil(k / 2^q)
    return Fraction(catalan(beta) ** block, 2 ** (q + levels_below + 1))


class PathCountBounds:
    """Upper bounds on counts of fixed-endpoint paths in outerplanar hosts.

    adjacent_pair(r) bounds r-edge paths between two vertices consecutive
    on the outer face (catalan(r-1): the split at the unique common
    neighbour of the endpoints satisfies the Catalan recursion).
    any_pair(k) bounds k-edge paths between arbitrary fixed endpoints via

        F(0) = 1,  F(k) = sum_r 2 * adjacent_pair(r) * F(k-r),

    and stays below 4^k.
    """

    def __init__(self, k_max: int):
        if k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {k_max}")
        self.k_max = k_max
        f = [1]
        for k in range(1, k_max + 1):
            f.append(sum(2 * catalan(r - 1) * f[k - r] for r in range(1, k + 1)))
        self._f = f

    def any_pair(self, k: int) -> int:
        if not (0 <= k <= self.k_max):
            raise ValueError(f"k={k} outside table range 0..{self.k_max}")
        return self._f[k]

    def adjacent_pair(self, r: int) -> int:
        if r < 1:
            raise ValueError(f"path length must be >= 1, got {r}")
        return catalan(r - 1)


@lru_cache(maxsize=None)
def path_count_bounds(k_max: int) -> PathCountBounds:
    """Shared bounds table up to k_max."""
    return PathCountBounds(k_max)


def rational_to_json(value: Fraction) -> dict:
    """Serialize a rational as decimal strings; never as floating point."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def rational_from_json(obj: dict) -> Fraction:
    """Inverse of rational_to_json."""
    return Fraction(int(obj["num"]), int(obj["den"]))
