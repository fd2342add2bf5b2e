"""Exact arithmetic layer, checked against independent recursions and
brute-force enumeration oracles."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from opturan import exactmath
from opturan.exactmath import (
    catalan,
    cycle_density,
    density_lower_exact,
    fixed_vertex_subtree_count,
    path_count_bounds,
    rational_from_json,
    rational_to_json,
    subtree_density,
    subtree_profile_table,
)


def catalan_by_recursion(n):
    """Independent oracle: C_0 = 1, C_k = sum_j C_j * C_{k-1-j}."""
    vals = [1]
    for k in range(1, n + 1):
        vals.append(sum(vals[j] * vals[k - 1 - j] for j in range(k)))
    return vals[n]


def test_catalan_small_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(9) == 4862


def test_catalan_matches_recursion_oracle():
    for n in range(25):
        assert catalan(n) == catalan_by_recursion(n)


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def three_regular_truncation(depth):
    """Adjacency of the infinite 3-regular tree cut at the given depth,
    rooted at 0."""
    adj = {0: []}
    frontier = [(0, 0)]
    nxt = 1
    while frontier:
        v, d = frontier.pop(0)
        if d == depth:
            continue
        children = 3 if v == 0 else 2
        for _ in range(children):
            adj[v].append(nxt)
            adj[nxt] = [v]
            frontier.append((nxt, d + 1))
            nxt += 1
    return adj


def subtrees_through_root_oracle(k):
    """Count k-vertex connected subsets containing vertex 0 in a truncation
    deep enough that no subset can reach the boundary."""
    adj = three_regular_truncation(k + 1)
    vertices = sorted(adj)
    count = 0
    for rest in combinations([v for v in vertices if v != 0], k - 1):
        subset = {0, *rest}
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in subset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == k:
            count += 1
    return count


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 3), (3, 9)])
def test_fixed_vertex_subtree_count_examples(k, expected):
    assert fixed_vertex_subtree_count(k) == expected
    assert subtrees_through_root_oracle(k) == expected


def test_fixed_vertex_subtree_count_catalan_identity():
    for k in range(1, 51):
        assert fixed_vertex_subtree_count(k) == catalan(k + 1) - catalan(k)


def test_fixed_vertex_subtree_count_rejects_zero():
    with pytest.raises(ValueError):
        fixed_vertex_subtree_count(0)


def test_profile_table_hand_unrolled():
    table = subtree_profile_table(6)
    assert table.count(1, 1) == 1
    assert table.count(2, 1) == 1
    assert table.count(2, 2) == 0  # deepest-level vertices are independent
    assert table.count(4, 1) == 2
    assert table.count(5, 1) == 3
    assert table.count(5, 2) == 4
    assert table.count(5, 3) == 0
    assert table.count(6, 1) == 7
    assert table.count(6, 2) == 5
    assert table.count(6, 3) == 3


def test_profile_table_nonnegative_and_zero_above_diagonal():
    table = subtree_profile_table(12)
    for k in range(1, 13):
        for r in range(1, 13):
            assert table.count(k, r) >= 0
            if r > k:
                assert table.count(k, r) == 0


def test_profile_table_row_and_range_errors():
    table = subtree_profile_table(5)
    assert table.row(5) == (3, 4, 0, 0, 0)
    with pytest.raises(ValueError):
        table.count(6, 1)
    with pytest.raises(ValueError):
        table.count(3, 0)


def profile_rows_by_triple_loop(k_max):
    """Independent oracle: the profile recursion as a plain triple loop over
    a square table, every term included."""
    rows = [[0] * (k_max + 1) for _ in range(k_max + 1)]
    rows[1][1] = 1
    for k in range(2, k_max + 1):
        for r in range(1, k):
            rows[k][r] = sum(rows[k - r][s] * comb(2 * s - 1, r - 1)
                             for s in range(1, k - r + 1))
    return rows


def test_shared_profile_rows_match_triple_loop():
    oracle = profile_rows_by_triple_loop(64)
    table = subtree_profile_table(64)
    for k in range(1, 65):
        assert table.row(k) == tuple(oracle[k][1 : k + 1])
        assert [table.count(k, r) for r in range(1, 65)] == oracle[k][1:]
        assert subtree_density(k) == sum(Fraction(oracle[k][r], r)
                                         for r in range(1, k + 1))


def _entries(table):
    return [[table.count(k, r) for r in range(1, table.k_max + 1)]
            for k in range(1, table.k_max + 1)]


def test_profile_tables_agree_whatever_order_they_grow_in(monkeypatch):
    grown = {}
    for order in ((64, 5, 200), (5, 64)):
        monkeypatch.setattr(exactmath, "_PROFILE_ROWS", [[0], [0, 1]])
        for k_max in order:
            grown[order, k_max] = _entries(exactmath.SubtreeProfileTable(k_max))
        assert len(exactmath._PROFILE_ROWS) == max(order) + 1
    assert grown[(64, 5, 200), 5] == grown[(5, 64), 5]
    assert grown[(64, 5, 200), 64] == grown[(5, 64), 64]
    big = grown[(64, 5, 200), 200]
    assert [row[:64] for row in big[:64]] == grown[(5, 64), 64]


def test_small_table_keeps_its_bounds_after_a_larger_one():
    subtree_profile_table(64)
    small = subtree_profile_table(5)
    with pytest.raises(ValueError):
        small.count(6, 1)
    with pytest.raises(ValueError):
        small.row(6)
    assert small.count(5, 6) == 0


def test_subtree_density_examples():
    assert subtree_density(3) == Fraction(3, 2)
    assert subtree_density(5) == Fraction(5)
    assert subtree_density(6) == Fraction(21, 2)


KNOWN_DENSITIES = [
    (3, Fraction(1)), (4, Fraction(1)), (5, Fraction(3, 2)),
    (6, Fraction(5, 2)), (7, Fraction(5)), (8, Fraction(21, 2)),
    (9, Fraction(95, 4)), (10, Fraction(227, 4)), (11, Fraction(141)),
    (12, Fraction(1447, 4)),
]


@pytest.mark.parametrize("k,expected", KNOWN_DENSITIES)
def test_cycle_density_known_values(k, expected):
    assert cycle_density(k) == expected


def test_cycle_density_rejects_short_cycles():
    with pytest.raises(ValueError):
        cycle_density(2)


def test_density_brackets():
    for k in range(16, 41):
        density = subtree_density(k)
        assert density_lower_exact(k) <= density < Fraction(4) ** k


def test_density_lower_rejects_small_k():
    with pytest.raises(ValueError):
        density_lower_exact(15)


def test_density_below_power_everywhere():
    for k in range(1, 41):
        assert subtree_density(k) < Fraction(4) ** k


def test_path_bounds_recursion_values():
    bounds = path_count_bounds(3)
    assert bounds.any_pair(0) == 1
    assert bounds.any_pair(1) == 2
    assert bounds.any_pair(2) == 6
    assert bounds.any_pair(3) == 20
    assert bounds.adjacent_pair(1) == 1
    assert bounds.adjacent_pair(4) == catalan(3)


def test_path_bounds_match_central_binomials():
    # the recursion telescopes to the central binomial coefficients
    bounds = path_count_bounds(30)
    for k in range(31):
        assert bounds.any_pair(k) == comb(2 * k, k)
        assert bounds.any_pair(k) <= 4**k


def test_rational_json_round_trip():
    value = Fraction(-95, 4)
    obj = rational_to_json(value)
    assert obj == {"num": "-95", "den": "4"}
    assert rational_from_json(obj) == value


@given(st.fractions(), st.fractions())
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
