"""Digit-rule graphs, step schedules, and the schedule-to-path injection."""

import pytest
from hypothesis import given, settings, strategies as st

from opturan import numeral_paths
from opturan.exactmath import catalan
from opturan.graph_core import fan
from opturan.guards import ScaleLimitError
from opturan.numeral_paths import (
    StepSchedule,
    admissible_pairs,
    count_schedules,
    count_schedules_with_multiplicities,
    enumerate_schedules,
    numeral_graph,
    schedule_count_lower_bound_exact,
    schedule_to_path,
)


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def test_numeral_graph_4_2_structure():
    g = numeral_graph(4, 2)
    assert g.n == 16
    assert g.graph.edge_count() == 29
    assert g.mop.sorted_chords() == [
        (0, 2), (0, 3), (0, 4), (0, 8), (0, 12), (4, 6), (4, 7), (4, 8),
        (8, 10), (8, 11), (8, 12), (12, 14), (12, 15),
    ]


def test_numeral_graph_wraparound_edge():
    g = numeral_graph(10, 2)
    assert g.graph.adjacent(90, 0)  # 90 + 10 wraps to 100 = 0
    assert g.graph.edge_count() == 2 * 100 - 3


def test_numeral_graph_width_one_is_fan():
    for base in range(3, 13):
        assert numeral_graph(base, 1).graph.edges == fan(base).graph.edges


def test_numeral_graph_validates_as_triangulation():
    for base, width in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (12, 2)]:
        g = numeral_graph(base, width)
        assert g.graph.edge_count() == 2 * g.n - 3


def test_numeral_graph_hands_its_chord_set_to_mop_uncopied(monkeypatch):
    handed = []
    mop = numeral_paths.Mop

    def spy(n, chords):
        handed.append(chords)
        return mop(n, chords)

    monkeypatch.setattr(numeral_paths, "Mop", spy)
    g = numeral_graph(10, 3)
    [chords] = handed
    assert type(chords) is set  # no frozenset copy before validation
    # and validation copies no chord: the host keeps the very tuples built
    assert {id(c) for c in g.mop.chords} == {id(c) for c in chords}


def test_numeral_graph_guards_and_bad_args():
    with pytest.raises(ScaleLimitError):
        numeral_graph(101, 3)
    with pytest.raises(ValueError):
        numeral_graph(2, 1)  # two vertices cannot triangulate
    with pytest.raises(ValueError):
        numeral_graph(1, 3)


def test_rule_adjacency_matches_edge_set():
    for base, width in [(4, 2), (5, 2), (2, 3)]:
        g = numeral_graph(base, width)
        edges = g.graph.edges
        for x in range(g.n):
            for y in range(x + 1, g.n):
                assert g.adjacent_by_rule(x, y) == ((x, y) in edges)


# ---------------------------------------------------------------------------
# Step schedules
# ---------------------------------------------------------------------------

def test_schedule_validation():
    StepSchedule((0, 1, 2, 2, 0), 4)
    with pytest.raises(ValueError):
        StepSchedule((1, 0), 4)  # must start at 0
    with pytest.raises(ValueError):
        StepSchedule((0, 2), 4)  # rises by two
    with pytest.raises(ValueError):
        StepSchedule((0, 1), 2)  # exceeds the cap width-2
    with pytest.raises(ValueError):
        StepSchedule((0, 1, 0, 0), 2)


def _reference_schedule_check(values, width):
    """Reference validation: the start first, then range and rise position
    by position.  Returns the values to store, or raises the ValueError
    StepSchedule must raise."""
    vs = tuple(int(v) for v in values)
    if width < 2:
        raise ValueError(f"width must be >= 2, got {width}")
    if vs:
        if vs[0] != 0:
            raise ValueError(f"schedule must start at 0, got {vs[0]}")
        cap = width - 2
        prev = vs[0]
        for i, v in enumerate(vs):
            if v < 0 or v > cap:
                raise ValueError(f"schedule value {v} at position {i} outside 0..{cap}")
            if i and v > prev + 1:
                raise ValueError(
                    f"schedule rises from {prev} to {v} at position {i}"
                )
            prev = v
    return vs


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.integers(min_value=-2, max_value=6), st.booleans()),
                min_size=0, max_size=10),
       st.integers(min_value=1, max_value=7))
def test_schedule_validation_matches_reference(values, width):
    try:
        expected = _reference_schedule_check(values, width)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            StepSchedule(tuple(values), width)
        assert str(caught.value) == str(exc)
        return
    sched = StepSchedule(tuple(values), width)
    assert sched.values == expected
    assert all(type(v) is int for v in sched.values)


@pytest.mark.parametrize("length,width,expected", [
    (2, 3, 2), (3, 3, 4), (3, 4, 5), (0, 5, 1), (1, 2, 1),
])
def test_count_schedules_examples(length, width, expected):
    assert count_schedules(length, width) == expected


def test_enumerate_schedules_examples():
    assert [s.values for s in enumerate_schedules(1, 5)] == [(0,)]
    assert [s.values for s in enumerate_schedules(2, 2)] == [(0, 0)]
    assert [s.values for s in enumerate_schedules(4, 2)] == [(0, 0, 0, 0)]
    listed = [s.values for s in enumerate_schedules(3, 4)]
    assert listed == sorted(listed)
    assert (0, 1, 2) in listed


def test_count_matches_enumeration():
    for width in range(2, 7):
        for length in range(0, 9):
            assert count_schedules(length, width) == sum(
                1 for _ in enumerate_schedules(length, width)
            )


def _recursive_schedules(length, width):
    """Reference enumeration: one recursive generator per position, each
    trying every allowed value in increasing order."""
    if length == 0:
        yield ()
        return
    cap = width - 2
    values = [0] * length

    def rec(i):
        if i == length:
            yield tuple(values)
            return
        for v in range(0, min(values[i - 1] + 1, cap) + 1):
            values[i] = v
            yield from rec(i + 1)

    yield from rec(1)


def test_enumeration_order_matches_recursive_reference():
    for length in range(0, 13):
        for width in range(2, 14):
            got = [s.values for s in enumerate_schedules(length, width)]
            assert got == list(_recursive_schedules(length, width)), (length, width)


def test_enumeration_guard():
    with pytest.raises(ScaleLimitError):
        list(enumerate_schedules(21, 3))


def test_uncapped_schedules_are_catalan():
    for length in range(0, 13):
        width = max(length + 1, 2)
        assert count_schedules(length, width) == catalan(length)


@pytest.mark.parametrize("counts,expected", [
    ((2, 1), 2), ((1, 1), 1), ((3, 2, 1), 12),
])
def test_multiplicity_product_examples(counts, expected):
    assert count_schedules_with_multiplicities(counts) == expected


def test_multiplicity_product_matches_filtered_enumeration():
    for length in range(1, 9):
        buckets = {}
        for sched in enumerate_schedules(length, length + 1):
            top = max(sched.values)
            key = tuple(sched.values.count(v) for v in range(top + 1))
            buckets[key] = buckets.get(key, 0) + 1
        for key, count in buckets.items():
            assert count_schedules_with_multiplicities(key) == count
        # positive vectors decompose the full count
        assert sum(buckets.values()) == count_schedules(length, length + 1)


def test_multiplicity_product_rejects_zeroes():
    with pytest.raises(ValueError):
        count_schedules_with_multiplicities((2, 0, 1))
    with pytest.raises(ValueError):
        count_schedules_with_multiplicities(())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=2, max_value=6))
def test_count_schedules_property(length, width):
    assert count_schedules(length, width) == sum(
        1 for _ in enumerate_schedules(length, width)
    )


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------

def test_schedule_to_path_frozen_example():
    sched = StepSchedule((0, 0, 0, 0), 2)
    path = schedule_to_path(99, 88, sched, 10, 2, 8)
    assert path == [99, 98, 97, 96, 95, 90, 0, 80, 88]


def test_schedule_to_path_rejects_invalid_schedule_for_width():
    # (0,1,0,0) is not a valid schedule at width 2: the cap there is 0
    with pytest.raises(ValueError):
        StepSchedule((0, 1, 0, 0), 2)


def test_schedule_to_path_rejects_parameter_mismatch():
    sched = StepSchedule((0, 0, 0), 3)
    with pytest.raises(ValueError):
        schedule_to_path(999, 888, sched, 10, 3, 8)  # needs length 8-6=2
    wrong_width = StepSchedule((0, 0), 4)
    with pytest.raises(ValueError):
        schedule_to_path(999, 888, wrong_width, 10, 3, 8)
    good = StepSchedule((0, 0), 3)
    path = schedule_to_path(999, 888, good, 10, 3, 8)
    assert path[0] == 999 and path[-1] == 888 and len(path) == 9


def test_schedule_to_path_precondition_errors():
    sched = StepSchedule((0, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        schedule_to_path(99, 98, sched, 10, 2, 8)  # same leading digit
    with pytest.raises(ValueError):
        schedule_to_path(99, 87, sched, 10, 2, 8)  # digit 7 below edge count
    with pytest.raises(ValueError):
        schedule_to_path(99, 88, sched, 9, 2, 8)   # digit 9 invalid in base 9


def test_schedule_paths_distinct_and_valid_small():
    base, width, k = 10, 2, 8
    g = numeral_graph(base, width)
    edges = g.graph.edges
    pairs = admissible_pairs(base, width, k)
    assert len(pairs) == 8
    for a, b in pairs:
        seen = set()
        for sched in enumerate_schedules(k - 2 * width, width):
            path = schedule_to_path(a, b, sched, base, width, k)
            assert path[0] == a and path[-1] == b
            assert len(path) == k + 1
            assert len(set(path)) == len(path)
            for x, y in zip(path, path[1:]):
                assert ((x, y) if x < y else (y, x)) in edges
            seen.add(tuple(path))
        assert len(seen) == count_schedules(k - 2 * width, width)


def test_schedule_paths_distinct_wider():
    base, width, k = 30, 3, 14
    g = numeral_graph(base, width)
    a = 29 * 900 + 29 * 30 + 29  # digits (29, 29, 29)
    b = 17 * 900 + 20 * 30 + 25  # digits (17, 20, 25)
    seen = set()
    for sched in enumerate_schedules(k - 2 * width, width):
        path = schedule_to_path(a, b, sched, base, width, k)
        assert len(set(path)) == k + 1
        for x, y in zip(path, path[1:]):
            assert g.adjacent_by_rule(x, y)
        seen.add(tuple(path))
    assert len(seen) == count_schedules(k - 2 * width, width) == 128


def test_path_supply_meets_schedule_certificate():
    # direct path counting dominates schedules x admissible pairs
    from opturan.graph_core import count_paths

    for base, width, k in [(6, 2, 4), (7, 2, 5), (8, 2, 5)]:
        g = numeral_graph(base, width)
        direct = count_paths(g.graph, k)
        pairs = (base - k) ** (2 * width - 1) * (base - k - 1)
        certificate = count_schedules(k - 2 * width, width) * pairs
        assert direct >= certificate


# ---------------------------------------------------------------------------
# Lower-bound certificate
# ---------------------------------------------------------------------------

def test_schedule_count_floor():
    assert schedule_count_lower_bound_exact(16) == 1
    for k in (16, 25, 36):
        t = int(k**0.5)
        assert count_schedules(k - 2 * t, t) > schedule_count_lower_bound_exact(k)
    with pytest.raises(ValueError):
        schedule_count_lower_bound_exact(15)


def test_schedule_count_floor_non_square():
    # non-square k: the rational floor brackets the irrational expression
    for k in (17, 20, 30):
        t = int(k**0.5)
        value = schedule_count_lower_bound_exact(k)
        assert count_schedules(k - 2 * t, t) > value
        assert float(value) >= 2 ** (2 * k - 5 * t) / (2 * k**0.5) ** (k**0.5) * 0.99


# ---------------------------------------------------------------------------
# Pair sampling
# ---------------------------------------------------------------------------

def test_admissible_pairs_exhaustive():
    pairs = admissible_pairs(10, 2, 8)
    assert pairs == [(88, 98), (88, 99), (89, 98), (89, 99),
                     (98, 88), (98, 89), (99, 88), (99, 89)]


def test_admissible_pairs_sampled_deterministic():
    first = admissible_pairs(30, 3, 14)
    second = admissible_pairs(30, 3, 14)
    assert first == second
    assert len(first) == 100
    for a, b in first:
        da = [(a // 900) % 30, (a // 30) % 30, a % 30]
        db = [(b // 900) % 30, (b // 30) % 30, b % 30]
        assert min(da + db) >= 14
        assert da[0] != db[0]
