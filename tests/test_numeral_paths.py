"""Digit-rule graphs, step schedules, and the schedule-to-path injection."""

import dataclasses
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from opturan import graph_core, numeral_paths
from opturan.exactmath import catalan
from opturan.graph_core import Mop, fan
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
    assert type(g) is Mop
    assert g.n == 16
    assert g.graph.edge_count() == 29
    assert g.sorted_chords() == [
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
        assert numeral_graph(base, 1) == fan(base)


def test_numeral_graph_validates_as_triangulation():
    for base, width in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (12, 2)]:
        g = numeral_graph(base, width)
        assert g.graph.edge_count() == 2 * g.n - 3
    # the checked stream is the host's chords, again on every call
    for base, width in [(4, 2), (10, 3), (2, 5), (7, 1)]:
        n, chords = numeral_paths._numeral_stream(base, width)
        host = numeral_graph(base, width)
        assert n == host.n
        assert list(chords()) == list(chords()) == host.sorted_chords()


def _rule_chords(base, width, n):
    """The digit-rule chords as first written, unsorted and with repeats:
    the reference for `_numeral_chords`."""
    step = base  # the step=1 chain is the polygon boundary itself
    for _ in range(1, width):
        for r in range(0, n, step):
            a, b = r, (r + step) % n
            if a > b:
                a, b = b, a
            if 2 <= b - a <= n - 2:
                yield a, b
        step *= base
    for x in range(1, n):
        a = numeral_paths._zero_last_nonzero(x, base)
        if 2 <= x - a <= n - 2:
            yield a, x


def test_numeral_chords_are_the_rule_chords_sorted_once():
    # every base 2..11 at every width up to 2*10^5 vertices, and the
    # widths 1 and 2 of larger bases
    sizes = [(base, width) for base in range(2, 12) for width in range(1, 18)
             if 3 <= base**width <= 2 * 10**5]
    sizes += [(base, width) for base in range(12, 40) for width in (1, 2)]
    for base, width in sizes:
        n = base**width
        want = sorted(frozenset(_rule_chords(base, width, n)))
        assert list(numeral_paths._numeral_chords(base, width, n)) == want, (base, width)


def test_numeral_graph_faults_name_the_digit_rules(monkeypatch):
    # the chord stream is checked by Mop; a broken rule is the package's
    # fault, not the caller's, so it is a RuntimeError naming base and width
    rule = numeral_paths._numeral_chords
    monkeypatch.setattr(numeral_paths, "_numeral_chords",
                        lambda base, width, n: [c for c in rule(base, width, n) if c != (0, 8)])
    with pytest.raises(RuntimeError, match=r"digit-rule edge set for base=4, width=2 is "
                       r"not a triangulation: 12 chords on a 16-gon; a triangulation has 13"):
        numeral_graph(4, 2)
    # (5, 15) crosses the chords (0, 6) to (0, 10); the stream stays sorted,
    # and its one-pass check names the crossing as numeral_graph does
    monkeypatch.setattr(numeral_paths, "_numeral_chords",
                        lambda base, width, n: iter(sorted([*rule(base, width, n), (5, 15)])))
    for entry in (numeral_graph, numeral_paths._numeral_stream):
        with pytest.raises(RuntimeError) as got:
            entry(10, 2)
        assert str(got.value) == ("digit-rule edge set for base=10, width=2 is not a "
                                  "triangulation: chords (0, 6) and (5, 15) cross")


def test_numeral_graph_hands_its_chord_set_to_mop_uncopied(monkeypatch):
    handed = []
    mop = numeral_paths.Mop

    def spy(n, chords):
        handed.append(chords)
        return mop(n, chords)

    monkeypatch.setattr(numeral_paths, "Mop", spy)
    g = numeral_graph(10, 3)
    [chords] = handed
    # one frozenset is built, and validation keeps it: no set, no copy
    assert type(chords) is frozenset
    assert g.chords is chords


def test_numeral_graph_builds_its_host_without_transient_copies():
    # 10^4 vertices.  Measured peaks: 8.75 MB when the chord set and the
    # graph's edge set were each built in a set and copied into a frozenset,
    # and the graph copied every chord tuple; 5.20 MB with each frozenset
    # built once and the graph sharing the host's chord tuples.
    graph_core._mop_graph.cache_clear()
    tracemalloc.start()
    try:
        g = numeral_graph(10, 4).graph
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        graph_core._mop_graph.cache_clear()
    assert g.edge_count() == 2 * 10**4 - 3
    assert peak < 7 * 2**20


def test_numeral_adjacency_answers_as_the_host_does():
    for base, width in [(4, 2), (10, 2), (3, 3), (2, 4)]:
        host = numeral_graph(base, width)
        n, adjacent = numeral_paths._numeral_adjacency(base, width)
        assert n == host.n
        for x in range(n):
            for y in range(n):
                assert adjacent(x, y) == host.graph.adjacent(x, y), (base, width, x, y)
        # vertices off the polygon: sides by arithmetic alone, no chord
        for x in (-n, -2, -1, n, n + 1, 2 * n):
            for y in (0, 1, base, n - 1, x + 1, x + n - 1):
                assert adjacent(x, y) == (abs(x - y) in (1, n - 1)) == adjacent(y, x), (
                    base, width, x, y)
    host = numeral_graph(30, 3)
    n, adjacent = numeral_paths._numeral_adjacency(30, 3)
    rng = random.Random(27)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(20_000)]
    # as many chords, either way round, and near misses: random pairs hit few
    chords = sorted(host.chords)
    pairs += [rng.choice(chords)[::rng.choice((1, -1))] for _ in range(10_000)]
    pairs += [(a, b + rng.choice((-1, 1))) for a, b in rng.sample(chords, 10_000)]
    graph = host.graph
    assert [adjacent(x, y) for x, y in pairs] == [graph.adjacent(x, y) for x, y in pairs]
    assert sum(map(graph.adjacent, *zip(*pairs))) > 10_000


def test_numeral_adjacency_makes_numeral_graphs_checks_in_its_order():
    for args in [(101, 3), (1, 3), (2, 0), (2, 1)]:
        with pytest.raises(ValueError) as want:
            numeral_graph(*args)
        for entry in (numeral_paths._numeral_adjacency, numeral_paths._numeral_stream):
            with pytest.raises(ValueError) as got:
                entry(*args)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


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
                assert numeral_paths._adjacent_by_rule(x, y, base, width) == ((x, y) in edges)


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


@dataclasses.dataclass(frozen=True)
class _CoercingStepSchedule:
    """StepSchedule before it took a fast path for tuples of ints: the
    generated __init__, then every value coerced with int(), then the width
    and the rules.  The reference for construction."""

    values: tuple[int, ...]
    width: int

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _reference_schedule_check(self.values, self.width))


_CoercingStepSchedule.__qualname__ = "StepSchedule"  # so the reprs compare

_schedule_value = st.one_of(
    st.integers(min_value=-3, max_value=8),
    st.booleans(),
    st.floats(min_value=-2, max_value=7),
    st.sampled_from([float("nan"), float("inf")]),
    st.integers(min_value=-2, max_value=7).map(str),
    st.sampled_from(["1.5", "x", ""]),
)


def _build(cls, values, width):
    try:
        return cls(values, width)
    except Exception as exc:  # the exception is the result being compared
        return exc


@st.composite
def _schedule_like(draw, swap=_schedule_value):
    """A run that keeps the start and rise rules (values may pass any cap),
    with one value in four runs swapped for a draw from `swap`."""
    values = []
    for step in draw(st.lists(st.integers(min_value=-2, max_value=1), max_size=9)):
        values.append(max(values[-1] + step, 0) if values else 0)
    if values and draw(st.integers(min_value=0, max_value=3)) == 0:
        values[draw(st.integers(min_value=0, max_value=len(values) - 1))] = draw(swap)
    return values


def _check_construction_against_reference(values, width):
    got = _build(StepSchedule, values, width)
    want = _build(_CoercingStepSchedule, values, width)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, StepSchedule)
    assert got.values == want.values and got.width == want.width
    assert [type(v) for v in got.values] == [type(v) for v in want.values]
    assert type(got.width) is type(want.width)
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)
    twin = StepSchedule(list(values), width)
    assert got == twin and hash(got) == hash(twin)


@settings(max_examples=400, deadline=None)
@given(_schedule_like(swap=st.integers(min_value=-3, max_value=8)),
       st.integers(min_value=-1, max_value=8))
def test_int_tuple_schedules_match_coercing_reference(values, width):
    # the inputs of the one-loop route: tuples of exact ints, int widths
    _check_construction_against_reference(tuple(values), width)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_schedule_like(), st.lists(_schedule_value, max_size=9)),
       st.booleans(),
       st.sampled_from([*range(-1, 9), True, 3.0, 2.5, "4"]))
def test_any_schedule_input_matches_coercing_reference(values, as_tuple, width):
    _check_construction_against_reference(tuple(values) if as_tuple else values, width)


def test_schedule_dataclass_surface():
    sched = StepSchedule((0, 1, 1), 4)
    assert [f.name for f in dataclasses.fields(StepSchedule)] == ["values", "width"]
    assert sched == StepSchedule([0, True, 1.0], 4)
    assert sched != StepSchedule((0, 1, 1), 5)
    assert repr(sched) == "StepSchedule(values=(0, 1, 1), width=4)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.values = (0,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.width = 9
    wider = dataclasses.replace(sched, values=[0, 1, 2], width=5)
    assert wider == StepSchedule((0, 1, 2), 5) and type(wider.values) is tuple
    with pytest.raises(ValueError, match="schedule value 1 at position 1 outside 0..0"):
        dataclasses.replace(sched, width=2)
    assert pickle.loads(pickle.dumps(sched)) == sched
    with pytest.raises(TypeError):
        StepSchedule((0,))


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


def test_length_zero_has_the_one_empty_schedule():
    for width in range(2, 7):
        assert list(enumerate_schedules(0, width)) == [StepSchedule((), width)]
        assert count_schedules(0, width) == 1
    # at once, with no table as wide as the width
    assert count_schedules(0, 10**12) == 1
    for call in (lambda: list(enumerate_schedules(0, 1)), lambda: count_schedules(0, 1)):
        with pytest.raises(ValueError, match="^width must be >= 2, got 1$"):
            call()


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


def _adjacent_by_rule_loop(x, y, base, width):
    """Digit-rule adjacency as first written: for each power of the base,
    both labels divisible by it and their cyclic distance equal to it, else
    one label is the other with its last nonzero digit zeroed.  The
    reference for numeral_paths._adjacent_by_rule."""
    n = base**width
    if x == y:
        return False
    step = 1
    for _ in range(width):
        if x % step == 0 and y % step == 0 and (x - y) % n in (step, n - step):
            return True
        step *= base
    return (x != 0 and numeral_paths._zero_last_nonzero(x, base) == y) or (
        y != 0 and numeral_paths._zero_last_nonzero(y, base) == x
    )


@pytest.mark.parametrize("base,width", [(2, 2), (2, 3), (2, 5), (3, 1), (3, 2),
                                        (3, 3), (4, 2), (5, 2), (7, 2), (10, 2)])
def test_adjacent_by_rule_matches_loop_on_every_pair(base, width):
    n = base**width
    edges = numeral_graph(base, width).graph.edges
    for x in range(n):
        for y in range(n):
            got = numeral_paths._adjacent_by_rule(x, y, base, width)
            assert got == _adjacent_by_rule_loop(x, y, base, width), (x, y)
            assert got == ((min(x, y), max(x, y)) in edges), (x, y)


def test_adjacent_by_rule_matches_loop_on_random_pairs():
    base, width = 30, 3
    n = base**width
    rng = random.Random(20241018)
    zero_last = numeral_paths._zero_last_nonzero
    outcomes = [0, 0]
    for _ in range(20000):
        p = base ** rng.randrange(width)
        x = rng.randrange(n // p) * p  # a multiple of p, so x +- p is a chain step
        y = rng.choice([rng.randrange(n), x, (x + p) % n, (x - p) % n,
                        (x + base * p) % n, zero_last(x, base) if x else 1])
        for a, b in ((x, y), (y, x)):
            got = numeral_paths._adjacent_by_rule(a, b, base, width)
            assert got == _adjacent_by_rule_loop(a, b, base, width), (a, b)
            outcomes[got] += 1
    assert min(outcomes) > 10000  # both answers are well sampled


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
            assert numeral_paths._adjacent_by_rule(x, y, base, width)
            assert g.graph.adjacent(x, y)
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
