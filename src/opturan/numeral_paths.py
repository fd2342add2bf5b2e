"""Digit-rule triangulations and the path families they certify.

`numeral_graph(base, width)` builds the triangulated outerplanar graph on
base**width vertices whose chords follow positional-arithmetic rules:
every multiple of base**s is chained to its neighbouring multiples
(cyclically, with 0 standing in for base**width), and every vertex is
joined to the value obtained by zeroing its last nonzero digit.  With
width 1 this is exactly the fan.

Large families of equal-length paths between two fixed vertices are
indexed by *step schedules*: integer sequences starting at 0, rising by at
most 1 per step, capped at width-2.  The schedule entry prescribes the
number of trailing zeros after each step, which pins down the step itself
(zero the last nonzero digit, or subtract a power of the base).  Distinct
schedules yield distinct paths, so the schedule count is a certified lower
bound on the number of fixed-endpoint paths.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Callable, Iterator, Sequence

from .graph_core import HOST_VERTEX_LIMIT, Mop, MopError, _check_sorted_chords
from .guards import ScaleLimitError, check_limit

__all__ = [
    "numeral_graph",
    "StepSchedule",
    "count_schedules",
    "enumerate_schedules",
    "count_schedules_with_multiplicities",
    "schedule_to_path",
    "schedule_count_lower_bound_exact",
    "admissible_pairs",
]

SCHEDULE_ENUM_LIMIT = 20
_PAIRS_EXHAUSTIVE_CAP = 10_000  # admissible_pairs lists every pair up to this
_PAIRS_SAMPLE_SIZE = 100        # and samples this many, seeded, beyond it
_PAIRS_SEED = 20240901


def _zero_last_nonzero(x: int, base: int) -> int:
    """x with its last (least significant) nonzero base-digit set to zero."""
    p = 1
    while x % (p * base) == 0:
        p *= base
    return x - ((x // p) % base) * p


def _trailing_zeros(x: int, base: int) -> int:
    if x == 0:
        raise ValueError("0 has no last nonzero digit")
    q = 0
    while x % base == 0:
        x //= base
        q += 1
    return q


def _digits(x: int, base: int, width: int) -> list[int]:
    """Base digits, most significant first, fixed width."""
    out = [0] * width
    for i in range(width - 1, -1, -1):
        out[i] = x % base
        x //= base
    return out


def _numeral_size(base: int, width: int, limit: int | None = HOST_VERTEX_LIMIT) -> int:
    """numeral_graph's checks on its arguments, in its order; the vertex
    count base**width.  When its lower bound 2**((base.bit_length()-1)*width)
    already reaches 2**64 and passes the guard, the count is refused before
    the power is computed and named by its formula: its digits could run
    past what str() prints."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if limit is not None and (base.bit_length() - 1) * width >= max(64, limit.bit_length()):
        raise ScaleLimitError(f"vertex count base**width={base}**{width} "
                              f"exceeds the desk-scale guard {limit}")
    n = base**width
    check_limit(n, limit, "vertex count base**width")
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got base**width={n}")
    return n


def _numeral_chords(base: int, width: int, n: int) -> Iterator[tuple[int, int]]:
    """The digit-rule chords (a, b), a < b, of the host on n = base**width
    vertices, in sorted order, each once.

    Let a have t trailing zeros (t = width for a = 0).  Zeroing the last
    nonzero digit takes b to a exactly when b = a + c*base**s with s < t
    and 0 < c < base; these ends ascend in (s, c), all below a + base**t.
    The chain of step base**j joins a to a + base**j for j <= t, which is
    new only for j = t < width and below n (at n it wraps to 0 instead).
    For a = 0 the chains wrap to n - base**j, new for 0 < j < width - 1
    and above every other end of 0.  Ends b with b - a < 2 (a side) or
    b - a > n - 2 (the side (0, n-1)) are left out.  Only multiples of
    base have t >= 1: every other vertex is the left end of no chord.
    """
    powers = [base**s for s in range(width + 1)]
    for a in range(0, n, base):
        t = width
        if a:
            t = 1
            while a % powers[t + 1] == 0:
                t += 1
        for p in powers[:t]:
            yield from ((a, b) for b in range(a + max(p, 2), min(a + base * p, a + n - 1), p))
        if t < width and a + powers[t] < n:
            yield a, a + powers[t]
        if not a:
            yield from ((0, n - powers[j]) for j in range(width - 2, 0, -1))


@contextmanager
def _rule_faults(base: int, width: int):
    """A MopError raised inside comes out as a RuntimeError: the digit
    rules gave a chord set that is no triangulation, so the construction
    itself is broken, not the input."""
    try:
        yield
    except MopError as exc:
        raise RuntimeError(
            f"digit-rule edge set for base={base}, width={width} is not a "
            f"triangulation: {exc}"
        ) from exc


def numeral_graph(base: int, width: int,
                  limit: int | None = HOST_VERTEX_LIMIT) -> Mop:
    """Build the digit-rule triangulation as a `Mop`.

    The edge set is re-validated as a polygon-plus-chords triangulation; a
    failure there means the construction itself is broken, so it surfaces
    as a RuntimeError rather than bad input.
    """
    n = _numeral_size(base, width, limit)
    label = list(range(n))  # one int object per vertex, shared by its chords
    with _rule_faults(base, width):
        return Mop(n, frozenset((label[a], label[b])
                                for a, b in _numeral_chords(base, width, n)))


def _numeral_stream(base: int, width: int, limit: int | None = HOST_VERTEX_LIMIT
                    ) -> tuple[int, Callable[[], Iterator[tuple[int, int]]]]:
    """numeral_graph's checks in its order without building the host: its
    argument checks and guard, then `Mop`'s checks on one pass over the
    sorted chord stream (`_check_sorted_chords`), so a broken rule raises
    numeral_graph's RuntimeError.  Returns the vertex count n and a
    function that yields the checked stream again, a fresh pass per call."""
    n = _numeral_size(base, width, limit)
    with _rule_faults(base, width):
        _check_sorted_chords(n, _numeral_chords(base, width, n))
    return n, lambda: _numeral_chords(base, width, n)


def _numeral_adjacency(base: int, width: int) -> tuple[int, Callable[[int, int], bool]]:
    """The vertex count n of numeral_graph(base, width) and a test
    adjacent(x, y) that answers on 0..n-1 as the host's graph does,
    without building the host.  A second pass of the checked stream keeps
    each left end a's span (bit b - a per chord (a, b)) in slot a // base; a
    span rests on a's trailing zeros and chain, so equal ones share an int."""
    n, chords = _numeral_stream(base, width)
    spans, shared = [0] * (n // base), {}
    for a, ends in itertools.groupby(chords(), lambda chord: chord[0]):
        span = sum(1 << (b - a) for _, b in ends)
        spans[a // base] = shared.setdefault(span, span)

    def adjacent(x: int, y: int) -> bool:
        lo, d = (x, y - x) if x < y else (y, x - y)
        return d == 1 or d == n - 1 or (
            0 <= lo < n and not lo % base and bool(spans[lo // base] >> d & 1))

    return n, adjacent


# ---------------------------------------------------------------------------
# Step schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class StepSchedule:
    """Sequence of prescribed trailing-zero counts: starts at 0, never
    rises by more than 1, never exceeds width-2.

    Every value is checked on construction.  A tuple of exact ints with an
    int width >= 2 (what `enumerate_schedules` builds) is checked in one
    loop and stored as it is.  Any other input (a list, a bool, float or
    str element, a width that is not an int >= 2, or a schedule that
    breaks a rule) takes the general path: each value is coerced with
    int(), the width is checked, and one walk raises at the first rule
    broken (start, range, rise), with the same messages for every input."""

    values: tuple[int, ...]
    width: int

    def __init__(self, values: Sequence[int], width: int):
        if type(values) is tuple and type(width) is int and width >= 2:
            cap = width - 2
            prev = -1  # so the first value must be 0
            for v in values:
                if type(v) is not int or v < 0 or v > cap or v > prev + 1:
                    break
                prev = v
            else:
                # frozen: fill the instance dict itself, which is what
                # object.__setattr__ does, without its lookup and call
                fields = self.__dict__
                fields["values"] = values
                fields["width"] = width
                return
        values = tuple(map(int, values))
        if width < 2:
            raise ValueError(f"width must be >= 2, got {width}")
        if values and values[0] != 0:
            raise ValueError(f"schedule must start at 0, got {values[0]}")
        cap = width - 2
        prev = 0
        for i, v in enumerate(values):
            if v < 0 or v > cap:
                raise ValueError(f"schedule value {v} at position {i} outside 0..{cap}")
            if v > prev + 1:
                raise ValueError(f"schedule rises from {prev} to {v} at position {i}")
            prev = v
        fields = self.__dict__
        fields["values"] = values
        fields["width"] = width

    def __len__(self):
        return len(self.values)


def count_schedules(length: int, width: int) -> int:
    """Number of step schedules of the given length and digit width, by
    dynamic programming over (position, current value).  The empty
    schedule counts once."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if width < 2:
        raise ValueError(f"width must be >= 2, got {width}")
    if length == 0:
        return 1  # at once: an L*t guard admits any width here, so no O(width) table
    cap = width - 2
    ways = [0] * (cap + 1)
    ways[0] = 1
    for _ in range(length - 1):
        # next value u is reachable from any current value v >= u-1
        suffix = [0] * (cap + 2)
        for v in range(cap, -1, -1):
            suffix[v] = suffix[v + 1] + ways[v]
        ways = [suffix[max(u - 1, 0)] for u in range(cap + 1)]
    return sum(ways)


def enumerate_schedules(length: int, width: int,
                        limit: int | None = SCHEDULE_ENUM_LIMIT) -> Iterator[StepSchedule]:
    """All step schedules in lexicographic order."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if width < 2:
        raise ValueError(f"width must be >= 2, got {width}")
    check_limit(length, limit, "schedule length")
    cap = width - 2
    values = [0] * length
    while True:
        yield StepSchedule(tuple(values), width)
        # odometer: from the right, positions already at their largest
        # value (the cap, or one above their left neighbour) wrap to 0, and
        # the first one that can still rise goes up by one
        i = length - 1
        while i > 0:
            v = values[i]
            if v < cap and v <= values[i - 1]:
                values[i] = v + 1
                break
            values[i] = 0
            i -= 1
        else:
            return


def count_schedules_with_multiplicities(counts: Sequence[int]) -> int:
    """Number of step schedules in which value i occurs exactly counts[i]
    times, all counts positive: the product over consecutive value pairs of
    C(m_i + m_{i+1} - 1, m_i - 1).

    Interleaving the occurrences of i and i+1 independently for each i
    determines the schedule uniquely; each interleaving must start with i
    and is otherwise free.
    """
    counts = list(counts)
    if not counts:
        raise ValueError("need at least one multiplicity")
    if any(m <= 0 for m in counts):
        raise ValueError(f"all multiplicities must be positive, got {counts}")
    result = 1
    for i in range(len(counts) - 1):
        result *= comb(counts[i] + counts[i + 1] - 1, counts[i] - 1)
    return result


# ---------------------------------------------------------------------------
# Schedule-indexed paths
# ---------------------------------------------------------------------------

def schedule_to_path(a: int, b: int, schedule: StepSchedule, base: int,
                     width: int, edge_count: int) -> list[int]:
    """The path of edge_count edges from a to b indexed by the schedule.

    Phase 1 walks edge_count - 2*width steps driven by the schedule (each
    entry names the trailing-zero count after its step, which pins the step
    down).  The remaining 2*width steps descend to 0, rebuild the leading
    digits of b, and finish with unit increments on the last digit, padded
    so the total comes out exactly.

    Requires every base-digit of a and b to be at least edge_count, with
    differing leading digits, and edge_count < base; distinct schedules
    then give distinct vertex sequences.
    """
    n = base**width
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"endpoints {a},{b} outside 0..{n - 1}")
    if schedule.width != width or len(schedule) != edge_count - 2 * width:
        raise ValueError(
            f"schedule has parameters ({len(schedule)},{schedule.width}); "
            f"need ({edge_count - 2 * width},{width})"
        )
    if edge_count >= base:
        raise ValueError(f"edge count {edge_count} must be below the base {base}")
    da, db = _digits(a, base, width), _digits(b, base, width)
    if min(min(da), min(db)) < edge_count:
        raise ValueError(f"every digit of {a} and {b} must be >= {edge_count}")
    if da[0] == db[0]:
        raise ValueError(f"{a} and {b} must differ in their leading digit")

    path = [a]
    cur = a
    for g in schedule.values:
        q = _trailing_zeros(cur, base)
        if g == q + 1:
            cur = _zero_last_nonzero(cur, base)
        else:  # schedule validity gives g <= q here
            cur -= base**g
        path.append(cur)
    zeroing_steps = 0
    while cur != 0:
        cur = _zero_last_nonzero(cur, base)
        path.append(cur)
        zeroing_steps += 1
    for i in range(width - 1):
        cur += db[i] * base ** (width - 1 - i)
        path.append(cur)
    pad = width - zeroing_steps
    cur = b - pad
    path.append(cur)
    for _ in range(pad):
        cur += 1
        path.append(cur)

    if len(path) != edge_count + 1 or len(set(path)) != len(path):
        raise RuntimeError(
            f"schedule walk produced {len(path)} vertices with repeats for "
            f"a={a}, b={b}, schedule={schedule.values}; this is a bug"
        )
    for x, y in zip(path, path[1:]):
        if not _adjacent_by_rule(x, y, base, width):
            raise RuntimeError(
                f"consecutive labels {x},{y} are not adjacent under the digit "
                f"rules (base={base}, width={width}); this is a bug"
            )
    return path


def _adjacent_by_rule(x: int, y: int, base: int, width: int) -> bool:
    n = base**width
    if x == y:
        return False
    d = (x - y) % n
    step = 1
    for _ in range(width):
        if (d == step or d == n - step) and x % step == 0 and y % step == 0:
            return True
        step *= base
    return (x != 0 and _zero_last_nonzero(x, base) == y) or (
        y != 0 and _zero_last_nonzero(y, base) == x
    )


def schedule_count_lower_bound_exact(edge_count: int) -> Fraction:
    """Exact rational evaluation of the closed-form floor
    2**(2k - 5t) / (2*sqrt(k))**t with t = floor(sqrt(k)), valid as a lower
    bound certificate because (2*sqrt(k))**sqrt(k) is at least the rational
    denominator used here."""
    k = edge_count
    t = isqrt(k)
    if k < 16 or t < 4:
        raise ValueError(f"need edge_count >= 16 so floor(sqrt) >= 4, got {k}")
    if t * t == k:
        denom = Fraction((2 * t) ** t)
    else:
        # rational lower bracket of sqrt(k), then the smaller exponent t
        root_floor = Fraction(isqrt(k * 4**30), 2**30)
        denom = (2 * root_floor) ** t
    return Fraction(2 ** (2 * k - 5 * t)) / denom


def admissible_pairs(base: int, width: int, edge_count: int) -> list[tuple[int, int]]:
    """Ordered endpoint pairs eligible for schedule_to_path: all digits in
    [edge_count, base-1] and differing leading digits.

    Exhaustive (sorted) when there are at most _PAIRS_EXHAUSTIVE_CAP pairs,
    otherwise a reproducible fixed-seed sample of _PAIRS_SAMPLE_SIZE pairs.
    """
    if edge_count >= base:
        raise ValueError(f"edge count {edge_count} must be below the base {base}")
    lo, hi = edge_count, base - 1
    span = hi - lo + 1
    total = (span**width) * (span - 1) * span ** (width - 1)
    rng = random.Random(_PAIRS_SEED)

    def from_digits(ds):
        x = 0
        for d in ds:
            x = x * base + d
        return x

    if total <= _PAIRS_EXHAUSTIVE_CAP:
        out = []
        for ad in itertools.product(range(lo, hi + 1), repeat=width):
            for bd in itertools.product(range(lo, hi + 1), repeat=width):
                if ad[0] != bd[0]:
                    out.append((from_digits(ad), from_digits(bd)))
        return out
    out = []
    seen = set()
    while len(out) < _PAIRS_SAMPLE_SIZE:
        ad = [rng.randint(lo, hi) for _ in range(width)]
        bd = [rng.randint(lo, hi) for _ in range(width)]
        if ad[0] == bd[0]:
            continue
        pair = (from_digits(ad), from_digits(bd))
        if pair in seen:
            continue
        seen.add(pair)
        out.append(pair)
    return out
