"""Acceptance gate: one test per criterion, every comparison exact.

Each test prints a single `criterion NN ... PASS/FAIL` line (visible with
`pytest -s` or on failure).  Criterion 5 checks the 2-edge-path maximum
and the full set of maximizer classes for 4 <= n <= 10: the fan alone,
except at n=6, where the glued triple fan ties it at 21 two-edge paths.
Reports come from the session's `suite_report` fixture, so the default-report
pins in test_extremal_search reuse these runs.
"""

import time
from fractions import Fraction

from opturan import exactmath, numeral_paths


def _report(criterion, label, reports, started):
    passed = all(r.passed for r in reports)
    elapsed = time.perf_counter() - started
    print(f"criterion {criterion:2d} ({label}): "
          f"{'PASS' if passed else 'FAIL'} [{elapsed:.2f}s]")
    for r in reports:
        if not r.passed:
            failing = [c for c in r.cases if not c.passed]
            for c in failing:
                print(f"  {r.suite}/{c.case}: expected {c.expected!r}, "
                      f"got {c.actual!r}")
    return passed


def test_criterion_01_density_table(suite_report):
    started = time.perf_counter()
    report = suite_report("c-table")
    known = (Fraction(1), Fraction(1), Fraction(3, 2), Fraction(5, 2),
             Fraction(5), Fraction(21, 2), Fraction(95, 4),
             Fraction(227, 4), Fraction(141), Fraction(1447, 4))
    direct = tuple(exactmath.cycle_density(k) for k in range(3, 13))
    ok = _report(1, "cycle-density table", [report], started)
    assert direct == known
    assert ok


def test_criterion_02_catalan_identity(suite_report):
    started = time.perf_counter()
    report = suite_report("catalan-identity", max_k=50)
    ok = _report(2, "fixed-vertex subtree identity", [report], started)
    assert ok


def test_criterion_03_cycle_closed_forms(suite_report):
    started = time.perf_counter()
    report = suite_report("cycle-closed-forms", max_n=11)
    ok = _report(3, "short-cycle closed forms vs brute force", [report], started)
    assert ok


def test_criterion_04_bijection_and_greedy(suite_report):
    started = time.perf_counter()
    bijection = suite_report("cycle-bijection", max_n=10)
    greedy = suite_report("greedy-optimality", max_n=10)
    ok = _report(4, "cycle/dual-subtree bijection + greedy optimality",
                 [bijection, greedy], started)
    assert ok


def test_criterion_05_two_edge_path_claim(suite_report):
    started = time.perf_counter()
    report = suite_report("p3-exact", max_n=10)
    ok = _report(5, "2-edge-path maximum and maximizer classes",
                 [report], started)
    assert ok, (
        "the 2-edge-path maximum or maximizer classes differ from the fan "
        "(plus the triple fan at n=6), see the failing cases above"
    )


def test_criterion_06_counterexample_at_six(suite_report):
    started = time.perf_counter()
    report = suite_report("counterexample-6")
    ok = _report(6, "3-edge paths at n=6: 33 beats the fan's 32",
                 [report], started)
    assert ok


def test_criterion_07_fan_formula(suite_report):
    started = time.perf_counter()
    report = suite_report("fan-formula", max_n=14)
    ok = _report(7, "fan path closed form vs direct count", [report], started)
    assert ok


def test_criterion_08_triple_fan_dominance(suite_report):
    started = time.perf_counter()
    report = suite_report("triple-fan-beats-fan", n=45, k=6)
    ok = _report(8, "triple fan beats fan at n=45, paths on 6 vertices",
                 [report], started)
    assert ok


def test_criterion_09_schedule_machinery(suite_report):
    started = time.perf_counter()
    report = suite_report("gamma", max_l=12, max_t=6, max_l_products=10)
    ok = _report(9, "schedule counts, products, Catalan cap", [report], started)
    assert ok


def test_criterion_10_injection_validity(suite_report):
    started = time.perf_counter()
    report = suite_report("injection")
    ok = _report(10, "schedule-to-path injection on three graph sizes",
                 [report], started)
    assert ok


def test_criterion_11_bounds(suite_report):
    started = time.perf_counter()
    bounds = suite_report("bounds-4k", max_k_f=30, max_n_paths=10,
                          max_k_density=60, gamma_ks=(16, 25, 36))
    limits = suite_report("limit-bounds", max_k=60)
    ok = _report(11, "4^k ceilings and exact growth brackets",
                 [bounds, limits], started)
    # spot checks behind the suites
    assert numeral_paths.schedule_count_lower_bound_exact(16) == 1
    assert exactmath.subtree_density(60) < Fraction(4) ** 60
    assert ok


def test_criterion_12_constructions(suite_report):
    started = time.perf_counter()
    constructions = suite_report("constructions", max_t=3, max_n_base=12)
    blowup = suite_report("star-blowup")
    ok = _report(12, "digit-rule triangulations and star blow-ups",
                 [constructions, blowup], started)
    assert ok
