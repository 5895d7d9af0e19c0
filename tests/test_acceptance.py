"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is an exact-arithmetic comparison (zero tolerance); the only
numeric bounds are the per-criterion wall-clock budgets.  Each test prints
a single pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see them.
"""

from __future__ import annotations

import time
from math import factorial

from convfib.bench import run_bench
from convfib.convolved import CoeffTriangle, conv_fib, triangle_closed, triangle_recurrence
from convfib.fibonacci import fib
from convfib.identities import (
    verify_cor2,
    verify_cor4,
    verify_cor8,
    verify_cor9,
    verify_prop1,
    verify_thm3,
    verify_thm5,
    verify_thm6,
    verify_thm7,
)
from convfib.series import Series


def _line(num: int, name: str, ok: bool, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({seconds:.2f}s)")


def test_criterion_1_fibonacci_bootstrap():
    """First twelve values, and the series inverse through order 200."""
    budget = 1.0
    start = time.perf_counter()
    ok = [fib(n) for n in range(12)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    series = Series.from_polynomial((1, -1, -1), 200).inverse()
    ok = ok and all(series.coefficient(n) == fib(n) for n in range(201))
    elapsed = time.perf_counter() - start
    _line(1, "fibonacci bootstrap", ok and elapsed < budget, elapsed)
    assert ok
    assert elapsed < budget


def test_criterion_2_scaled_fibonacci_law():
    """p_n(1) = n! F_n for every n <= 200."""
    budget = 2.0
    start = time.perf_counter()
    ok = all(conv_fib(n, 1) == factorial(n) * fib(n) for n in range(201))
    elapsed = time.perf_counter() - start
    _line(2, "p_n(1) = n! F_n through n = 200", ok and elapsed < budget, elapsed)
    assert ok
    assert elapsed < budget


def test_criterion_3_triangle_ground_truth():
    """Every printed coefficient of the low-order derivative expansions."""
    budget = 1.0
    start = time.perf_counter()
    triangle = triangle_recurrence(9)
    expected = {
        (2, 1): 2,
        (3, 1): 6,
        (4, 1): 12, (4, 2): 12,
        (5, 1): 20, (5, 2): 60,
        (6, 1): 30, (6, 2): 180, (6, 3): 120,
    }
    ok = all(triangle.entry(n, i) == a for (n, i), a in expected.items())
    ok = ok and all(triangle.entry(n, (n + 1) // 2) == 0 for n in (1, 3, 5, 7, 9))
    elapsed = time.perf_counter() - start
    _line(3, "triangle ground truth", ok and elapsed < budget, elapsed)
    assert ok
    assert elapsed < budget


def test_criterion_4_closed_form_equals_recurrence():
    """a_i(N) by nested sums equals a_i(N) by the row step, N <= 60."""
    budget = 10.0
    start = time.perf_counter()
    by_recurrence = CoeffTriangle.from_recurrence(60)
    by_closed = CoeffTriangle.from_closed_form(60)
    ok = by_recurrence == by_closed
    # tie the single-entry closed form to the batch table on a sample
    sample = [(0, 0), (7, 3), (25, 13), (60, 1), (60, 30)]
    ok = ok and all(triangle_closed(n, i) == by_recurrence.entry(n, i) for n, i in sample)
    elapsed = time.perf_counter() - start
    _line(4, "closed form vs recurrence (N <= 60)", ok and elapsed < budget, elapsed)
    assert ok
    assert elapsed < budget


def test_criterion_5_identity_suite():
    """All eight grid identities at their stated bounds."""
    budget = 60.0
    start = time.perf_counter()
    reports = [
        verify_prop1(50, range(-3, 9)),
        verify_cor2(20, 4),
        verify_thm3(40, 6, range(-2, 9)),
        verify_cor4(60, 6),
        verify_thm5(25, 4),
        verify_thm7(20, 8, range(1, 6)),
        verify_cor8(40, range(-5, 11)),
        verify_cor9(50),
    ]
    ok = all(report.passed for report in reports)
    elapsed = time.perf_counter() - start
    _line(5, "identity suite", ok and elapsed < budget, elapsed)
    for report in reports:
        assert report.passed, report.identity
    assert elapsed < budget


def test_criterion_6_symbolic_derivative_family():
    """The derivative identity as a polynomial identity in x, N <= 10."""
    budget = 30.0
    start = time.perf_counter()
    report = verify_thm6(10, 30)
    elapsed = time.perf_counter() - start
    _line(6, "symbolic derivative family (order 30)", report.passed and elapsed < budget, elapsed)
    assert report.passed
    assert elapsed < budget


def test_criterion_7_mutation_sensitivity():
    """+1 on a_1(3), a_2(5) or a_3(6) breaks the triangle consumers."""
    budget = 10.0
    start = time.perf_counter()
    base = CoeffTriangle.from_recurrence(6)
    ok = True
    for row, col in ((3, 1), (5, 2), (6, 3)):
        mutated = base.with_entry(row, col, base.entry(row, col) + 1)
        reports = [
            verify_thm6(6, 12, triangle=mutated),
            verify_cor8(6, range(-2, 5), triangle=mutated),
            verify_cor9(6, triangle=mutated),
        ]
        ok = ok and all(not r.passed and r.counterexample is not None for r in reports)
        # deterministic: a second run reproduces the identical reports
        ok = ok and reports[0] == verify_thm6(6, 12, triangle=mutated)
    elapsed = time.perf_counter() - start
    _line(7, "mutation sensitivity", ok and elapsed < budget, elapsed)
    assert ok
    assert elapsed < budget


def test_criterion_8_bench_gate_and_asymptotics():
    """Cross-checked benchmark; nested-sum scales worse than series power.

    Each cell is the best of three windows of at least 0.1 s, so that a
    busy neighbour on the machine cannot fake the ratio of two short
    windows.
    """
    start = time.perf_counter()
    rows = run_bench([10, 20], depth=4, triangle_max=40, min_seconds=0.1, repeats=3)
    seconds = {(r.algorithm, r.params): r.seconds for r in rows}
    nested_ratio = seconds[("nested-sum", "n=20;r=4")] / seconds[("nested-sum", "n=10;r=4")]
    series_ratio = seconds[("series-power", "n=20;r=4")] / seconds[("series-power", "n=10;r=4")]
    ok = nested_ratio > series_ratio
    elapsed = time.perf_counter() - start
    _line(8, f"bench gate (nested x{nested_ratio:.1f} vs series x{series_ratio:.1f})", ok, elapsed)
    assert ok
