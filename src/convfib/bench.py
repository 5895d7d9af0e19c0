"""Timing comparison of the value and triangle algorithms.

Every cell is cross-checked for equality across all algorithms before any
timing is taken; a benchmark of wrong results is refused.  Reported times
are best-of-``repeats`` averages over enough iterations to pass a minimum
measurement window, so the asymptotic shape (nested sums ~ n**r against
series powers ~ n**2) is visible even for sub-millisecond cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from convfib.convolved import (
    CoeffTriangle,
    conv_fib_by_nested_sum,
    conv_fib_row,
    conv_fib_row_by_recurrence,
)
from convfib.fibonacci import fib
from convfib.report import UsageError

VALUE_ALGORITHMS = ("nested-sum", "falling-recurrence", "series-power")
TRIANGLE_ALGORITHMS = ("triangle-recurrence", "triangle-closed")


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    params: str
    seconds: float


class CrossCheckFailure(RuntimeError):
    """Two algorithms disagreed on a cell; timings were not produced."""


def _value_runners(n: int, depth: int) -> dict[str, Callable[[], int]]:
    # Each runner computes p_n(depth + 1) from scratch.
    return {
        "nested-sum": lambda: conv_fib_by_nested_sum(n, depth + 1),
        "falling-recurrence": lambda: conv_fib_row_by_recurrence(depth + 1, n)[n],
        "series-power": lambda: conv_fib_row(depth + 1, n)[n],
    }


def time_call(fn: Callable[[], object], min_seconds: float = 0.02, repeats: int = 3) -> float:
    """Best average seconds per call over ``repeats`` measurement windows."""
    iterations = 1
    while True:
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds or iterations >= 1 << 20:
            break
        iterations *= 4
    best = elapsed / iterations
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / iterations)
    return best


def run_bench(
    sizes: list[int],
    depth: int = 4,
    triangle_max: int | None = 40,
    min_seconds: float = 0.02,
    repeats: int = 3,
) -> list[BenchRow]:
    """Cross-check, then time, every configured cell.

    ``sizes`` are the series indices n; each value cell computes
    p_n(depth + 1) so the nested-sum algorithm performs ``depth`` nested
    sums.  ``triangle_max`` of None skips the triangle comparison.
    Raises :class:`CrossCheckFailure` on any disagreement.
    """
    if depth < 1:
        raise UsageError("depth must be >= 1")
    if sizes:
        fib(max(sizes))  # warm the Fibonacci table so timings exclude it
    for n in sizes:
        runners = _value_runners(n, depth)
        results = {name: runner() for name, runner in runners.items()}
        values = set(results.values())
        if len(values) > 1:
            raise CrossCheckFailure(f"value algorithms disagree at n={n}, r={depth}: {results}")
    if triangle_max is not None:
        by_rec = CoeffTriangle.from_recurrence(triangle_max)
        by_closed = CoeffTriangle.from_closed_form(triangle_max)
        if by_rec != by_closed:
            raise CrossCheckFailure(f"triangle algorithms disagree below N={triangle_max}")

    rows: list[BenchRow] = []
    for n in sizes:
        runners = _value_runners(n, depth)
        for name in VALUE_ALGORITHMS:
            seconds = time_call(runners[name], min_seconds, repeats)
            rows.append(BenchRow(name, f"n={n};r={depth}", seconds))
    if triangle_max is not None:
        timed = {
            "triangle-recurrence": lambda: CoeffTriangle.from_recurrence(triangle_max),
            "triangle-closed": lambda: CoeffTriangle.from_closed_form(triangle_max),
        }
        for name in TRIANGLE_ALGORITHMS:
            seconds = time_call(timed[name], min_seconds, repeats)
            rows.append(BenchRow(name, f"N_max={triangle_max}", seconds))
    return rows
