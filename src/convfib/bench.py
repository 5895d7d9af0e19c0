"""Timing comparison of the value and triangle algorithms.

Every cell is cross-checked for equality across all algorithms before any
timing is taken; a benchmark of wrong results is refused.  Reported times
are best-of-``repeats`` averages over enough iterations to pass a minimum
measurement window, so the asymptotic shape (nested sums ~ n**r, series
powers ~ n**2, the three-term recurrence n steps) is visible even for
sub-millisecond cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from convfib.convolved import (
    CoeffTriangle,
    conv_fib_by_nested_sum,
    conv_fib_row,
    conv_fib_row_by_recurrence,
    conv_fib_row_holonomic,
)
from convfib.fibonacci import fib
from convfib.report import UsageError

# Each value runner computes p_n(depth + 1) from scratch; none reads the
# conv_fib cache.  Runners name module globals, looked up at call time.
VALUE_ALGORITHMS: dict[str, Callable[[int, int], int]] = {
    "nested-sum": lambda n, depth: conv_fib_by_nested_sum(n, depth + 1),
    "falling-recurrence": lambda n, depth: conv_fib_row_by_recurrence(depth + 1, n)[n],
    "series-power": lambda n, depth: conv_fib_row(depth + 1, n)[n],
    "holonomic": lambda n, depth: conv_fib_row_holonomic(depth + 1, n)[n],
}
TRIANGLE_ALGORITHMS: dict[str, Callable[[int], CoeffTriangle]] = {
    "triangle-recurrence": lambda n_max: CoeffTriangle.from_recurrence(n_max),
    "triangle-closed": lambda n_max: CoeffTriangle.from_closed_form(n_max),
}


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    params: str
    seconds: float


class CrossCheckFailure(RuntimeError):
    """Two algorithms disagreed on a cell; timings were not produced."""


def time_call(fn: Callable[[], object], min_seconds: float = 0.02, repeats: int = 3) -> float:
    """Best average seconds per call over ``repeats`` measurement windows."""

    def window(calls: int) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    calls = 1
    while (elapsed := window(calls)) < min_seconds and calls < 1 << 20:
        calls *= 4
    return min([elapsed, *(window(calls) for _ in range(repeats - 1))]) / calls


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
        results = {name: runner(n, depth) for name, runner in VALUE_ALGORITHMS.items()}
        if len(set(results.values())) > 1:
            raise CrossCheckFailure(f"value algorithms disagree at n={n}, r={depth}: {results}")
    if triangle_max is not None:
        triangles = [build(triangle_max) for build in TRIANGLE_ALGORITHMS.values()]
        if any(triangle != triangles[0] for triangle in triangles):
            raise CrossCheckFailure(f"triangle algorithms disagree below N={triangle_max}")

    rows: list[BenchRow] = []
    for n in sizes:
        for name, runner in VALUE_ALGORITHMS.items():
            seconds = time_call(partial(runner, n, depth), min_seconds, repeats)
            rows.append(BenchRow(name, f"n={n};r={depth}", seconds))
    if triangle_max is not None:
        for name, build in TRIANGLE_ALGORITHMS.items():
            seconds = time_call(partial(build, triangle_max), min_seconds, repeats)
            rows.append(BenchRow(name, f"N_max={triangle_max}", seconds))
    return rows
