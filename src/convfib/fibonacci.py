"""Fibonacci numbers under the convention F_0 = F_1 = 1.

The sequence runs 1, 1, 2, 3, 5, 8, 13, ... and extends to negative
indices through the rearranged recurrence F_{n-2} = F_n - F_{n-1}, which
gives F_{-1} = 0, F_{-2} = 1, F_{-3} = -1, ...  Under this convention the
reflection law reads F_{-n} = (-1)^n F_{n-2}.
"""

from __future__ import annotations

import threading

from convfib.report import UsageError, VerificationReport, scan
from convfib.series import Series


class FibTable:
    """Memoized two-sided Fibonacci table.

    Reads are safe from any thread; extending the stored range takes an
    internal lock (single writer).  Each value is stored before the bound
    moves past its index, so a reader never sees an index before its value.
    """

    def __init__(self) -> None:
        self._values: dict[int, int] = {0: 1, 1: 1}
        self._lo = 0
        self._hi = 1
        self._lock = threading.Lock()

    @property
    def bounds(self) -> tuple[int, int]:
        return self._lo, self._hi

    def value(self, n: int) -> int:
        if not self._lo <= n <= self._hi:
            self._extend(n)
        return self._values[n]

    def _extend(self, n: int) -> None:
        with self._lock:
            values = self._values
            while self._hi < n:
                values[self._hi + 1] = values[self._hi] + values[self._hi - 1]
                self._hi += 1
            while self._lo > n:
                values[self._lo - 1] = values[self._lo + 1] - values[self._lo]
                self._lo -= 1


_TABLE = FibTable()


def base_series(order: int) -> Series:
    """1 - t - t^2 as a rational series of the given order."""
    return Series.from_polynomial((1, -1, -1), order)


def fib(n: int) -> int:
    """F_n for any signed index, from the shared memoized table."""
    return _TABLE.value(n)


def fib_pure(n: int) -> int:
    """F_n computed iteratively with no shared state.

    A table-free reference that the tests set against :func:`fib`.
    """
    if n >= 0:
        a, b = 1, 1  # F_0, F_1
        for _ in range(n):
            a, b = b, a + b
        return a
    a, b = 1, 1  # F_{m+1}, F_{m+2} walking m downward from 0
    for _ in range(-n):
        a, b = b - a, a
    return a


def fib_genfun_check(order: int = 200) -> VerificationReport:
    """Cross-check the recurrence against 1/(1 - t - t^2).

    Inverts 1 - t - t^2 as a series, compares every coefficient with the
    table, and re-derives the three-term relations F_0 = 1, F_1 - F_0 = 0,
    F_k - F_{k-1} - F_{k-2} = 0 directly on the series coefficients.
    """
    if order < 2:
        raise UsageError("the generating-function check needs order >= 2")
    coeffs = base_series(order).inverse().coefficients

    def cells():
        for k, c in enumerate(coeffs):
            yield {"k": k, "check": "coefficient"}, c, fib(k)
        for k in range(order + 1):
            if k == 0:
                residue = coeffs[0] - 1
            elif k == 1:
                residue = coeffs[1] - coeffs[0]
            else:
                residue = coeffs[k] - coeffs[k - 1] - coeffs[k - 2]
            yield {"k": k, "check": "recurrence"}, residue, 0

    return scan("genfun", {"order": order}, cells())
