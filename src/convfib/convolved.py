"""Convolved Fibonacci numbers p_n(x) and their coefficient triangle.

The numbers are defined by the generating function

    (1 - t - t**2) ** (-x)  =  sum_n p_n(x) t**n / n!

For integer arguments r this module computes p_n(r) four independent
ways: by the three-term recurrence

    p_{n+1}(r) = (n + r) p_n(r) + n(n + 2r - 1) p_{n-1}(r),  p_0 = 1, p_1 = r,

which the ODE (1 - t - t**2) F' = x(1 + 2t) F gives (the workhorse behind
:func:`conv_fib`); by extracting series coefficients; by literally
evaluating the nested Fibonacci convolution sums; and by iterating the
falling-factorial recurrence p_n(r+1) = sum_l (n)_l p_{n-l}(r) F_l.

Repeated t-differentiation of the generating function produces a triangle
of nonnegative integers a_i(N) with a_0(N) = 1, a zero diagonal at
i = (N+1)/2 for odd N, and row step

    a_i(N+1) = 2(N - 2i + 2) a_{i-1}(N) + a_i(N).

The same numbers have a closed form as i-fold nested sums

    a_i(N) = 2**i * sum_{k_i=1}^{N-2i+1} sum_{k_{i-1}=1}^{k_i+1} ...
             sum_{k_1=1}^{k_2+1} (k_i * ... * k_1)

and give p_N(x) = sum_i a_i(N) <x>_{N-i} in the rising-factorial basis.
A single row also has the product form a_i(N) = N!/(i!(N-2i)!), from which
:func:`conv_fib_poly` reads row N without rows 0 .. N-1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import factorial
from operator import mul
from typing import Iterator, Sequence

from convfib.fibonacci import fib
from convfib.poly import Poly
from convfib.report import at_least
from convfib.series import Series


class IndexOutOfTriangle(IndexError):
    """Asked for a_i(N) with i outside 0 <= i <= floor((N+1)/2), or built a
    triangle whose row N holds no entry or more than floor((N+1)/2) + 1."""


def _exact_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {value}")
    return value.numerator


# -- integer-argument values ------------------------------------------------

def base_series(order: int) -> Series:
    """1 - t - t^2 as a rational series of the given order."""
    return Series.from_polynomial((1, -1, -1), order)


def conv_fib_row(r: int, n_max: int) -> list[int]:
    """[p_0(r), ..., p_{n_max}(r)] from a single series power, its t^n
    coefficient times n!, with n! kept as one running product.

    For r <= 0 the power (1 - t - t^2)**(-r) is a polynomial of degree -2r;
    each product stops at its factors' degree sum, so it costs O(r^2), not O(n_max r),
    and the running factorial stops at that degree too: the rest of the row is 0.
    """
    at_least("n_max", n_max, 0)
    last = n_max if r > 0 else min(n_max, -2 * r)
    power = base_series(n_max) ** (-r)
    factorials = accumulate(range(1, last + 1), mul, initial=1)
    row = [_exact_int(c * f) for c, f in zip(power.coefficients, factorials)]
    return row + [0] * (n_max - last)


def _extend_holonomic(row: list[int], r: int, n: int) -> list[int]:
    """Append p_m(r) to ``row`` = [p_0(r), ..., p_k(r)], k >= 1, for m up to n
    by the three-term step, one integer step per value; returns ``row``."""
    for m in range(len(row) - 1, n):
        row.append((m + r) * row[m] + m * (m + 2 * r - 1) * row[m - 1])
    return row


_rows: dict[int, list[int]] = {}
_rows_lock = threading.Lock()


def conv_fib(n: int, r: int) -> int:
    """p_n(r) = n! * [t^n] (1 - t - t^2)**(-r) for any signed integer r.

    Values are cached per argument; a miss extends the row under a lock by
    the three-term recurrence, exactly as far as asked.  Rows only grow, so
    a reader that finds index n present reads a finished value.
    """
    at_least("n", n, 0)
    row = _rows.get(r)
    if row is None or len(row) <= n:
        with _rows_lock:
            row = _rows.setdefault(r, [1, r])
            _extend_holonomic(row, r, n)
    return row[n]


def _nested_sum(n: int, levels: int, base: Sequence[int], weights: Sequence[Sequence[int]]) -> int:
    """sum_{l_1} w(n)[l_1] sum_{l_2} w(n-l_1)[l_2] ... base[n-l_1-...-l_levels] over l_j >= 0,
    with w(m) = ``weights[m]`` read at l <= m, term by term: no subsum is shared.  The outer
    levels - 2 indices run on an explicit stack of open prefixes, each with its weights' product,
    and the two innermost as C-level dot products with base[m::-1], built once per call.  With
    L >= 2 levels a call pops C(n+L-1, L-2) stack entries and forms C(n+L, L) innermost
    products, one per index tuple: at n = 1, L(L-1)/2 pops for L+1 tuples of L+1 factors."""
    if levels < 2:
        return base[n] if levels == 0 else sum(map(mul, weights[n], base[n::-1]))
    rev = [base[m::-1] for m in range(n + 1)]
    total, stack = 0, [(n, levels - 2, 1)]  # (m, outer levels still open, weights' product)
    while stack:
        m, depth, w = stack.pop()
        if depth:
            stack += [(m - l, depth - 1, w * weights[m][l]) for l in range(m + 1)]
        else:  # the two innermost levels, from the one-level sums at m - l for l = 0 .. m
            ones = map(sum, map(map, repeat(mul), weights[m::-1], rev[m::-1]))
            total += w * sum(map(mul, weights[m], ones))
    return total


def conv_fib_by_nested_sum(n: int, r: int) -> int:
    """p_n(r) for r >= 1 by the literal (r-1)-fold Fibonacci sum.

    Evaluates n! * sum_{l_1} ... sum_{l_{r-1}} F_{l_1} ... F_{l_{r-1}}
    F_{n - l_1 - ... - l_{r-1}} exactly as written, term by term, by
    :func:`_nested_sum`; the cost grows like n**(r-1).  F_0 .. F_n are read
    from :func:`fib` once per call, but every term is still formed and added.
    """
    at_least("r", r, 1)
    at_least("n", n, 0)
    fibs = [fib(l) for l in range(n + 1)]
    return factorial(n) * _nested_sum(n, r - 1, fibs, [fibs] * (n + 1))


def _falling_step(row: list[int], fibs: list[int], n: int) -> int:
    """p_n(j+1) = sum_l (n)_l p_{n-l}(j) F_l from ``row`` = [p_0(j), ..., p_n(j), ...]
    and ``fibs`` = [F_0, ..., F_n, ...]."""
    acc, falling = 0, 1  # falling = (n)_l, one factor more after each term
    for l in range(n + 1):
        acc += falling * row[n - l] * fibs[l]
        falling *= n - l
    return acc


def _falling_rows(n_max: int) -> Iterator[list[int]]:
    """The rows p(1), p(2), ..., each [p_0(r), ..., p_{n_max}(r)]: first
    p_n(1) = n! F_n, then each row by one :func:`_falling_step` per value
    from the row before.  F_0 .. F_{n_max} are read from :func:`fib` once."""
    at_least("n_max", n_max, 0)
    fibs = [fib(n) for n in range(n_max + 1)]
    row = [factorial(n) * f for n, f in enumerate(fibs)]
    while True:
        yield row
        row = [_falling_step(row, fibs, n) for n in range(n_max + 1)]


def conv_fib_row_by_recurrence(r: int, n_max: int) -> list[int]:
    """[p_0(r), ..., p_{n_max}(r)] for r >= 1 by iterating the step
    p_n(j+1) = sum_l (n)_l p_{n-l}(j) F_l up from the row p_n(1) = n! F_n:
    the r-th row of :func:`_falling_rows`, which refuses n_max < 0.
    """
    at_least("r", r, 1)
    return next(islice(_falling_rows(n_max), r - 1, None))


# -- factorial powers --------------------------------------------------------

def factorial_powers(n: int | Fraction, l: int) -> tuple[int | Fraction, int | Fraction]:
    """((n)_l, <n>_l): the falling product n(n-1)...(n-l+1) and the rising
    product n(n+1)...(n+l-1); both are 1 when l = 0.
    """
    at_least("l", l, 0)
    falling = 1
    rising = 1
    for j in range(l):
        falling *= n - j
        rising *= n + j
    return falling, rising


def rising_factorial_poly(k: int) -> Poly:
    """<x>_k = x(x+1)...(x+k-1) as a polynomial; <x>_0 = 1.

    The plain product of the k factors (x + j), built afresh on each call.
    """
    at_least("k", k, 0)
    out = Poly.one()
    for j in range(k):
        out = out * Poly((j, 1))
    return out


# -- the coefficient triangle -------------------------------------------------

def _width(n: int) -> int:
    """The number of entries in row N: i = 0 .. floor((N+1)/2)."""
    return (n + 1) // 2 + 1


def _chain_sum(depth: int, upper: int, memo: dict[tuple[int, int], int]) -> int:
    """The nested sum over chains k_depth <= upper, k_{j} <= k_{j+1} + 1 of
    the product of all k_j.  Empty ranges contribute 0; depth 0 is 1.
    Repeated subsums are shared through ``memo``.
    """
    if depth == 0:
        return 1
    key = (depth, upper)
    cached = memo.get(key)
    if cached is None:
        cached = sum(k * _chain_sum(depth - 1, k + 1, memo) for k in range(1, upper + 1))
        memo[key] = cached
    return cached


def _closed_entry(n: int, i: int, memo: dict[tuple[int, int], int]) -> int:
    """a_i(N) by the nested-sum closed form; ``memo`` shares subsums."""
    return 2**i * _chain_sum(i, n - 2 * i + 1, memo)


def triangle_closed(n: int, i: int) -> int:
    """a_i(N) from the closed nested-sum form, independent of the recurrence."""
    at_least("row index", n, 0)
    if not 0 <= i < _width(n):
        raise IndexOutOfTriangle(f"a_{i}({n}) lies outside the triangle")
    memo: dict[tuple[int, int], int] = {}
    # Fill the top call's memo keys depth by depth, each a full sum, so that call recurses
    # only a few frames deep; an empty top range (the odd-row zero) fills none.
    for d in range(1, i if n >= 2 * i else 0):
        _chain_sum(d, n - i - d + 1, memo)
    return _closed_entry(n, i, memo)


def _next_row(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row n+1 from row n by a_i(n+1) = 2(n - 2i + 2) a_{i-1}(n) + a_i(n).

    Entries beyond the stored row count as zero, which reproduces the
    odd-row zero diagonal without special-casing.
    """
    row = [1]
    for i in range(1, _width(n + 1)):
        above = prev[i] if i < len(prev) else 0
        row.append(2 * (n - 2 * i + 2) * prev[i - 1] + above)
    return tuple(row)


def _recurrence_rows(n_max: int) -> Iterator[tuple[int, ...]]:
    """Rows 0 .. n_max of the triangle, one at a time: a_0(0) = 1, then the row step."""
    return accumulate(range(n_max), _next_row, initial=(1,))


def _product_row(n: int) -> tuple[int, ...]:
    """Row N alone, in product form a_i(N) = N!/(i!(N-2i)!): a_0(N) = 1 and
    a_{i+1}(N) = a_i(N) (N-2i)(N-2i-1)/(i+1), an exact division.  For odd N
    the last step has the factor N-2i-1 = 0, which is the zero diagonal."""
    row = [1]
    for i in range(_width(n) - 1):
        row.append(row[i] * (n - 2 * i) * (n - 2 * i - 1) // (i + 1))
    return tuple(row)


@dataclass(frozen=True)
class CoeffTriangle:
    """Rows of a_i(N) for 0 <= N <= n_max, 0 <= i <= floor((N+1)/2); a row
    with no entry or with more entries raises :class:`IndexOutOfTriangle`."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for n, row in enumerate(self.rows):
            if not 0 < len(row) <= _width(n):
                raise IndexOutOfTriangle(f"row {n} has {len(row)} entries, not 1..{_width(n)}")

    @classmethod
    def from_recurrence(cls, n_max: int) -> CoeffTriangle:
        """Seed a_0(0) = 1 and apply the row step :func:`_next_row`."""
        at_least("n_max", n_max, 0)
        return cls(tuple(_recurrence_rows(n_max)))

    @classmethod
    def from_closed_form(cls, n_max: int) -> CoeffTriangle:
        """Every entry from the nested-sum closed form, sharing subsums."""
        at_least("n_max", n_max, 0)
        memo: dict[tuple[int, int], int] = {}
        return cls(tuple(
            tuple(_closed_entry(n, i, memo) for i in range(_width(n)))
            for n in range(n_max + 1)
        ))

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple[int, ...]:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"row {n} not computed (have 0..{self.n_max})")
        return self.rows[n]

    def entry(self, n: int, i: int) -> int:
        row = self.row(n)
        if not 0 <= i < len(row):
            raise IndexOutOfTriangle(f"a_{i}({n}) lies outside the triangle")
        return row[i]

    def with_entry(self, n: int, i: int, value: int) -> CoeffTriangle:
        """A copy with one entry replaced (for sensitivity experiments)."""
        self.entry(n, i)  # bounds check
        rows = list(self.rows)
        row = list(rows[n])
        row[i] = value
        rows[n] = tuple(row)
        return CoeffTriangle(tuple(rows))


def triangle_recurrence(n_max: int) -> CoeffTriangle:
    """The triangle for all rows N <= n_max by the row recurrence."""
    return CoeffTriangle.from_recurrence(n_max)


# -- polynomial forms ----------------------------------------------------------

@dataclass(frozen=True)
class RisingFactorialPoly:
    """p_N(x) carried in both bases.

    ``rising[i]`` multiplies <x>_{N-i}; ``monomial`` is the expanded
    polynomial.  The two views agree at every rational point.
    """

    n: int
    rising: tuple[int, ...]
    monomial: Poly

    def evaluate(self, point: int | Fraction) -> Fraction:
        return self.monomial.evaluate(point)

    def evaluate_rising(self, point: int | Fraction) -> Fraction:
        """Evaluate from the rising-factorial view (no expansion)."""
        value = Fraction(point)
        return sum(
            (a * factorial_powers(value, self.n - i)[1] for i, a in enumerate(self.rising)),
            Fraction(0),
        )

    def to_json_dict(self) -> dict[str, object]:
        return {
            "N": self.n,
            "rising": [str(a) for a in self.rising],
            "monomial": [str(c) for c in self.monomial.coefficients],
        }


def conv_fib_poly(n: int, triangle: CoeffTriangle | None = None) -> RisingFactorialPoly:
    """p_N(x) = sum_i a_i(N) <x>_{N-i}, expanded to the monomial basis by Horner's
    rule c_0 + x(c_1 + (x+1)(c_2 + ... + (x+N-1) c_N)), c_{N-i} = a_i(N), else 0.

    Without a triangle, row N alone is read in product form, one entry from
    the one before (:func:`_product_row`), with no rows 0 .. N-1.  Every
    Horner step runs on a plain list of integer coefficients, and one Poly
    is built at the end.
    """
    at_least("n", n, 0)
    rising = _product_row(n) if triangle is None else triangle.row(n)
    coeffs = [rising[0]]  # lowest power of x first
    for m in range(n - 1, -1, -1):
        coeffs = [m * c + lower for c, lower in zip([*coeffs, 0], [0, *coeffs])]  # (x+m) c
        if n - m < len(rising):
            coeffs[0] += rising[n - m]
    return RisingFactorialPoly(n, rising, Poly(coeffs))


# log(1 - t - t^2) over Q and F, at the largest order so far
_genfun: tuple[Series, Series] | None = None
_genfun_lock = threading.Lock()


def conv_fib_poly_genfun(order: int) -> Series:
    """F = exp(x * (-log(1 - t - t^2))) = sum_N p_N(x) t^N / N! over Q[x],
    through t^order, built symbolically with no triangle involved.

    The process keeps the log and the expansion at the largest order asked
    for and answers a smaller order with its truncation, which is exact:
    each exp/log coefficient depends only on lower ones, and the log's do
    not depend on the order.  A larger order, under a lock, extends the
    kept log, forms the exponent -x log in full and extends the kept
    expansion, so each log and F coefficient is computed once per process.
    """
    global _genfun
    at_least("order", order, 0)
    if _genfun is None or _genfun[1].order < order:
        with _genfun_lock:
            log, gen = _genfun or (None, None)
            if gen is None or gen.order < order:
                log = base_series(order).log(log)
                _genfun = (log, (log * -Poly.x()).exp(gen))
    return _genfun[1].truncate(order)  # kept expansions only grow


def conv_fib_poly_oracle(n: int, order: int) -> Poly:
    """p_N(x) built symbolically, with no triangle involved: n! times the
    t^n coefficient of :func:`conv_fib_poly_genfun` at this order, read
    from the one expansion it keeps.  An order below n is refused
    through :func:`~convfib.report.at_least`.
    """
    at_least("n", n, 0)
    at_least("order", order, n)
    return conv_fib_poly_genfun(order).coefficient(n) * factorial(n)
