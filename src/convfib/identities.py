"""Machine verification of the convolved-Fibonacci identities.

Every verifier compares two independently computed sides over an explicit
parameter grid, with exact equality and zero tolerance.  Right-hand sides
that the statements give as nested sums are evaluated by literal recursive
loops mirroring the summation structure, never by a shortcut, so each
check really pits two different algorithms against each other.  Factors
that do not change inside a sum (F_l, C(n,l) p_l(r), (N-2i)_l) are read
once per row or grid, but every term is still formed and added.  A
verifier reads p_n(r) only through a :class:`_Rows` of its grid, which
reads each row p_0(r), ..., p_n(r) once.  Each verifier is a generator of
cells in lexicographic parameter order, and :func:`convfib.report.verifier`
turns it into a function that reports the first failing cell as the
counterexample.  A verifier's signature is the one statement of its
default grid, and of its report's grid; :func:`run_identity` runs a
verifier by name and applies overrides on top of those defaults.
"""

from __future__ import annotations

import inspect
from math import comb, factorial
from operator import add, mul
from typing import Iterable, Iterator, Optional

from convfib.convolved import (
    CoeffTriangle,
    TruncationTooShort,
    _falling_step,
    conv_fib,
    conv_fib_by_nested_sum,
    conv_fib_poly,
    conv_fib_poly_genfun,
    conv_fib_poly_oracle,
    conv_fib_row,
    factorial_powers,
    rising_factorial_poly,
)
from convfib.fibonacci import base_series, fib, fib_genfun_check
from convfib.poly import Poly, _product
from convfib.report import UsageError, VerificationReport, at_least, verifier
from convfib.series import Series


class _Rows(dict):
    """r -> [p_0(r), ..., p_{n_max}(r)], each row read on first use, once.

    The values come through the module global ``conv_fib``, looked up when
    a row is read, so a rebound global is the one read.
    """

    def __init__(self, n_max: int):
        super().__init__()
        self.n_max = n_max

    def __missing__(self, r: int) -> list[int]:
        row = self[r] = [conv_fib(n, r) for n in range(self.n_max + 1)]
        return row


def _binomial_weights(row: list[int], n: int) -> list[int]:
    """[C(n,l) p_l(r) for l = 0 .. n] from ``row`` = [p_0(r), ...], the
    factors that a row of cells shares."""
    return [comb(n, l) * p for l, p in enumerate(row[: n + 1])]


def _binomial_cells(
    n_max: int, r_values: Iterable[int], x_values: list[int]
) -> Iterator[tuple[int, int, int, int, int]]:
    """(n, r, x, p_n(x), sum_l C(n,l) p_l(r) p_{n-l}(x-r)) for n <= n_max,
    then r in ``r_values``, then x in ``x_values``: the product rule
    F(t,x) = F(t,r) F(t,x-r) read off at t^n/n!."""
    if not x_values:
        return  # no cells, so no factors to build
    rows = _Rows(n_max)
    for n in range(n_max + 1):
        for r in r_values:
            weights = _binomial_weights(rows[r], n)
            for x in x_values:
                yield n, r, x, rows[x][n], sum(map(mul, weights, rows[x - r][n::-1]))


@verifier("prop1")
def verify_prop1(n_max: int = 50, x_values: Iterable[int] = range(-3, 9)) -> VerificationReport:
    """p_n(x) = sum_l C(n,l) p_l(1) p_{n-l}(x-1) over the (n, x) grid: thm3's cells at r = 1."""
    for n, _, x, lhs, rhs in _binomial_cells(n_max, [1], x_values):
        yield {"n": n, "x": x}, lhs, rhs


def _cor2_nested(n: int, levels: int, row: list[int], weights: list[list[int]]) -> int:
    """The literal nested binomial sum with ``levels`` bound indices over
    ``row`` = [p_0(1), ..., p_n(1), ...], where ``weights[m]`` is
    :func:`_binomial_weights` ``(row, m)`` for every m <= n."""
    if levels == 0:
        return row[n]
    return sum(w * _cor2_nested(n - l, levels - 1, row, weights) for l, w in enumerate(weights[n]))


@verifier("cor2")
def verify_cor2(n_max: int = 20, r_max: int = 4) -> VerificationReport:
    """p_n(r) equals the (r-1)-fold nested binomial sum over p(1) values."""
    rows = _Rows(n_max)
    # only sums with a bound index read weights, and r = 1 has none
    weights = [_binomial_weights(rows[1], m) for m in range(n_max + 1)] if r_max > 1 else []
    for n in range(n_max + 1):
        for r in range(1, r_max + 1):
            yield {"n": n, "r": r}, rows[r][n], _cor2_nested(n, r - 1, rows[1], weights)


@verifier("thm3")
def verify_thm3(
    n_max: int = 40, r_max: int = 6, x_values: Iterable[int] = range(-2, 9)
) -> VerificationReport:
    """p_n(x) = sum_l C(n,l) p_l(r) p_{n-l}(x-r).

    The paper also states the ordering sum_l C(n,l) p_{n-l}(r) p_l(x-r).
    Since C(n,l) = C(n,n-l), the substitution l -> n-l maps it onto this
    sum term for term, whatever values p takes, so it is not summed again.
    """
    for n, r, x, lhs, rhs in _binomial_cells(n_max, range(1, r_max + 1), x_values):
        yield {"n": n, "r": r, "x": x}, lhs, rhs


@verifier("cor4")
def verify_cor4(n_max: int = 60, r_max: int = 6) -> VerificationReport:
    """p_n(r+1) = sum_l (n)_l p_{n-l}(r) F_l, the step the falling-factorial row iterates."""
    rows, fibs = _Rows(n_max), [fib(l) for l in range(n_max + 1)]
    for n in range(n_max + 1):
        for r in range(1, r_max + 1):
            yield {"n": n, "r": r}, rows[r + 1][n], _falling_step(rows[r], fibs, n)


@verifier("thm5")
def verify_thm5(n_max: int = 25, r_max: int = 4) -> VerificationReport:
    """p_n(r+1)/n! equals the r-fold nested Fibonacci convolution sum."""
    rows = _Rows(n_max)
    for n in range(n_max + 1):
        for r in range(1, r_max + 1):
            yield {"n": n, "r": r}, rows[r + 1][n], conv_fib_by_nested_sum(n, r + 1)


@verifier("thm6")
def verify_thm6(
    n_max: int = 10, order: int = 30, triangle: Optional[CoeffTriangle] = None
) -> VerificationReport:
    """The derivative family, checked as a polynomial identity in x.

    Over the series ring with Q[x] coefficients, the N-th t-derivative of
    F = exp(-x log(1 - t - t^2)) must equal

        sum_i a_i(N) <x>_{N-i} (1+2t)^{N-2i} (1-t-t^2)^{-(N-i)} * F

    exactly through order - N, for every N <= n_max.  F is read from the
    expansion that :func:`~convfib.convolved.conv_fib_poly_genfun` keeps,
    and the left side differentiates it once per N.  The right side is the
    polynomial bracket sum_i a_i(N) <x>_{N-i} (1+2t)^{N-2i} (1-t-t^2)^i
    times G = F / (1-t-t^2)^N, kept through order - N: each G is the one
    before, cut to that order and divided once by 1 - t - t^2.  Each <x>_k
    is built once per check, and so are the powers of (1+2t) and of
    1 - t - t^2, each from the one before.  Those powers have integer
    coefficients, so they are plain integer lists, and each t^j coefficient
    of the bracket is one integer combination of the <x>_k.  The one
    product over Q[x] per N is the bracket times G.
    """
    if order < n_max:
        raise TruncationTooShort(f"need order >= {n_max}, got {order}")
    if triangle is None:
        triangle = CoeffTriangle.from_recurrence(n_max)

    gen = conv_fib_poly_genfun(order)
    base = base_series(order).lift()
    rising = [[int(c) for c in rising_factorial_poly(k).coefficients] for k in range(n_max + 1)]
    # integer coefficient lists in t, lowest power first: (1 - t - t^2)^i for
    # i = 0 .. floor((n_max+1)/2), the largest i in a row
    base_pows = [[1]]
    for _ in range((n_max + 1) // 2):
        base_pows.append(_product(base_pows[-1], (1, -1, -1)))
    # and (1+2t)^e for e = -1 .. n_max; -1 occurs at i = (N+1)/2 for odd N,
    # where the triangle holds a zero unless it was altered, and (1+2t)^-1
    # has the integer coefficients (-2)^k
    two_t = Series.from_polynomial((1, 2), order)
    two_t_pows = {-1: [int(c) for c in two_t.inverse().coefficients], 0: [1]}
    for e in range(1, n_max + 1):
        two_t_pows[e] = _product(two_t_pows[e - 1], (1, 2))

    lhs = quotient = gen
    for n in range(n_max + 1):
        m = order - n
        if n:
            lhs = lhs.derivative()
            quotient = quotient.truncate(m) / base
        bracket = [[0] * (n + 1) for _ in range(m + 1)]  # t^j -> coefficients in x
        for i, a in enumerate(triangle.row(n)):
            if a:
                t_coeffs = _product(two_t_pows[n - 2 * i], base_pows[i])[: m + 1]
                for row, c in zip(bracket, t_coeffs):
                    if c:
                        row[: n - i + 1] = map(add, row, [a * c * r for r in rising[n - i]])
        rhs = Series([Poly(row) for row in bracket]) * quotient
        # one cell per N; a mismatch is reported at its lowest power of t
        k = next((k for k in range(m + 1) if lhs.coefficient(k) != rhs.coefficient(k)), 0)
        yield {"N": n, "t_power": k}, lhs.coefficient(k), rhs.coefficient(k)


@verifier("thm7")
def verify_thm7(
    k_max: int = 20,
    n_max: int = 8,
    x_values: Iterable[int] = range(1, 6),
    triangle: Optional[CoeffTriangle] = None,
) -> VerificationReport:
    """p_{k+N}(x) against the double sum over the triangle row N,

        sum_i sum_l C(k,l) (N-2i)_l 2^l a_i(N) <x>_{N-i} p_{k-l}(x+N-i),

    evaluated literally, term by term.  Each factor is read once where it
    stops varying: <x>_m for every x and m <= n_max once per grid,
    C(k,l) 2^l once per k, a_i(N) <x>_{N-i} once per i, and (N-2i)_l as a
    running product over l.
    """
    if triangle is None:
        triangle = CoeffTriangle.from_recurrence(n_max)
    if not x_values:
        return  # no cells, so no factors to build
    rising = {x: [factorial_powers(x, m)[1] for m in range(n_max + 1)] for x in x_values}
    values, inner = _Rows(k_max + n_max), _Rows(k_max)
    for k in range(k_max + 1):
        scaled = [comb(k, l) * 2**l for l in range(k + 1)]
        for n in range(n_max + 1):
            for x in x_values:
                rhs = 0
                for i, a in enumerate(triangle.row(n)):
                    outer = a * rising[x][n - i]
                    row = inner[x + n - i]
                    falling = 1  # (N-2i)_l, one factor more per term
                    for l in range(k + 1):
                        if l:
                            falling *= n - 2 * i - l + 1
                        rhs += scaled[l] * falling * outer * row[k - l]
                yield {"k": k, "N": n, "x": x}, values[x][k + n], rhs


@verifier("cor8")
def verify_cor8(
    n_max: int = 40,
    x_values: Iterable[int] = range(-5, 11),
    triangle: Optional[CoeffTriangle] = None,
) -> VerificationReport:
    """p_N(x) = sum_i a_i(N) <x>_{N-i}, as polynomials and at sample points.

    For each N the monomial expansion of the rising-factorial form must
    coincide with the triangle-free symbolic construction, n! [t^N] of the
    one expansion that :func:`~convfib.convolved.conv_fib_poly_genfun`
    keeps, read at order n_max, and its value at every x in the grid must
    equal p_N(x).  Without a triangle, row N is
    the one :func:`~convfib.convolved.conv_fib_poly` rolls for itself.
    """
    at_least("order", n_max, 0)  # n_max is the order of the expansion the oracle reads
    rows = _Rows(n_max)
    for n in range(n_max + 1):
        poly = conv_fib_poly(n, triangle)
        oracle = conv_fib_poly_oracle(n, n_max)
        yield {"N": n, "check": "polynomial"}, poly.monomial, oracle
        for x in x_values:
            yield {"N": n, "x": x}, poly.evaluate(x), rows[x][n]


@verifier("cor9")
def verify_cor9(n_max: int = 50, triangle: Optional[CoeffTriangle] = None) -> VerificationReport:
    """N!(F_N - 1) = sum_{i>=1} a_i(N) (N-i)!, plus the i = 0 completion.

    The completion re-adds the leading N! term: p_N(1) must equal
    sum_{i>=0} a_i(N) (N-i)!.  Triangle entries come from the closed
    nested-sum form unless an explicit triangle is supplied.
    """
    if triangle is None:
        triangle = CoeffTriangle.from_closed_form(n_max)
    rows = _Rows(n_max)
    for n in range(n_max + 1):
        row = triangle.row(n)
        yield (
            {"N": n, "check": "fib-minus-one"},
            factorial(n) * (fib(n) - 1),
            sum(a * factorial(n - i) for i, a in enumerate(row) if i >= 1),
        )
        yield (
            {"N": n, "check": "value-at-one"},
            rows[1][n],
            sum(a * factorial(n - i) for i, a in enumerate(row)),
        )


@verifier("holo")
def verify_holo(n_max: int = 40, r_max: int = 9) -> VerificationReport:
    """p_n(r) from the cached three-term recurrence against n! [t^n] of the
    series power (1 - t - t^2)**(-r), one power per r in [-r_max, r_max]."""
    rows = _Rows(n_max)
    for r in range(-r_max, r_max + 1):
        row = conv_fib_row(r, n_max)
        for n in range(n_max + 1):
            yield {"r": r, "n": n}, rows[r][n], row[n]


# -- uniform runner -----------------------------------------------------------

# The order of `verify all`.  Each default grid is the verifier's signature.
IDENTITY_NAMES = (
    "genfun", "prop1", "cor2", "thm3", "cor4", "thm5", "thm6", "thm7", "cor8", "cor9", "holo"
)


def run_identity(
    name: str,
    *,
    n_max: Optional[int] = None,
    big_n_max: Optional[int] = None,
    k_max: Optional[int] = None,
    r_max: Optional[int] = None,
    order: Optional[int] = None,
    x_min: Optional[int] = None,
    x_max: Optional[int] = None,
) -> VerificationReport:
    """Run one named verifier on the default grid of its signature, with
    optional overrides.

    ``big_n_max`` overrides the row/derivative bound of the identities
    indexed by N; ``n_max`` overrides the series-index bound of the rest.
    ``x_min``/``x_max`` replace an end of the default ``x_values`` range.
    Overrides that an identity does not use are ignored.  An inverted
    x range raises :class:`~convfib.report.UsageError`.
    """
    if name not in IDENTITY_NAMES:
        raise KeyError(f"unknown identity {name!r} (choose from {', '.join(IDENTITY_NAMES)})")
    # Looked up at call time, so a rebound module global is the one called.
    verifier = globals()["fib_genfun_check" if name == "genfun" else f"verify_{name}"]
    parameters = inspect.signature(verifier).parameters
    overrides = {
        # triangle rows are indexed by N, so a verifier that takes one is bounded by N
        "n_max": big_n_max if "triangle" in parameters else n_max,
        "k_max": k_max,
        "r_max": r_max,
        "order": order,
    }
    params = {
        key: value for key, value in overrides.items() if key in parameters and value is not None
    }
    if "x_values" in parameters:
        default = parameters["x_values"].default
        lo = default[0] if x_min is None else x_min
        hi = default[-1] if x_max is None else x_max
        if lo > hi:
            raise UsageError(f"x_min {lo} exceeds x_max {hi}")
        params["x_values"] = range(lo, hi + 1)
    return verifier(**params)
