"""Machine verification of the convolved-Fibonacci identities.

All eleven verifiers live here, genfun (F_n against 1/(1 - t - t^2))
included.  Every verifier compares two independently computed sides over
an explicit parameter grid, with exact equality and zero tolerance.
Right-hand sides that the statements give as nested sums are evaluated
literally, never by a shortcut, so each check really pits two different
algorithms against each other.  thm5 and cor2 run one nested-sum engine,
:func:`~convfib.convolved._nested_sum`: its outer levels on an explicit
stack, its two innermost, like thm7's l terms, as dot products.  Factors
that do not change inside a sum (F_l, C(n,l) p_l(r), (N-2i)_l) are read
once per row or grid, but every term is still formed and added.  A
verifier reads p_n(r) through a :class:`_Rows` of its grid, which reads
each row p_0(r), ..., p_n(r) once; prop1, thm3 and cor2 read their
right side's p_l(r) from the falling-factorial row instead, so no value
identity reads its values from ``conv_fib`` alone.  Each verifier is a
generator of cells in lexicographic parameter order, and
:func:`convfib.report.verifier` turns it into a function that reports the
first failing cell as the counterexample.  A verifier's signature is the
one statement of its default grid, and of its report's grid;
:func:`run_identity` runs ``verify_<name>`` and applies overrides on top
of those defaults.
"""

from __future__ import annotations

import inspect
from collections import deque
from itertools import accumulate, islice, zip_longest
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from convfib.convolved import (
    CoeffTriangle,
    TruncationTooShort,
    _falling_step,
    _nested_sum,
    _width,
    base_series,
    conv_fib,
    conv_fib_by_nested_sum,
    conv_fib_poly,
    conv_fib_poly_genfun,
    conv_fib_poly_oracle,
    conv_fib_row,
    conv_fib_row_by_recurrence,
)
from convfib.fibonacci import fib
from convfib.poly import _reduced
from convfib.report import UsageError, VerificationReport, at_least, verifier


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
    F(t,x) = F(t,r) F(t,x-r) read off at t^n/n!.  The factors p_l(r) come
    from the falling-factorial row, built from F_l, and the rest from
    :class:`_Rows`, so a ``conv_fib`` on the wrong base fails."""
    if not x_values:
        return  # no cells, so no factors to build
    rows, falling = _Rows(n_max), {r: conv_fib_row_by_recurrence(r, n_max) for r in r_values}
    for n in range(n_max + 1):
        for r in r_values:
            weights = _binomial_weights(falling[r], n)
            for x in x_values:
                yield n, r, x, rows[x][n], sum(map(mul, weights, rows[x - r][n::-1]))


@verifier("genfun")
def verify_genfun(order: int = 200) -> VerificationReport:
    """Cross-check :func:`fib` against 1/(1 - t - t^2).

    Inverts 1 - t - t^2 as a series, compares every coefficient with
    :func:`fib`, and re-derives F_k - F_{k-1} - F_{k-2} = 0 for every k
    directly on the series coefficients, read after F_{-2} = 1 and
    F_{-1} = 0, so that k = 0 and k = 1 check F_0 = 1 and F_1 = F_0.
    """
    at_least("order", order, 2)
    coeffs = base_series(order).inverse().coefficients
    for k, c in enumerate(coeffs):
        yield {"k": k, "check": "coefficient"}, c, fib(k)
    padded = (1, 0, *coeffs)  # F_{-2}, F_{-1}, then F_k at index k + 2
    for k in range(order + 1):
        yield {"k": k, "check": "recurrence"}, padded[k + 2] - padded[k + 1] - padded[k], 0


fib_genfun_check = verify_genfun  # the package's public name for it


@verifier("prop1")
def verify_prop1(n_max: int = 50, x_values: Iterable[int] = range(-3, 9)) -> VerificationReport:
    """p_n(x) = sum_l C(n,l) p_l(1) p_{n-l}(x-1) over the (n, x) grid: thm3's cells at r = 1."""
    for n, _, x, lhs, rhs in _binomial_cells(n_max, [1], x_values):
        yield {"n": n, "x": x}, lhs, rhs


@verifier("cor2")
def verify_cor2(n_max: int = 20, r_max: int = 4) -> VerificationReport:
    """p_n(r) equals the (r-1)-fold nested binomial sum over p(1) values.

    The sum runs on :func:`~convfib.convolved._nested_sum`, term by term,
    over the weights C(m,l) p_l(1) for every m <= n_max, read once per grid.
    Its p(1) values are the falling-factorial row p_n(1) = n! F_n, and the
    left side reads :class:`_Rows`.
    """
    rows, base = _Rows(n_max), conv_fib_row_by_recurrence(1, n_max)
    # only sums with a bound index read weights, and r = 1 has none
    weights = [_binomial_weights(base, m) for m in range(n_max + 1)] if r_max > 1 else []
    for n in range(n_max + 1):
        for r in range(1, r_max + 1):
            yield {"n": n, "r": r}, rows[r][n], _nested_sum(n, r - 1, base, weights)


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


def _pack(coefficients: Sequence[int], shift: int) -> int:
    """The integer polynomial with these coefficients, lowest power first,
    at x = 2^shift."""
    value = 0
    for c in reversed(coefficients):
        value = (value << shift) + c
    return value


def _unpack(value: int, shift: int) -> list[int]:
    """The coefficients, lowest power first, without trailing zeros, of the
    integer polynomial whose value at x = 2^shift is ``value``, as balanced
    digits in [-2^(shift-1), 2^(shift-1)): :func:`_pack`'s inverse there."""
    half, digits = 1 << (shift - 1), []
    while value:
        digit = ((value + half) & ((half << 1) - 1)) - half
        digits.append(digit)
        value = (value - digit) >> shift
    return digits


def _next_copy(w: Sequence[int], s: int, shift: int) -> list[int]:
    """k! [t^k] of (x+s-1) (1+2t)^2 W / (1 - t - t^2) for every k of ``w`` =
    [k! [t^k] W], entries held at x = 2^shift: with A = (1+2t)^2 W and
    (1 - t - t^2) Q = A, Q_k = A_k + k Q_{k-1} + k(k-1) Q_{k-2}, where
    A_k = W_k + 4k W_{k-1} + 4k(k-1) W_{k-2}, and Q_k times x+s-1."""
    out: list[int] = []
    w1 = w2 = q1 = q2 = 0  # the entries at k - 1 and k - 2
    for k, w0 in enumerate(w):
        q0 = w0 + k * (4 * w1 + q1) + k * (k - 1) * (4 * w2 + q2)
        out.append((q0 << shift) + (s - 1) * q0)
        w1, w2, q1, q2 = w0, w1, q0, q1
    return out


def _walk(entries: list[int], n_max: int, shift: int) -> Iterator[tuple[list[int], deque]]:
    """For N = 0 .. n_max, V_N and the copies W_N, W_{N-1}, ... that row N
    reads, newest first, from ``entries`` = [k! [t^k] F] at x = 2^shift:
    V_{N+1} = (1+2t) V_N' - 2N V_N, so V_{N+1}[k] = V_N[k+1] + 2(k-N) V_N[k],
    and W_N is one :func:`_next_copy` step from W_{N-1}.  Row N reads
    _width(N) copies, so the _width(n_max) newest hold all that rows read."""
    left, copies = entries, deque([entries], maxlen=_width(n_max))
    for n in range(n_max + 1):
        if n:
            left = [left[k + 1] + 2 * (k - n + 1) * left[k] for k in range(len(left) - 1)]
            copies.appendleft(_next_copy(copies[0][: len(left)], n, shift))
        yield left, copies


def _thm6_shift(hurwitz: list[list[int]], n_max: int, triangle: CoeffTriangle) -> int:
    """B for thm6's packing: the bit length, plus one, of a bound on every
    coefficient of every difference it tests.  Unrolled, V_N[k] is
    sum_j (k)_j C(N,j) 2^j F[N+k-j] in the entries F[m] = m! [t^m] F, and a
    copy step only adds and multiplies by k, k(k-1), 4 and x+s-1, so every
    entry of V_N and W_s is a sum of entries of F with weights that have no
    negative coefficient in x.  The same :func:`_walk` at x = 1 (shift 0)
    on the l1 norms of the entries in ``hurwitz`` therefore bounds every
    entry's l1 norm by the largest value it reaches, L, and
    V_N[k] - sum_i a_i(N) W_{N-i}[k] by L (1 + max_N sum_i |a_i(N)|)."""
    walk = _walk([sum(map(abs, h)) for h in hurwitz], n_max, 0)
    largest = max(max(*left, *copies[0]) for left, copies in walk)
    weight = 1 + max(sum(map(abs, triangle.row(n))) for n in range(n_max + 1))
    return (largest * weight).bit_length() + 1


@verifier("thm6")
def verify_thm6(
    n_max: int = 10, order: int = 30, triangle: Optional[CoeffTriangle] = None
) -> VerificationReport:
    """The derivative family, checked as a polynomial identity in x.

    Over the series ring with Q[x] coefficients, the N-th t-derivative of
    F = exp(-x log(1 - t - t^2)) must equal

        sum_i a_i(N) <x>_{N-i} (1+2t)^{N-2i} (1-t-t^2)^{-(N-i)} * F

    exactly through order - N, for every N <= n_max.  Both sides are
    checked times (1+2t)^N, whose constant term is 1, so the products first
    differ where the sides do, by the same amount.  Every series in t is
    held as its k! [t^k] coefficients: polynomials in x with integer
    coefficients over one common denominator (which clears those of the
    expansion of F that :func:`~convfib.convolved.conv_fib_poly_genfun`
    keeps), each packed into its value at x = 2^B, with B from
    :func:`_thm6_shift`.  :func:`_walk` gives the left side
    V_N = (1+2t)^N F^(N) and the copies W_s = <x>_s (1+2t)^{2s}
    (1-t-t^2)^{-s} F, and the right side is sum_i a_i(N) W_{N-i}, so no
    polynomial in x is multiplied by another.  A mismatch is reported at
    its lowest power k of t, as the t^k coefficient of F^(N),
    (k+N)! [t^(k+N)] F / k!, and that less the difference of the products
    there, the one entry that is unpacked.
    """
    if order < n_max:
        raise TruncationTooShort(f"need order >= {n_max}, got {order}")
    if triangle is None:
        triangle = CoeffTriangle.from_recurrence(n_max)

    # k! [t^k] F = p_k(x), k <= order, as integer numerators over one common denominator
    coefficients = conv_fib_poly_genfun(order).coefficients
    facts = [factorial(k) for k in range(order + 1)]
    den = lcm(*(p._den // gcd(p._den, f) for f, p in zip(facts, coefficients)))
    hurwitz = []
    for f, p in zip(facts, coefficients):
        scale = f * den // p._den
        hurwitz.append([c * scale for c in p._nums])
    shift = _thm6_shift(hurwitz, n_max, triangle)

    for n, (left, copies) in enumerate(_walk([_pack(h, shift) for h in hurwitz], n_max, shift)):
        row = triangle.row(n)
        # one cell per N; a mismatch is reported at its lowest power of t
        for k, (v, *column) in enumerate(zip(left, *islice(copies, len(row)))):
            diff = v - sum(map(mul, row, column))
            if diff:
                break
        nums, scale = hurwitz[k + n], den * factorial(k)
        lhs = rhs = _reduced(list(nums), scale)
        if diff:
            rhs = [c - d for c, d in zip_longest(nums, _unpack(diff, shift), fillvalue=0)]
            rhs = _reduced(rhs, scale)
        yield {"N": n, "t_power": k}, lhs, rhs


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
    stops varying: <x>_m (m <= n_max) and (N-2i)_l (l <= k_max) once per
    grid, C(k,l) 2^l (N-2i)_l once per (k, N, i), and a_i(N) <x>_{N-i}
    factored out of the cell's dot product of those with p_{k-l}(x+N-i).
    """
    if triangle is None:
        triangle = CoeffTriangle.from_recurrence(n_max)
    if not x_values:
        return  # no cells, so no factors to build
    rising = {x: list(accumulate(range(x, x + n_max), mul, initial=1)) for x in x_values}
    falling = {  # (v)_0 .. (v)_{k_max} for every value v = N-2i, -1 <= v <= n_max
        v: list(accumulate(range(v, v - k_max, -1), mul, initial=1)) for v in range(-1, n_max + 1)
    }
    rows = _Rows(k_max + n_max)
    for k in range(k_max + 1):
        scaled = [comb(k, l) * 2**l for l in range(k + 1)]
        for n in range(n_max + 1):
            row = triangle.row(n)
            weights = [list(map(mul, scaled, falling[n - 2 * i])) for i in range(len(row))]
            for x in x_values:
                rhs = sum(
                    a * rising[x][n - i] * sum(map(mul, w, rows[x + n - i][k::-1]))
                    for i, (a, w) in enumerate(zip(row, weights))
                )
                yield {"k": k, "N": n, "x": x}, rows[x][k + n], rhs


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
    equal p_N(x).  Without a triangle, row N is the one
    :func:`~convfib.convolved.conv_fib_poly` reads in product form.
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
        tail = sum(a * factorial(n - i) for i, a in enumerate(row[1:], 1))
        yield {"N": n, "check": "fib-minus-one"}, factorial(n) * (fib(n) - 1), tail
        yield {"N": n, "check": "value-at-one"}, rows[1][n], row[0] * factorial(n) + tail


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
    verifier = globals()[f"verify_{name}"]
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
